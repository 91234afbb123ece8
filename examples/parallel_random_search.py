"""Parallel random search over a vectorized environment pool.

Demonstrates the vector API end to end: one LLVM environment is ``fork()``-ed
into an N-worker :class:`VecCompilerEnv`, and random search evaluates one
candidate pass sequence per worker per round, batched on the pool's thread
pool (``backend="thread"``).

Usage::

    python examples/parallel_random_search.py --benchmark cbench-v1/qsort --workers 4
"""

import argparse

import repro
from repro.autotuning import RandomSearch
from repro.core.vector import VecCompilerEnv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="cbench-v1/qsort")
    parser.add_argument("--workers", type=int, default=4, help="Environment pool size")
    parser.add_argument("--steps", type=int, default=400, help="Total search step budget")
    parser.add_argument("--patience", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    env = repro.make(
        "llvm-v0",
        benchmark=args.benchmark,
        reward_space="IrInstructionCount",
    )
    tuner = RandomSearch(seed=args.seed, patience=args.patience)
    with VecCompilerEnv(env, n=args.workers, backend="thread") as vec:
        result = tuner.tune(vec, max_steps=args.steps)
        print(f"benchmark:     {result.benchmark}")
        print(f"workers:       {vec.num_envs}")
        print(f"episodes:      {result.episodes}")
        print(f"steps:         {result.steps}")
        print(f"walltime:      {result.walltime:.2f}s")
        print(f"best reward:   {result.best_reward:.4f}")

        # Replay the best sequence on worker 0 to show the commandline.
        root = vec.workers[0]
        root.reset()
        if result.best_actions:
            root.multistep(result.best_actions)
        print(f"best commandline: {root.commandline()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
