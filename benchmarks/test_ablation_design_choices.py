"""Ablations of the architectural design choices the paper attributes its
performance to (Section VII-A discussion).

Two ablations:

1. *Benchmark cache*: environment initialization with the service's benchmark
   cache enabled (the default) vs. disabled (every reset re-resolves and
   re-generates the benchmark), quantifying the "amortized O(1) environment
   initialization" claim.
2. *fork() vs replay*: implementing one step of backtracking greedy search by
   forking the environment vs. replaying the action prefix from reset,
   quantifying why the lightweight deep-copy operator matters for
   backtracking searches.
"""

import random
import time

from conftest import bench_scale, save_results, save_table

import repro
from repro.llvm.datasets import suites


def test_ablation_benchmark_cache(benchmark):
    resolves = int(30 * bench_scale())
    uri = "benchmark://cbench-v1/jpeg-c"

    def run_experiment():
        env = repro.make("llvm-v0", benchmark=uri)
        try:
            env.reset()
            runtime = env.service.runtime

            # The cost the cache amortizes is benchmark *resolution*: URI
            # lookup plus program generation/parse into a module. Timing it
            # directly (rather than through env.reset(), whose session
            # bookkeeping is cache-independent and used to drown the signal)
            # isolates the "amortized O(1) environment initialization" claim.
            #
            # Dataset benchmarks build their program on first read, so an
            # uncached resolve only costs what the claim is about if something
            # reads it: the cache insert does (it sizes the entry). The
            # generator calls are counted so the gate below cannot quietly
            # turn into "dict hit vs. allocating a lazy shell".
            generations = 0
            generate_module = suites.generate_module

            def counted_generate_module(*args, **kwargs):
                nonlocal generations
                generations += 1
                return generate_module(*args, **kwargs)

            def mean_resolve_seconds(clear_cache: bool) -> float:
                # Best of three repetitions: resolves are fast enough that a
                # single scheduler stall during one loop would otherwise
                # dominate the mean and flip the speedup ratio.
                best = float("inf")
                for _ in range(3):
                    start = time.perf_counter()
                    for _ in range(resolves):
                        if clear_cache:
                            runtime.benchmark_cache.clear()
                        runtime._resolve_benchmark(uri)
                    best = min(best, (time.perf_counter() - start) / resolves)
                return best

            suites.generate_module = counted_generate_module
            try:
                cached = mean_resolve_seconds(clear_cache=False)
                cached_generations = generations
                uncached = mean_resolve_seconds(clear_cache=True)
            finally:
                suites.generate_module = generate_module
            uncached_generations = (generations - cached_generations) / (3 * resolves)

            # End-to-end reset latency with the warm cache, for context: the
            # number a user actually experiences per episode.
            start = time.perf_counter()
            for _ in range(resolves):
                env.reset()
            reset_ms = (time.perf_counter() - start) / resolves * 1e3
        finally:
            env.close()
        return {"cached_resolve_ms": cached * 1e3, "uncached_resolve_ms": uncached * 1e3,
                "cached_reset_ms": reset_ms, "speedup": uncached / cached,
                "generations_per_cached_resolve": cached_generations / (3 * resolves),
                "generations_per_uncached_resolve": uncached_generations}

    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_table("ablation_cache", "Ablation: benchmark cache", [
        f"resolve with cache:    {results['cached_resolve_ms']:.3f} ms",
        f"resolve without cache: {results['uncached_resolve_ms']:.3f} ms",
        f"reset (warm cache):    {results['cached_reset_ms']:.3f} ms",
        f"speedup from cache:    {results['speedup']:.1f}x",
        f"programs generated per resolve: {results['generations_per_cached_resolve']:.0f} with, "
        f"{results['generations_per_uncached_resolve']:.0f} without",
    ])
    save_results("ablation_cache", results)
    # The uncached side materialises the module every time, the cached never.
    assert results["generations_per_uncached_resolve"] == 1
    assert results["generations_per_cached_resolve"] == 0
    # A cached resolution is a dict hit; an uncached one regenerates and
    # re-ingests the program. Anything under an order of magnitude means the
    # cache stopped short-circuiting that work.
    assert results["speedup"] > 10.0


def test_ablation_fork_vs_replay_backtracking(benchmark):
    prefix_length = 60
    candidates = int(16 * bench_scale())

    def run_experiment():
        rng = random.Random(0)
        env = repro.make("llvm-v0", benchmark="benchmark://cbench-v1/gsm",
                         reward_space="IrInstructionCount")
        try:
            env.reset()
            prefix = [rng.randrange(env.action_space.n) for _ in range(prefix_length)]
            env.multistep(prefix)

            # Strategy A: evaluate candidate next-actions in forks.
            start = time.perf_counter()
            for _ in range(candidates):
                fork = env.fork()
                fork.step(rng.randrange(env.action_space.n))
                fork.close()
            fork_time = (time.perf_counter() - start) / candidates

            # Strategy B: evaluate each candidate by replaying the prefix.
            start = time.perf_counter()
            for _ in range(candidates):
                env.reset()
                env.multistep(prefix + [rng.randrange(env.action_space.n)])
            replay_time = (time.perf_counter() - start) / candidates
        finally:
            env.close()
        return {"fork_ms": fork_time * 1e3, "replay_ms": replay_time * 1e3,
                "speedup": replay_time / fork_time}

    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    save_table("ablation_fork", "Ablation: fork() vs replay for backtracking", [
        f"candidate evaluation via fork():  {results['fork_ms']:.3f} ms",
        f"candidate evaluation via replay:  {results['replay_ms']:.3f} ms",
        f"speedup from fork():              {results['speedup']:.1f}x",
    ])
    save_results("ablation_fork", results)
    assert results["speedup"] > 1.05
