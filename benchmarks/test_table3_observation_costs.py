"""Table III: computational cost of each observation and reward space.

Measures the wall time of computing every LLVM observation space and reward
metric over random trajectories. The paper's headline shape: a ~192x range
across observation spaces (cheap scalar counts up to expensive graph/embedding
representations) and a ~4727x range across reward metrics (code size vs
measured runtime), motivating lazy observation computation.
"""

import random
import time

from conftest import bench_scale, save_results, save_table

import repro
from repro.util.statistics import arithmetic_mean, percentile

OBSERVATION_SPACES = ["Ir", "InstCount", "Autophase", "Inst2vec", "Programl"]
REWARD_METRICS = ["IrInstructionCount", "ObjectTextSizeBytes", "Runtime"]
BENCHMARKS = ["crc32", "qsort", "sha", "adpcm", "gsm", "blowfish"]


def test_table3_observation_and_reward_space_costs(benchmark):
    samples_per_space = max(4, int(8 * bench_scale()))

    def run_experiment():
        rng = random.Random(0)
        env = repro.make("llvm-v0")
        times = {name: [] for name in OBSERVATION_SPACES + REWARD_METRICS}
        try:
            for name in BENCHMARKS:
                env.reset(benchmark=f"benchmark://cbench-v1/{name}")
                env.multistep([rng.randrange(env.action_space.n) for _ in range(5)])
                for space in OBSERVATION_SPACES + REWARD_METRICS:
                    for _ in range(samples_per_space):
                        start = time.perf_counter()
                        env.observation[space]
                        times[space].append(time.perf_counter() - start)
        finally:
            env.close()
        return times

    times = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    summary = {
        space: {
            "p50_ms": percentile(values, 50) * 1e3,
            "p99_ms": percentile(values, 99) * 1e3,
            "mean_ms": arithmetic_mean(values) * 1e3,
        }
        for space, values in times.items()
    }
    observation_means = [summary[s]["mean_ms"] for s in OBSERVATION_SPACES]
    reward_means = [summary[s]["mean_ms"] for s in REWARD_METRICS]
    summary["observation_space_range"] = max(observation_means) / max(1e-9, min(observation_means))
    summary["reward_space_range"] = max(reward_means) / max(1e-9, min(reward_means))

    rows = [
        f"{space:<22} p50={summary[space]['p50_ms']:8.3f}ms  mean={summary[space]['mean_ms']:8.3f}ms"
        for space in OBSERVATION_SPACES + REWARD_METRICS
    ]
    rows.append(f"observation-space cost range: {summary['observation_space_range']:.0f}x (paper: 192x)")
    rows.append(f"reward-metric cost range: {summary['reward_space_range']:.0f}x (paper: 4727x)")
    save_table("table3", "Table III: observation/reward space costs", rows)
    save_results("table3", summary)

    # Shape checks: the graph/embedding representations are much more
    # expensive than the scalar counters, and code size is the cheapest
    # reward metric.
    assert summary["observation_space_range"] > 5
    assert summary["Inst2vec"]["mean_ms"] > summary["InstCount"]["mean_ms"]
    assert summary["Programl"]["mean_ms"] > summary["InstCount"]["mean_ms"]
    # Medians: IrInstructionCount's samples are memo hits, whose mean one
    # slow sample can move past the bound.
    assert summary["IrInstructionCount"]["p50_ms"] <= min(
        summary["ObjectTextSizeBytes"]["p50_ms"], summary["Runtime"]["p50_ms"]
    ) * 1.5
