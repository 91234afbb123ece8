"""Table II: computational efficiency of environment operations.

Compares the per-operation wall time of:

* the CompilerGym-style environment (incremental client/server steps),
* the same environment with batched multi-action steps,
* an Autophase-style recompile-from-scratch driver,
* an OpenTuner-style driver (recompile + per-search results database),

measuring service startup, environment initialization, and environment step
cost, exactly as Table II does. The headline ratios to check are: CompilerGym
steps are an order of magnitude faster than the recompile baselines, batching
gives a further improvement, and environment initialization is amortized O(1)
thanks to the benchmark cache.
"""

import random
import time

import pytest
from conftest import bench_scale, save_results, save_table

import repro
from repro.baselines import AutophaseStyleEnvironment, OpenTunerStyleEnvironment
from repro.core.service.proto import StepRequest
from repro.util.statistics import arithmetic_mean, percentile

BENCHMARKS = [
    "benchmark://cbench-v1/crc32",
    "benchmark://cbench-v1/qsort",
    "benchmark://cbench-v1/sha",
    "benchmark://cbench-v1/dijkstra",
    "benchmark://cbench-v1/adpcm",
]


def _summary(times):
    return {
        "p50_ms": percentile(times, 50) * 1e3,
        "p99_ms": percentile(times, 99) * 1e3,
        "mean_ms": arithmetic_mean(times) * 1e3,
    }


def _measure_compilergym(num_steps: int, batched: bool):
    rng = random.Random(0)
    start = time.perf_counter()
    # Table 2 measures raw incremental-step cost against recompile-per-step
    # baselines; the result cache would serve repeated reset prefixes from
    # memory and defer session construction into the first timed step,
    # distorting exactly the ratios this table reports.
    env = repro.make(
        "llvm-v0",
        observation_space="Autophase",
        reward_space="IrInstructionCount",
        result_cache=False,
    )
    startup = time.perf_counter() - start
    init_times, step_times = [], []
    try:
        steps_done = 0
        while steps_done < num_steps:
            benchmark = BENCHMARKS[steps_done % len(BENCHMARKS)]
            start = time.perf_counter()
            env.reset(benchmark=benchmark)
            init_times.append(time.perf_counter() - start)
            episode = min(20, num_steps - steps_done)
            if batched:
                actions = [rng.randrange(env.action_space.n) for _ in range(episode)]
                start = time.perf_counter()
                env.multistep(actions)
                elapsed = time.perf_counter() - start
                step_times.extend([elapsed / episode] * episode)
            else:
                for _ in range(episode):
                    action = rng.randrange(env.action_space.n)
                    start = time.perf_counter()
                    env.step(action)
                    step_times.append(time.perf_counter() - start)
            steps_done += episode
    finally:
        env.close()
    return startup, init_times, step_times


def _measure_baseline(env_class, num_steps: int):
    rng = random.Random(0)
    init_times, step_times = [], []
    steps_done = 0
    while steps_done < num_steps:
        benchmark = BENCHMARKS[steps_done % len(BENCHMARKS)]
        env = env_class(benchmark=benchmark)
        try:
            start = time.perf_counter()
            env.reset()
            init_times.append(time.perf_counter() - start)
            episode = min(20, num_steps - steps_done)
            for _ in range(episode):
                action = rng.randrange(env.num_actions)
                start = time.perf_counter()
                env.step(action)
                step_times.append(time.perf_counter() - start)
            steps_done += episode
        finally:
            env.close()
    return init_times, step_times


def test_table2_operation_costs(benchmark):
    num_steps = int(120 * bench_scale())

    def run_experiment():
        results = {}
        startup, init_times, step_times = _measure_compilergym(num_steps, batched=False)
        results["CompilerGym"] = {
            "service_startup_ms": startup * 1e3,
            "environment_init": _summary(init_times),
            "environment_step": _summary(step_times),
        }
        _, batched_init, batched_steps = _measure_compilergym(num_steps, batched=True)
        results["CompilerGym-batched"] = {
            "environment_init": _summary(batched_init),
            "environment_step": _summary(batched_steps),
        }
        for name, env_class in (
            ("Autophase", AutophaseStyleEnvironment),
            ("OpenTuner", OpenTunerStyleEnvironment),
        ):
            init_times, step_times = _measure_baseline(env_class, num_steps)
            results[name] = {
                "environment_init": _summary(init_times),
                "environment_step": _summary(step_times),
            }
        return results

    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    cg_step = results["CompilerGym"]["environment_step"]["mean_ms"]
    autophase_step = results["Autophase"]["environment_step"]["mean_ms"]
    opentuner_step = results["OpenTuner"]["environment_step"]["mean_ms"]
    batched_step = results["CompilerGym-batched"]["environment_step"]["mean_ms"]
    results["speedup_vs_autophase"] = autophase_step / cg_step
    results["speedup_vs_opentuner"] = opentuner_step / cg_step
    results["batched_speedup"] = cg_step / batched_step
    # Compare typical (median) init costs: the mean is dominated by one-off
    # outliers (first-time benchmark parses, GC pauses under a loaded
    # machine), which makes the shape check below flaky.
    results["opentuner_init_over_compilergym_init"] = (
        results["OpenTuner"]["environment_init"]["p50_ms"]
        / results["CompilerGym"]["environment_init"]["p50_ms"]
    )

    rows = [
        f"{name:<22} init(mean)={data['environment_init']['mean_ms']:8.2f}ms"
        f"  step(p50)={data['environment_step']['p50_ms']:8.3f}ms"
        f"  step(mean)={data['environment_step']['mean_ms']:8.3f}ms"
        for name, data in results.items()
        if isinstance(data, dict) and "environment_step" in data
    ]
    rows.append(f"Step speedup vs Autophase baseline: {results['speedup_vs_autophase']:.1f}x (paper: 27x)")
    rows.append(f"Further speedup from batched steps: {results['batched_speedup']:.1f}x (paper: 2.9x)")
    save_table("table2", "Table II: per-operation wall times", rows)
    save_results("table2", results)

    # Shape checks: incremental steps beat recompile-from-scratch; OpenTuner
    # pays the highest initialization cost; batching helps.
    assert results["speedup_vs_autophase"] > 3
    assert results["speedup_vs_opentuner"] > 3
    assert results["opentuner_init_over_compilergym_init"] > 1
    assert results["batched_speedup"] > 1


def test_table2_environment_init_is_amortized_constant(benchmark):
    """Repeated resets on the same benchmark hit the service's benchmark
    cache, so initialization cost is amortized O(1)."""
    env = repro.make("llvm-v0", benchmark="benchmark://cbench-v1/qsort")
    try:
        env.reset()

        def reset_again():
            env.reset()

        benchmark(reset_again)
        runtime = env.service.runtime
        assert runtime.benchmark_cache.hits > 0
    finally:
        env.close()
