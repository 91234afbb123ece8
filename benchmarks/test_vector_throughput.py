"""Vectorized environment pool throughput: steps/sec vs. worker count.

Companion to the Table II efficiency results: measures the aggregate step
throughput of a :class:`VecCompilerEnv` on the LLVM environment as the pool
grows, under both values of ``backend``, on an in-process root.
Recorded, not gated — see :func:`run_sweep`.
It also records the steps/sec of IMPALA and Ape-X training end-to-end
through ``train_agent_vec`` on auto-reset rollouts of a serial pool, and of
IMPALA's distributed actor/learner training (``DistributedTrainer``: actor
subprocesses feeding a central learner) next to those single-process
numbers.

Run as a script for a quick smoke reading::

    PYTHONPATH=src python benchmarks/test_vector_throughput.py --workers 2
"""

import gc
import json
import os
import random
import statistics
import sys
import time

# The gateway benchmark spawns a child that re-imports this module; in a
# whole-repo pytest run the child's inherited sys.path can resolve bare
# ``conftest`` to tests/conftest.py instead of ours, so pin this directory
# to the front before importing.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import bench_scale, save_results

import repro
from repro.core.vector import VecCompilerEnv

BENCHMARK = "cbench-v1/crc32"
# The result-cache measurement divides an uncached step by a cache-hit step
# (~0.02 ms whatever the program). It runs on a mid-sized program so that the
# numerator is compute the cache removes, not per-call overhead: on crc32 an
# uncached step is ~0.15 ms, a ratio of 6-7x with no headroom over the 5x floor.
RESULT_CACHE_BENCHMARK = "cbench-v1/blowfish"
BACKENDS = ("serial", "thread")
# Budget for the gateway proxy hop as a multiple of direct-to-daemon
# per-worker-step latency. The hop's absolute cost (decode, session-id
# translation, re-encode: ~0.1ms) has not moved, but the per-step compute it
# is measured against halved when the session gained version-keyed
# observation memoization — the same tax is a larger fraction of a cheaper
# step, so the ratio budget is wider than the pre-memoization 1.3x.
GATEWAY_OVERHEAD_BUDGET = 1.7
# Baseline of check_transport_regression: batched socket stepping at n=4 as a
# multiple of the in-process per-step latency of the same run. Median of 7
# standalone `--check-transport-regression` runs (2.15-2.47) at commit 6e54275,
# 2026-10-02.
RECORDED_BATCHED_VS_IN_PROCESS = 2.32


def _mean_step_seconds(env, steps: int) -> float:
    """Reset ``env``, time ``steps`` seeded random steps, close it."""
    env.reset()
    num_actions = env.action_space.n
    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(steps):
        env.step(rng.randrange(num_actions))
    elapsed = time.perf_counter() - start
    env.close()
    return elapsed / steps


def _pool_steps_seconds(vec, rounds: int) -> float:
    """Reset the pool; wall time of ``rounds`` seeded random batched steps."""
    vec.reset()
    num_actions = vec.action_space.n
    rng = random.Random(0)
    start = time.perf_counter()
    for _ in range(rounds):
        vec.step([rng.randrange(num_actions) for _ in range(vec.num_envs)])
    return time.perf_counter() - start


def _measure_throughput(backend: str, n: int, rounds: int, benchmark: str = BENCHMARK):
    """Aggregate steps/sec of an n-worker pool over ``rounds`` batched steps."""
    env = repro.make(
        "llvm-v0",
        benchmark=benchmark,
        observation_space="Autophase",
        reward_space="IrInstructionCount",
    )
    start = time.perf_counter()
    pool = VecCompilerEnv(env, n=n, backend=backend)
    pool_build_s = time.perf_counter() - start
    with pool as vec:
        elapsed = _pool_steps_seconds(vec, rounds)
    return {
        "backend": backend,
        "workers": n,
        "benchmark": benchmark,
        "pool_build_s": pool_build_s,
        "steps": rounds * n,
        "walltime_s": elapsed,
        "steps_per_sec": (rounds * n) / elapsed,
    }


def _measure_rl_throughput(agent_name: str, backend: str, n: int, episodes: int,
                           episode_length: int = 5):
    """Steps/sec of an agent training through train_agent_vec on auto-reset
    rollouts collected from an n-worker pool."""
    from repro.rl import ApexDQNAgent, ImpalaAgent
    from repro.rl.trainer import (
        AUTOPHASE_ACTION_SUBSET,
        make_vec_rl_environment,
        observation_dim,
        train_agent_vec,
    )

    num_actions = len(AUTOPHASE_ACTION_SUBSET)
    agent = {"impala": ImpalaAgent, "apex": ApexDQNAgent}[agent_name](
        obs_dim=observation_dim("Autophase", True, num_actions),
        num_actions=num_actions,
        seed=0,
    )
    env = repro.make(
        "llvm-v0",
        benchmark=BENCHMARK,
        reward_space="IrInstructionCountNorm",
    )
    vec = make_vec_rl_environment(
        env, n=n, backend=backend, episode_length=episode_length, auto_reset=True
    )
    try:
        start = time.perf_counter()
        result = train_agent_vec(agent, vec, [BENCHMARK], episodes=episodes)
        elapsed = time.perf_counter() - start
    finally:
        vec.close()
    steps = len(result.episode_rewards) * episode_length
    return {
        "agent": agent_name,
        "backend": backend,
        "workers": n,
        "episodes": len(result.episode_rewards),
        "steps": steps,
        "walltime_s": elapsed,
        "steps_per_sec": steps / elapsed,
    }


def _measure_distributed_throughput(actors: int, episodes: int, episode_length: int = 5):
    """Steps/sec of IMPALA's multi-process actor/learner training."""
    from repro.rl.distributed import DistributedTrainer

    trainer = DistributedTrainer(
        env_id="llvm-v0",
        make_kwargs={"benchmark": BENCHMARK, "reward_space": "IrInstructionCountNorm"},
        num_actors=actors,
        envs_per_actor=2,
        episode_length=episode_length,
        seed=0,
    )
    start = time.perf_counter()
    result = trainer.train([BENCHMARK], episodes=episodes)
    elapsed = time.perf_counter() - start
    steps = trainer.stats["total_env_steps"]
    return {
        "agent": trainer.learner.name,
        "actors": actors,
        "envs_per_actor": trainer.stats["envs_per_actor"],
        "episodes": len(result.episode_rewards),
        "steps": steps,
        "items_learned": trainer.stats["items_learned"],
        "walltime_s": elapsed,
        "steps_per_sec": steps / elapsed,
    }


def _measure_transport_latency(steps: int, pool_rounds: int):
    """Mean per-step wall time: in-process runtime vs. a socket daemon, for
    one environment and (``vec_pool``) for a 4-worker pool.

    Measures the *real* overhead of the out-of-process deployment (pickling,
    framing, TCP round trip, daemon dispatch), so the transport tax is
    tracked release over release. The result cache is
    disabled on both sides: the two phases replay the same seeded action
    sequence, so a shared cache would hand the second phase free hits and
    the comparison would measure memoization, not transport.
    """
    from repro.core.service.runtime.server import make_env_server

    in_process = _mean_step_seconds(
        repro.make(
            "llvm-v0",
            benchmark=BENCHMARK,
            reward_space="IrInstructionCount",
            result_cache=False,
        ),
        steps,
    )
    server = make_env_server(
        "llvm-v0", port=0, session_timeout=None, result_cache=False
    ).start()
    try:
        socket_step = _mean_step_seconds(
            repro.make(
                "llvm-v0",
                benchmark=BENCHMARK,
                reward_space="IrInstructionCount",
                service_url=server.url,
            ),
            steps,
        )
    finally:
        server.shutdown()
    vec_pool = _measure_vec_transport_latency(pool_rounds)
    return {
        "steps": steps,
        "in_process_step_ms": in_process * 1e3,
        "socket_step_ms": socket_step * 1e3,
        "socket_overhead_ms": (socket_step - in_process) * 1e3,
        "socket_vs_in_process": socket_step / in_process if in_process else None,
        "vec_pool": vec_pool,
        # The batched socket path relative to the in-process baseline of the
        # same run: the load-independent number the CI regression gate tracks.
        "batched_vs_in_process": vec_pool["batched_step_ms"] / (in_process * 1e3),
    }


def _measure_verifier_overhead(steps: int):
    """Mean per-step wall time with REPRO_VERIFY_IR off vs. on.

    Quantifies the cost of verify-after-every-pass (a dominator-tree
    construction plus type/dominance checks per function per step), so the
    README's "measured overhead" claim tracks the implementation.
    """
    verify_off, verify_on = (
        _mean_step_seconds(repro.make("llvm-v0", benchmark=BENCHMARK, verify_ir=verify_ir), steps)
        for verify_ir in (False, True)
    )
    return {
        "steps": steps,
        "verify_off_step_ms": verify_off * 1e3,
        "verify_on_step_ms": verify_on * 1e3,
        "verify_on_vs_off": verify_on / verify_off if verify_off else None,
    }


def _measure_vec_transport_latency(rounds: int, n: int = 4):
    """Per-worker-step wall time of an n-worker pool over a socket daemon.

    Both pools are fork-populated on one shared multiplexed connection and
    step as one ``step_sessions`` round trip per pool step. The second has its
    workers wrapped in :class:`TimeLimit` (the RL shape), whose hooks run
    around that same round trip.

    The daemon's result cache is off: both pools replay the same seeded
    trajectories against the same daemon, so with the cache on whichever
    pool runs second gets its compiler work for free and the comparison
    flips from transport shape to cache warmth.
    """
    from repro.core.service.runtime.server import make_env_server
    from repro.core.wrappers import TimeLimit

    def mean_worker_step_seconds(url, worker_wrapper):
        env = repro.make(
            "llvm-v0",
            benchmark=BENCHMARK,
            reward_space="IrInstructionCount",
            service_url=url,
        )
        with VecCompilerEnv(env, n=n, backend="thread", worker_wrapper=worker_wrapper) as vec:
            assert len({id(w.service) for w in vec.workers}) == 1
            seconds = _pool_steps_seconds(vec, rounds) / (rounds * n)
            batches = vec.connection_stats().get("step_sessions", {}).get("calls", 0)
            assert batches == rounds, (batches, rounds)
        return seconds

    server = make_env_server(
        "llvm-v0", port=0, session_timeout=None, result_cache=False
    ).start()
    try:
        batched = mean_worker_step_seconds(server.url, None)
        wrapped = mean_worker_step_seconds(server.url, TimeLimit)
    finally:
        server.shutdown()
    return {
        "workers": n,
        "rounds": rounds,
        "batched_step_ms": batched * 1e3,
        "wrapped_step_ms": wrapped * 1e3,
        "batched_vs_wrapped": batched / wrapped if wrapped else None,
    }


def _measure_result_cache(sequences: int = 8, length: int = 10, repeats: int = 4):
    """Per-step wall time and hit rate of the result cache on a
    repeated-prefix random-search workload.

    Random search (and population-based autotuning) re-walks the same action
    prefixes across episodes. The workload replays ``sequences`` seeded
    action sequences: one cold pass populates the (benchmark, action-prefix)
    store, then ``repeats`` warm passes replay identical trajectories — every
    warm step is served from the cache without constructing a session or
    running a pass. The uncached run replays the same warm-phase trajectories
    with the cache disabled, so ``speedup`` is the per-step tax the cache
    removes from prefix re-walks.
    """
    rng = random.Random(0)

    def run_passes(env, seqs, passes):
        steps = 0
        start = time.perf_counter()
        for _ in range(passes):
            for seq in seqs:
                env.reset()
                for action in seq:
                    env.step(action)
                    steps += 1
        return (time.perf_counter() - start) / steps

    env_kwargs = dict(
        benchmark=RESULT_CACHE_BENCHMARK,
        observation_space="Autophase",
        reward_space="IrInstructionCount",
    )
    env = repro.make("llvm-v0", **env_kwargs)
    num_actions = env.action_space.n
    seqs = [
        [rng.randrange(num_actions) for _ in range(length)] for _ in range(sequences)
    ]
    cold = run_passes(env, seqs, 1)
    cached = run_passes(env, seqs, repeats)
    stats = env.service.runtime.result_cache.stats()
    env.close()

    uncached_env = repro.make("llvm-v0", result_cache=False, **env_kwargs)
    uncached = run_passes(uncached_env, seqs, repeats)
    uncached_env.close()
    return {
        "benchmark": RESULT_CACHE_BENCHMARK,
        "sequences": sequences,
        "sequence_length": length,
        "repeats": repeats,
        "cold_step_ms": cold * 1e3,
        "cached_step_ms": cached * 1e3,
        "uncached_step_ms": uncached * 1e3,
        "speedup": uncached / cached if cached else None,
        "hit_rate": stats["hit_rate"],
        "hits": stats["hits"],
        "misses": stats["misses"],
        "size_in_bytes": stats["size_in_bytes"],
    }


def _measure_failover_recovery(heartbeat_interval: float = 0.25):
    """Detection latency and time-to-first-successful-step after a daemon
    SIGKILL, heartbeat-driven vs call-triggered.

    The heartbeat run measures the proactive path: the gateway's
    HealthMonitor notices the corpse and re-homes its sessions with *no
    client RPC in flight* — detection latency is how long that took, and
    time-to-first-step adds one post-recovery step (which finds the session
    already replayed). The call-triggered run disables the monitor, so the
    client's own next step pays for detection, failover, and replay inline;
    its detection latency IS its time-to-first-step.
    """
    import signal as signal_module

    from repro.core.service.gateway import ServiceGateway

    def one_run(heartbeat: bool):
        gateway = ServiceGateway(
            env_id="llvm-v0",
            daemons=2,
            heartbeat_interval=heartbeat_interval if heartbeat else None,
        ).start()
        env = repro.make(
            "llvm-v0", benchmark=f"benchmark://{BENCHMARK}", service_url=gateway.url
        )
        try:
            env.reset()
            env.step(0)
            victim = next(
                d
                for d in gateway.live_daemons()
                if any(r.daemon is d for r in gateway._sessions.values())
            )
            os.kill(victim.pid, signal_module.SIGKILL)
            killed_at = time.monotonic()
            if heartbeat:
                while gateway.failovers == 0:
                    time.sleep(0.002)
                detection_s = time.monotonic() - killed_at
                # Detection (failovers flips) precedes the replay of the
                # victim's sessions; keep hands off the client until the
                # monitor has re-homed them, so the recovery is provably
                # heartbeat-driven, not triggered by our own step.
                replay_deadline = time.monotonic() + 10.0
                while (
                    gateway.rehomed_sessions == 0
                    and time.monotonic() < replay_deadline
                ):
                    time.sleep(0.002)
            env.step(0)
            recovery_s = time.monotonic() - killed_at
            if not heartbeat:
                detection_s = recovery_s
            return {
                "detection_s": detection_s,
                "time_to_first_step_s": recovery_s,
                "rehomed_sessions": gateway.rehomed_sessions,
            }
        finally:
            env.close()
            gateway.shutdown()

    return {
        "heartbeat_interval_s": heartbeat_interval,
        "detection_slo_s": 2 * heartbeat_interval,
        "heartbeat": one_run(True),
        "call_triggered": one_run(False),
    }


def check_failover_recovery(fresh: dict, slack_s: float = 1.0) -> int:
    """Gate: a SIGKILLed daemon must be detected by the heartbeat
    monitor — no client RPC in flight — within 2 heartbeat intervals
    (plus scheduling slack for loaded runners), and the next client step
    must succeed on the re-homed session."""
    slo = fresh["detection_slo_s"] + slack_s
    heartbeat = fresh["heartbeat"]
    print(
        f"failover recovery at {fresh['heartbeat_interval_s']}s heartbeat: "
        f"detected in {heartbeat['detection_s']:.3f}s "
        f"(SLO {fresh['detection_slo_s']:.2f}s + {slack_s:.1f}s slack), "
        f"first step {heartbeat['time_to_first_step_s']:.3f}s after kill; "
        f"call-triggered path recovered in "
        f"{fresh['call_triggered']['time_to_first_step_s']:.3f}s"
    )
    if heartbeat["detection_s"] > slo:
        print(
            f"FAIL: heartbeat detection took {heartbeat['detection_s']:.3f}s, "
            f"over the {slo:.2f}s budget"
        )
        return 1
    if heartbeat["rehomed_sessions"] < 1:
        print("FAIL: the victim's session was not re-homed")
        return 1
    print("OK: failover recovery within SLO")
    return 0


def _gateway_bench_main(pipe):
    """Child-process entry: host a 1-daemon gateway, report both URLs."""
    import signal

    from repro.core.service.gateway import ServiceGateway

    # Result cache off: the benchmark alternates identical action batches
    # between the direct and proxied pools on this one daemon, so a shared
    # cache would give whichever pool steps second free hits and bias the
    # gateway-tax ratio.
    gateway = ServiceGateway(
        env_id="llvm-v0", daemons=1, make_kwargs={"result_cache": False}
    ).start()
    signal.signal(signal.SIGTERM, lambda *_: gateway.request_shutdown())
    pipe.send((gateway.url, gateway.live_daemons()[0].url))
    pipe.close()
    try:
        gateway.serve_forever()
    finally:
        gateway.shutdown()


def _measure_gateway_overhead(rounds: int, n: int = 4):
    """Per-worker-step wall time of an n-worker pool: direct-to-daemon vs
    through a session-routing gateway fronting that same daemon tier.

    Isolates the gateway tax (one extra proxy hop: decode, session-id
    translation, re-encode) on the batched stepping path. The fleet is a
    single daemon, reached both ways, so the compiler work is identical —
    and the gateway runs in its own process, as deployed, so its routing
    CPU is not serialized onto this process's GIL.
    """
    import multiprocessing as mp

    def open_pool(url):
        # Same step shape as the throughput sweep (and as RL training):
        # observation + reward per step, not an observation-less ping.
        env = repro.make(
            "llvm-v0",
            benchmark=BENCHMARK,
            observation_space="Autophase",
            reward_space="IrInstructionCount",
            service_url=url,
        )
        vec = VecCompilerEnv(env, n=n, backend="thread")
        vec.reset()
        return vec

    # Spawn, not fork: the gateway must run on a fresh interpreter heap, as
    # deployed, not on a copy of this benchmark process's accumulated heap.
    ctx = mp.get_context("spawn")
    parent_pipe, child_pipe = ctx.Pipe()
    # Not daemonic: the gateway process spawns the daemon as its own child,
    # and its SIGTERM handler shuts the whole tree down on terminate().
    proc = ctx.Process(target=_gateway_bench_main, args=(child_pipe,))
    proc.start()
    child_pipe.close()
    if not parent_pipe.poll(120):
        proc.terminate()
        raise RuntimeError("Benchmark gateway did not report URLs within 120s")
    try:
        gateway_url, daemon_url = parent_pipe.recv()
    except EOFError:
        proc.join(timeout=10)
        raise RuntimeError(
            f"Benchmark gateway died before reporting URLs "
            f"(exit code {proc.exitcode})"
        ) from None
    # Both pools stay open and alternate batch by batch, with identical
    # action trajectories, so each pair of samples sees the same
    # instantaneous background load — phase-separated runs let load drift
    # masquerade as gateway tax (or hide it). Within a phase, medians drop
    # single-core scheduler spikes; across phases, each path keeps its best
    # (least-contended) median, timeit's min-of-repeats applied per path —
    # scheduler noise only ever adds time. GC is paused so client-heap
    # churn from earlier sweeps taxes neither path.
    gc.collect()
    gc.disable()
    direct_vec = proxied_vec = None
    try:
        direct_vec = open_pool(daemon_url)
        proxied_vec = open_pool(gateway_url)
        rng = random.Random(0)
        num_actions = direct_vec.action_space.n
        for _ in range(3):  # warm both paths
            actions = [rng.randrange(num_actions) for _ in range(n)]
            direct_vec.step(actions)
            proxied_vec.step(actions)
        direct = proxied = float("inf")
        for _ in range(3):
            direct_times, proxied_times = [], []
            for _ in range(rounds):
                actions = [rng.randrange(num_actions) for _ in range(n)]
                start = time.perf_counter()
                direct_vec.step(actions)
                direct_times.append(time.perf_counter() - start)
                start = time.perf_counter()
                proxied_vec.step(actions)
                proxied_times.append(time.perf_counter() - start)
            direct = min(direct, statistics.median(direct_times) / n)
            proxied = min(proxied, statistics.median(proxied_times) / n)
    finally:
        gc.enable()
        for vec in (direct_vec, proxied_vec):
            if vec is not None:
                try:
                    vec.close()
                except Exception:  # noqa: BLE001 - teardown best-effort
                    pass
        proc.terminate()
        proc.join(timeout=30)
    return {
        "workers": n,
        "rounds": rounds,
        "direct_step_ms": direct * 1e3,
        "gateway_step_ms": proxied * 1e3,
        "gateway_vs_direct": proxied / direct if direct else None,
    }


def run_sweep(rounds, n=4):
    """Every backend on a hop-bound program (crc32, ~0.1 ms of compute per
    step) and a mid-sized one (blowfish).

    Recorded, not gated: with ~ms steps a thread pool *loses* to serial
    (nothing to overlap, and every step pays a thread hop), so the README's
    "when to use which backend" rests on numbers the repo reproduces.
    """
    return [
        _measure_throughput(backend, n, rounds, benchmark=benchmark)
        for benchmark in (BENCHMARK, RESULT_CACHE_BENCHMARK)
        for backend in BACKENDS
    ]


def run_all(n: int, rounds: int, rl_episodes: int, steps: int, pool_rounds: int) -> dict:
    """Every measurement of this script, as saved to results/vector_throughput.json."""
    results = run_sweep(rounds=rounds, n=n)
    rl_results = [
        _measure_rl_throughput(agent, "serial", n=2, episodes=rl_episodes)
        for agent in ("impala", "apex")
    ]
    distributed_results = [_measure_distributed_throughput(actors=2, episodes=rl_episodes)]
    transport_latency = _measure_transport_latency(steps, pool_rounds)
    verifier_overhead = _measure_verifier_overhead(steps)
    result_cache = _measure_result_cache()
    failover_recovery = _measure_failover_recovery()
    # The gateway comparison is the suite's most scheduling-sensitive
    # measurement (three processes hand off per round trip on however many
    # cores the runner has), and it runs last, on a box heated by every
    # benchmark before it. One retry with a fresh gateway absorbs a
    # noise-spoiled run; a genuine overhead regression fails both attempts.
    for attempt in (0, 1):
        try:
            gateway_overhead = _measure_gateway_overhead(pool_rounds)
        except RuntimeError:
            if attempt:
                raise
            continue  # Gateway startup lost to a transient; once more, fresh.
        if gateway_overhead["gateway_vs_direct"] <= GATEWAY_OVERHEAD_BUDGET:
            break
    return {
        "rounds": rounds,
        "results": results,
        "rl_agents": {r["agent"]: r for r in rl_results},
        "distributed_rl_agents": {r["agent"]: r for r in distributed_results},
        "transport_latency": transport_latency,
        "gateway_overhead": gateway_overhead,
        "verifier_overhead": verifier_overhead,
        "result_cache": result_cache,
        "failover_recovery": failover_recovery,
    }


def test_vector_throughput():
    rl_episodes = max(2, int(4 * bench_scale()))
    measured = run_all(
        n=4,
        rounds=max(50, int(200 * bench_scale())),
        rl_episodes=rl_episodes,
        steps=max(20, int(50 * bench_scale())),
        pool_rounds=max(10, int(25 * bench_scale())),
    )
    save_results("vector_throughput", measured)
    assert check_failover_recovery(measured["failover_recovery"]) == 0
    assert check_result_cache_regression(measured["result_cache"]) == 0
    # Acceptance criterion: routing through the gateway costs no more than
    # GATEWAY_OVERHEAD_BUDGET x the direct-to-daemon per-worker-step latency
    # at n=4.
    gateway_overhead = measured["gateway_overhead"]
    assert gateway_overhead["gateway_vs_direct"] <= GATEWAY_OVERHEAD_BUDGET, (
        f"gateway stepping ({gateway_overhead['gateway_step_ms']:.3f}ms/step) is "
        f"{gateway_overhead['gateway_vs_direct']:.2f}x direct-to-daemon "
        f"({gateway_overhead['direct_step_ms']:.3f}ms/step), budget "
        f"{GATEWAY_OVERHEAD_BUDGET}x"
    )
    # Sanity: every configuration actually stepped (verified stepping too: the
    # mode is a debug tool, so it only has to be affordable, not free), and the
    # socket transport round-tripped real steps through the daemon.
    assert measured["verifier_overhead"]["verify_on_step_ms"] > 0
    transport_latency = measured["transport_latency"]
    assert transport_latency["socket_step_ms"] > 0
    vec_pool = transport_latency["vec_pool"]
    assert vec_pool["batched_step_ms"] > 0 and vec_pool["wrapped_step_ms"] > 0
    assert all(r["steps_per_sec"] > 0 for r in measured["results"])
    assert all(
        r["steps_per_sec"] > 0 and r["episodes"] >= rl_episodes
        for r in measured["rl_agents"].values()
    )
    assert all(
        r["steps_per_sec"] > 0 and r["episodes"] == rl_episodes
        for r in measured["distributed_rl_agents"].values()
    )


def check_transport_regression(fresh: dict, max_regression: float = 2.0) -> int:
    """CI gate: fail when batched socket stepping regresses vs the recorded
    baseline by more than ``max_regression``.

    Both the fresh reading and the recorded one are expressed as a ratio to
    the in-process per-step latency *of the same run*, so the comparison is
    robust to slower or busier CI machines — only a genuine increase in
    transport overhead (framing, round trips, daemon dispatch) trips it.
    """
    vec, fresh_ratio = fresh["vec_pool"], fresh["batched_vs_in_process"]
    print(
        f"batched socket stepping at n={vec['workers']}: "
        f"{vec['batched_step_ms']:.3f}ms per worker-step, "
        f"{fresh_ratio:.2f}x in-process (recorded {RECORDED_BATCHED_VS_IN_PROCESS:.2f}x, "
        f"budget {max_regression:.1f}x recorded)"
    )
    if fresh_ratio > max_regression * RECORDED_BATCHED_VS_IN_PROCESS:
        print(
            f"FAIL: transport latency regressed more than {max_regression:.1f}x "
            f"against the recorded in-process-relative baseline"
        )
        return 1
    print("OK: transport latency within budget")
    return 0


def check_result_cache_regression(
    fresh: dict, min_speedup: float = 5.0, min_hit_rate: float = 0.8
) -> int:
    """Gate: fail when the result cache stops paying for itself.

    The floors are absolute, not baseline-relative: both the speedup (the
    ratio of two per-step timings from the same run) and the hit rate are
    machine-speed-independent, so a breach means the caching path itself
    regressed — entries no longer hit, or a hit stopped being cheap.
    """
    print(
        f"result cache on the repeated-prefix workload: cached "
        f"{fresh['cached_step_ms']:.3f}ms/step vs uncached "
        f"{fresh['uncached_step_ms']:.3f}ms/step ({fresh['speedup']:.1f}x, "
        f"hit rate {fresh['hit_rate']:.0%}; floors {min_speedup:.0f}x, "
        f"{min_hit_rate:.0%})"
    )
    if fresh["speedup"] < min_speedup or fresh["hit_rate"] < min_hit_rate:
        print(
            f"FAIL: result cache below the {min_speedup:.0f}x speedup / "
            f"{min_hit_rate:.0%} hit-rate floor on the repeated-prefix workload"
        )
        return 1
    print("OK: result cache within budget")
    return 0


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=2, help="Pool size to measure")
    parser.add_argument("--rounds", type=int, default=10, help="Batched steps per backend")
    parser.add_argument(
        "--check-transport-regression",
        action="store_true",
        help="Measure transport latency and exit non-zero if the batched "
        "socket stepping path regressed by more than 2x against the "
        "recorded in-process-relative baseline",
    )
    parser.add_argument(
        "--check-result-cache",
        action="store_true",
        help="Measure the result cache on a repeated-prefix workload and "
        "exit non-zero if it falls below the 5x speedup or 80%% hit-rate "
        "floor",
    )
    parser.add_argument(
        "--measure-verifier-overhead",
        action="store_true",
        help="Measure per-step overhead of REPRO_VERIFY_IR and exit",
    )
    parser.add_argument(
        "--check-failover-recovery",
        action="store_true",
        help="SIGKILL a gateway daemon and exit non-zero unless the "
        "heartbeat monitor detects it within 2 heartbeat intervals (plus "
        "slack) with no client RPC in flight and re-homes its session",
    )
    args = parser.parse_args(argv)
    if args.check_transport_regression:
        return check_transport_regression(_measure_transport_latency(steps=50, pool_rounds=25))
    if args.check_result_cache:
        return check_result_cache_regression(_measure_result_cache())
    if args.check_failover_recovery:
        return check_failover_recovery(_measure_failover_recovery())
    if args.measure_verifier_overhead:
        overhead = _measure_verifier_overhead(steps=50)
        print(
            f"verify-after-every-pass: off {overhead['verify_off_step_ms']:.3f}ms/step, "
            f"on {overhead['verify_on_step_ms']:.3f}ms/step "
            f"({overhead['verify_on_vs_off']:.2f}x)"
        )
        return 0
    measured = run_all(
        n=args.workers, rounds=10 * args.rounds, rl_episodes=2, steps=20, pool_rounds=args.rounds
    )
    print(json.dumps(measured, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
