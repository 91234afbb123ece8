"""The ``repro-compilergym`` command-line interface.

Reproduces the core of the paper's command-line tool suite: describing
environments and their spaces, listing datasets, running (optionally
parallelized) random searches, replaying recorded states, and validating
results. Run ``repro-compilergym --help`` for usage.
"""

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import repro
from repro.core.compiler_env_state import CompilerEnvStateReader, CompilerEnvStateWriter
from repro.core.vector import BACKENDS


def _cmd_envs(args) -> int:
    del args
    for env_id in repro.COMPILER_GYM_ENVS:
        print(env_id)
    return 0


def _cmd_describe(args) -> int:
    env = repro.make(args.env)
    try:
        print(f"Environment: {args.env}")
        print(f"Compiler version: {env.compiler_version}")
        print(f"\nAction space: {env.action_space}")
        if hasattr(env.action_space, "names"):
            for name in env.action_space.names[: args.limit]:
                print(f"  {name}")
            if env.action_space.n > args.limit:
                print(f"  ... ({env.action_space.n - args.limit} more)")
        print("\nObservation spaces:")
        for spec in env.observation.spaces.values():
            print(f"  {spec.id}: {spec.space}")
        print("\nReward spaces:")
        for reward in env.reward.spaces.values():
            print(f"  {reward.name} (deterministic={reward.deterministic}, "
                  f"platform_dependent={reward.platform_dependent})")
    finally:
        env.close()
    return 0


def _cmd_datasets(args) -> int:
    env = repro.make(args.env)
    try:
        print(f"{'Dataset':<40} {'Benchmarks':>12}  Description")
        for dataset in env.datasets:
            size = dataset.size if dataset.size else "(generator)"
            print(f"{dataset.name:<40} {size!s:>12}  {dataset.description}")
    finally:
        env.close()
    return 0


def _cmd_serve(args) -> int:
    """Run the standalone compiler service daemon (`repro serve`)."""
    import os
    import signal

    from repro.core.service.runtime.server import make_env_server

    server = make_env_server(
        args.env,
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        session_timeout=args.session_timeout if args.session_timeout > 0 else None,
        auth_tokens=args.auth_token or None,
        result_cache=(
            False
            if args.result_cache_mb <= 0
            else int(args.result_cache_mb * 1024 * 1024)
        ),
    )

    def _handle_signal(signum, frame):  # noqa: ARG001 - signal API
        del signum, frame
        # Signal handlers run on the main thread, which may be mid-accept
        # inside serve_forever() holding server locks; only request the exit
        # here and do the full (lock-taking) shutdown below in normal
        # context.
        server.request_shutdown()

    signal.signal(signal.SIGINT, _handle_signal)
    signal.signal(signal.SIGTERM, _handle_signal)
    print(f"Serving {args.env} on {server.url} (pid {os.getpid()})", flush=True)
    try:
        server.serve_forever()
    finally:
        server.shutdown()
    info = server.server_info()
    print(
        f"Service daemon shut down cleanly: {info['connections_served']} connection(s), "
        f"{info['runtime_stats'].get('start_session', 0)} session(s) served, "
        f"{info['reaped_sessions']} reaped",
        flush=True,
    )
    result_cache = (info.get("cache_stats") or {}).get("result_cache")
    if result_cache:
        print(
            f"Result cache: {result_cache['hits']} hit(s), "
            f"{result_cache['misses']} miss(es) "
            f"({100.0 * result_cache['hit_rate']:.1f}% hit rate), "
            f"{result_cache['evictions']} eviction(s), "
            f"{result_cache['size_in_bytes'] / (1024 * 1024):.1f} MiB used",
            flush=True,
        )
    print(
        f"Health: uptime {info['uptime_s']:.1f}s, "
        f"{info['heartbeats_served']} heartbeat(s) answered",
        flush=True,
    )
    return 0


def _cmd_gateway(args) -> int:
    """Run the session-routing gateway over a daemon fleet (`repro gateway`)."""
    import os
    import signal

    from repro.core.service.gateway import ServiceGateway

    daemon_urls = []
    for entry in args.daemon_url or []:
        daemon_urls.extend(u for u in entry.split(",") if u)
    gateway = ServiceGateway(
        daemon_urls=daemon_urls or None,
        env_id=args.env,
        daemons=args.daemons,
        host=args.host,
        port=args.port,
        unix_path=args.unix_socket,
        auth_tokens=args.auth_token or None,
        fleet_token=args.fleet_token,
        # The serving CLI runs the proactive health layer by default; embedded
        # gateways (tests, benchmarks) opt in explicitly.
        heartbeat_interval=(
            args.heartbeat_interval if args.heartbeat_interval > 0 else None
        ),
    )

    def _handle_signal(signum, frame):  # noqa: ARG001 - signal API
        del signum, frame
        gateway.request_shutdown()

    signal.signal(signal.SIGINT, _handle_signal)
    signal.signal(signal.SIGTERM, _handle_signal)
    for daemon in gateway.live_daemons():
        origin = f"pid {daemon.pid}" if daemon.pid is not None else "attached"
        print(f"Gateway daemon {daemon.index}: {origin} url {daemon.url}", flush=True)
    print(
        f"Serving gateway for {args.env} on {gateway.url} (pid {os.getpid()}) "
        f"fronting {len(gateway.live_daemons())} daemon(s)",
        flush=True,
    )
    try:
        gateway.serve_forever()
    finally:
        # Snapshot fleet health before shutdown tears the fleet down.
        fleet_health = [
            (daemon.index, daemon.last_heartbeat_age_s())
            for daemon in gateway.live_daemons()
        ]
        gateway.shutdown()
    info = gateway.server_info()
    print(
        f"Gateway shut down cleanly: {info['connections_served']} connection(s), "
        f"{info['failovers']} failover(s), "
        f"{info['rehomed_sessions']} session(s) re-homed",
        flush=True,
    )
    monitor = info.get("health_monitor")
    if monitor:
        print(
            f"Health: uptime {info['uptime_s']:.1f}s, heartbeat every "
            f"{monitor['interval_s']:g}s, {monitor['probes']} probe(s), "
            f"{monitor['deaths_detected']} death(s) detected proactively",
            flush=True,
        )
    for index, heartbeat_age in fleet_health:
        age = "never" if heartbeat_age is None else f"{heartbeat_age:.1f}s ago"
        print(f"Daemon {index}: last heartbeat {age}", flush=True)
    return 0


def _chaos_soak_once(args, run_index: int):
    """One seeded chaos-soak run: a fresh 2-daemon gateway, a fresh env
    talking through a fresh ChaosTransport over the same FaultPlan, the same
    seeded action workload. Returns (traces, injected, digest)."""
    import hashlib
    import random as random_module

    from repro.core.service.gateway import ServiceGateway
    from repro.errors import ServiceError
    from repro.testing.chaos import FaultEvent, FaultPlan, inject

    gateway = ServiceGateway(
        env_id=args.env,
        daemons=args.daemons,
        heartbeat_interval=args.heartbeat_interval,
    ).start()
    env = None
    try:
        events = list(
            FaultPlan.generate(
                seed=args.seed,
                calls=args.fault_calls,
                rate=args.fault_rate,
                kinds=("cut_send", "cut_recv", "refuse_connect"),
            ).events
        )
        if args.kill_call >= 0:
            # SIGKILL daemon 0 at the first step() call at or after the
            # index: the step path carries the gateway's failover retry, so
            # the kill is absorbed transparently whatever the monitor/client
            # race — the action trace is identical either way.
            events.append(
                FaultEvent(call_index=args.kill_call, kind="kill_daemon",
                           method="step", param=0.0)
            )
        plan = FaultPlan(
            events=tuple(sorted(events, key=lambda e: e.call_index)),
            seed=args.seed,
        )
        kill_pids = [d.pid for d in gateway.live_daemons() if d.pid is not None]

        with inject(plan, kill_targets=kill_pids):
            env = repro.make(
                args.env,
                benchmark=args.benchmark,
                reward_space="IrInstructionCount",
                service_url=gateway.url,
            )
        rng = random_module.Random(args.seed)
        num_actions = env.action_space.n
        traces = []
        failed_episodes = 0
        for _ in range(args.episodes):
            try:
                env.reset()
                for _ in range(args.steps):
                    _, _, done, step_info = env.step(rng.randrange(num_actions))
                    if done:
                        # The env's fault-tolerance path ends the episode
                        # (done=True + error_details) on a non-retryable
                        # injected fault instead of raising: that is the
                        # at-most-once contract working, not a soak failure.
                        # The truncated (acknowledged-only) trace is part of
                        # the deterministic fingerprint.
                        if "error_details" in step_info:
                            failed_episodes += 1
                        break
            except (ServiceError, ConnectionError, OSError):
                # reset() itself can die on an injected fault (e.g. the
                # retry budget exhausted by scheduled refusals).
                failed_episodes += 1
            traces.append(list(env.actions))
        injected = list(env.service.transport.injected)
        digest = hashlib.sha256(repr(traces).encode()).hexdigest()[:32]
        print(
            f"Run {run_index}: {len(traces)}/{args.episodes} episode(s) "
            f"completed ({failed_episodes} truncated by faults), "
            f"{len(injected)} fault(s) injected, "
            f"{gateway.failovers} failover(s), "
            f"{gateway.rehomed_sessions} session(s) re-homed"
        )
        return traces, injected, digest
    finally:
        if env is not None:
            try:
                env.close()
            except Exception:  # noqa: BLE001 - chaos may break close() too
                pass
        gateway.shutdown()


def _cmd_chaos_soak(args) -> int:
    """Deterministic chaos soak: seeded faults over a 2-daemon gateway.

    Runs a random-action workload through an env made under
    ``repro.testing.chaos.inject(plan)`` against an in-process gateway fleet
    with the heartbeat monitor on, under a seeded schedule of frame cuts,
    refused connects, and a whole-daemon SIGKILL. Asserts completion, prints the injected fault log, and (with
    ``--runs`` > 1) asserts the soak is deterministic: the same seed must
    yield the same injected fault sequence and identical final action
    traces.
    """
    from repro.testing.chaos import FaultPlan

    plan_preview = FaultPlan.generate(
        seed=args.seed, calls=args.fault_calls, rate=args.fault_rate,
        kinds=("cut_send", "cut_recv", "refuse_connect"),
    )
    print(
        f"Chaos soak: seed {args.seed}, {args.episodes} episode(s) x "
        f"{args.steps} step(s) over {args.daemons} daemon(s), "
        f"heartbeat every {args.heartbeat_interval:g}s"
    )
    print(f"Fault plan: {plan_preview.describe()}"
          + (f" + SIGKILL at step call >= {args.kill_call}" if args.kill_call >= 0 else ""))
    digests = []
    injected_logs = []
    for run_index in range(max(1, args.runs)):
        traces, injected, digest = _chaos_soak_once(args, run_index)
        if not any(traces):
            print("FAIL: no episode produced any actions", file=sys.stderr)
            return 1
        digests.append(digest)
        injected_logs.append(injected)
        print(f"Injected fault sequence: {injected}")
        print(f"Action trace digest: {digest}", flush=True)
    if len(digests) > 1:
        if len(set(digests)) != 1 or any(
            log != injected_logs[0] for log in injected_logs
        ):
            print(
                f"FAIL: chaos soak is NOT deterministic across {args.runs} "
                f"runs: digests {digests}",
                file=sys.stderr,
            )
            return 1
        print(f"Deterministic: {args.runs} run(s) produced identical fault "
              f"sequences and action traces")
    return 0


def _random_search_worker(
    env_id: str,
    benchmark: str,
    steps: int,
    patience: int,
    seed: int,
    workers: int = 1,
    service_url: Optional[str] = None,
):
    from repro.autotuning import RandomSearch
    from repro.core.vector import VecCompilerEnv

    env = repro.make(
        env_id,
        benchmark=benchmark,
        reward_space="IrInstructionCount",
        service_url=service_url,
    )
    tuner = RandomSearch(seed=seed, patience=patience)
    if workers > 1:
        # Vectorized search: the env is forked into a pool and candidate
        # episodes are evaluated on the pool's thread pool.
        with VecCompilerEnv(env, n=workers, backend="thread") as vec:
            result = tuner.tune(vec, max_steps=steps)
            root = vec.workers[0]
            root.reset()
            if result.best_actions:
                root.multistep(result.best_actions)
            return root.state, result
    try:
        result = tuner.tune(env, max_steps=steps)
        env.reset()
        if result.best_actions:
            env.multistep(result.best_actions)
        return env.state, result
    finally:
        env.close()


def _cmd_random_search(args) -> int:
    benchmarks = args.benchmark or ["benchmark://cbench-v1/qsort"]
    results = []
    with ThreadPoolExecutor(max_workers=args.nproc) as executor:
        futures = [
            executor.submit(
                _random_search_worker,
                args.env,
                benchmark,
                args.steps,
                args.patience,
                seed,
                args.workers,
                args.service_url,
            )
            for seed, benchmark in enumerate(benchmarks)
        ]
        for future in futures:
            state, result = future.result()
            results.append(state)
            print(f"{state.benchmark}: reward={result.best_reward:.4f} "
                  f"steps={result.steps} walltime={result.walltime:.2f}s")
    if args.output:
        with open(args.output, "w") as f:
            writer = CompilerEnvStateWriter(f)
            for state in results:
                writer.write_state(state)
        print(f"Wrote {len(results)} states to {args.output}")
    return 0


def _train_distributed(args, benchmarks):
    """Multi-process actor/learner training (``train --actors N``)."""
    from repro.rl.distributed import DistributedTrainer

    if args.agent not in ("apex", "impala"):
        print(
            f"train --actors requires an off-policy agent (apex, impala); "
            f"got {args.agent!r}",
            file=sys.stderr,
        )
        return None, None
    if args.no_auto_reset:
        print(
            "train --actors collects continuous auto-reset rollouts by design; "
            "--no-auto-reset only applies to single-process training (drop --actors)",
            file=sys.stderr,
        )
        return None, None
    if args.resume and not args.checkpoint_dir:
        print("train --resume requires --checkpoint-dir", file=sys.stderr)
        return None, None
    agent_kwargs = {}
    if args.agent == "apex" and args.learner_batch:
        agent_kwargs["batch_size"] = args.learner_batch
    make_kwargs = {"benchmark": benchmarks[0], "reward_space": "IrInstructionCountNorm"}
    try:
        trainer = DistributedTrainer(
            agent=args.agent,
            agent_kwargs=agent_kwargs,
            env_id=args.env,
            make_kwargs=make_kwargs,
            service_url=args.service_url,
            num_actors=args.actors,
            envs_per_actor=args.workers,
            env_backend=args.backend,
            episode_length=args.episode_length,
            broadcast_interval=args.broadcast_interval,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_interval=args.checkpoint_interval,
            resume=args.resume,
        )
    except ValueError as error:
        print(f"train --actors: {error}", file=sys.stderr)
        return None, None
    result = trainer.train(benchmarks, episodes=args.episodes)
    if args.checkpoint_dir:
        resumed = trainer.stats.get("resumed_episodes", 0)
        print(
            f"Checkpoint: {args.checkpoint_dir} "
            f"({resumed} episode(s) resumed, "
            f"{len(result.episode_rewards)} total)",
            flush=True,
        )
    return result, trainer


def _train_single_process(args, benchmarks):
    from repro.rl import A2CAgent, ApexDQNAgent, ImpalaAgent, PPOAgent
    from repro.rl.trainer import (
        AUTOPHASE_ACTION_SUBSET,
        make_vec_rl_environment,
        observation_dim,
        train_agent_vec,
    )

    agent_types = {"a2c": A2CAgent, "ppo": PPOAgent, "impala": ImpalaAgent, "apex": ApexDQNAgent}
    num_actions = len(AUTOPHASE_ACTION_SUBSET)
    agent = agent_types[args.agent](
        obs_dim=observation_dim("Autophase", True, num_actions),
        num_actions=num_actions,
        seed=args.seed,
    )
    env = repro.make(
        args.env,
        benchmark=benchmarks[0],
        reward_space="IrInstructionCountNorm",
        service_url=args.service_url,
    )
    # make_vec_rl_environment closes env for us if pool construction fails.
    vec = make_vec_rl_environment(
        env,
        n=args.workers,
        backend=args.backend,
        episode_length=args.episode_length,
        auto_reset=not args.no_auto_reset,
    )
    try:
        return train_agent_vec(agent, vec, benchmarks, episodes=args.episodes, seed=args.seed)
    finally:
        vec.close()


def _cmd_train(args) -> int:
    benchmarks = args.benchmark or ["benchmark://cbench-v1/qsort"]
    trainer = None
    if args.actors > 0:
        result, trainer = _train_distributed(args, benchmarks)
        if result is None:
            return 2
        topology = (
            f"{args.actors} actor process(es) x {args.workers} env(s) "
            f"[{args.backend} backend, "
            f"{'synchronous' if trainer.stats.get('synchronous', True) else 'async'} learner]"
        )
    else:
        result = _train_single_process(args, benchmarks)
        topology = f"{args.workers} worker(s) [{args.backend} backend]"
    rewards = result.episode_rewards
    window = max(1, len(rewards) // 5)
    print(f"{args.agent}: {len(rewards)} episodes on {topology}")
    print(f"  mean episode reward (first {window}): "
          f"{sum(rewards[:window]) / window:.4f}")
    print(f"  mean episode reward (last {window}):  "
          f"{sum(rewards[-window:]) / window:.4f}")
    if trainer is not None and "total_env_steps" in trainer.stats:
        stats = trainer.stats
        print(f"  distributed: {stats['total_env_steps']} env steps, "
              f"{stats['items_learned']} experience items learned, "
              f"{sum(stats['actor_weight_updates'].values())} actor weight update(s) "
              f"in {stats['walltime_s']:.2f}s")
    if args.output:
        with open(args.output, "w") as f:
            json.dump(
                {
                    "agent": result.agent_name,
                    "episodes": result.episodes,
                    "actors": args.actors,
                    "workers": args.workers,
                    "backend": args.backend,
                    "episode_rewards": rewards,
                    "distributed_stats": trainer.stats if trainer else None,
                },
                f,
                indent=2,
            )
        print(f"Wrote learning curve to {args.output}")
    return 0


def _cmd_replay(args) -> int:
    env = repro.make(args.env, reward_space=args.reward)
    try:
        with open(args.states) as f:
            for state in CompilerEnvStateReader(f):
                env.apply(state)
                print(f"{state.benchmark}: replayed reward={env.episode_reward}")
    finally:
        env.close()
    return 0


def _cmd_validate(args) -> int:
    env = repro.make(args.env, reward_space=args.reward)
    exit_code = 0
    try:
        with open(args.states) as f:
            for state in CompilerEnvStateReader(f):
                result = env.validate(state)
                print(result)
                if not result.okay():
                    exit_code = 1
    finally:
        env.close()
    return exit_code


def _cmd_lint(args) -> int:
    from repro.llvm.passes.validate import (
        MISCOMPILE_MUTATIONS,
        lint_datasets,
        verifier_self_test,
    )

    # The self-test guards the sweep: a regressed verifier that rejects
    # nothing would otherwise green-light every pass.
    self_test = verifier_self_test()
    if self_test:
        for failure in self_test:
            print(f"SELF-TEST FAIL: {failure}")
        return 1
    seeded = len(MISCOMPILE_MUTATIONS)
    print(f"verifier self-test: ok ({seeded}/{seeded} seeded miscompiles rejected)")

    progress = print if not args.quiet else None
    report = lint_datasets(
        dataset_names=args.dataset or None,
        benchmarks_per_dataset=args.benchmarks_per_dataset,
        passes=args.passes or None,
        differential=not args.no_differential,
        progress=progress,
    )
    print(
        f"lint: {report.benchmarks} benchmark(s), {report.checks} pass-checks, "
        f"{len(report.failures)} failure(s), {report.over_stamped} function(s) "
        "stamped without a change to their text"
    )
    for failure in report.failures:
        print(f"FAIL {failure}")
    return 0 if report.ok else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-compilergym",
        description="Command-line tools for the CompilerGym reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("envs", help="List registered environments").set_defaults(func=_cmd_envs)

    describe = sub.add_parser("describe", help="Describe an environment's spaces")
    describe.add_argument("--env", default="llvm-v0")
    describe.add_argument("--limit", type=int, default=20, help="Max actions to list")
    describe.set_defaults(func=_cmd_describe)

    datasets = sub.add_parser("datasets", help="List an environment's datasets")
    datasets.add_argument("--env", default="llvm-v0")
    datasets.set_defaults(func=_cmd_datasets)

    serve = sub.add_parser(
        "serve",
        help="Run the standalone compiler service daemon: one long-lived "
             "process hosting many compilation sessions for socket clients",
        description="Run the standalone compiler service daemon. "
                    "Clients are authenticated with --auth-token bearer "
                    "tokens and messages travel on the versioned typed wire "
                    "codec, but non-message values still embed pickles: "
                    "serve only on loopback, a Unix socket, or a trusted "
                    "network (tunnel across machines).",
    )
    serve.add_argument("--env", default="llvm-v0",
                       help="Environment whose compiler service to host")
    serve.add_argument("--host", default="127.0.0.1",
                       help="TCP listen address. Only expose beyond loopback "
                            "on a trusted network: auth tokens separate "
                            "tenants but the wire is not hardened transport")
    serve.add_argument("--port", type=int, default=5499,
                       help="TCP listen port (0 picks a free port)")
    serve.add_argument("--unix-socket", default=None,
                       help="Serve on a Unix domain socket path instead of TCP")
    serve.add_argument("--session-timeout", type=float, default=3600.0,
                       help="Seconds after which idle sessions are reaped "
                            "(<= 0 disables reaping)")
    serve.add_argument("--auth-token", action="append", default=None,
                       help="Require clients to present one of these auth "
                            "tokens in the connection handshake (repeatable). "
                            "Omit to serve unauthenticated")
    serve.add_argument("--result-cache-mb", type=float, default=64.0,
                       help="Byte budget (in MiB) for the daemon-wide "
                            "(benchmark, action-prefix) result cache shared "
                            "across sessions and tenants (0 disables)")
    serve.set_defaults(func=_cmd_serve)

    gateway = sub.add_parser(
        "gateway",
        help="Run the session-routing gateway: one URL fronting a fleet of "
             "compiler daemons, with least-load placement and failover",
        description="Run the session-routing gateway. Clients attach to the "
                    "gateway URL exactly as they would to a single daemon "
                    "(make(..., service_url=...), vectorized pools, train "
                    "--service-url, the Explorer REST API); the gateway "
                    "places each session on the least-loaded daemon and "
                    "replays sessions onto survivors when a daemon dies.",
    )
    gateway.add_argument("--env", default="llvm-v0",
                         help="Environment id for locally spawned daemons")
    gateway.add_argument("--daemons", type=int, default=2,
                         help="Local daemon worker processes to spawn (0 to "
                              "front only --daemon-url fleet members)")
    gateway.add_argument("--daemon-url", action="append", default=None,
                         help="Attach an already-running daemon by URL "
                              "(repeatable; comma-separated lists accepted)")
    gateway.add_argument("--host", default="127.0.0.1",
                         help="TCP listen address of the gateway itself")
    gateway.add_argument("--port", type=int, default=5498,
                         help="TCP listen port (0 picks a free port)")
    gateway.add_argument("--unix-socket", default=None,
                         help="Serve on a Unix domain socket path instead of TCP")
    gateway.add_argument("--auth-token", action="append", default=None,
                         help="Require clients to present one of these auth "
                              "tokens (repeatable). Tokens also scope session "
                              "ownership: one tenant cannot touch another's "
                              "sessions. Omit to serve unauthenticated")
    gateway.add_argument("--fleet-token", default=None,
                         help="Auth token the gateway presents to its daemons; "
                              "spawned daemons are configured to require it")
    gateway.add_argument("--heartbeat-interval", type=float, default=1.0,
                         help="Seconds between proactive daemon liveness "
                              "probes; a SIGKILLed daemon is detected and its "
                              "sessions re-homed within ~2 intervals with no "
                              "client call needed (<= 0 disables the monitor)")
    gateway.set_defaults(func=_cmd_gateway)

    chaos_soak = sub.add_parser(
        "chaos-soak",
        help="Deterministic fault-injection soak: a seeded FaultPlan (frame "
             "cuts, refused connects, daemon SIGKILL) over a 2-daemon "
             "gateway, asserting completion and reproducible action traces",
        description="Run a random-action workload through a fault-injecting "
                    "ChaosTransport against an in-process gateway fleet with "
                    "the heartbeat health monitor on. The fault schedule is "
                    "fully determined by --seed; with --runs 2 the command "
                    "fails unless both runs inject the identical fault "
                    "sequence and produce identical final action traces.",
    )
    chaos_soak.add_argument("--env", default="llvm-v0")
    chaos_soak.add_argument("--benchmark", default="benchmark://cbench-v1/qsort")
    chaos_soak.add_argument("--seed", type=int, default=0,
                            help="Seed of the fault schedule and the action "
                                 "workload (same seed -> same run)")
    chaos_soak.add_argument("--episodes", type=int, default=4)
    chaos_soak.add_argument("--steps", type=int, default=6,
                            help="Actions attempted per episode")
    chaos_soak.add_argument("--daemons", type=int, default=2,
                            help="Gateway fleet size")
    chaos_soak.add_argument("--heartbeat-interval", type=float, default=0.25)
    chaos_soak.add_argument("--fault-calls", type=int, default=40,
                            help="Call-index range the seeded faults are "
                                 "drawn over")
    chaos_soak.add_argument("--fault-rate", type=float, default=0.15,
                            help="Per-call fault probability in the seeded "
                                 "schedule")
    chaos_soak.add_argument("--kill-call", type=int, default=12,
                            help="SIGKILL gateway daemon 0 at the first "
                                 "step() call at or after this call index "
                                 "(-1 disables the kill)")
    chaos_soak.add_argument("--runs", type=int, default=1,
                            help="Repeat the identical soak N times and fail "
                                 "unless every run matches (determinism gate)")
    chaos_soak.set_defaults(func=_cmd_chaos_soak)

    search = sub.add_parser("random-search", help="Run (parallel) random search")
    search.add_argument("--env", default="llvm-ic-v0")
    search.add_argument("--benchmark", action="append", help="Benchmark URI (repeatable)")
    search.add_argument("--steps", type=int, default=500)
    search.add_argument("--patience", type=int, default=25)
    search.add_argument("--nproc", type=int, default=1,
                        help="Independent searches to run concurrently (one per benchmark)")
    search.add_argument("--workers", type=int, default=1,
                        help="Vectorized environment pool size per search: the environment "
                             "is fork()ed into N workers that evaluate candidate episodes "
                             "concurrently")
    search.add_argument("--service-url", default=None,
                        help="Attach search environments to a running compiler "
                             "service daemon (see `serve`), e.g. tcp://127.0.0.1:5499")
    search.add_argument("--output", help="Write resulting states to a CSV file")
    search.set_defaults(func=_cmd_random_search)

    train = sub.add_parser(
        "train", help="Train an RL agent on vectorized (auto-reset) rollouts"
    )
    train.add_argument("--env", default="llvm-v0")
    train.add_argument("--agent", choices=["a2c", "ppo", "impala", "apex"], default="ppo")
    train.add_argument("--benchmark", action="append", help="Benchmark URI (repeatable)")
    train.add_argument("--episodes", type=int, default=100)
    train.add_argument("--episode-length", type=int, default=45)
    train.add_argument("--workers", type=int, default=1,
                       help="Vectorized environment pool size collecting rollouts "
                            "(with --actors: pool size inside each actor process)")
    train.add_argument("--backend", choices=BACKENDS, default="serial",
                       help="Step the pool's workers in a loop ('serial') or on "
                            "a thread pool ('thread'). For several cores, use "
                            "--actors or point --service-url at a gateway fleet")
    train.add_argument("--actors", type=int, default=0,
                       help="Distributed actor/learner training (apex/impala only): "
                            "N actor processes collect experience into a central "
                            "learner that broadcasts weights back. 0 (default) "
                            "trains single-process via train_agent_vec")
    train.add_argument("--learner-batch", type=int, default=0,
                       help="Learner replay sample size per update (apex only; "
                            "0 keeps the agent default)")
    train.add_argument("--broadcast-interval", type=int, default=8,
                       help="Min experience items between learner weight "
                            "broadcasts (multi-actor async mode)")
    train.add_argument("--service-url", default=None,
                       help="Attach training environments (in every actor "
                            "process) to a running compiler service daemon "
                            "(see `serve`), e.g. tcp://127.0.0.1:5499")
    train.add_argument("--no-auto-reset", action="store_true",
                       help="Collect per-episode lockstep rollouts instead of "
                            "continuous auto-reset rollouts")
    train.add_argument("--checkpoint-dir", default=None,
                       help="Directory for periodic learner checkpoints "
                            "(weights, feature-scaler statistics, episode "
                            "accounting). Distributed mode (--actors) only")
    train.add_argument("--checkpoint-interval", type=int, default=512,
                       help="Experience items learned between periodic "
                            "checkpoints")
    train.add_argument("--resume", action="store_true",
                       help="Resume from the checkpoint in --checkpoint-dir: "
                            "--episodes is the total target; only the "
                            "episodes beyond the checkpoint are run and the "
                            "learning curve concatenates saved + new episodes")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", help="Write the learning curve to a JSON file")
    train.set_defaults(func=_cmd_train)

    replay = sub.add_parser("replay", help="Replay recorded states")
    replay.add_argument("states", help="CSV/JSON file of CompilerEnvStates")
    replay.add_argument("--env", default="llvm-v0")
    replay.add_argument("--reward", default="IrInstructionCount")
    replay.set_defaults(func=_cmd_replay)

    lint = sub.add_parser(
        "lint",
        help="Validate every registered pass over the builtin datasets "
             "(semantic IR verifier + interpreter differential check)",
    )
    lint.add_argument(
        "--dataset",
        action="append",
        default=[],
        help="Dataset(s) to lint (repeatable; default: all builtin datasets)",
    )
    lint.add_argument(
        "--benchmarks-per-dataset",
        type=int,
        default=2,
        help="Benchmarks sampled per dataset (default: 2)",
    )
    lint.add_argument(
        "--passes",
        nargs="*",
        default=[],
        help="Passes to validate (default: every registered pass)",
    )
    lint.add_argument(
        "--no-differential",
        action="store_true",
        help="Skip the interpreter-based differential check",
    )
    lint.add_argument("--quiet", action="store_true", help="Only print the summary")
    lint.set_defaults(func=_cmd_lint)

    validate = sub.add_parser("validate", help="Validate recorded states")
    validate.add_argument("states", help="CSV/JSON file of CompilerEnvStates")
    validate.add_argument("--env", default="llvm-v0")
    validate.add_argument("--reward", default="IrInstructionCount")
    validate.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
