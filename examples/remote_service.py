"""Out-of-process compiler service walkthrough: daemon, clients, pools.

The paper's headline design is a client/server split: environments talk to a
long-lived compiler *service* over RPC, so one service hosts many sessions,
survives client churn, and can live on another machine. This example walks
that architecture end to end:

1. Start a compiler service daemon (in-process here for a self-contained
   demo; in production run ``repro-compilergym serve --env llvm-v0 --port
   5499`` on the server machine).
2. Attach a plain environment with ``repro.make(..., service_url=...)`` —
   its compilation sessions now live on the daemon.
3. Attach a vectorized pool: with a ``service_url`` every worker becomes one
   more session on that daemon, forked from the root on its one multiplexed
   connection, so sequential pools (and whole training runs) reuse one warm
   service process. (Without one, ``backend="process"`` would give each
   worker a private daemon of its own in a child process.)
4. Read the daemon's ``server_info`` to watch sessions multiplex.

Usage::

    python examples/remote_service.py --benchmark cbench-v1/crc32 --workers 2

    # Against an already-running daemon:
    repro-compilergym serve --env llvm-v0 --port 5499 &
    python examples/remote_service.py --service-url tcp://127.0.0.1:5499
"""

import argparse

import repro
from repro.core.service.runtime.server import make_env_server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", default="cbench-v1/crc32")
    parser.add_argument("--workers", type=int, default=2, help="Pool size per pool")
    parser.add_argument("--steps", type=int, default=6, help="Batched steps per pool")
    parser.add_argument(
        "--service-url",
        default=None,
        help="Attach to a running daemon (e.g. tcp://127.0.0.1:5499) instead "
             "of starting one in-process",
    )
    args = parser.parse_args()

    server = None
    if args.service_url is None:
        server = make_env_server("llvm-v0", port=0, session_timeout=None).start()
        url = server.url
        print(f"started in-process daemon at {url}")
    else:
        url = args.service_url
        print(f"attaching to daemon at {url}")

    try:
        # -- one plain client ------------------------------------------------
        env = repro.make(
            "llvm-v0",
            benchmark=args.benchmark,
            observation_space="Autophase",
            reward_space="IrInstructionCount",
            service_url=url,
        )
        env.reset()
        _, reward, _, _ = env.step(env.action_space["mem2reg"])
        print(f"single client: mem2reg reward {reward:.1f} "
              f"(session lives on the daemon)")
        info = env.service.transport.server_info()
        print(f"daemon pid {info['pid']}: {info['active_sessions']} active session(s), "
              f"{info['runtime_stats']['start_session']} started so far")
        env.close()

        # -- two sequential pools against the same daemon --------------------
        for round_index in range(2):
            vec = repro.make_vec_env(
                env_id="llvm-v0",
                n=args.workers,
                backend="thread",  # sessions on the daemon, stepped as one batch
                service_url=url,
                benchmark=args.benchmark,
                observation_space="Autophase",
                reward_space="IrInstructionCount",
            )
            with vec:
                vec.reset()
                total = 0.0
                for step in range(args.steps):
                    actions = [
                        (step + worker) % vec.action_space.n
                        for worker in range(vec.num_envs)
                    ]
                    _, rewards, _, _ = vec.step(actions)
                    total += sum(r or 0.0 for r in rewards)
                stats = vec.connection_stats()
                print(
                    f"pool {round_index + 1}: {vec.num_envs} daemon-backed workers, "
                    f"total reward {total:.1f}, "
                    f"{int(stats['step']['calls'])} step RPCs "
                    f"in {stats['step']['wall_time_s']:.3f}s"
                )

        final = repro.make("llvm-v0", service_url=url)
        info = final.service.transport.server_info()
        print(
            f"daemon served {info['runtime_stats']['start_session']} session(s) over "
            f"{info['connections_served']} connection(s) — one warm service "
            "process for every client above"
        )
        final.close()
    finally:
        if server is not None:
            server.shutdown()
            print("daemon shut down cleanly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
