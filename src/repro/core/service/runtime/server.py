"""The standalone compiler service daemon.

This is the server half of the paper's client/server split: one long-lived
process hosts a :class:`~repro.core.service.runtime.compiler_gym_service.
CompilerGymServiceRuntime` and serves the versioned RPC protocol of
:class:`~repro.core.service.transport.SocketTransport` (see
:mod:`repro.core.service.wire`) over a TCP or Unix socket. Many clients
— environments, vectorized pools, RL actors, a session-routing gateway,
possibly on other machines — multiplex their sessions onto the one runtime,
sharing its benchmark cache and amortizing service startup across all of
them.

Robustness properties:

* **Per-session locking** — concurrent requests against *different* sessions
  run in parallel (each connection's reader thread runs its requests, and
  requests multiplexed on one connection run on the dispatch pool, see
  :mod:`repro.core.service.rpc_server`); concurrent requests against the
  *same* session serialize on the lock of its entry in the runtime's session
  table, so a session's compiler state can never interleave two
  ``step()``\\ s. The daemon keeps no session table of its own.
* **Client churn** — a dropped client connection ends nothing: its sessions
  stay alive until explicitly ended, reclaimed by the idle reaper, or the
  daemon shuts down. This is what lets sequential pools (and successive
  training runs) reattach to warm state.
* **Idle-session reaping** — sessions untouched for ``session_timeout``
  seconds are ended in the background, so leaked sessions from crashed
  clients cannot accumulate forever. A session with a call in flight is
  never reaped.
* **Session ownership** — every call passes the runtime the auth token of
  the connection it came on, as ``owner``. A session belongs to the token
  that created it (a fork to its parent's), and the runtime rejects a
  session-scoped call from a different tenant with
  :class:`~repro.errors.PermissionDeniedError`; the daemon checks nothing
  itself. Anonymous connections (no token) share one anonymous tenant,
  preserving the pre-auth behaviour of trusted single-tenant deployments.
* **Graceful shutdown** — ``shutdown()`` (or SIGINT/SIGTERM under ``repro
  serve``) stops accepting, unblocks every handler, closes all sessions and
  the runtime, and joins all threads.

Start one from the command line with ``repro-compilergym serve --env llvm-v0
--port 5499``, then attach environments with ``repro.make("llvm-v0",
service_url="tcp://127.0.0.1:5499")``. To front a fleet of daemons with one
URL, see :mod:`repro.core.service.gateway`.

The accept loop, handshake, and reply framing are inherited from
:class:`~repro.core.service.rpc_server.SocketRPCServer`; this module adds
what requests *mean* against a compiler runtime. Typed-codec frames plus
``--service-token`` authentication replace the historical "bare pickle from
anyone who can connect" trust model; still prefer loopback, Unix sockets,
or a trusted network segment, since opaque payloads remain pickled for
token-holding peers.
"""

import logging
import multiprocessing
import signal
import threading
import time
from typing import Optional

from repro.core.service.rpc_server import ClientConnectionState, SocketRPCServer
from repro.errors import ServiceError

logger = logging.getLogger(__name__)

# RPC methods a client may invoke on the runtime. Everything else is
# rejected — the wire protocol must not become a generic remote getattr.
# (``hello`` is handled by the base server, not listed here.)
_ALLOWED_METHODS = frozenset(
    {"get_spaces", "start_session", "step", "step_sessions", "fork_session",
     "end_session", "handle_session_parameter", "server_info"}
)


class ServiceServer(SocketRPCServer):
    """Serves a compiler service runtime to socket clients.

    Args:
        runtime: The shared :class:`CompilerGymServiceRuntime` to serve.
        host / port: TCP listen address. ``port=0`` picks a free port
            (exposed afterwards via :attr:`url`).
        unix_path: Serve on a Unix domain socket instead of TCP.
        session_timeout: Idle seconds after which a session is reaped.
            ``None`` disables reaping.
        reap_interval: How often the reaper thread scans, in seconds.
        env_id: Optional environment id, reported by ``server_info``.
        auth_tokens: Accepted client auth tokens; ``None`` serves everyone
            (the anonymous single-tenant mode).
    """

    server_kind = "serve"

    def __init__(
        self,
        runtime,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        session_timeout: Optional[float] = 3600.0,
        reap_interval: float = 10.0,
        env_id: Optional[str] = None,
        auth_tokens=None,
    ):
        self.runtime = runtime
        self.env_id = env_id
        self.session_timeout = session_timeout
        self.reap_interval = reap_interval
        self.reaped_sessions = 0
        self.batched_steps = 0
        # Closables released after the runtime at shutdown (e.g. the template
        # environment whose datasets back the benchmark resolver).
        self.owned_resources = []

        self._reaper_thread: Optional[threading.Thread] = None

        super().__init__(host=host, port=port, unix_path=unix_path, auth_tokens=auth_tokens)

        if self.session_timeout is not None:
            self._reaper_thread = threading.Thread(
                target=self._reap_loop, name="repro-serve-reaper", daemon=True
            )
            self._reaper_thread.start()

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, state: ClientConnectionState, method: str, args):
        if method not in _ALLOWED_METHODS:
            raise ServiceError(f"Unknown service method: {method!r}")
        if method == "server_info":
            return self.server_info()
        if method == "get_spaces":
            return self.runtime.get_spaces(*args)
        if method == "step_sessions":
            with self._lock:
                self.batched_steps += 1
        # By keyword: every runtime method takes ``owner`` after its own
        # arguments, and the runtime checks it against the session's tenant.
        return getattr(self.runtime, method)(*args, owner=state.token)

    # -- idle reaping ------------------------------------------------------

    def _reap_loop(self) -> None:
        while not self._shutdown_event.wait(self.reap_interval):
            self.reap_idle_sessions()

    def reap_idle_sessions(self) -> int:
        """End every session idle for longer than ``session_timeout``.

        Returns the number of sessions reaped. The runtime's
        ``end_idle_sessions`` decides idleness under each session's own lock,
        after any call in flight has finished, so a session is never reaped
        mid-call. Called periodically by the reaper thread; callable directly
        (e.g. from tests or an operator console).
        """
        if self.session_timeout is None:
            return 0
        reaped = self.runtime.end_idle_sessions(self.session_timeout)
        if reaped:
            with self._lock:
                self.reaped_sessions += reaped
            logger.info("Reaped %d idle session(s)", reaped)
        return reaped

    # -- introspection -----------------------------------------------------

    def server_info(self) -> dict:
        """Identity and occupancy snapshot, served as the ``server_info`` RPC."""
        with self._lock:
            reaped = self.reaped_sessions
            batched = self.batched_steps
            last_heartbeat = self.last_heartbeat_at
        return {
            **self._server_info(),
            "env_id": self.env_id,
            "active_sessions": len(self.runtime.sessions),
            "reaped_sessions": reaped,
            "batched_steps": batched,
            "last_heartbeat_age_s": (
                None if last_heartbeat is None
                else time.monotonic() - last_heartbeat
            ),
            "runtime_stats": dict(self.runtime.stats),
            "cache_stats": self.runtime.cache_stats(),
        }

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop accepting, drop every client, close all sessions. Idempotent."""
        if not self._begin_shutdown():
            return
        if self._reaper_thread is not None:
            self._reaper_thread.join(timeout=self.reap_interval + 5)
        self._finish_shutdown()
        try:
            self.runtime.shutdown()
        finally:
            for resource in self.owned_resources:
                try:
                    resource.close()
                except Exception:  # noqa: BLE001 - teardown must not raise
                    pass
        logger.info("Compiler service daemon on %s shut down", self.url)


def make_env_server(
    env_id: str,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_path: Optional[str] = None,
    session_timeout: Optional[float] = 3600.0,
    reap_interval: float = 10.0,
    auth_tokens=None,
    result_cache=None,
    **make_kwargs,
) -> ServiceServer:
    """Build a :class:`ServiceServer` hosting the runtime of ``env_id``.

    A template environment is constructed once to obtain the session type and
    the benchmark resolver (its datasets); it is kept alive for the server's
    lifetime so that benchmark resolution — which happens daemon-side —
    works exactly as it does in-process. The served runtime is a *fresh*
    instance: the template's own sessions are never exposed.
    """
    from repro.core.registration import make
    from repro.core.service.runtime.compiler_gym_service import CompilerGymServiceRuntime

    template_env = make(env_id, **make_kwargs)
    try:
        runtime = CompilerGymServiceRuntime(
            session_type=template_env.session_type,
            benchmark_resolver=template_env._resolve_benchmark,
            result_cache=result_cache,
        )
        server = ServiceServer(
            runtime,
            host=host,
            port=port,
            unix_path=unix_path,
            session_timeout=session_timeout,
            reap_interval=reap_interval,
            env_id=env_id,
            auth_tokens=auth_tokens,
        )
    except Exception:
        # Constructor failure (e.g. the port is already bound) must not leak
        # the template environment and its in-process service.
        template_env.close()
        raise
    # The resolver closes over the template env; pin it to the server so it
    # lives (and is released) with the daemon.
    server.owned_resources.append(template_env)
    return server


def _spawned_daemon_main(ready, env_id: str, server_kwargs: dict) -> None:
    """Child-process entry point: build the daemon, report its URL over
    ``ready``, then serve until SIGTERM/SIGINT."""
    try:
        server = make_env_server(env_id, **server_kwargs)
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        try:
            ready.send(("error", f"{type(error).__name__}: {error}"))
        finally:
            ready.close()
        return
    ready.send(("ok", server.url))
    ready.close()

    def _on_term(signum, frame):
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)
    server.serve_forever()
    server.shutdown()


class SpawnedDaemon:
    """A :func:`make_env_server` daemon served from a child process.

    The one way this project puts a runtime in another process: gateways
    spawn their local fleet members with it. Construction starts the child and
    returns while it builds its runtime, so several can be started before the
    first is waited for; the first read of :attr:`url` waits until the daemon
    is serving. A daemon that fails to start is reaped and that read raises
    :class:`ServiceError`.

    Args:
        env_id: Environment whose runtime the daemon serves.
        server_kwargs: Arguments of :func:`make_env_server` (listen address,
            ``auth_tokens``, ``result_cache``, ``repro.make`` kwargs, ...).
    """

    def __init__(self, env_id: str, **server_kwargs):
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        self._ready, child_end = ctx.Pipe(duplex=False)
        self._url: Optional[str] = None
        # Daemonic: an interpreter that exits without stopping its daemons
        # SIGTERMs them (a clean shutdown) instead of waiting on them forever.
        self.process = ctx.Process(
            target=_spawned_daemon_main,
            args=(child_end, env_id, server_kwargs),
            name="repro-spawned-daemon",
            daemon=True,
        )
        self.process.start()
        child_end.close()

    @property
    def url(self) -> str:
        """Where the daemon serves; waits for it to come up on first read."""
        if self._url is None:
            try:
                if self._ready.poll(120):
                    status, payload = self._ready.recv()
                else:
                    status, payload = "error", "no URL reported within 120s"
            except (EOFError, OSError) as error:
                status, payload = "error", f"died during startup: {error}"
            if status != "ok":
                self.stop()
                raise ServiceError(f"Spawned daemon failed to start: {payload}")
            self._ready.close()
            self._url = payload
        return self._url

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM the daemon (it shuts down cleanly), escalating to SIGKILL.

        Idempotent, and safe on a daemon that already died or is still starting.
        """
        self._ready.close()
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=15)
            if self.process.is_alive():
                self.process.kill()
        self.process.join(timeout=5)
