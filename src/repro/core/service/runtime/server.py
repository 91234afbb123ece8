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
  run in parallel (one handler thread per client connection); concurrent
  requests against the *same* session serialize, so a session's compiler
  state can never interleave two ``step()``\\ s.
* **Client churn** — a dropped client connection ends nothing: its sessions
  stay alive until explicitly ended, reclaimed by the idle reaper, or the
  daemon shuts down. This is what lets sequential pools (and successive
  training runs) reattach to warm state.
* **Idle-session reaping** — sessions untouched for ``session_timeout``
  seconds are ended in the background, so leaked sessions from crashed
  clients cannot accumulate forever.
* **Session ownership** — every session is stamped with the auth token of
  the connection that created it; a session-scoped call from a different
  tenant is rejected with :class:`~repro.errors.PermissionDeniedError`.
  Anonymous connections (no token) share one anonymous tenant, preserving
  the pre-auth behaviour of trusted single-tenant deployments.
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
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from repro.core.service.proto import (
    EndSessionRequest,
    SessionStepResult,
    StepSessionsReply,
    StepSessionsRequest,
)
from repro.core.service.rpc_server import ClientConnectionState, SocketRPCServer
from repro.core.service.wire import CODECS, WIRE_VERSION
from repro.errors import PermissionDeniedError, ServiceError, SessionNotFound

logger = logging.getLogger(__name__)


def _picklable_error(error: BaseException) -> BaseException:
    """Degrade an unpicklable exception to a :class:`ServiceError` so one
    exotic per-session failure cannot poison a whole batched reply frame."""
    import pickle

    try:
        pickle.dumps(error)
        return error
    except Exception:  # noqa: BLE001 - degrade, don't die
        return ServiceError(f"{type(error).__name__}: {error}")

# RPC methods a client may invoke on the runtime, and where in their argument
# list the session id lives (for per-session locking / idle accounting).
# Everything else is rejected — the wire protocol must not become a generic
# remote getattr. (``hello`` is handled by the base server, not listed here.)
_SESSION_ID_FROM_REQUEST = ("step", "fork_session", "end_session")
_ALLOWED_METHODS = frozenset(
    {"get_spaces", "start_session", "handle_session_parameter", "server_info",
     "step_sessions"}
    | set(_SESSION_ID_FROM_REQUEST)
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

        self._session_locks: Dict[int, threading.Lock] = {}
        self._session_last_used: Dict[int, float] = {}
        # Auth token of the connection that created each session. ``None`` is
        # the shared anonymous tenant.
        self._session_owner: Dict[int, Optional[str]] = {}
        self._reaper_thread: Optional[threading.Thread] = None
        # The *sub-steps* of a step_sessions batch run on a separate pool
        # from the base server's dispatch pool: a batch the dispatch pool
        # runs blocks waiting for its sub-steps, and tasks must never wait
        # on their own executor.
        self._batch_executor = ThreadPoolExecutor(
            max_workers=max(4, (os.cpu_count() or 4)),
            thread_name_prefix="repro-serve-batch",
        )

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
        if method == "step_sessions":
            return self._step_sessions(state, *args)
        if method == "start_session":
            reply = self.runtime.start_session(*args)
            self._track_session(reply.session_id, owner=state.token)
            return reply
        session_id = self._session_id_of(method, args)
        if session_id is None:
            return getattr(self.runtime, method)(*args)
        result = self._call_in_session(state, session_id, getattr(self.runtime, method), *args)
        if method == "fork_session":
            # A fork belongs to whoever forked it (same tenant as the parent,
            # by the ownership check above).
            self._track_session(result.session_id, owner=state.token)
        elif method == "end_session":
            self._forget_session(session_id)
        return result

    def _call_in_session(self, state: ClientConnectionState, session_id: int, call, *args):
        """The one discipline of every call made against a session.

        Reject another tenant's caller, then run ``call(*args)`` under the
        session's lock so a session's compiler state never interleaves two
        calls. ``last_used`` is stamped before taking the lock and again after
        completing under it: a call longer than the idle timeout must not
        leave it at its pre-call value, or the reaper — which re-checks under
        this lock — would end a session the instant its step finished.
        """
        self._check_session_owner(state, session_id)
        self._touch_session(session_id)
        with self._session_lock(session_id):
            try:
                result = call(*args)
            except SessionNotFound:
                # An unknown (or already-ended) session id must not leave a
                # lock/last-used entry behind — stale clients would otherwise
                # grow the tracking maps without bound.
                self._forget_session(session_id)
                raise
            self._touch_session(session_id)
        return result

    def _step_sessions(
        self, state: ClientConnectionState, request: StepSessionsRequest
    ) -> StepSessionsReply:
        """Execute a batch of per-session steps concurrently, reply once.

        Each sub-request is one :meth:`_call_in_session`, exactly like a
        standalone ``step``, so the idle reaper can never end a session that
        is mid-flight inside a batch. Failures are reported per session, not
        raised. Per-session wall times (including lock wait) are measured
        here and returned so the client can attribute load to each session
        despite the single round trip.
        """
        if not isinstance(request, StepSessionsRequest):
            raise ServiceError(
                f"step_sessions expects a StepSessionsRequest, got "
                f"{type(request).__name__}"
            )
        with self._lock:
            self.batched_steps += 1

        def step_one(sub) -> SessionStepResult:
            started = time.monotonic()
            reply = error = None
            try:
                reply = self._call_in_session(state, sub.session_id, self.runtime.step, sub)
            except BaseException as failure:  # noqa: BLE001 - reported per-result
                error = _picklable_error(failure)
            return SessionStepResult(
                session_id=sub.session_id,
                reply=reply,
                error=error,
                wall_time_s=time.monotonic() - started,
            )

        # All but the last sub-step run on the dedicated batch pool (never on
        # the dispatch pool this batch RPC may itself occupy); the last runs
        # here, so a batch of one — every single step a gateway forwards —
        # pays no executor handoff. Two sub-requests naming the same session
        # serialize on its lock like any other concurrent pair.
        subs = request.requests
        futures = [self._batch_executor.submit(step_one, sub) for sub in subs[:-1]]
        last = [step_one(sub) for sub in subs[-1:]]
        return StepSessionsReply(results=[future.result() for future in futures] + last)

    @staticmethod
    def _session_id_of(method: str, args) -> Optional[int]:
        if method in _SESSION_ID_FROM_REQUEST and args:
            return args[0].session_id
        if method == "handle_session_parameter" and args:
            return args[0]
        return None

    def _check_session_owner(
        self, state: ClientConnectionState, session_id: int
    ) -> None:
        """Reject a session-scoped call from a tenant that does not own it.

        Unknown session ids pass through: they fail with the usual
        :class:`SessionNotFound` from the runtime, which is also what a
        cross-tenant prober sees after its rightful owner ends a session —
        ownership does not outlive the session it protects.
        """
        with self._lock:
            if session_id not in self._session_owner:
                return
            owner = self._session_owner[session_id]
        if owner != state.token:
            raise PermissionDeniedError(
                f"Session {session_id} belongs to another tenant"
            )

    def _session_lock(self, session_id: int) -> threading.Lock:
        with self._lock:
            return self._session_locks.setdefault(session_id, threading.Lock())

    def _track_session(self, session_id: int, owner: Optional[str] = None) -> None:
        with self._lock:
            self._session_locks.setdefault(session_id, threading.Lock())
            self._session_last_used[session_id] = time.monotonic()
            self._session_owner[session_id] = owner

    def _touch_session(self, session_id: int) -> None:
        with self._lock:
            # Refresh known sessions only; unknown ids are either about to
            # raise SessionNotFound or races with the reaper — neither may
            # (re)insert a tracking entry.
            if session_id in self._session_last_used:
                self._session_last_used[session_id] = time.monotonic()

    def _forget_session(self, session_id: int) -> None:
        with self._lock:
            self._session_locks.pop(session_id, None)
            self._session_last_used.pop(session_id, None)
            self._session_owner.pop(session_id, None)

    # -- idle reaping ------------------------------------------------------

    def _reap_loop(self) -> None:
        while not self._shutdown_event.wait(self.reap_interval):
            self.reap_idle_sessions()

    def reap_idle_sessions(self) -> int:
        """End every session idle for longer than ``session_timeout``.

        Returns the number of sessions reaped. Called periodically by the
        reaper thread; callable directly (e.g. from tests or an operator
        console).
        """
        if self.session_timeout is None:
            return 0
        deadline = time.monotonic() - self.session_timeout
        with self._lock:
            idle = [
                session_id
                for session_id, last_used in self._session_last_used.items()
                if last_used < deadline
            ]
        reaped = 0
        for session_id in idle:
            # Serialize with any in-flight call on the session; re-check the
            # idle deadline under the lock so a just-touched session survives.
            with self._session_lock(session_id):
                with self._lock:
                    last_used = self._session_last_used.get(session_id)
                if last_used is None:
                    # The session was ended between the idle snapshot and
                    # now; _session_lock() re-created its lock entry above —
                    # drop it or it leaks forever.
                    self._forget_session(session_id)
                    continue
                if last_used >= deadline:
                    continue
                try:
                    self.runtime.end_session(EndSessionRequest(session_id=session_id))
                except (ServiceError, SessionNotFound):
                    pass
            self._forget_session(session_id)
            reaped += 1
        if reaped:
            with self._lock:
                self.reaped_sessions += reaped
            logger.info("Reaped %d idle session(s)", reaped)
        return reaped

    # -- introspection -----------------------------------------------------

    def server_info(self) -> dict:
        """Identity and occupancy snapshot, served as the ``server_info`` RPC."""
        with self._lock:
            tracked = len(self._session_last_used)
            reaped = self.reaped_sessions
            connections = self.connections_served
            batched = self.batched_steps
            heartbeats = self.heartbeats_served
            last_heartbeat = self.last_heartbeat_at
        return {
            "pid": os.getpid(),
            "env_id": self.env_id,
            "url": self.url,
            "protocol_version": WIRE_VERSION,
            "wire_versions": sorted(CODECS),
            "uptime_s": time.monotonic() - self.started_at,
            "active_sessions": tracked,
            "reaped_sessions": reaped,
            "connections_served": connections,
            "batched_steps": batched,
            "heartbeats_served": heartbeats,
            **self._dispatch_counters(),
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
        # Handlers have drained their in-flight requests; retire the dispatch
        # pools (batch first: dispatch tasks wait on batch tasks, not vice
        # versa, so this order cannot deadlock either way — it just reads in
        # dependency order).
        self._batch_executor.shutdown(wait=True)
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
    spawn their local fleet members with it, and the ``"process"`` vec
    backend its per-worker private daemons. Construction starts the child and
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
