"""Session-routing gateway: one URL fronting a fleet of compiler daemons.

The paper's service architecture is sized for "millions of users", and one
daemon is a single point of saturation and failure. A
:class:`ServiceGateway` refactors the deployment from *a client dials one
daemon* into *a client resolves sessions through a routing layer*: it
serves the exact same wire protocol as a daemon (clients, vectorized pools,
RL actors, and the Explorer REST API attach to a gateway URL with zero code
changes), places each new session on the least-loaded live daemon, proxies
session-scoped RPCs to the owning daemon over the multiplexed transport,
and fails sessions over when a daemon dies.

**Session routing.** The gateway speaks *gateway-scoped* session ids to its
clients and translates to ``(daemon, remote session id)`` pairs
internally, so clients never observe which daemon hosts them — or that the
hosting daemon changed. A batched ``step_sessions`` RPC is split by owning
daemon on the thread that read it, which sends every daemon its share before
it awaits any reply, then collects the replies in turn and reassembles them in
request order: the daemons step their shares at the same time, and the gateway
hands no work to another thread.

**Failover.** Every routed session records its construction recipe and the
acknowledged action sequence as a :class:`~repro.core.compiler_env_state.
CompilerEnvState`-backed record. When a daemon dies (detected by a failed
RPC plus a failed liveness probe, or by the :class:`HealthMonitor`), each
of its sessions is re-created on a surviving daemon by replaying the
recorded actions, and the failed call is retried once against the new
home. Only *acknowledged* actions are
replayed, so a step lost in flight with the dying daemon is applied at most
once on the successor. ``server_info()["failovers"]`` counts these events;
the spaces a gateway serves are its ``env_id``'s and do not change with its
fleet, so clients that connect afterwards read the same ones.

**Multi-tenancy.** Client auth tokens (checked by the inherited hello
handshake) own their sessions at the gateway: one tenant's session-scoped
calls can never touch another tenant's sessions, whichever daemon they
landed on. Toward the fleet the gateway speaks a single ``fleet_token``,
letting daemons be locked down to gateway-only access.

**Fleet membership.** Daemons are either *attached* (URLs handed in) or
*spawned* (local worker processes started from an ``env_id``) when the
gateway is built. After that the fleet changes only by failover, which
retires a dead member (and stops it, if the gateway spawned it). A member is
live or dead, nothing in between: a call that fails at a live member's
connection is answered :class:`ServiceIsDown` and the member keeps serving.
"""

import itertools
import logging
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.compiler_env_state import CompilerEnvState
from repro.core.service.connection import ConnectionOpts, ServiceConnection
from repro.core.service.health import HealthMonitor
from repro.core.service.proto import (
    EndSessionReply,
    EndSessionRequest,
    ForkSessionReply,
    ForkSessionRequest,
    SessionStepResult,
    StartSessionReply,
    StartSessionRequest,
    StepRequest,
    StepSessionsReply,
    StepSessionsRequest,
)
from repro.core.service.rpc_server import ClientConnectionState, SocketRPCServer
from repro.core.service.runtime.server import SpawnedDaemon
from repro.core.service.transport import SocketTransport
from repro.errors import (
    PermissionDeniedError,
    ServiceError,
    ServiceIsDown,
    SessionNotFound,
)

logger = logging.getLogger(__name__)

# RPC methods the gateway accepts from clients — the same vocabulary a
# daemon serves, so every existing client works unchanged against a gateway.
_GATEWAY_METHODS = frozenset(
    {"get_spaces", "start_session", "step", "fork_session", "end_session",
     "handle_session_parameter", "step_sessions", "server_info"}
)


@dataclass
class DaemonHandle:
    """One fleet member: its URL, client connection, and (if spawned) process."""

    index: int
    url: str
    connection: ServiceConnection
    spawned: Optional[SpawnedDaemon] = None
    dead: bool = False
    last_heartbeat: Optional[float] = None  # The last answered probe.

    @property
    def pid(self) -> Optional[int]:
        return self.spawned.pid if self.spawned is not None else None

    def down_error(self, error: Optional[BaseException] = None) -> ServiceError:
        """Graceful degradation: what a call routed to this daemon gets.

        With no ``error`` the daemon is dead, and the call gets
        :class:`ServiceIsDown` at once instead of a timeout. A call that
        failed at the connection gets it too: the daemon, not the compile
        work, is the problem. A :class:`ServiceError` the daemon answered
        passes through as it is.
        """
        if isinstance(error, ServiceError):
            return error
        return ServiceIsDown(
            f"Gateway daemon {self.index} at {self.url} is "
            f"{'dead' if error is None else f'unreachable: {error}'}; its "
            f"sessions are unavailable until the fleet recovers"
        )

    def stop(self) -> None:
        """Close the gateway's connection to this member and stop its
        process if the gateway spawned it. Idempotent."""
        try:
            self.connection.close()
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass
        if self.spawned is not None:
            self.spawned.stop()

    def last_heartbeat_age_s(self) -> Optional[float]:
        if self.last_heartbeat is None:
            return None
        return time.monotonic() - self.last_heartbeat


@dataclass
class _RoutedSession:
    """Gateway-side record of one client session: where it lives and how to
    rebuild it. ``state`` carries the replay recipe (benchmark + acknowledged
    actions) in :class:`CompilerEnvState` form; only acknowledged actions are
    replayed on failover, preserving at-most-once step application. The
    replayed session verifies its IR if the original did (``verify_ir``)."""

    gateway_sid: int
    daemon: DaemonHandle
    remote_sid: int
    owner: Optional[str]
    benchmark_uri: str
    action_space: int = 0
    actions: List[Any] = field(default_factory=list)
    verify_ir: bool = False

    def env_state(self) -> CompilerEnvState:
        """The session's episode so far, as a portable CompilerEnvState."""
        return CompilerEnvState(
            benchmark=self.benchmark_uri,
            commandline=" ".join(str(action) for action in self.actions),
        )


class ServiceGateway(SocketRPCServer):
    """Routes compiler service sessions across a fleet of daemons.

    Args:
        daemon_urls: URLs of already-running daemons to attach to.
        env_id: Environment id for locally spawned daemons.
        daemons: Number of local daemon processes to spawn at startup
            (requires ``env_id``).
        make_kwargs: Extra ``repro.make`` kwargs for spawned daemons.
        host / port / unix_path: Where the gateway itself listens.
        auth_tokens: Client auth tokens accepted by the gateway (``None``
            serves everyone; tenants are then distinguished by whatever
            token each client presented, including none).
        fleet_token: Auth token the gateway presents to its daemons, and
            which spawned daemons are configured to require.
        daemon_timeout: Per-RPC transport timeout toward the daemons.
        heartbeat_interval: Seconds between proactive liveness probes of
            each daemon. ``None`` (the default for embedded gateways)
            disables the background :class:`HealthMonitor`; the serve CLIs
            turn it on. With the monitor running, a SIGKILLed daemon is
            detected and its sessions re-homed within ~2 intervals even
            when no client RPC is in flight.
    """

    server_kind = "gateway"

    def __init__(
        self,
        daemon_urls: Optional[List[str]] = None,
        env_id: Optional[str] = None,
        daemons: int = 0,
        make_kwargs: Optional[Dict[str, Any]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        auth_tokens=None,
        fleet_token: Optional[str] = None,
        daemon_timeout: float = 300.0,
        heartbeat_interval: Optional[float] = None,
    ):
        if not daemon_urls and not daemons:
            raise ValueError(
                "ServiceGateway needs a fleet: pass daemon_urls and/or daemons > 0"
            )
        if daemons and not env_id:
            raise ValueError("Spawning local daemons requires env_id")
        self.env_id = env_id
        self.fleet_token = fleet_token
        self.daemon_timeout = daemon_timeout
        self._make_kwargs = dict(make_kwargs or {})
        self._fleet_lock = threading.RLock()
        self._daemons: List[DaemonHandle] = []
        self._daemon_indexes = itertools.count()
        self._sessions: Dict[int, _RoutedSession] = {}
        self._session_ids = itertools.count()
        self.failovers = 0
        self.rehomed_sessions = 0  # Sessions successfully replayed onto survivors.
        self.heartbeat_interval = heartbeat_interval
        self.health_monitor: Optional[HealthMonitor] = None

        try:
            for url in daemon_urls or []:
                self._attach_daemon(url)
            for _ in range(daemons):
                self.spawn_daemon()
            super().__init__(
                host=host, port=port, unix_path=unix_path, auth_tokens=auth_tokens
            )
        except BaseException:
            # Leave nothing running: a gateway that failed to build is never
            # shut down.
            for daemon in self._daemons:
                daemon.stop()
            raise
        if heartbeat_interval is not None:
            self.health_monitor = HealthMonitor(self, interval=heartbeat_interval)
            self.health_monitor.start()

    # -- fleet membership --------------------------------------------------

    def _connect_daemon(self, url: str) -> ServiceConnection:
        transport = SocketTransport(
            url, timeout=self.daemon_timeout, auth_token=self.fleet_token
        )
        # Fast failure detection: the gateway owns failover, so its daemon
        # calls should fail fast rather than retry at length.
        return ServiceConnection(
            transport,
            ConnectionOpts(
                rpc_call_max_seconds=self.daemon_timeout,
                rpc_max_retries=2,
                retry_wait_seconds=0.05,
            ),
        )

    def _attach_daemon(self, url: str) -> DaemonHandle:
        handle = DaemonHandle(
            index=next(self._daemon_indexes),
            url=url,
            connection=self._connect_daemon(url),
        )
        with self._fleet_lock:
            self._daemons.append(handle)
        logger.info("Gateway attached daemon %d at %s", handle.index, url)
        return handle

    def spawn_daemon(self) -> DaemonHandle:
        """Start one local daemon worker process and attach to it."""
        if not self.env_id:
            raise ServiceError("This gateway has no env_id: cannot spawn daemons")
        spawned = SpawnedDaemon(
            self.env_id,
            host="127.0.0.1",
            port=0,
            auth_tokens=[self.fleet_token] if self.fleet_token is not None else None,
            **self._make_kwargs,
        )
        try:
            handle = self._attach_daemon(spawned.url)
        except BaseException:
            spawned.stop()
            raise
        handle.spawned = spawned
        logger.info("Gateway spawned daemon pid=%d at %s", spawned.pid, spawned.url)
        return handle

    def live_daemons(self) -> List[DaemonHandle]:
        """Fleet members that have not been declared dead."""
        with self._fleet_lock:
            return [d for d in self._daemons if not d.dead]

    def _place_session(self) -> DaemonHandle:
        """Pick the least-loaded live daemon for a new session."""
        candidates = self.live_daemons()
        if not candidates:
            raise ServiceError("Gateway has no live daemons to place the session on")
        with self._fleet_lock:
            load = Counter(id(record.daemon) for record in self._sessions.values())
        return min(candidates, key=lambda d: (load[id(d)], d.index))

    # -- failure handling --------------------------------------------------

    def probe(self, daemon: DaemonHandle) -> Optional[BaseException]:
        """Liveness probe: the heartbeat's failure, or None if it answered.

        The one probe of a member, for a failed call and the
        :class:`HealthMonitor` alike; an answer stamps ``last_heartbeat``.
        """
        try:
            daemon.connection.transport.heartbeat()
        except Exception as error:  # noqa: BLE001 - any failure means "not provably alive"
            return error
        daemon.last_heartbeat = time.monotonic()
        return None

    def _handle_daemon_failure(self, daemon: DaemonHandle, error: BaseException) -> None:
        """Retire a dead daemon and re-home its sessions onto survivors.

        Each session is re-created by replaying its recorded (acknowledged)
        action sequence. Sessions that cannot be replayed — no surviving
        daemon, or the replay itself failed — are dropped, surfacing as
        :class:`SessionNotFound` to their clients (the same contract as a
        daemon-side session crash).
        """
        with self._fleet_lock:
            if daemon.dead:
                return
            daemon.dead = True
            self.failovers += 1
            stranded = [r for r in self._sessions.values() if r.daemon is daemon]
        logger.warning(
            "Gateway daemon %d at %s died (%s); re-homing %d session(s)",
            daemon.index, daemon.url, error, len(stranded),
        )
        try:
            daemon.connection.close()
        except Exception:  # noqa: BLE001 - it is already dead
            pass
        for record in stranded:
            try:
                self._replay_session(record)
            except Exception as replay_error:  # noqa: BLE001 - drop, don't wedge
                logger.warning(
                    "Gateway could not replay session %d (%s after %d actions): %s",
                    record.gateway_sid, record.benchmark_uri, len(record.actions),
                    replay_error,
                )
                with self._fleet_lock:
                    self._sessions.pop(record.gateway_sid, None)
        if daemon.spawned is not None:
            daemon.spawned.stop()  # It may be wedged rather than gone.

    def _replay_session(self, record: _RoutedSession) -> None:
        """Re-create one routed session on a live daemon by replaying its
        recipe: its benchmark, then its acknowledged actions."""
        target = self._place_session()
        reply = target.connection.start_session(
            StartSessionRequest(
                benchmark_uri=record.benchmark_uri,
                action_space=record.action_space,
                verify_ir=record.verify_ir,
            )
        )
        if record.actions:
            target.connection.step(
                StepRequest(session_id=reply.session_id, actions=list(record.actions))
            )
        with self._fleet_lock:
            record.daemon = target
            record.remote_sid = reply.session_id
            self.rehomed_sessions += 1
        logger.info(
            "Replayed session %d (%d actions) onto daemon %d at %s",
            record.gateway_sid, len(record.actions), target.index, target.url,
        )

    def _routed(self, state: ClientConnectionState, gateway_sid: int) -> _RoutedSession:
        with self._fleet_lock:
            record = self._sessions.get(gateway_sid)
        if record is None:
            raise SessionNotFound(f"Session not found: {gateway_sid}")
        if record.owner != state.token:
            raise PermissionDeniedError(
                f"Session {gateway_sid} belongs to another tenant"
            )
        return record

    def _failed_over(self, daemon: DaemonHandle, error: BaseException) -> bool:
        """Decide what a failed call to ``daemon`` means, and act on it.

        False: the daemon answers its heartbeat, so the error is the call's
        own (a compiler crash, say) and failover cannot help. True: the daemon
        is dead and its sessions have been re-homed; the caller looks its
        sessions up again — one that could not be replayed is gone — and
        retries once against their new homes.
        """
        if self.probe(daemon) is None:
            return False
        self._handle_daemon_failure(daemon, error)
        return True

    def _call_routed(self, record: _RoutedSession, call):
        """Invoke ``call(daemon, remote_sid)`` on the owning daemon, failing
        over once if the daemon died mid-call."""
        for attempt in (0, 1):
            daemon, remote_sid = record.daemon, record.remote_sid
            if daemon.dead:
                raise daemon.down_error()
            try:
                return call(daemon, remote_sid)
            except PermissionDeniedError:
                raise  # Answered: nothing to fail over.
            except (ServiceError, ConnectionError, OSError) as error:
                if attempt or not self._failed_over(daemon, error):
                    raise daemon.down_error(error)
                with self._fleet_lock:
                    if record.gateway_sid not in self._sessions:
                        raise SessionNotFound(
                            f"Session {record.gateway_sid} was lost with its daemon"
                        ) from error

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, state: ClientConnectionState, method: str, args):
        if method not in _GATEWAY_METHODS:
            raise ServiceError(f"Unknown service method: {method!r}")
        handler = getattr(self, f"_rpc_{method}")
        return handler(state, *args)

    def _rpc_get_spaces(self, state: ClientConnectionState):
        candidates = self.live_daemons()
        if not candidates:
            raise ServiceError("Gateway has no live daemons")
        return candidates[0].connection.spaces

    def _rpc_start_session(self, state: ClientConnectionState, request: StartSessionRequest):
        """Place a new session, ending the one it replaces on the way.

        The replaced route goes first, so placement decides what it would
        after an ``end_session``. Where the new session lands on the member
        that held the old one, that member ends it inside the same
        ``start_session``; otherwise the old member's ``end_session`` is sent
        before the new member's start, and awaited after it. Like the
        runtime, the gateway skips an unknown or foreign id, and nothing
        about the replaced session fails the start.
        """
        with self._fleet_lock:
            replaced = self._sessions.get(request.end_session_id)
            if replaced is not None and replaced.owner == state.token:
                del self._sessions[replaced.gateway_sid]
            else:
                replaced = None
        daemon = self._place_session()
        forwarded = StartSessionRequest(
            benchmark_uri=request.benchmark_uri,
            action_space=request.action_space,
            observation_space_names=request.observation_space_names,
            verify_ir=request.verify_ir,
        )
        ended = None
        if replaced is not None and replaced.daemon is daemon:
            forwarded.end_session_id = replaced.remote_sid
        elif replaced is not None and not replaced.daemon.dead:
            try:
                ended = replaced.daemon.connection.send_end_session(
                    EndSessionRequest(session_id=replaced.remote_sid)
                )
            except (ServiceError, ConnectionError, OSError):
                pass  # As for end_session: the member is gone either way.
        try:
            reply = daemon.connection.start_session(forwarded)
        finally:
            if ended is not None:
                try:
                    ended()
                except (ServiceError, ConnectionError, OSError, SessionNotFound):
                    pass
        with self._fleet_lock:
            gateway_sid = next(self._session_ids)
            self._sessions[gateway_sid] = _RoutedSession(
                gateway_sid=gateway_sid,
                daemon=daemon,
                remote_sid=reply.session_id,
                owner=state.token,
                benchmark_uri=request.benchmark_uri,
                action_space=request.action_space,
                verify_ir=request.verify_ir,
            )
        return StartSessionReply(
            session_id=gateway_sid,
            observations=reply.observations,
            new_action_space=reply.new_action_space,
        )

    def _rpc_step(self, state: ClientConnectionState, request: StepRequest):
        """A step is a batch of one, raised or returned as ``step`` does."""
        return self._step_routed(state, [request])[0].unwrap()

    def _rpc_fork_session(self, state: ClientConnectionState, request: ForkSessionRequest):
        record = self._routed(state, request.session_id)

        def do_fork(daemon, remote_sid):
            return daemon.connection.fork_session(
                ForkSessionRequest(session_id=remote_sid)
            )

        reply = self._call_routed(record, do_fork)
        with self._fleet_lock:
            gateway_sid = next(self._session_ids)
            self._sessions[gateway_sid] = _RoutedSession(
                gateway_sid=gateway_sid,
                daemon=record.daemon,
                remote_sid=reply.session_id,
                owner=state.token,
                benchmark_uri=record.benchmark_uri,
                action_space=record.action_space,
                actions=list(record.actions),
                verify_ir=record.verify_ir,
            )
        return ForkSessionReply(session_id=gateway_sid)

    def _rpc_end_session(self, state: ClientConnectionState, request: EndSessionRequest):
        record = self._routed(state, request.session_id)
        with self._fleet_lock:
            self._sessions.pop(record.gateway_sid, None)
            remaining = len(self._sessions)
        try:
            record.daemon.connection.end_session(
                EndSessionRequest(session_id=record.remote_sid)
            )
        except (ServiceError, ConnectionError, OSError, SessionNotFound):
            pass  # The daemon (or the session) is already gone either way.
        return EndSessionReply(remaining_sessions=remaining)

    def _rpc_handle_session_parameter(
        self, state: ClientConnectionState, session_id: int, key: str, value: str
    ):
        record = self._routed(state, session_id)

        def do_param(daemon, remote_sid):
            return daemon.connection.handle_session_parameter(remote_sid, key, value)

        return self._call_routed(record, do_param)

    def _rpc_step_sessions(self, state: ClientConnectionState, request: StepSessionsRequest):
        if not isinstance(request, StepSessionsRequest):
            raise ServiceError(
                f"step_sessions expects a StepSessionsRequest, got "
                f"{type(request).__name__}"
            )
        return StepSessionsReply(results=self._step_routed(state, request.requests))

    def _step_routed(
        self, state: ClientConnectionState, requests: List[StepRequest]
    ) -> List[SessionStepResult]:
        """Step each request's session on its owning daemon; one result each.

        The one route every step takes, alone or in a batch, all of it on the
        serving thread: split by owning daemon, send every daemon its share,
        then collect each share's reply in turn and reassemble in request
        order. Every share is on the wire before any reply is awaited, so the
        daemons step theirs at the same time. Failures are per session — the
        batch never fails whole. When a daemon dies mid-batch, its group's
        sessions are failed over — which may scatter them across *several*
        survivors — so the retry re-buckets the group's positions by each
        session's new home and steps those groups the same way, once.

        A session answered with :class:`ServiceIsDown` loses its route: the
        client forgets it without an ``end_session``, so a kept route would
        count against its daemon's placement load for good. The daemon-side
        session, if that daemon is still alive, is left to its idle reaper.
        """
        results: List[Optional[SessionStepResult]] = [None] * len(requests)
        records: Dict[int, _RoutedSession] = {}
        started = time.monotonic()

        def bucket_by_home(positions) -> List[tuple]:
            """Group positions by their session's current owning daemon, under
            one fleet-lock pass: this runs once per vec-pool step, so per-sub
            lock churn is measurable."""
            by_daemon: Dict[int, tuple] = {}
            with self._fleet_lock:
                for position in positions:
                    sid = requests[position].session_id
                    record = self._sessions.get(sid)
                    if record is None:
                        error = SessionNotFound(
                            f"Session {sid} was lost with its daemon"
                            if sid in records else f"Session not found: {sid}"
                        )
                    elif record.owner != state.token:
                        error = PermissionDeniedError(
                            f"Session {sid} belongs to another tenant"
                        )
                    else:
                        records[sid] = record
                        by_daemon.setdefault(
                            record.daemon.index, (record.daemon, [])
                        )[1].append(position)
                        continue
                    results[position] = SessionStepResult(session_id=sid, error=error)
            return list(by_daemon.values())

        def fail(positions: List[int], error: BaseException) -> None:
            wall = time.monotonic() - started
            for position in positions:
                results[position] = SessionStepResult(
                    session_id=requests[position].session_id, error=error, wall_time_s=wall
                )
            if isinstance(error, ServiceIsDown):
                with self._fleet_lock:
                    for position in positions:
                        self._sessions.pop(requests[position].session_id, None)

        def step_groups(groups: List[tuple], retry: bool) -> None:
            # Send every group's share. A dead daemon's sessions get
            # per-session ServiceIsDown results immediately — the survivors'
            # groups keep stepping and no timeout is paid per lost session.
            # A share that could not be sent keeps its error in place of the
            # callable that collects its results.
            sent = []
            for daemon, positions in groups:
                if daemon.dead:
                    fail(positions, daemon.down_error())
                    continue
                try:
                    collect = daemon.connection.send_step_sessions([
                        StepRequest(
                            session_id=records[requests[p].session_id].remote_sid,
                            actions=requests[p].actions,
                            observation_space_names=requests[p].observation_space_names,
                        )
                        for p in positions
                    ])
                except (ServiceError, ConnectionError, OSError) as error:
                    collect = error
                sent.append((daemon, positions, collect))
            # Then collect each share's results in turn.
            for daemon, positions, collect in sent:
                try:
                    if isinstance(collect, BaseException):
                        raise collect
                    batch = collect()
                except (ServiceError, ConnectionError, OSError) as error:
                    if retry and self._failed_over(daemon, error):
                        step_groups(bucket_by_home(positions), retry=False)
                    else:
                        fail(positions, daemon.down_error(error))
                    continue
                for position, result in zip(positions, batch):
                    sub = requests[position]
                    if result.error is None:
                        # Acknowledged: these actions are now part of the
                        # session's replay recipe. (A step lost with a dying
                        # daemon was NOT recorded, so the failover replay plus
                        # the retry apply it exactly once.)
                        records[sub.session_id].actions.extend(sub.actions)
                    # The daemon's result object is ours alone (freshly
                    # decoded): translate its session id back in place
                    # instead of copying.
                    result.session_id = sub.session_id
                    results[position] = result

        step_groups(bucket_by_home(range(len(requests))), retry=True)
        return results

    def _rpc_server_info(self, state: ClientConnectionState):
        return self.server_info()

    # -- introspection -----------------------------------------------------

    def session_states(self) -> Dict[int, CompilerEnvState]:
        """Every routed session's episode so far, as CompilerEnvStates."""
        with self._fleet_lock:
            return {sid: r.env_state() for sid, r in self._sessions.items()}

    def result_cache_stats(self) -> dict:
        """Fleet-wide result-cache accounting, aggregated across daemons.

        Each daemon owns its own (benchmark, action-prefix) result cache;
        this sums their counters (a dead or unreachable daemon is skipped)
        and recomputes the fleet hit rate from the summed totals.
        """
        totals = {
            "hits": 0, "misses": 0, "stores": 0, "evictions": 0,
            "size": 0, "size_in_bytes": 0,
        }
        caching_daemons = 0
        for daemon in self.live_daemons():
            try:
                info = daemon.connection.transport.server_info()
            except Exception:  # noqa: BLE001 - a dying daemon is not an error here
                continue
            stats = (info or {}).get("cache_stats", {}).get("result_cache")
            if not stats:
                continue
            caching_daemons += 1
            for key in totals:
                totals[key] += stats.get(key, 0)
        queries = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / queries if queries else 0.0
        totals["daemons"] = caching_daemons
        return {"total": totals}

    def server_info(self) -> dict:
        with self._fleet_lock:
            sessions = len(self._sessions)
            failovers = self.failovers
            rehomed = self.rehomed_sessions
            fleet = [
                {
                    "index": d.index,
                    "url": d.url,
                    "pid": d.pid,
                    "sessions": sum(r.daemon is d for r in self._sessions.values()),
                    "last_heartbeat_age_s": d.last_heartbeat_age_s(),
                }
                for d in self._daemons
                if not d.dead
            ]
        monitor = self.health_monitor
        return {
            **self._server_info(),
            "env_id": self.env_id,
            "role": "gateway",
            "active_sessions": sessions,
            "failovers": failovers,
            "rehomed_sessions": rehomed,
            "health_monitor": None if monitor is None else {
                "interval_s": monitor.interval,
                "probes": monitor.probes,
                "deaths_detected": monitor.deaths_detected,
            },
            "daemons": fleet,
            # Fleet-wide result-cache counters (summed across live daemons).
            "cache_stats": {"result_cache": self.result_cache_stats()["total"]},
        }

    # -- lifecycle ---------------------------------------------------------

    def shutdown(self) -> None:
        """Stop serving and reap every spawned daemon. Idempotent."""
        if not self._begin_shutdown():
            return
        if self.health_monitor is not None:
            self.health_monitor.stop()
        self._finish_shutdown()
        with self._fleet_lock:
            fleet = list(self._daemons)
            self._daemons = []
            self._sessions.clear()
        for daemon in fleet:
            daemon.stop()
        logger.info("Compiler service gateway on %s shut down", self.url)
