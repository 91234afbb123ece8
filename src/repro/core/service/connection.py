"""Client-side connection to a compiler service.

The :class:`ServiceConnection` is the frontend's only way of talking to the
backend runtime. It reproduces the robustness features the paper calls out:
call timeouts, bounded retry loops with exponential backoff, graceful error
translation, crash detection and service restart, and per-operation wall-time
accounting (used by the Table II efficiency benchmarks).

*Where* the runtime lives is delegated to a
:class:`~repro.core.service.transport.ServiceTransport`: in-process (the
default) or across a socket to a standalone daemon. The fault-tolerance
policy here is identical for both, and so is start-up: every connection
connects and asks its service for its spaces, once.
"""

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.service.proto import (
    EndSessionRequest,
    ForkSessionRequest,
    GetSpacesReply,
    SessionStepResult,
    StartSessionRequest,
    StepRequest,
    StepSessionsRequest,
)
from repro.core.service.transport import ServiceTransport
from repro.errors import ServiceError, ServiceIsClosed, ServiceTransportError, SessionNotFound


@dataclass
class ConnectionOpts:
    """Configuration of the service connection retry/timeout behaviour."""

    rpc_call_max_seconds: float = 300.0
    rpc_max_retries: int = 5
    retry_wait_seconds: float = 0.01
    retry_wait_backoff_exponent: float = 1.5
    # Full-jitter backoff: each retry sleeps uniform(0, wait) instead of the
    # deterministic wait. Without this, N pool workers that lose the same
    # daemon retry in lockstep and stampede its replacement; with it their
    # retry schedules decorrelate. Disable only when a test needs exact
    # deterministic sleep lengths.
    retry_wait_jitter: bool = True
    init_max_attempts: int = 5


@dataclass
class CallStats:
    """Wall-time accounting for one RPC method."""

    calls: int = 0
    errors: int = 0
    retries: int = 0
    wall_time_s: float = 0.0

    def record(self, wall_time: float) -> None:
        self.calls += 1
        self.wall_time_s += wall_time

    def summary(self) -> Dict[str, float]:
        """A compact, picklable summary of this method's accounting."""
        return {
            "calls": self.calls,
            "errors": self.errors,
            "retries": self.retries,
            "wall_time_s": self.wall_time_s,
        }


class ServiceConnection:
    """A fault-tolerant connection to a compiler service.

    Args:
        transport: How to reach the service: a
            :class:`~repro.core.service.transport.ServiceTransport`, e.g. an
            :class:`~repro.core.service.transport.InProcessTransport` around a
            runtime factory or a
            :class:`~repro.core.service.transport.SocketTransport`.
        opts: Retry/timeout configuration.
    """

    def __init__(self, transport: ServiceTransport, opts: Optional[ConnectionOpts] = None):
        self.opts = opts or ConnectionOpts()
        self._transport = transport
        self.closed = False
        self.restart_count = 0
        # Reference count of environments sharing this connection (the
        # creating environment plus any forks). The connection shuts down
        # when the last of them releases it.
        self._refcount = 1
        self.stats: Dict[str, CallStats] = {}
        # Guards the stats dictionary and the refcount: a thread-backed pool
        # may dispatch calls on this connection from multiple threads at once.
        self._lock = threading.Lock()
        # Serializes crash recovery so concurrent failing calls cannot race
        # to tear down and recreate the transport's channel.
        self._restart_lock = threading.Lock()
        start = time.perf_counter()
        self._transport.connect(max_attempts=self.opts.init_max_attempts)
        self.startup_wall_time = time.perf_counter() - start
        try:
            self.spaces: GetSpacesReply = self._call("get_spaces")
        except BaseException:
            # Nobody will ever hold this connection to close it: release the
            # channel (a socket, or an in-process runtime and its temp dir).
            self.close()
            raise

    @property
    def transport(self) -> ServiceTransport:
        return self._transport

    @property
    def runtime(self):
        """The in-process service runtime, if the transport hosts one.

        ``None`` for remote transports — the runtime lives in another process
        (or on another machine) and can only be reached through RPCs.
        """
        return self._transport.runtime

    def restart(self) -> None:
        """Tear down and re-establish the backend channel (crash recovery).

        For the in-process transport, restarting destroys every session on
        the runtime; concurrent calls on sibling sessions will observe
        ``SessionNotFound`` and terminate their episodes through the
        environment's fault-tolerance path. For the socket transport only the
        connection is recreated — the daemon and its sessions live on.
        """
        with self._restart_lock:
            self._transport.restart()
            self.restart_count += 1

    def _call(self, name: str, *args):
        """Invoke a service method with timeout, retry, and error translation."""
        if self.closed:
            raise ServiceIsClosed(f"Cannot call {name}() on a closed service")
        with self._lock:
            stats = self.stats.setdefault(name, CallStats())
        wait = self.opts.retry_wait_seconds
        attempts = max(1, self.opts.rpc_max_retries)
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            start = time.perf_counter()
            try:
                result = self._transport.call(name, *args)
            except (SessionNotFound, ServiceIsClosed):
                with self._lock:
                    stats.errors += 1
                raise
            except ServiceError:
                with self._lock:
                    stats.errors += 1
                raise
            except LookupError:
                # An unknown benchmark/space is a caller error, not a crash:
                # no amount of restarting will make it resolvable. Raised
                # as-is so the environment can translate it (e.g. into
                # BenchmarkInitError) — identically for local and daemon
                # services.
                with self._lock:
                    stats.errors += 1
                raise
            except Exception as error:  # noqa: BLE001 - backend crash: retry after restart
                with self._lock:
                    stats.errors += 1
                last_error = error
                if attempt + 1 < attempts:
                    with self._lock:
                        stats.retries += 1
                    # Full jitter (sleep uniform(0, wait), not wait itself):
                    # connections that fail together must not retry together.
                    if self.opts.retry_wait_jitter:
                        time.sleep(random.uniform(0.0, wait))
                    else:
                        time.sleep(wait)
                    wait *= self.opts.retry_wait_backoff_exponent
                    self.restart()
                continue
            # The call SUCCEEDED: its effects are applied on the backend, so
            # it must never be retried — re-executing a non-idempotent call
            # like step() would corrupt the session. A call that came back
            # slower than the deadline is recorded as a (slow) success and
            # surfaced as a non-retryable transport error.
            elapsed = time.perf_counter() - start
            with self._lock:
                stats.record(elapsed)
            if elapsed > self.opts.rpc_call_max_seconds:
                with self._lock:
                    stats.errors += 1
                raise ServiceTransportError(
                    f"Service call {name}() completed after {elapsed:.3f}s, "
                    f"exceeding the {self.opts.rpc_call_max_seconds}s deadline; "
                    "the call was applied and will not be retried"
                )
            return result
        raise ServiceTransportError(
            f"Service call {name}() failed after {attempts} attempts: {last_error}"
        ) from last_error

    # -- RPC methods ------------------------------------------------------

    def get_spaces(self) -> GetSpacesReply:
        return self._call("get_spaces")

    def start_session(self, request: StartSessionRequest):
        return self._call("start_session", request)

    def step(self, request: StepRequest):
        return self._call("step", request)

    @property
    def supports_step_sessions(self) -> bool:
        """Whether the transport can batch many session steps into one RPC."""
        return bool(getattr(self._transport, "supports_step_sessions", False))

    def step_sessions(self, requests: List[StepRequest]) -> List[SessionStepResult]:
        """Step many sessions in one round trip (daemon transports only).

        Returns one :class:`SessionStepResult` per request, in request order.
        Per-session failures are *reported*, not raised — only a failure of
        the batch RPC itself (the transport, the daemon) raises.

        Accounting is attributed per session, not per batch: each successful
        sub-step is recorded under ``"step"`` with its daemon-measured wall
        time and each failed one as a ``"step"`` error, so
        ``connection_stats()`` reports per-worker load and latency whether a
        pool steps batched or fanned out. The batch round trip itself is
        accounted under ``"step_sessions"`` as usual.
        """
        requests = list(requests)
        if not requests:
            return []
        reply = self._call("step_sessions", StepSessionsRequest(requests=requests))
        results = list(reply.results)
        with self._lock:
            stats = self.stats.setdefault("step", CallStats())
            for result in results:
                if result.error is None:
                    stats.record(result.wall_time_s)
                else:
                    stats.errors += 1
        return results

    def fork_session(self, request: ForkSessionRequest):
        return self._call("fork_session", request)

    def end_session(self, request: EndSessionRequest):
        if self.closed:
            return None
        return self._call("end_session", request)

    def handle_session_parameter(self, session_id: int, key: str, value: str):
        return self._call("handle_session_parameter", session_id, key, value)

    def stats_summary(self) -> Dict[str, Dict[str, float]]:
        """A picklable snapshot of the per-method call accounting."""
        with self._lock:
            return {name: stats.summary() for name, stats in self.stats.items()}

    def acquire(self) -> "ServiceConnection":
        """Register another environment sharing this connection (fork())."""
        with self._lock:
            self._refcount += 1
        return self

    def release(self) -> None:
        """Drop one reference; the connection closes when none remain."""
        with self._lock:
            self._refcount -= 1
            should_close = self._refcount <= 0
        if should_close:
            self.close()

    def close(self) -> None:
        if self.closed:
            return
        try:
            self._transport.shutdown()
        finally:
            self.closed = True

    def __enter__(self) -> "ServiceConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
