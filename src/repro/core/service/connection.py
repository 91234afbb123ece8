"""Client-side connection to a compiler service.

The :class:`ServiceConnection` is the frontend's only way of talking to the
backend runtime. It reproduces the robustness features the paper calls out:
call timeouts, one bounded retry loop with jittered exponential backoff,
graceful error translation, and per-operation wall-time accounting (used by
the Table II efficiency benchmarks).

*Where* the runtime lives is delegated to a
:class:`~repro.core.service.transport.ServiceTransport`: in-process (the
default) or across a socket to a standalone daemon. The fault-tolerance
policy here is identical for both, and so is start-up: every connection asks
its service for its spaces, once. An error the service answered is raised as
it is; a call that failed before it could reach the service is retried, and a
socket transport reopens a lost connection for the retry. The retry loop
covers only the send: once a request has left, no failure is retried, and a
call sent now and collected later (:meth:`ServiceConnection.send_step_sessions`)
waits for its reply outside the loop. Nothing restarts a runtime: its
sessions live as long as it does.
"""

import random
import secrets
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional

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
from repro.errors import CompilerGymError, ServiceIsClosed, ServiceTransportError

# Each retry waits this many times longer than the one before it.
_RETRY_BACKOFF = 1.5


@dataclass
class ConnectionOpts:
    """Configuration of the service connection retry/timeout behaviour."""

    rpc_call_max_seconds: float = 300.0
    rpc_max_retries: int = 5
    retry_wait_seconds: float = 0.01


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
        return asdict(self)


class ServiceConnection:
    """A fault-tolerant connection to a compiler service.

    Args:
        transport: How to reach the service: a
            :class:`~repro.core.service.transport.ServiceTransport`, e.g. an
            :class:`~repro.core.service.transport.InProcessTransport` around a
            runtime or a
            :class:`~repro.core.service.transport.SocketTransport`.
        opts: Retry/timeout configuration.
    """

    def __init__(self, transport: ServiceTransport, opts: Optional[ConnectionOpts] = None):
        self.opts = opts or ConnectionOpts()
        self._transport = transport
        self.closed = False
        # Reference count of environments sharing this connection (the
        # creating environment plus any forks). The connection shuts down
        # when the last of them releases it.
        self._refcount = 1
        self.stats: Dict[str, CallStats] = {}
        # Guards the stats dictionary and the refcount: a thread-backed pool
        # may dispatch calls on this connection from multiple threads at once.
        self._lock = threading.Lock()
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

    def _dispatch(self, name: str, args: tuple, dispatch: Callable) -> tuple:
        """Run ``dispatch(name, *args)`` — the transport's ``call``, or its
        ``send`` — under the retry loop; return ``(stats, seconds, outcome)``,
        ``seconds`` being what the attempt that got through took.

        The loop covers what the transport does before a request has left:
        that is where every retryable failure comes from, as nothing of the
        request reached the service. Once it has left, every failure is a
        non-retryable :class:`CompilerGymError` (the service's answer, or a
        transport that knows the call may have been applied).
        """
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
                outcome = dispatch(name, *args)
                return stats, time.perf_counter() - start, outcome
            except (CompilerGymError, LookupError):
                # The service answered (a session's or the caller's error),
                # or the transport knows the call may have been applied: no
                # retry can change the answer, and one could apply a step
                # twice. An unknown benchmark/space is raised as-is so the
                # environment can translate it (e.g. into
                # BenchmarkInitError), identically for local and daemon
                # services.
                with self._lock:
                    stats.errors += 1
                raise
            except Exception as error:  # noqa: BLE001 - nothing was sent: retry
                with self._lock:
                    stats.errors += 1
                last_error = error
                if attempt + 1 < attempts:
                    with self._lock:
                        stats.retries += 1
                    # Full jitter (sleep uniform(0, wait), not wait itself):
                    # N pool workers that lose the same daemon must not retry
                    # in lockstep and stampede its replacement.
                    time.sleep(random.uniform(0.0, wait))
                    wait *= _RETRY_BACKOFF
        raise ServiceTransportError(
            f"Service call {name}() failed after {attempts} attempts: {last_error}"
        ) from last_error

    def _account(self, name: str, stats: CallStats, elapsed: float, result: Any):
        """Record a call that got its reply after ``elapsed`` seconds, and
        return the reply.

        A reply means the call SUCCEEDED: its effects are applied on the
        backend, so it must never be retried — re-executing a non-idempotent
        call like step() would corrupt the session. A call that came back
        slower than the deadline is recorded as a (slow) success and surfaced
        as a non-retryable transport error. A late ``start_session`` or
        ``fork_session`` opened a session under the id its caller named, so
        the caller knows what to end without the reply.
        """
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

    def _call(self, name: str, *args):
        """Invoke a service method with timeout, retry, and error translation."""
        return self._account(name, *self._dispatch(name, args, self._transport.call))

    def _send(self, name: str, *args) -> Callable[[], Any]:
        """:meth:`_call` in two halves: send the request now, under the retry
        loop, and return the callable that waits for its reply.

        The call's time is its send plus that wait. What the caller does in
        between (collecting another service's reply first) is not counted: a
        reply that waited in its socket for its turn is not a slow call. The
        transport's own read timeout bounds the wait itself.
        """
        stats, sent_in, reply = self._dispatch(name, args, self._transport.send)

        def collect():
            start = time.perf_counter()
            try:
                result = reply()
            except Exception:
                with self._lock:
                    stats.errors += 1
                raise
            return self._account(name, stats, sent_in + time.perf_counter() - start, result)

        return collect

    @staticmethod
    def new_session_id() -> int:
        """An id for a session to start or fork: 63 random bits, from the OS
        rather than a seeded generator, so that clients which share a seed
        and a token do not collide on one service."""
        return secrets.randbits(63)

    # -- RPC methods ------------------------------------------------------

    def start_session(self, request: StartSessionRequest):
        return self._call("start_session", request)

    def step(self, request: StepRequest):
        return self._call("step", request)

    def step_sessions(self, requests: List[StepRequest]) -> List[SessionStepResult]:
        """Step many sessions in one call, over any transport.

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
        return self.send_step_sessions(requests)()

    def send_step_sessions(
        self, requests: List[StepRequest]
    ) -> Callable[[], List[SessionStepResult]]:
        """:meth:`step_sessions` in two halves: send the batch now, and
        return the callable that waits for its results.

        A caller with batches for several services (the gateway, fanning a
        pool's step out to its fleet) sends every batch before it waits for
        any, so the services step theirs at the same time.
        """
        requests = list(requests)
        if not requests:
            return lambda: []
        reply = self._send("step_sessions", StepSessionsRequest(requests=requests))

        def results():
            outcomes = list(reply().results)
            with self._lock:
                stats = self.stats.setdefault("step", CallStats())
                for outcome in outcomes:
                    if outcome.error is None:
                        stats.record(outcome.wall_time_s)
                    else:
                        stats.errors += 1
            return outcomes

        return results

    def fork_session(self, request: ForkSessionRequest):
        return self._call("fork_session", request)

    def end_session(self, request: EndSessionRequest):
        if self.closed:
            return None
        return self._call("end_session", request)

    def send_end_session(self, request: EndSessionRequest) -> Callable[[], Any]:
        """:meth:`end_session` in two halves, as :meth:`send_step_sessions`:
        a gateway that moves a reset to another member ends the old session
        there while the new one starts."""
        return self._send("end_session", request)

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
