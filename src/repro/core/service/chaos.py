"""Deterministic fault injection for the compiler service tier.

Every recovery path in the service stack — retry-with-jitter in
:class:`~repro.core.service.connection.ServiceConnection`, the bytes-flushed
send classifier and at-most-once reply handling in
:class:`~repro.core.service.transport.SocketTransport`, replay-based gateway
failover, the heartbeat-driven :class:`~repro.core.service.health.
HealthMonitor` — exists because daemons crash, sockets cut mid-frame, and
replies go missing. This module makes those events *reproducible*: a
:class:`FaultPlan` is a seeded, deterministic schedule of fault events, and a
:class:`ChaosTransport` wraps any :class:`~repro.core.service.transport.
ServiceTransport` and injects each scheduled fault at its exact call index.
The same seed always yields the same fault sequence, so a chaos run's final
action traces are byte-for-byte repeatable (the ``repro-compilergym
chaos-soak`` command and the CI chaos job assert exactly that).

Client-side fault kinds (``ChaosTransport``):

* ``refuse_connect`` — the call fails before anything is sent, as a refused
  TCP connect does. Retryable: the connection's retry loop recovers, on the
  same runtime or daemon, whose sessions are all still there.
* ``cut_send`` — the socket dies mid-``send()`` after flushing ``param``
  bytes, driving the transport's bytes-flushed classifier: 0 bytes flushed
  is retried on a fresh connection, a partial flush is non-retryable.
* ``cut_recv`` — the request is delivered and executes on the daemon, but
  its reply is abandoned and the connection torn down, exercising the
  at-most-once path (non-retryable; the episode ends, the step is never
  re-applied).
* ``delay`` — the reply is held for ``param`` seconds, overrunning the RPC
  deadline so the connection classifies a *slow success* (recorded, never
  retried).
* ``corrupt_frame`` — the request frame's payload bytes are corrupted in
  flight; the server drops the connection on the malformed frame and the
  client observes a non-retryable in-flight loss.
* ``kill_daemon`` — SIGKILL a backend process (resolved through the
  ``kill_targets`` hook), the whole-daemon crash that gateway failover and
  the health monitor exist to absorb.

Server-side hooks (:class:`ServerChaos`, consulted by
:class:`~repro.core.service.rpc_server.SocketRPCServer` before each reply)
cover the faults only the daemon can produce: dropping a reply *after* the
request executed, corrupting the reply frame, delaying it, or SIGKILLing the
whole process mid-request.
"""

import hashlib
import os
import random
import signal
import socket as socket_module
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.service.transport import ServiceTransport, SocketTransport
from repro.core.service.wire import FRAME_HEADER_BYTES
from repro.errors import ServiceTransportError

# The client-side fault vocabulary. ``FaultPlan.generate`` draws from these;
# explicit plans may also schedule ``kill_daemon`` (which needs a target).
FAULT_KINDS = (
    "refuse_connect",
    "cut_send",
    "cut_recv",
    "delay",
    "corrupt_frame",
    "kill_daemon",
)


class FlushLimitedSocket:
    """Fault injector: a socket whose ``send()`` path fails after flushing a
    fixed number of bytes (0 = fail before anything leaves the client).

    This is the canonical way to drive the transport's bytes-flushed send
    classifier from tests and from :class:`ChaosTransport`: wrap the live
    socket, let exactly ``flush_budget`` bytes through, then raise.
    """

    def __init__(self, sock, flush_budget: int):
        self._sock = sock
        self._budget = flush_budget

    def send(self, data):
        if self._budget <= 0:
            raise OSError("injected send failure")
        sent = self._sock.send(data[: self._budget])
        self._budget -= sent
        return sent

    def __getattr__(self, name):
        return getattr(self._sock, name)


class CorruptingSocket:
    """Fault injector: flips payload bytes of the next frame sent.

    The 9-byte frame header (version byte + length prefix) is preserved so
    the receiver reads a plausible frame of the right length and fails in its
    *decoder* — the malformed-frame guard — rather than on the length prefix.
    """

    def __init__(self, sock):
        self._sock = sock
        self._offset = 0

    def send(self, data):
        data = bytes(data)
        start = self._offset
        corrupted = bytearray(data)
        for i in range(len(corrupted)):
            if start + i >= FRAME_HEADER_BYTES:
                corrupted[i] ^= 0xA5
        sent = self._sock.send(bytes(corrupted))
        self._offset += sent
        return sent

    def __getattr__(self, name):
        return getattr(self._sock, name)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *what* to inject at *which* call index.

    Args:
        call_index: 0-based index (per transport) of the ``call()`` — or,
            for ``refuse_connect``, of the call whose dispatch is refused —
            the fault fires on.
        kind: One of :data:`FAULT_KINDS`.
        method: Restrict the fault to calls of this RPC method; ``None``
            matches any method at the index.
        param: Fault parameter — flushed-byte budget for ``cut_send``, delay
            seconds for ``delay``, kill-target index for ``kill_daemon``.
    """

    call_index: int
    kind: str
    method: Optional[str] = None
    param: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"Unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of fault events.

    Immutable and reusable: consuming state (which events already fired)
    lives in each :class:`ChaosTransport`, so one plan can drive many
    transports — or the same soak twice — and inject identically each time.
    """

    events: Tuple[FaultEvent, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    @classmethod
    def generate(
        cls,
        seed: int,
        calls: int,
        rate: float = 0.1,
        kinds: Sequence[str] = ("cut_send", "cut_recv", "refuse_connect"),
        max_delay: float = 0.0,
    ) -> "FaultPlan":
        """Draw a seeded random schedule over the first ``calls`` call indices.

        The same ``(seed, calls, rate, kinds, max_delay)`` always produces the
        same schedule — :mod:`random` is used through a private
        :class:`random.Random` instance, never the global RNG.
        """
        rng = random.Random(seed)
        events = []
        for index in range(calls):
            if rng.random() >= rate:
                continue
            kind = rng.choice(list(kinds))
            if kind == "cut_send":
                # Half the cuts fail pre-send (retryable), half mid-frame.
                param = 0.0 if rng.random() < 0.5 else float(rng.randint(1, 16))
            elif kind == "delay":
                param = rng.uniform(0.0, max_delay) if max_delay else 0.0
            else:
                param = 0.0
            events.append(FaultEvent(call_index=index, kind=kind, param=param))
        return cls(events=tuple(events), seed=seed)

    def signature(self) -> str:
        """A stable digest of the schedule (for determinism assertions)."""
        body = ";".join(
            f"{e.call_index}:{e.kind}:{e.method}:{e.param!r}" for e in self.events
        )
        return hashlib.sha256(body.encode()).hexdigest()[:16]

    def describe(self) -> str:
        return f"FaultPlan(seed={self.seed}, {len(self.events)} event(s), sig={self.signature()})"


class ChaosTransport(ServiceTransport):
    """A fault-injecting wrapper around any :class:`ServiceTransport`.

    Counts ``call()`` invocations and consults the :class:`FaultPlan` at each
    index. Socket faults are injected *at the socket layer* of a wrapped
    :class:`SocketTransport` (by swapping in :class:`FlushLimitedSocket` /
    :class:`CorruptingSocket`, or severing the read side), so the production
    classification paths — not simulations of them — are exercised. Against
    non-socket transports the faults degrade to raising the error the socket
    path would have classified.

    Args:
        inner: The transport to wrap.
        plan: The fault schedule.
        kill_targets: PIDs (or a callable ``index -> pid``) that
            ``kill_daemon`` events SIGKILL. Events with no resolvable target
            are recorded but inject nothing.
    """

    name = "chaos"

    def __init__(
        self,
        inner: ServiceTransport,
        plan: FaultPlan,
        kill_targets: Optional[Union[Sequence[int], Callable[[int], Optional[int]]]] = None,
    ):
        super().__init__()
        self.inner = inner
        self.plan = plan
        self.kill_targets = kill_targets
        self.calls = 0
        # (call_index, kind, method) log of every fault actually injected, in
        # order — the determinism witness chaos-soak digests.
        self.injected: List[Tuple[int, str, str]] = []
        self._chaos_lock = threading.Lock()
        self._pending: Dict[int, List[FaultEvent]] = {}
        for event in plan.events:
            self._pending.setdefault(event.call_index, []).append(event)

    # -- plan bookkeeping --------------------------------------------------

    def _next_fault(self, method: str) -> Optional[FaultEvent]:
        with self._chaos_lock:
            index = self.calls
            self.calls += 1
            events = self._pending.pop(index, None)
            if not events:
                return None
            fired = None
            deferred = []
            for event in events:
                if fired is None and (event.method is None or event.method == method):
                    fired = event
                else:
                    deferred.append(event)
            if deferred:
                # Method-restricted events that did not match slide to the
                # next call: they fire at the first matching call AT OR AFTER
                # their index (still deterministic — the call sequence is).
                self._pending.setdefault(index + 1, []).extend(deferred)
            if fired is not None:
                self.injected.append((index, fired.kind, method))
            return fired

    def _resolve_kill_target(self, event: FaultEvent) -> Optional[int]:
        index = int(event.param)
        if callable(self.kill_targets):
            return self.kill_targets(index)
        if self.kill_targets is not None and 0 <= index < len(self.kill_targets):
            return self.kill_targets[index]
        return None

    def _live_socket(self):
        """The wrapped SocketTransport's live mux connection, if any."""
        inner = self.inner
        if not isinstance(inner, SocketTransport):
            return None
        acquire = getattr(inner, "_acquire_connection", None)
        if acquire is None:
            return None
        try:
            return acquire()
        except Exception:  # noqa: BLE001 - inject at the simulated layer instead
            return None

    # -- fault application -------------------------------------------------

    def _inject(self, event: FaultEvent, method: str) -> None:
        """Apply ``event``'s *pre-call* effect. May raise, mutate the socket
        (so the inner call fails at the transport's own classifier), or
        SIGKILL a backend; ``delay`` is handled post-call by the caller."""
        if event.kind == "refuse_connect":
            raise ConnectionRefusedError(
                f"chaos: connection refused for {method}() at call {self.calls - 1}"
            )
        if event.kind == "kill_daemon":
            pid = self._resolve_kill_target(event)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
            return
        conn = self._live_socket()
        if event.kind == "cut_send":
            if conn is not None:
                conn.sock = FlushLimitedSocket(conn.sock, int(event.param))
                return
            if event.param <= 0:
                raise ConnectionError(
                    f"chaos: connection failed before any of {method}() was sent"
                )
            raise ServiceTransportError(
                f"chaos: connection failed after {int(event.param)} bytes of "
                f"{method}() were flushed: the call may already be applied "
                f"and will not be retried"
            )
        if event.kind == "corrupt_frame":
            if conn is not None:
                conn.sock = CorruptingSocket(conn.sock)
                return
            raise ServiceTransportError(
                f"chaos: corrupted frame for {method}(): in-flight calls may "
                f"already be applied and will not be retried"
            )

    def _lose_reply(self, method: str, args: tuple) -> None:
        """Deliver the request, abandon its reply, and kill the connection.

        A socket-level read cut races whichever caller is reading the shared
        connection: the reply is either lost or routed first, depending on
        nothing but thread scheduling — which would make chaos runs
        non-reproducible.
        Losing the reply at the transport layer is race-free: the request
        frame is fully flushed (the daemon receives and executes it), its
        reply slot is discarded before the reply can possibly be routed, and
        the connection is retired exactly as the transport's own post-send
        failure path would retire it.
        """
        failure = ServiceTransportError(
            f"chaos: reply to {method}() was lost after execution: the call "
            f"may already be applied on the daemon and will not be retried"
        )
        conn = self._live_socket()
        if conn is not None:
            request_id, _pending = conn.register()
            try:
                conn.send_request(request_id, method, args)
            except Exception:  # noqa: BLE001 - the connection dies either way
                pass
            finally:
                conn.discard(request_id)
            self.inner._retire(conn, failure)
        raise failure

    def call(self, method: str, *args) -> Any:
        event = self._next_fault(method)
        if event is not None and event.kind == "cut_recv":
            self._lose_reply(method, args)
        if event is not None and event.kind != "delay":
            self._inject(event, method)
        result = self.inner.call(method, *args)
        if event is not None and event.kind == "delay":
            # Stall the reply on its way back up: the ServiceConnection's
            # deadline check sees a slow *success* and refuses to retry it.
            time.sleep(event.param)
        return result

    # -- transparent delegation --------------------------------------------

    def shutdown(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.inner.shutdown()

    def server_info(self) -> dict:
        return self.call("server_info")

    @property
    def runtime(self):
        return self.inner.runtime

    def __repr__(self) -> str:
        return (
            f"ChaosTransport({self.inner!r}, calls={self.calls}, "
            f"injected={len(self.injected)})"
        )


def resolve_chaos(chaos) -> Optional[FaultPlan]:
    """Coerce a ``make(..., chaos=...)`` argument to a :class:`FaultPlan`.

    Accepts a plan, an int (shorthand for ``FaultPlan.generate(seed=chaos,
    calls=256)``), or ``None``.
    """
    if chaos is None:
        return None
    if isinstance(chaos, FaultPlan):
        return chaos
    if isinstance(chaos, int) and not isinstance(chaos, bool):
        return FaultPlan.generate(seed=chaos, calls=256)
    raise TypeError(f"chaos must be a FaultPlan, an int seed, or None; got {chaos!r}")


@dataclass
class ServerChaos:
    """Daemon-side fault hooks, consulted by the RPC server per request.

    Attach to any :class:`~repro.core.service.rpc_server.SocketRPCServer`
    (``server.chaos = ServerChaos(...)``). Request indices count every
    dispatched RPC except the ``hello`` handshake, in arrival order on the
    serving side. Faults:

    * ``drop_reply_at`` — execute the request, write no reply (the client
      observes reply loss *after* execution: the at-most-once path).
    * ``corrupt_reply_at`` — execute, then answer with a corrupted frame.
    * ``delay_reply`` — ``{index: seconds}`` holds the reply past deadlines.
    * ``die_at`` — SIGKILL the whole server process mid-request.
    """

    drop_reply_at: frozenset = frozenset()
    corrupt_reply_at: frozenset = frozenset()
    delay_reply: Dict[int, float] = field(default_factory=dict)
    die_at: frozenset = frozenset()

    def __post_init__(self):
        self.drop_reply_at = frozenset(self.drop_reply_at)
        self.corrupt_reply_at = frozenset(self.corrupt_reply_at)
        self.die_at = frozenset(self.die_at)
        self._counter_lock = threading.Lock()
        self._served = 0

    def on_reply(self, method: str) -> Optional[Tuple[str, float]]:
        """Called after a request executed, before its reply is written.

        Returns ``None`` (reply normally) or ``(action, param)`` with action
        one of ``"drop"``, ``"corrupt"``, ``"delay"``. ``die_at`` never
        returns: the process is SIGKILLed here.
        """
        with self._counter_lock:
            index = self._served
            self._served += 1
        if index in self.die_at:
            os.kill(os.getpid(), signal.SIGKILL)
        if index in self.drop_reply_at:
            return ("drop", 0.0)
        if index in self.corrupt_reply_at:
            return ("corrupt", 0.0)
        if index in self.delay_reply:
            return ("delay", self.delay_reply[index])
        return None
