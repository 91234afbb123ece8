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
action traces are byte-for-byte repeatable (the soak at the end of this
module, ``python -m repro.testing.chaos soak``, asserts exactly that).

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

Server-side faults (:class:`ServerChaos`) are the ones only a server can
produce: dropping a reply *after* the request executed, corrupting the reply
frame, or delaying it.

Production code does not know about any of this. The harness reaches it
through two plain methods: :func:`inject` patches
``CompilerEnv._make_transport`` while it is open, so every environment made
meanwhile talks through a :class:`ChaosTransport`, and
:meth:`ServerChaos.attach` wraps one server instance's
``SocketRPCServer._write_reply``::

    with inject(plan) as made:
        env = repro.make("llvm-v0", service_url=url)
    ServerChaos(drop_reply_at={0}).attach(server)
"""

import argparse
import contextlib
import functools
import hashlib
import os
import random
import signal
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import repro
from repro.core.env import CompilerEnv
from repro.core.service.gateway import ServiceGateway
from repro.core.service.proto import HelloReply
from repro.core.service.transport import ServiceTransport, SocketTransport
from repro.core.service.wire import FRAME_HEADER_BYTES, frame_bytes
from repro.errors import ServiceError, ServiceTransportError

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


def _flipped(data: bytes, offset: int = 0) -> bytes:
    """``data``, which starts ``offset`` bytes into a frame, with every byte
    past the frame header flipped. The header (version byte and length
    prefix) stays intact, so the receiver reads a plausible frame of the
    right length and fails in its *decoder*: bit rot, or a version-skewed
    peer."""
    start = max(0, FRAME_HEADER_BYTES - offset)
    return bytes(data[:start]) + bytes(byte ^ 0xA5 for byte in data[start:])


class CorruptingSocket:
    """Fault injector: flips the payload bytes of the next frame sent."""

    def __init__(self, sock):
        self._sock = sock
        self._offset = 0

    def send(self, data):
        sent = self._sock.send(_flipped(data, self._offset))
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
        # order — the determinism witness the soak compares across runs.
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
        if not isinstance(self.inner, SocketTransport):
            return None
        try:
            return self.inner._acquire_connection()
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
        is sent in full (the daemon receives and executes it), nobody waits
        for its reply, and the connection is closed exactly as the
        transport's own post-send failure path would close it.
        """
        failure = ServiceTransportError(
            f"chaos: reply to {method}() was lost after execution: the call "
            f"may already be applied on the daemon and will not be retried"
        )
        conn = self._live_socket()
        if conn is not None:
            try:
                self.inner.send(method, *args)
            except Exception:  # noqa: BLE001 - the connection dies either way
                pass
            conn.close(failure)
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


@dataclass
class ServerChaos:
    """Reply faults of one :class:`~repro.core.service.rpc_server.
    SocketRPCServer` (a daemon or a gateway).

    :meth:`attach` wraps that server's ``_write_reply``, so every reply it
    writes passes through :meth:`write_reply`. Request indices count the
    replies written since attaching, in order, except those to the ``hello``
    handshake. Faults:

    * ``drop_reply_at`` — the request executed, but no reply is written (the
      client observes reply loss *after* execution: the at-most-once path).
    * ``corrupt_reply_at`` — the reply frame's payload bytes are flipped.
    * ``delay_reply`` — ``{index: seconds}`` holds the reply that long.
    """

    drop_reply_at: frozenset = frozenset()
    corrupt_reply_at: frozenset = frozenset()
    delay_reply: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        self.drop_reply_at = frozenset(self.drop_reply_at)
        self.corrupt_reply_at = frozenset(self.corrupt_reply_at)
        self._counter_lock = threading.Lock()
        self.served = 0
        self._server = None

    def attach(self, server) -> "ServerChaos":
        """Fault ``server``'s replies from now on (until :meth:`detach`)."""
        self._server = server
        server._write_reply = functools.partial(self.write_reply, server._write_reply)
        return self

    def detach(self) -> None:
        """Give the server its own ``_write_reply`` back."""
        if self._server is not None:
            del self._server._write_reply
            self._server = None

    def write_reply(self, write, conn, request_id, status, payload) -> None:
        """Write one reply through ``write``, or fault it."""
        if isinstance(payload, HelloReply):
            write(conn, request_id, status, payload)
            return
        with self._counter_lock:
            index = self.served
            self.served += 1
        if index in self.drop_reply_at:
            return
        if index in self.corrupt_reply_at:
            frame = _flipped(frame_bytes((request_id, status, payload)))
            try:
                with conn.write_lock:
                    conn.sock.sendall(frame)
            except OSError:
                pass
            return
        time.sleep(self.delay_reply.get(index, 0.0))
        write(conn, request_id, status, payload)


@contextlib.contextmanager
def inject(
    plan: FaultPlan,
    kill_targets: Optional[Union[Sequence[int], Callable[[int], Optional[int]]]] = None,
) -> Iterator[List[ChaosTransport]]:
    """While open, every :class:`~repro.core.env.CompilerEnv` made talks to
    its service through a fresh :class:`ChaosTransport` over ``plan``.

    Yields the list of transports made so far. The wrapping happens before
    the environment's first call, so its ``get_spaces`` is call 0.
    """
    made: List[ChaosTransport] = []
    original = CompilerEnv._make_transport

    def make_transport(env):
        transport = ChaosTransport(original(env), plan, kill_targets)
        made.append(transport)
        return transport

    CompilerEnv._make_transport = make_transport
    try:
        yield made
    finally:
        CompilerEnv._make_transport = original


# -- the seeded soak: ``python -m repro.testing.chaos soak`` -----------------

# The soak's fixed workload and fault schedule; only the seed varies.
SOAK_ENV = "llvm-v0"
SOAK_BENCHMARK = "benchmark://cbench-v1/qsort"
SOAK_STEPS = 6  # Actions attempted per episode.
# The calls the soak's env makes: it runs episodes until it has made this
# many, and the seeded faults are drawn over the same call indices, so every
# scheduled fault lands on a call the soak makes.
SOAK_CALLS = 40
SOAK_DAEMONS = 2  # Gateway fleet size.
SOAK_HEARTBEAT_INTERVAL = 0.25
SOAK_FAULT_RATE = 0.15
# SIGKILL daemon 0 at the first step() call at or after this index: the step
# path carries the gateway's failover retry, so the kill is absorbed
# transparently whatever the monitor/client race.
SOAK_KILL_CALL = 12


def soak_plan(seed: int) -> FaultPlan:
    """The soak's schedule: seeded frame cuts and refused connects, plus a
    SIGKILL of gateway daemon 0."""
    events = FaultPlan.generate(seed=seed, calls=SOAK_CALLS, rate=SOAK_FAULT_RATE).events
    kill = FaultEvent(call_index=SOAK_KILL_CALL, kind="kill_daemon", method="step")
    return FaultPlan(
        events=tuple(sorted(events + (kill,), key=lambda e: e.call_index)), seed=seed
    )


def soak_once(seed: int, run_index: int = 0):
    """One soak run: a fresh gateway fleet with its heartbeat monitor on, a
    fresh env talking through a :class:`ChaosTransport` over
    :func:`soak_plan`, and the seeded random-action workload: episodes of up
    to ``SOAK_STEPS`` actions until the env has made ``SOAK_CALLS`` calls.

    Returns ``(traces, injected, digest)``: each episode's action trace,
    the injected fault log, and a digest of the traces.
    """
    gateway = ServiceGateway(
        env_id=SOAK_ENV, daemons=SOAK_DAEMONS, heartbeat_interval=SOAK_HEARTBEAT_INTERVAL
    ).start()
    env = None
    try:
        kill_pids = [d.pid for d in gateway.live_daemons() if d.pid is not None]
        with inject(soak_plan(seed), kill_targets=kill_pids):
            env = repro.make(
                SOAK_ENV,
                benchmark=SOAK_BENCHMARK,
                reward_space="IrInstructionCount",
                service_url=gateway.url,
            )
        transport = env.service.transport
        rng = random.Random(seed)
        num_actions = env.action_space.n
        traces = []
        failed_episodes = 0
        while transport.calls < SOAK_CALLS:
            try:
                env.reset()
                for _ in range(SOAK_STEPS):
                    if transport.calls >= SOAK_CALLS:
                        break
                    _, _, done, step_info = env.step(rng.randrange(num_actions))
                    if done:
                        # A non-retryable injected fault ends the episode
                        # (done=True + error_details) instead of raising: the
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
        injected = list(transport.injected)
        digest = hashlib.sha256(repr(traces).encode()).hexdigest()[:32]
        print(
            f"Run {run_index}: {len(traces)} episode(s) in {transport.calls} "
            f"call(s) ({failed_episodes} truncated by faults), "
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


def soak(seed: int, runs: int = 1) -> int:
    """Run the soak ``runs`` times; 0 if every run produced actions and
    injected every scheduled fault, and all runs injected the same faults and
    produced the same traces, else 1."""
    print(
        f"Chaos soak: seed {seed}, {SOAK_CALLS} call(s) in episodes of up to "
        f"{SOAK_STEPS} step(s) over {SOAK_DAEMONS} daemon(s), heartbeat every "
        f"{SOAK_HEARTBEAT_INTERVAL:g}s"
    )
    plan = soak_plan(seed)
    print(f"Fault plan: {plan.describe()}")
    digests = []
    injected_logs = []
    for run_index in range(max(1, runs)):
        traces, injected, digest = soak_once(seed, run_index)
        print(f"Injected fault sequence: {injected}")
        print(f"Action trace digest: {digest}", flush=True)
        if not any(traces):
            print("FAIL: no episode produced any actions", file=sys.stderr)
            return 1
        if len(injected) != len(plan.events):
            print(
                f"FAIL: {len(injected)} of {len(plan.events)} scheduled fault(s) injected",
                file=sys.stderr,
            )
            return 1
        digests.append(digest)
        injected_logs.append(injected)
    if len(digests) > 1:
        if len(set(digests)) != 1 or any(log != injected_logs[0] for log in injected_logs):
            print(
                f"FAIL: chaos soak is NOT deterministic across {runs} runs: "
                f"digests {digests}",
                file=sys.stderr,
            )
            return 1
        print(f"Deterministic: {runs} run(s) produced identical fault "
              f"sequences and action traces")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.testing.chaos")
    commands = parser.add_subparsers(dest="command", required=True)
    soak_parser = commands.add_parser(
        "soak",
        help="Seeded frame cuts, refused connects and a daemon SIGKILL over "
             "a 2-daemon gateway, asserting completion and reproducible "
             "action traces",
    )
    soak_parser.add_argument("--seed", type=int, default=0,
                             help="Seed of the fault schedule and the action "
                                  "workload (same seed -> same run)")
    soak_parser.add_argument("--runs", type=int, default=1,
                             help="Repeat the identical soak N times and fail "
                                  "unless every run matches (determinism gate)")
    args = parser.parse_args(argv)
    return soak(args.seed, args.runs)


if __name__ == "__main__":
    sys.exit(main())
