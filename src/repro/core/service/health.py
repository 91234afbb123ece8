"""Proactive fleet health: circuit breakers and heartbeat monitoring.

Before this layer, every recovery path in the gateway was *reactive*: a dead
daemon was only discovered when a client call failed into it, paying the
failure's latency on a user-visible RPC. The :class:`HealthMonitor` runs a
background probe loop inside the gateway that calls the lightweight
``heartbeat`` RPC on every live daemon at a fixed interval and triggers the
existing re-home/failover path the moment a daemon stops answering — no
client call needs to be in flight for a corpse to be detected and its
sessions replayed onto survivors.

The :class:`CircuitBreaker` is the flap guard: a daemon that fails
consecutive probes (or client calls) transitions closed → open, and while
open it sheds load — new sessions are not placed on it and every step routed
to it, a lone ``step`` or a ``step_sessions`` sub-request, is short-circuited
to ``ServiceIsDown`` instead of eating a timeout. After ``reset_timeout``
seconds the breaker admits a single half-open probe, and the callers that
arrive while it is in flight wait for its outcome; one success closes it
again.
"""

import threading
import time
from typing import Optional

from repro.errors import ServiceIsDown

# Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """A per-daemon circuit breaker: closed → open → half-open → closed.

    Thread-safe. ``record_failure`` trips the breaker after
    ``failure_threshold`` *consecutive* failures; while open, ``allow()``
    returns False until ``reset_timeout`` seconds have passed, after which a
    single caller is admitted as the half-open probe. ``record_success``
    closes the breaker and zeroes the failure count.
    """

    def __init__(self, failure_threshold: int = 3, reset_timeout: float = 5.0):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._lock = threading.Lock()
        # Notified when the half-open probe's outcome is recorded.
        self._probe_settled = threading.Condition(self._lock)
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at: Optional[float] = None
        self._half_open_inflight = False
        self.trips = 0  # lifetime closed->open transitions

    @property
    def state(self) -> str:
        with self._lock:
            # Surface the would-transition state so server_info readers see
            # "half-open" once the cooldown has elapsed, even if no probe
            # has asked allow() yet.
            if self._state == OPEN and self._cooldown_elapsed():
                return HALF_OPEN
            return self._state

    def _cooldown_elapsed(self) -> bool:
        return (
            self._opened_at is not None
            and time.monotonic() - self._opened_at >= self.reset_timeout
        )

    def allow(self) -> bool:
        """Is a call to the protected daemon currently admitted?

        In the half-open state only one caller is admitted at a time; its
        subsequent ``record_success``/``record_failure`` decides the breaker's
        fate. A caller that arrives while that probe is in flight waits for
        its outcome, for at most ``reset_timeout`` seconds, and is admitted
        if the probe closed the breaker: callers that only overlap the probe
        (a pool's workers resetting together) are not shed by it.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._half_open_inflight:
                self._probe_settled.wait_for(
                    lambda: not self._half_open_inflight, timeout=self.reset_timeout
                )
                return self._state == CLOSED
            if self._cooldown_elapsed():
                self._state = HALF_OPEN
                self._half_open_inflight = True
                return True
            return False  # OPEN before cooldown.

    def _settle_probe(self) -> None:
        if self._half_open_inflight:
            self._half_open_inflight = False
            self._probe_settled.notify_all()

    def record_success(self) -> None:
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._opened_at = None
            self._settle_probe()

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                # The probe failed: reopen and restart the cooldown clock.
                self._state = OPEN
                self._opened_at = time.monotonic()
                self._settle_probe()
                return
            if (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = time.monotonic()
                self.trips += 1

    def force_open(self) -> None:
        """Trip the breaker immediately (e.g. on a refused connection)."""
        with self._lock:
            if self._state != OPEN:
                self.trips += 1
            self._state = OPEN
            self._opened_at = time.monotonic()
            self._consecutive_failures = max(
                self._consecutive_failures, self.failure_threshold
            )
            self._settle_probe()

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state!r}, trips={self.trips})"


class HealthMonitor(threading.Thread):
    """Background heartbeat prober that drives proactive failover.

    Every ``interval`` seconds, sends the ``heartbeat`` RPC to each live
    daemon of ``gateway``. A refused connection (nothing is listening — the
    process is gone) declares the daemon dead on the *first* probe; other
    errors must repeat ``failure_threshold`` consecutive times. Either way,
    death is handled by calling the gateway's existing
    ``_handle_daemon_failure`` path, which re-homes the daemon's sessions by
    replaying their action recipes onto survivors — so by the time the next
    client call arrives, the fleet has already routed around the corpse.

    Detection latency is therefore bounded by ~1 probe interval for a
    SIGKILLed daemon (first refused connect) and ``failure_threshold``
    intervals for a wedged-but-listening one.
    """

    daemon = True

    def __init__(self, gateway, interval: float = 1.0, failure_threshold: int = 2):
        super().__init__(name="gateway-health-monitor")
        self.gateway = gateway
        self.interval = interval
        self.failure_threshold = failure_threshold
        self.probes = 0
        self.deaths_detected = 0
        self._misses = {}  # daemon index -> consecutive failed probes
        self._stop_event = threading.Event()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self.probe_once()
            except Exception:  # noqa: BLE001 - the monitor must never die
                pass

    def probe_once(self) -> None:
        """One probe sweep over the fleet (also callable from tests)."""
        for daemon in self.gateway.live_daemons():
            if self._stop_event.is_set():
                return
            self.probes += 1
            try:
                daemon.connection.transport.heartbeat()
            except ConnectionRefusedError:
                # Nothing is listening on the daemon's socket: the process
                # is gone. No point waiting for more evidence.
                self._declare_dead(daemon)
            except Exception:  # noqa: BLE001 - any other probe failure
                daemon.breaker.record_failure()
                misses = self._misses.get(daemon.index, 0) + 1
                self._misses[daemon.index] = misses
                if misses >= self.failure_threshold:
                    self._declare_dead(daemon)
            else:
                self._misses.pop(daemon.index, None)
                daemon.last_heartbeat = time.monotonic()
                daemon.breaker.record_success()

    def _declare_dead(self, daemon) -> None:
        self._misses.pop(daemon.index, None)
        daemon.breaker.force_open()
        self.deaths_detected += 1
        self.gateway._handle_daemon_failure(
            daemon,
            ServiceIsDown(
                f"Heartbeat probe found daemon {daemon.index} at {daemon.url} dead"
            ),
        )
