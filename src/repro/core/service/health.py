"""Proactive fleet health: heartbeat monitoring.

Before this layer, every recovery path in the gateway was *reactive*: a dead
daemon was only discovered when a client call failed into it, paying the
failure's latency on a user-visible RPC. The :class:`HealthMonitor` runs a
background probe loop inside the gateway that calls the lightweight
``heartbeat`` RPC on every live daemon at a fixed interval and triggers the
existing re-home/failover path the moment a daemon stops answering — no
client call needs to be in flight for a corpse to be detected and its
sessions replayed onto survivors.

A fleet member is live or dead, and nothing in between: the monitor and a
failed client call probe a member the same way (``ServiceGateway.probe``),
and a member found dead is retired by failover.
"""

import threading

from repro.errors import ServiceIsDown


class HealthMonitor(threading.Thread):
    """Background heartbeat prober that drives proactive failover.

    Every ``interval`` seconds, probes each live daemon of ``gateway`` with
    ``gateway.probe``. A refused connection (nothing is listening — the
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
            error = self.gateway.probe(daemon)
            if error is None:
                self._misses.pop(daemon.index, None)
                continue
            misses = self._misses.get(daemon.index, 0) + 1
            self._misses[daemon.index] = misses
            # A refused connect means nothing is listening on the daemon's
            # socket: the process is gone, so no more evidence is needed.
            if isinstance(error, ConnectionRefusedError) or misses >= self.failure_threshold:
                self._misses.pop(daemon.index, None)
                self.deaths_detected += 1
                self.gateway._handle_daemon_failure(
                    daemon,
                    ServiceIsDown(
                        f"Heartbeat probe found daemon {daemon.index} at "
                        f"{daemon.url} dead"
                    ),
                )
