"""A speed reference: every reported time is a time at reference speed.

The 2-vCPU VMs this benchmark runs on do not execute at one speed. The same
pure-Python loop, alone on the machine, takes 95-160 ms from one second to
the next and drifts by a further +-20 % over minutes (noisy neighbours; CPU
time moves with wall time, so it is execution speed, not steal). Raw wall
times of one commit therefore differ by more between two runs than any bound
this benchmark wants to hold a later change to.

So the timed loop interleaves the operations it measures with slices of a
fixed piece of work that is not part of the program under test, standard
library only. After every operation the loop runs slices until they add up to
`DUTY` of the operation time measured so far, which puts a slice within a few
milliseconds of everything that is timed. The median slice of a round says
how fast the machine was during that round, and every time measured in the
round is multiplied by `reference_s / median slice`: the time it would have
taken with the machine at reference speed.

The fixed work has the shape of the work it is held against, because the
machine does not slow down by one factor either: `PythonReference` for the
workloads that compute in the benchmark's own process (and `gateway_vec2`,
whose vec step is mostly compute in two daemons), `HopReference` for
`daemon_small_steps`, whose step is mostly a hop between two processes.

Measured on the seed commit (40 rounds of `inproc_rl_mixed`, same seed): the
round wall varies by 7.9 % (cv) raw and 1.2 % at reference speed.

The slices are outside every timed interval and their CPU time is subtracted
from the client's, so they cost the run wall time and nothing else. A change
to the program cannot move the reference; a change of interpreter or machine
moves both, which is the point.
"""

import copy
import json
import socket
import threading
from time import perf_counter

DUTY = 0.25


class PythonReference:
    """A `copy.deepcopy` of a small nested structure plus dict and string
    work: the same kind of interpreter, allocator and cache traffic as
    `Module.clone` and the passes."""

    # The slice on a quiet spell of the VM the baseline was taken on, in seconds.
    # A constant, so that numbers at reference speed read like raw numbers there.
    reference_s = 100e-6

    _SHAPE = [
        {"k%d" % j: [j, str(j), (j, j + 1), {"x": [1.0 * j] * 4}] for j in range(6)}
        for _ in range(3)
    ]

    def slice(self) -> float:
        """Run one slice of the fixed work; returns the seconds it took."""
        start = perf_counter()
        totals = {}
        for row in copy.deepcopy(self._SHAPE):
            for key, value in row.items():
                totals[key] = totals.get(key, 0) + len(value) + value[0]
        "".join(sorted(totals))
        return perf_counter() - start


class HopReference:
    """A miniature step: a request to a process on the CPU the client and its
    daemon share (`launcher.hop_peer`, which runs `hop_server` below), the
    fixed work there, and the reply handed from a reader thread to the caller.
    Standard library only, and nothing of the program under test. For a
    workload whose step is a hop between two processes.

    There the interpreter work alone is the wrong yardstick. While the VM's
    neighbours are busy a hop (system calls, a switch to the other process and
    back, a thread woken, every working set refilled) slows down by more than a
    loop that stays in its cache: over 40 rounds of `daemon_small_steps`
    within ten minutes the raw median step went from 0.27 to 0.64 ms and the
    interpreter slice from 90 to 160 us. Per round, the median step divided by
    the median interpreter slice had a quartile spread of 7-17 %; divided by
    the median of these, 4-5 % (the round's total: 6-10 % and 4-5 %).
    """

    # The slice on the same quiet spells as PythonReference.reference_s.
    reference_s = 200e-6

    def __init__(self, peer: socket.socket):
        self._peer = peer
        self._replied = threading.Event()
        self._reply = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        """Runs until the launcher stops the peer process."""
        while True:
            try:
                data = self._peer.recv(4096)
            except OSError:
                data = b""
            self._reply = json.loads(data) if data else None
            self._replied.set()
            if not data:
                return

    def slice(self) -> float:
        start = perf_counter()
        self._replied.clear()
        self._peer.sendall(json.dumps({"id": 1, "method": "step", "args": _REQUEST_ARGS}).encode())
        self._replied.wait()
        if self._reply is None:
            raise ConnectionError("the hop process of the speed reference is gone")
        return perf_counter() - start


_REQUEST_ARGS = list(range(20))


def hop_server(peer: socket.socket) -> None:
    """The other end of `HopReference`: answers until the client goes away."""
    python = PythonReference()
    while True:
        data = peer.recv(4096)
        if not data:
            return
        message = json.loads(data)
        message["spent"] = python.slice()
        peer.sendall(json.dumps(message).encode())
