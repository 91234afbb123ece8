"""Which thread runs a request, at the daemon and at the gateway.

A request runs on the thread that read it; only a frame that arrives while it
runs wakes the watcher, and a pool thread then reads for the busy thread and
hands what it reads to the dispatch pool. Every test here runs against a
daemon and against a gateway fronting that daemon (the *front*), with the
interpreter switching threads as often as it can, so the hand-over between
the connection's thread and a stand-in reader is exercised mid-protocol.
"""

import contextlib
import socket
import struct
import sys
import threading
import time

import pytest

from repro.core.service.chaos import ServerChaos
from repro.core.service.connection import ServiceConnection
from repro.core.service.gateway import ServiceGateway
from repro.core.service.proto import StartSessionRequest, StepRequest
from repro.core.service.runtime.server import ServiceServer
from repro.core.service.transport import SocketTransport
from repro.core.service.wire import (
    REPLY_OK,
    WIRE_VERSION,
    frame_bytes,
    parse_service_url,
    read_frame,
)
from tests.test_transport import _slow_runtime, _SlowStepSession


@pytest.fixture(params=["daemon", "gateway"])
def front(request):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ServiceServer(_slow_runtime(), session_timeout=None).start() as daemon:
            if request.param == "daemon":
                yield daemon
                return
            gateway = ServiceGateway(daemon_urls=[daemon.url]).start()
            try:
                yield gateway
            finally:
                gateway.shutdown()
    finally:
        sys.setswitchinterval(interval)


class _RawPeer:
    """A client that writes frames as it likes and reads replies itself."""

    def __init__(self, url: str):
        self.sock = socket.create_connection(parse_service_url(url)[1], timeout=10)
        self.rfile = self.sock.makefile("rb")

    def send(self, *requests):
        """All of ``requests`` in one write."""
        self.sock.sendall(b"".join(frame_bytes(request) for request in requests))

    def reply(self):
        request_id, status, payload = read_frame(self.rfile)
        assert status == REPLY_OK, payload
        return request_id, payload

    def start_sessions(self, n: int):
        """n sessions, one at a time; session i's counter starts at 100 * i."""
        ids = []
        for i in range(n):
            request = StartSessionRequest(benchmark_uri=f"benchmark://t-v0/{100 * i}")
            self.send((1000 + i, "start_session", (request,)))
            ids.append(self.reply()[1].session_id)
        return ids

    def close(self):
        self.rfile.close()
        self.sock.close()


@contextlib.contextmanager
def _raw_peer(url):
    peer = _RawPeer(url)
    try:
        yield peer
    finally:
        peer.close()


def _step(request_id, session_id, actions):
    """A step request that observes the counter it moved."""
    request = StepRequest(
        session_id=session_id, actions=actions, observation_space_names=["value"]
    )
    return (request_id, "step", (request,))


def _value(step_reply):
    return step_reply.observations[0].value()


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.005)


def test_concurrent_callers_overlap_at_the_front(front):
    """Three sessions stepped at once through one client connection run at
    once in the daemon, whether the client dials it or a gateway before it:
    a frame that arrives while another request runs is handed to the pool."""
    _SlowStepSession.reset_tracking()
    with ServiceConnection(SocketTransport(front.url)) as connection:
        sessions = [
            connection.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))
            for _ in range(3)
        ]
        threads = [
            threading.Thread(
                target=connection.step,
                args=(StepRequest(session_id=session.session_id, actions=[1] * 2),),
            )
            for session in sessions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    assert _SlowStepSession.max_in_flight >= 2
    assert front.server_info()["handed_off"] >= 1


def test_frames_written_together_during_a_slow_request_each_get_one_reply(front):
    """...and run together: no frame waits in a buffer the watcher cannot see."""
    with _raw_peer(front.url) as peer:
        sessions = peer.start_sessions(4)
        _SlowStepSession.reset_tracking()
        peer.send(_step(0, sessions[0], [1] * 3))
        time.sleep(0.05)  # The slow step is running on the connection's thread.
        peer.send(*[_step(i, sessions[i], [1]) for i in (1, 2, 3)], (4, "heartbeat", ()))
        replies = dict(peer.reply() for _ in range(5))
    assert sorted(replies) == [0, 1, 2, 3, 4]
    assert [_value(replies[i]) for i in range(4)] == [3, 101, 201, 301]
    assert replies[4]["kind"] == front.server_kind
    assert _SlowStepSession.max_in_flight >= 3
    assert front.server_info()["handed_off"] >= 1


def test_a_short_request_after_a_long_one_is_answered_first(front):
    with _raw_peer(front.url) as peer:
        sessions = peer.start_sessions(2)
        peer.send(_step(0, sessions[0], [1] * 4))
        time.sleep(0.05)
        peer.send(_step(1, sessions[1], []))
        first, second = peer.reply(), peer.reply()
    assert (first[0], _value(first[1])) == (1, 100)
    assert (second[0], _value(second[1])) == (0, 4)


def test_a_malformed_frame_during_a_hand_over_drops_only_its_client(front):
    with _raw_peer(front.url) as peer, ServiceConnection(SocketTransport(front.url)) as other:
        (session,) = peer.start_sessions(1)
        bystander = other.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/7"))
        peer.send(_step(0, session, [1] * 3))
        time.sleep(0.05)
        garbage = b"not a pickle at all"
        peer.sock.sendall(bytes([WIRE_VERSION]) + struct.pack(">Q", len(garbage)) + garbage)
        # The other client is served while the dropped one's request runs...
        step = StepRequest(
            session_id=bystander.session_id, actions=[1], observation_space_names=["value"]
        )
        assert _value(other.step(step)) == 8
        # ...and the dropped one still gets the reply it was owed, then an
        # end of stream: a hang-up, not a reset.
        request_id, payload = peer.reply()
        assert (request_id, _value(payload)) == (0, 3)
        assert peer.sock.recv(1) == b""
        assert _value(other.step(step)) == 9


def test_a_dropped_reply_leaves_the_connection_serving_in_place(front):
    with _raw_peer(front.url) as peer:
        (session,) = peer.start_sessions(1)
        handed_off = front.server_info()["handed_off"]
        front.chaos = chaos = ServerChaos(drop_reply_at={0})
        peer.send(_step(0, session, [1]))
        _wait_until(lambda: chaos._served == 1)
        time.sleep(0.05)  # Its thread finishes with the request.
        peer.send(_step(1, session, [1]))
        request_id, payload = peer.reply()
        assert (request_id, _value(payload)) == (1, 2)
        front.chaos = None
    assert front.server_info()["handed_off"] == handed_off
