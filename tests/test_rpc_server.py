"""Which thread runs a request, at the daemon and at the gateway.

A request runs on the thread that read it; only a frame that arrives while it
runs wakes the watcher, and a pool thread then reads for the busy thread and
hands what it reads to the dispatch pool. Every test here runs against a
daemon and against a gateway fronting that daemon (the *front*), with the
interpreter switching threads as often as it can, so the hand-over between
the connection's thread and a stand-in reader is exercised mid-protocol.
"""

import contextlib
import select
import socket
import struct
import sys
import threading
import time

import pytest

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
from repro.testing.chaos import ServerChaos
from tests.test_transport import _slow_runtime, _SlowStepSession

new_session_id = ServiceConnection.new_session_id


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
        family, address = parse_service_url(url)
        if family == "unix":
            self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self.sock.settimeout(10)
            self.sock.connect(address)
        else:
            self.sock = socket.create_connection(address, timeout=10)
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
            request = StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://t-v0/{100 * i}")
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
    return step_reply.observations[0]


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
            connection.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))
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
        bystander = other.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/7"))
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
        chaos = ServerChaos(drop_reply_at={0}).attach(front)
        peer.send(_step(0, session, [1]))
        _wait_until(lambda: chaos.served == 1)
        time.sleep(0.05)  # Its thread finishes with the request.
        peer.send(_step(1, session, [1]))
        request_id, payload = peer.reply()
        assert (request_id, _value(payload)) == (1, 2)
        chaos.detach()
    assert front.server_info()["handed_off"] == handed_off


# -- the watch: one epoll set per server, one registration per connection -----


class _CountingEpoll:
    """``select.epoll`` that logs every ``(fd, events)`` its ``poll`` returns."""

    def __init__(self, real):
        self._epoll = real()
        self.woken = []

    def poll(self, *args):
        events = self._epoll.poll(*args)
        self.woken.extend(events)
        return events

    def __getattr__(self, name):
        return getattr(self._epoll, name)


@pytest.mark.parametrize("family", ["unix", "tcp"])
def test_a_hang_up_of_an_idle_connection_wakes_the_watcher_at_most_once(
    family, tmp_path, monkeypatch
):
    """A hang-up is reported whatever a socket's mask is; the one-shot
    registration reports it once, not until the connection has left the set.
    Leaving is held back here to give a spinning watcher time to spin."""
    real = select.epoll
    monkeypatch.setattr(select, "epoll", lambda: _CountingEpoll(real))
    where = {"unix_path": str(tmp_path / "daemon.sock")} if family == "unix" else {}
    server = ServiceServer(_slow_runtime(), session_timeout=None, **where)
    monkeypatch.undo()
    unregister = server._unregister

    def unregister_late(conn):
        time.sleep(0.2)
        unregister(conn)

    server._unregister = unregister_late
    with server.start():
        with _raw_peer(server.url) as peer:
            peer.send((0, "heartbeat", ()))
            peer.reply()
            (conn,) = server._clients
            assert server._registered == {conn.fd: conn}
        _wait_until(lambda: not server._clients)
        assert not server._registered
        woken = [fd for fd, _ in server._epoll.woken]
        assert woken.count(conn.fd) <= 1 and len(woken) <= 1


def test_reconnects_that_reuse_descriptors_answer_every_overlapped_frame(front, monkeypatch):
    """A connection leaves the epoll set before its socket closes, so the
    next one on the same descriptor is watched afresh: each of 200
    connections sends a step and a heartbeat in one write, and the
    heartbeat, arriving while the step runs, is handed off and answered."""
    monkeypatch.setattr(_SlowStepSession, "sleep_seconds", 0.002)
    with _raw_peer(front.url) as owner:
        (session,) = owner.start_sessions(1)
    handed_off = front.server_info()["handed_off"]
    for i in range(200):
        with _raw_peer(front.url) as peer:
            peer.send(_step(0, session, [1]), (1, "heartbeat", ()))
            replies = dict(peer.reply() for _ in range(2))
        assert _value(replies[0]) == i + 1
        assert replies[1]["kind"] == front.server_kind
    assert front.server_info()["handed_off"] > handed_off


def test_every_request_is_counted_once_without_a_server_lock(front):
    """``served_in_place + handed_off`` is every request K connections sent,
    whichever thread ran each: the counters are per connection, and a
    closed connection's are folded into the server's."""

    def total():
        info = front.server_info()
        return info["served_in_place"] + info["handed_off"]

    before = total()
    connections, pairs = 4, 25

    def run():
        with _raw_peer(front.url) as peer:
            for i in range(pairs):
                peer.send((2 * i, "heartbeat", ()), (2 * i + 1, "heartbeat", ()))
                assert sorted(peer.reply()[0] for _ in range(2)) == [2 * i, 2 * i + 1]

    threads = [threading.Thread(target=run) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    after = total()
    assert after - before == connections * 2 * pairs
    _wait_until(lambda: not front._clients)
    assert total() == after
