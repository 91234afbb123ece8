"""Transports carrying service RPCs from the client to a compiler service.

The paper's headline design is a client/server split: compiler environments
talk to a long-lived compiler *service* over RPC, so one service can host
many sessions, survive client churn, and live on another machine. A
:class:`ServiceTransport` is the seam where that split happens: the
:class:`~repro.core.service.connection.ServiceConnection` owns the
fault-tolerance policy (timeouts, retries, call accounting) and delegates the
actual dispatch of each ``(method, *args)`` RPC to a transport, in two
halves: :meth:`ServiceTransport.send` sends the request and returns the
callable that waits for its reply, and ``call`` is the two run back to back.

Two implementations are provided:

* :class:`InProcessTransport` — the runtime lives in the calling process and
  calls are plain method invocations. The default, and the fastest.
* :class:`SocketTransport` — the runtime lives in a standalone daemon (see
  :mod:`repro.core.service.runtime.server`) reachable over a TCP or Unix
  socket, speaking length-prefixed pickled messages. This is the paper's
  deployment shape, and the only process boundary in the project: the daemon
  multiplexes sessions from many clients, survives client restarts, can run
  on a different machine — or in a child process of the client
  (:class:`~repro.core.service.runtime.server.SpawnedDaemon`), which is how
  a runtime gets crash isolation and its own interpreter lock.

The framing and encoding of every byte on the wire — the ``(status,
payload)`` reply convention, the version-prefixed frame layout, the codec,
service URL parsing — live in :mod:`repro.core.service.wire`, the single
source of truth shared with the daemon and the gateway.

The socket protocol is *multiplexed*: requests carry a monotonically
increasing request id and replies echo it back, so any number of concurrent
callers — forked environments, pool workers, batched steppers — overlap
their RPCs on one :class:`SocketTransport`'s one socket instead of
serializing on it. There is no reader thread. The callers waiting for a
reply share the read side *leader/follower*: one of them at a time reads the
socket on its own thread and routes each frame to the slot of the caller
that issued the request, and hands the role on when its own reply has
arrived. A lone caller — by far the common case — therefore pays no
cross-thread hand-off per round trip, and a connection costs no thread. The
socket is blocking once connected, and the transport timeout is kept by the
kernel (``SO_RCVTIMEO`` / ``SO_SNDTIMEO``), so no send or receive polls
first.

The price is that nobody reads an idle connection, so a peer that goes away
while no call is in flight is not noticed until the next call. That call
finds out one of two ways: its send fails with nothing flushed (a Unix
socket whose peer is gone), which is safe to retry and is retried on a fresh
connection; or its send is accepted by the kernel and the read then hits
EOF/reset (TCP), which is indistinguishable from a daemon that died *after*
reading the request and so surfaces as the non-retryable
:class:`~repro.errors.ServiceTransportError`, exactly as a loss in flight
does. Either way the connection is retired and the call after that opens a
fresh one: reopening on the next call is the transport's only way to
reconnect, and the connection's retry loop its only retry.

Every connection opens with the ``hello`` handshake: the transport presents
its auth token and learns who answered. A refused token raises
:class:`~repro.errors.PermissionDeniedError`; any other error reply fails
the call that opened the connection.
"""

import itertools
import os
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.service.proto import HelloReply, HelloRequest
from repro.core.service.wire import (
    REPLY_ERROR,
    frame_bytes,
    parse_service_url,
    raise_remote_error,
    recv_frame,
)
from repro.errors import (
    PermissionDeniedError,
    ServiceError,
    ServiceIsClosed,
    ServiceTransportError,
)


class ServiceTransport:
    """Strategy interface: carries one ``(method, *args)`` RPC to a runtime.

    Transports are deliberately policy-free: no retries, no timeouts, no
    accounting. All of that lives in
    :class:`~repro.core.service.connection.ServiceConnection`, identically
    for every transport. A transport only knows how to dispatch a call over
    its channel.
    """

    name = "transport"

    def __init__(self):
        self.closed = False

    def call(self, method: str, *args) -> Any:
        """Dispatch one RPC and return its reply (or raise its error)."""
        raise NotImplementedError

    def send(self, method: str, *args) -> Callable[[], Any]:
        """Send one RPC now; the returned callable waits for its reply.

        ``call`` is ``send`` with the wait run at once. A caller with several
        requests for different services sends them all, then collects each
        reply in turn, and the services work on them at the same time. A
        failure to send raises here; a failure once the request has left
        raises from the callable. This default runs the whole call here, so a
        transport with nothing to overlap needs only ``call``.
        """
        reply = self.call(method, *args)
        return lambda: reply

    def shutdown(self) -> None:
        """Release the channel. Does not stop a shared remote service."""
        self.closed = True

    @property
    def runtime(self):
        """The in-process runtime, when there is one (else ``None``)."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class InProcessTransport(ServiceTransport):
    """Dispatches calls directly on a runtime owned by the calling process."""

    name = "in-process"

    def __init__(self, runtime):
        super().__init__()
        self._runtime = runtime

    def call(self, method: str, *args) -> Any:
        try:
            return getattr(self._runtime, method)(*args)
        except Exception as error:  # noqa: BLE001 - classified as a daemon's reply is
            # Whatever the runtime raised, it raised with the runtime still
            # there: one session's error, never a lost channel to retry.
            raise_remote_error(method, error)

    def shutdown(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._runtime.shutdown()

    @property
    def runtime(self):
        return self._runtime


def _connect(family: str, address, timeout: float) -> socket.socket:
    """A connected, blocking socket whose sends and receives time out in the
    kernel.

    A Python-level timeout (``settimeout``) makes CPython ``poll()`` before
    every send and every receive, so it bounds the connect only. After that
    the deadline is ``SO_SNDTIMEO`` / ``SO_RCVTIMEO``: a send or receive that
    outlives it fails with :class:`BlockingIOError`.
    """
    if family == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    else:
        inet = socket.AF_INET6 if ":" in address[0] else socket.AF_INET
        sock = socket.socket(inet, socket.SOCK_STREAM)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        sock.settimeout(timeout)
        sock.connect(address)
        sock.settimeout(None)
        seconds = int(timeout)
        # A zero timeval would mean no deadline at all.
        micros = max(int((timeout - seconds) * 1e6), 0 if seconds else 1)
        timeval = struct.pack("ll", seconds, micros)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
    except BaseException:
        sock.close()
        raise
    return sock


class _SendError(Exception):
    """Internal: a socket send failed after ``bytes_flushed`` bytes left."""

    def __init__(self, cause: BaseException, bytes_flushed: int):
        super().__init__(str(cause))
        self.cause = cause
        self.bytes_flushed = bytes_flushed


class _PendingReply:
    """One caller's slot in the demultiplexer: the outcome, once ``done``."""

    __slots__ = ("done", "status", "payload", "error")

    def __init__(self):
        self.done = False
        self.status = None
        self.payload = None
        self.error: Optional[BaseException] = None

    def resolve(self, status: str, payload: Any) -> None:
        self.status = status
        self.payload = payload
        self.done = True

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done = True


class _MuxSocketConnection:
    """One live multiplexed socket to the daemon.

    Owns the connection *epoch*: the socket, the per-connection request-id
    counter, the pending map, and the reader role by which the waiting
    callers route each ``(request_id, status, payload)`` reply frame to the
    caller that issued the matching request (leader/follower — see
    :meth:`await_reply`). Concurrent callers interleave freely — sends are
    serialized under a send lock (frames must not interleave on the wire)
    but nobody waits for anyone else's reply. A dead connection is never
    revived: the transport opens a fresh epoch instead, so a stale reader
    can never consume frames meant for a successor connection.
    """

    def __init__(self, url: str, family: str, address, timeout: float):
        self.url = url
        self.timeout = timeout
        self.sock = _connect(family, address, timeout)
        self._send_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: Dict[int, _PendingReply] = {}
        self._request_ids = itertools.count()
        self.dead: Optional[BaseException] = None
        self.closed = False  # Set by a deliberate local close/shutdown.
        # Leader/follower state: at most one waiter (the leader) blocks in
        # recv at a time; the rest wait on this condition for either their
        # reply or the reader role.
        self._role_cv = threading.Condition()
        self._reading = False

    # -- request lifecycle -------------------------------------------------

    def register(self) -> Tuple[int, _PendingReply]:
        """Allocate a request id and its reply slot.

        Registration happens *before* the send so a reply can never race
        past its waiter.
        """
        pending = _PendingReply()
        with self._pending_lock:
            if self.dead is not None:
                raise ConnectionError(f"Connection to {self.url} is down: {self.dead}")
            request_id = next(self._request_ids)
            self._pending[request_id] = pending
        return request_id, pending

    def discard(self, request_id: int) -> None:
        with self._pending_lock:
            self._pending.pop(request_id, None)

    def send_request(self, request_id: int, method: str, args: tuple) -> None:
        """Send one request frame, tracking exactly how many bytes left.

        Raises :class:`_SendError` carrying ``bytes_flushed`` so the caller
        can classify the failure: 0 bytes flushed means the request cannot
        have reached the daemon (safe to retry); anything more is ambiguous
        (must not be retried).
        """
        view = memoryview(frame_bytes((request_id, method, args)))
        sent = 0
        with self._send_lock:
            try:
                while sent < len(view):
                    sent += self.sock.send(view[sent:])
            except (OSError, ValueError) as error:
                raise _SendError(error, bytes_flushed=sent) from error

    # -- reply routing (by whichever waiter holds the reader role) ---------

    def _read_one(self) -> None:
        """Read and route one reply frame; on failure, kill the connection."""
        try:
            # The decoder checks the envelope: a malformed one is corruption.
            request_id, status, payload = recv_frame(self.sock)
        except BlockingIOError:
            # Only a waiter reads, so a receive timeout always means a
            # request overran the transport timeout.
            self._fail_pending(
                ServiceTransportError(
                    f"No reply from {self.url} within {self.timeout}s: the "
                    f"call may already be applied on the daemon and will "
                    f"not be retried"
                )
            )
            self._close_socket()
            return
        except Exception as error:  # noqa: BLE001 - EOF, reset, corruption
            self._fail_pending(self._death_error(error))
            self._close_socket()
            return
        with self._pending_lock:
            pending = self._pending.pop(request_id, None)
        if pending is not None:
            pending.resolve(status, payload)
        # An unmatched id is a reply whose waiter gave up; drop it.

    def await_reply(self, pending: _PendingReply, timeout: float) -> bool:
        """Block until this request's reply slot resolves; False on timeout.

        The first waiter becomes the *leader* and reads the socket on its
        own thread; later waiters are *followers*, parked on the role
        condition. The leader gives the role up after every frame and wakes
        the followers: the one whose slot that frame resolved leaves, and
        one of the rest (the old leader included, if its own reply is still
        to come) takes the role. So no frame is read without being routed,
        and no waiter is left parked once its reply — or the connection's
        death — has been read.
        """
        deadline = time.monotonic() + timeout
        while not pending.done:
            with self._role_cv:
                while self._reading and not pending.done:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                    self._role_cv.wait(remaining)
                if pending.done:
                    return True
                if time.monotonic() >= deadline:
                    return False
                self._reading = True
            try:
                self._read_one()
            finally:
                with self._role_cv:
                    self._reading = False
                    self._role_cv.notify_all()
            if self.dead is not None:
                # _read_one failed every pending slot, ours included.
                break
        return pending.done

    def _death_error(self, error: BaseException) -> BaseException:
        if self.closed:
            return ServiceIsClosed("Socket transport is closed")
        return ServiceTransportError(
            f"Connection to {self.url} was lost with calls in flight: they "
            f"may already be applied on the daemon and will not be retried "
            f"({type(error).__name__}: {error})"
        )

    def _fail_pending(self, error: BaseException) -> None:
        with self._pending_lock:
            if self.dead is None:
                self.dead = error
            pending = list(self._pending.values())
            self._pending.clear()
        for slot in pending:
            slot.fail(error)
        # Wake the followers parked on the role condition (their slots just
        # failed, but only a notify re-checks the wait predicate).
        with self._role_cv:
            self._role_cv.notify_all()

    # -- teardown ----------------------------------------------------------

    def _close_socket(self) -> None:
        try:
            self.sock.close()
        except Exception:  # noqa: BLE001
            pass

    def close(self, error: Optional[BaseException] = None) -> None:
        """Deliberate local teardown: fail in-flight calls, wake the leader."""
        self.closed = True
        self._fail_pending(error if error is not None else self._death_error(EOFError()))
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._close_socket()


class SocketTransport(ServiceTransport):
    """Speaks the multiplexed RPC protocol to a service daemon or gateway.

    One transport holds one socket to the daemon, shared by any number of
    concurrent callers: every request carries a connection-unique request id,
    and whichever waiting caller holds the reader role routes each reply to
    the caller that issued it, so forked environments and pool workers
    overlap their round trips on the one connection instead of serializing.
    A lost connection is reopened by the next call; the daemon's sessions
    outlive it.
    """

    name = "socket"

    def __init__(
        self, url: str, timeout: float = 300.0, auth_token: Optional[str] = None
    ):
        super().__init__()
        self.url = url
        self.family, self.address = parse_service_url(url)
        self.timeout = timeout
        self.auth_token = auth_token
        self._conn: Optional[_MuxSocketConnection] = None
        self._lock = threading.RLock()

    def connect(self) -> None:
        """Open the connection now rather than on the first call."""
        self._acquire_connection()

    def _close_socket(self, error: Optional[BaseException] = None) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close(error)

    def _acquire_connection(self) -> _MuxSocketConnection:
        """The live connection, opened and greeted if there is none."""
        with self._lock:
            if self.closed:
                raise ServiceIsClosed("Socket transport is closed")
            if self._conn is not None and self._conn.dead is None:
                return self._conn
            conn = _MuxSocketConnection(self.url, self.family, self.address, self.timeout)
            try:
                hello = HelloRequest(
                    token=self.auth_token, client=f"repro-client-pid{os.getpid()}"
                )
                pending = self._await(conn, *self._post(conn, "hello", (hello,)), "hello")
                reply = pending.payload
                if pending.status == REPLY_ERROR:
                    if isinstance(reply, PermissionDeniedError):
                        raise reply
                    raise ServiceError(
                        f"{self.url} refused the hello handshake: "
                        f"{type(reply).__name__}: {reply}"
                    )
                if not isinstance(reply, HelloReply):
                    raise ServiceError(
                        f"{self.url} answered hello with a {type(reply).__name__}, "
                        f"not a HelloReply"
                    )
            except BaseException:
                conn.close(ServiceIsClosed("Handshake failed"))
                raise
            self._conn = conn
            return conn

    def _post(
        self, conn: _MuxSocketConnection, method: str, args: tuple
    ) -> Tuple[int, _PendingReply]:
        """Send one request on ``conn``: its request id and reply slot.

        A broken connection epoch is closed with the failure its in-flight
        calls get, and the next call opens a fresh one."""
        request_id, pending = conn.register()
        try:
            conn.send_request(request_id, method, args)
        except BaseException as error:
            conn.discard(request_id)
            if not isinstance(error, _SendError):
                raise  # The request did not encode: nothing was sent.
            # The socket is broken for every caller sharing it; close this
            # connection epoch (failing other in-flight calls, whose frames
            # WERE fully sent, as non-retryable).
            if error.bytes_flushed == 0:
                # Nothing reached the wire: the request cannot be applied on
                # the daemon, so the connection's retry loop may safely
                # re-send it on the fresh connection its next call opens.
                conn.close(
                    ServiceTransportError(
                        f"Connection to {self.url} was lost: in-flight calls "
                        f"may already be applied and will not be retried"
                    )
                )
                raise ConnectionError(
                    f"Service connection to {self.url} failed before any of "
                    f"the request was sent: {error.cause}"
                ) from error.cause
            # Part of the frame left this client. The daemon may have read a
            # complete request off the socket buffer before the failure — a
            # retry could re-apply a non-idempotent step() to a live session,
            # exactly the bug class the post-send path guards against.
            failure = ServiceTransportError(
                f"Service connection to {self.url} failed after "
                f"{error.bytes_flushed} bytes of {method}() were flushed: the "
                f"call may already be applied on the daemon and will not be "
                f"retried ({error.cause})"
            )
            conn.close(failure)
            raise failure from error.cause
        return request_id, pending

    def _await(
        self, conn: _MuxSocketConnection, request_id: int, pending: _PendingReply, method: str
    ) -> _PendingReply:
        """Wait for the reply slot of a request :meth:`_post` sent on ``conn``."""
        # Wait for our reply to be routed (by this thread as leader, or by
        # another waiter's). The read side enforces the transport timeout;
        # the slack here is a backstop for a waiter whose reply never comes
        # while frames for others keep the read side busy.
        if not conn.await_reply(pending, self.timeout + 30):
            conn.discard(request_id)
            failure = ServiceTransportError(
                f"No reply from {self.url} for {method}() within "
                f"{self.timeout}s: the call may already be applied on the "
                f"daemon and will not be retried"
            )
            conn.close(failure)
            raise failure
        if pending.error is not None:
            raise pending.error
        return pending

    def send(self, method: str, *args) -> Callable[[], Any]:
        """Send one request frame now; the returned callable waits for its
        reply. Only the send can fail retryably (nothing flushed); whatever
        the wait raises is non-retryable."""
        conn = self._acquire_connection()
        request_id, pending = self._post(conn, method, args)

        def reply():
            self._await(conn, request_id, pending, method)
            if pending.status == REPLY_ERROR:
                raise_remote_error(method, pending.payload)
            return pending.payload

        return reply

    def call(self, method: str, *args) -> Any:
        return self.send(method, *args)()

    def shutdown(self) -> None:
        """Disconnect. The daemon keeps running — it is a shared service."""
        if self.closed:
            return
        self.closed = True
        # Closing the connection epoch wakes every in-flight caller: their
        # reply slots fail with ServiceIsClosed.
        with self._lock:
            self._close_socket(ServiceIsClosed("Socket transport is closed"))

    def server_info(self) -> dict:
        """Fetch the daemon's identity/occupancy snapshot (pid, sessions...)."""
        return self.call("server_info")

    def heartbeat(self) -> dict:
        """Probe server liveness with the cheapest RPC the protocol has.

        Served by the RPC base class *before* the auth check — a health
        monitor needs no tenant token to ask "are you alive?". A refused
        connection propagates as :class:`ConnectionRefusedError`, which
        callers treat as "nothing is listening: the process is gone".
        """
        return self.call("heartbeat")

    def __repr__(self) -> str:
        return f"SocketTransport(url={self.url!r}, closed={self.closed})"

