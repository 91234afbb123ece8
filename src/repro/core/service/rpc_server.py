"""Generic framed-RPC socket server: the shared skeleton of the service tier.

Both ends of the fleet topology serve the same wire protocol — the compiler
*daemon* (:class:`~repro.core.service.runtime.server.ServiceServer`) and the
session-routing *gateway* (:class:`~repro.core.service.gateway.ServiceGateway`)
— so the protocol mechanics live here once: the listener and accept loop,
one rule for which thread runs a request, reply framing (every reply at
:data:`~repro.core.service.wire.WIRE_VERSION`, the one dialect there is), the
``hello`` handshake (auth token check), and orderly shutdown. Subclasses
implement :meth:`_dispatch` to say what the RPC methods *mean*.

**Which thread runs a request.** Each connection has a thread that reads it
and runs every request it reads itself, so a client that waits for each
reply before it sends again pays no thread hand-off. While it runs one, the
connection's socket is *watched*: registered, readable, in one selector per
server that a single watcher thread waits on. Only when a second frame
arrives in that time does a dispatch-pool thread stand in as the reader; it
hands each frame it reads to the pool, so requests multiplexed onto one
connection run concurrently and reply in completion order, and it gives the
read side back once nothing more has arrived. The watch is dropped before a
reply is written, so a closed-loop client never wakes the watcher.

Authentication is opt-in: constructed with ``auth_tokens``, a server rejects
every RPC on a connection until a ``hello`` presenting one of the accepted
tokens has succeeded, and hands the verified token to :meth:`_dispatch` so
subclasses can enforce per-tenant session ownership. Without ``auth_tokens``
all connections are implicitly authenticated as the anonymous tenant — the
behaviour every pre-gateway deployment had. A connection that has not
authenticated is not watched while its thread serves it, and may send only
small frames (:data:`~repro.core.service.wire.UNAUTHENTICATED_MAX_FRAME_BYTES`):
it can occupy neither the dispatch pool nor memory.
"""

import logging
import os
import selectors
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait as wait_futures
from typing import Iterable, Optional

from repro.core.service.proto import HelloReply, HelloRequest
from repro.core.service.wire import (
    CODECS,
    MAX_FRAME_BYTES,
    REPLY_ERROR,
    REPLY_OK,
    UNAUTHENTICATED_MAX_FRAME_BYTES,
    WIRE_VERSION,
    read_frame,
    write_frame_reply,
)
from repro.errors import PermissionDeniedError, ServiceError

logger = logging.getLogger(__name__)


class ClientConnectionState:
    """Per-connection identity carried from the handshake into dispatch."""

    __slots__ = ("token", "authenticated", "client")

    def __init__(self, authenticated: bool):
        # Anonymous until a hello says otherwise. ``authenticated`` starts
        # True on servers that require no token.
        self.token: Optional[str] = None
        self.authenticated = authenticated
        self.client = ""


class _ClientConnection:
    """One client socket, its streams, and who holds its read side.

    ``serving``: the connection's own thread is running a request it read.
    ``watched``: the socket is registered with the server's selector.
    ``stand_in``: a pool thread holds the read side. ``dropped``: the stand-in
    read an end of stream or a malformed frame. All four change under
    ``lock``; the connection's thread waits on ``read_side_back`` for a
    stand-in to finish.
    """

    __slots__ = (
        "sock", "fd", "rfile", "wfile", "write_lock", "state", "lock",
        "read_side_back", "serving", "watched", "stand_in", "dropped", "in_flight",
    )

    def __init__(self, sock: socket.socket, authenticated: bool):
        self.sock = sock
        self.fd = sock.fileno()
        # Unbuffered: no byte of a next frame may wait in user space, where
        # the selector cannot see it.
        self.rfile = sock.makefile("rb", buffering=0)
        self.wfile = sock.makefile("wb")
        self.write_lock = threading.Lock()
        self.state = ClientConnectionState(authenticated=authenticated)
        self.lock = threading.Lock()
        self.read_side_back = threading.Condition(self.lock)
        self.serving = self.watched = self.stand_in = self.dropped = False
        self.in_flight = []  # The stand-ins' pool futures.


class SocketRPCServer:
    """Serves the framed, multiplexed RPC protocol on a TCP or Unix socket.

    Args:
        host / port: TCP listen address. ``port=0`` picks a free port
            (exposed afterwards via :attr:`url`).
        unix_path: Serve on a Unix domain socket instead of TCP.
        auth_tokens: Accepted client tokens. ``None`` disables
            authentication entirely; an empty iterable requires a hello but
            accepts no token (useful only for tests).
    """

    server_kind = "service"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        auth_tokens: Optional[Iterable[str]] = None,
    ):
        self.auth_tokens = None if auth_tokens is None else frozenset(auth_tokens)
        self.started_at = time.monotonic()
        self.connections_served = 0
        self.heartbeats_served = 0
        self.last_heartbeat_at: Optional[float] = None
        # Requests run by the thread that read them, and requests a stand-in
        # reader handed to the dispatch pool.
        self.served_in_place = 0
        self.handed_off = 0
        self.closed = False
        self._lock = threading.Lock()
        self._shutdown_event = threading.Event()
        self._client_sockets = set()
        self._handler_threads = []
        self._accept_thread: Optional[threading.Thread] = None
        # Runs what stand-in readers hand over, and the stand-ins themselves.
        self._dispatch_executor = ThreadPoolExecutor(
            max_workers=32, thread_name_prefix=f"repro-{self.server_kind}-dispatch"
        )

        if unix_path is not None:
            self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._listener.bind(unix_path)
            self.url = f"unix://{unix_path}"
            self._unix_path = unix_path
        else:
            self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            bound_host, bound_port = self._listener.getsockname()[:2]
            self.url = f"tcp://{bound_host}:{bound_port}"
            self._unix_path = None
        self._listener.listen(128)
        # The sockets of connections busy serving in place; closing the
        # write end of the wake pair stops the watcher.
        self._selector = selectors.DefaultSelector()
        self._wake, self._wake_writer = socket.socketpair()
        self._selector.register(self._wake, selectors.EVENT_READ, None)
        self._watcher = threading.Thread(
            target=self._watch_loop, name=f"repro-{self.server_kind}-watcher", daemon=True
        )
        self._watcher.start()

    # -- serving -----------------------------------------------------------

    def start(self) -> "SocketRPCServer":
        """Begin accepting clients on a background thread (for embedding)."""
        if self._accept_thread is None:
            self._accept_thread = threading.Thread(
                target=self.serve_forever,
                name=f"repro-{self.server_kind}-accept",
                daemon=True,
            )
            self._accept_thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept clients until :meth:`shutdown`. Blocks the calling thread."""
        logger.info(
            "Compiler %s (pid=%d) serving on %s", self.server_kind, os.getpid(), self.url
        )
        while not self._shutdown_event.is_set():
            try:
                client, _ = self._listener.accept()
            except OSError:
                break  # Listener closed by shutdown().
            with self._lock:
                if self.closed:
                    client.close()
                    break
                self.connections_served += 1
                self._client_sockets.add(client)
                # Opportunistically forget threads that already finished, so
                # a long-lived server does not accumulate one record per
                # client ever served.
                self._handler_threads = [t for t in self._handler_threads if t.is_alive()]
                thread = threading.Thread(
                    target=self._handle_client,
                    args=(client,),
                    name=f"repro-{self.server_kind}-client",
                    daemon=True,
                )
                self._handler_threads.append(thread)
                # Start under the lock: shutdown() snapshots this list and
                # joins every entry — joining a not-yet-started thread raises.
                thread.start()

    def _handle_client(self, client: socket.socket) -> None:
        """Serve one client connection until it disconnects.

        This thread reads each request and runs it itself, with the socket
        watched until just before the reply is written. A frame that arrives
        meanwhile wakes the watcher, and a pool thread stands in as the reader
        (:meth:`_stand_in`); this thread then waits, after writing its reply,
        until the stand-in gives the read side back. Reply writes are
        serialized by a per-connection lock so frames never interleave.

        Until the connection has authenticated its requests (``hello``,
        ``heartbeat``, or a refusal) are served here unwatched and its frames
        are held to the small pre-auth limit: the limit for the next frame is
        then always read from a settled ``state``, and a peer without a token
        reaches neither the dispatch pool nor a large buffer.
        """
        try:
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # Unix sockets have no TCP options.
        conn = _ClientConnection(client, authenticated=self.auth_tokens is None)
        try:
            while not self._shutdown_event.is_set():
                watched = conn.state.authenticated
                try:
                    request_id, method, args = read_frame(
                        conn.rfile,
                        MAX_FRAME_BYTES if watched else UNAUTHENTICATED_MAX_FRAME_BYTES,
                    )
                except (EOFError, ConnectionError, OSError):
                    break  # Client went away (or speaks a rejected version).
                except Exception:  # noqa: BLE001 - corrupt/hostile frame
                    # Anything else is a malformed frame (version-skewed
                    # unpickle, a non-request payload, a stray writer on the
                    # port): drop this client like a disconnect instead of
                    # letting the exception kill the handler thread.
                    logger.warning(
                        "Dropping client after malformed request frame",
                        exc_info=True,
                    )
                    break
                with self._lock:
                    self.served_in_place += 1
                if watched:
                    with conn.lock:
                        conn.serving = True
                        self._watch(conn)
                self._serve_request(conn, request_id, method, args, watched)
                if conn.stand_in:
                    with conn.lock:
                        while conn.stand_in:
                            conn.read_side_back.wait()
                if conn.dropped:
                    break
        finally:
            # Let in-flight requests finish before tearing the streams down:
            # their session work completes either way, but an orderly drain
            # lets final replies reach a client that is still listening.
            if conn.in_flight:
                wait_futures(conn.in_flight, timeout=5)
            self._hang_up(conn)
            with self._lock:
                self._client_sockets.discard(client)

    def _watch(self, conn: _ClientConnection) -> None:
        """Register ``conn``'s socket with the watcher (``conn.lock`` held)."""
        try:
            self._selector.register(conn.fd, selectors.EVENT_READ, conn)
        except (KeyError, OSError, ValueError):
            return  # Closed under us by shutdown(): nothing left to read.
        conn.watched = True

    def _unwatch(self, conn: _ClientConnection) -> None:
        """Drop ``conn``'s socket from the watcher (``conn.lock`` held)."""
        conn.watched = False
        try:
            self._selector.unregister(conn.fd)
        except (KeyError, ValueError):
            pass

    def _release(self, conn: _ClientConnection) -> None:
        """The connection's thread is done running its request in place."""
        with conn.lock:
            conn.serving = False
            if conn.watched:
                self._unwatch(conn)

    def _watch_loop(self) -> None:
        """Start a stand-in reader for each watched socket that turns readable."""
        while True:
            for key, _ in self._selector.select():
                conn = key.data
                if conn is None:
                    return  # Woken by shutdown.
                with conn.lock:
                    if not conn.watched:
                        continue  # Released first: its thread reads on.
                    self._unwatch(conn)
                    conn.stand_in = True
                try:
                    self._dispatch_executor.submit(self._stand_in, conn)
                except RuntimeError:  # Executor shut down: the server is stopping.
                    self._give_back(conn, dropped=True)

    def _stand_in(self, conn: _ClientConnection) -> None:
        """Read ``conn`` for its busy thread, handing each frame to the pool.

        A frame is read only once its first byte has arrived, so a stand-in
        never waits on an idle connection. When nothing more has arrived, the
        read side goes back: to the watcher if the connection's thread is
        still serving, otherwise to that thread.
        """
        dropped = False
        try:
            while True:
                try:
                    conn.sock.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
                except BlockingIOError:
                    break  # Nothing more has started arriving.
                request_id, method, args = read_frame(conn.rfile)
                conn.in_flight = [f for f in conn.in_flight if not f.done()]
                conn.in_flight.append(
                    self._dispatch_executor.submit(
                        self._serve_request, conn, request_id, method, args, False
                    )
                )
                with self._lock:
                    self.handed_off += 1
        except (EOFError, ConnectionError, OSError, RuntimeError):
            dropped = True  # Client gone, rejected version, or server stopping.
        except Exception:  # noqa: BLE001 - corrupt/hostile frame
            logger.warning("Dropping client after malformed request frame", exc_info=True)
            dropped = True
        self._give_back(conn, dropped)

    def _give_back(self, conn: _ClientConnection, dropped: bool) -> None:
        """End a stand-in: watch again for a thread still serving, and wake a
        thread waiting to read."""
        with conn.lock:
            # ``dropped`` first: the connection's thread reads ``stand_in``
            # without the lock, then ``dropped``.
            conn.dropped = conn.dropped or dropped
            conn.stand_in = False
            if conn.serving and not conn.dropped:
                self._watch(conn)
            conn.read_side_back.notify()

    @staticmethod
    def _hang_up(conn: _ClientConnection) -> None:
        """Close a connection so that its peer reads an end of stream.

        Closing a socket with unread bytes makes the kernel answer with a
        reset, which a client reads as an error instead of a hang-up. So the
        end of stream is sent first, and what has already arrived is
        discarded before the close.
        """
        sock = conn.sock
        try:
            sock.shutdown(socket.SHUT_WR)
            for _ in range(16):
                if not sock.recv(1 << 16, socket.MSG_DONTWAIT):
                    break
        except OSError:
            pass  # Nothing more to discard, or already closed.
        for closeable in (conn.rfile, conn.wfile, sock):
            try:
                closeable.close()
            except Exception:  # noqa: BLE001
                pass

    def _serve_request(
        self,
        conn: _ClientConnection,
        request_id,
        method,
        args,
        watched: bool,
    ) -> None:
        """Execute one request and write its reply.

        ``watched``: the request runs on the thread that read it, with the
        socket watched; the watch is dropped before the reply is written,
        whatever the reply turns out to be.
        """
        try:
            status, payload = self._execute(conn.state, method, args)
        finally:
            if watched:
                self._release(conn)
        self._write_reply(conn, request_id, status, payload)

    def _write_reply(self, conn: _ClientConnection, request_id, status, payload) -> None:
        """Write one reply frame; a client that is gone gets nothing."""
        try:
            with conn.write_lock:
                write_frame_reply(conn.wfile, request_id, status, payload)
        except (OSError, ConnectionError, ValueError):
            pass

    def _execute(self, state: ClientConnectionState, method, args):
        """Run one request: its ``(status, payload)`` reply, never a raise."""
        try:
            if method == "hello":
                result = self._hello(state, *args)
            elif method == "heartbeat":
                # Liveness probe: answered before the auth check, because a
                # health monitor holds no tenant token and needs nothing but
                # proof the process is alive and serving. Deliberately does
                # no work — its latency is pure protocol overhead, which is
                # exactly what a heartbeat should measure.
                result = self._heartbeat()
            elif not state.authenticated:
                raise PermissionDeniedError(
                    "This service requires authentication: connect with a "
                    "valid auth token (hello handshake) before issuing RPCs"
                )
            else:
                result = self._dispatch(state, method, args)
        except BaseException as error:  # noqa: BLE001 - sent to the client
            return REPLY_ERROR, error
        return REPLY_OK, result

    def _server_info(self) -> dict:
        """The ``server_info`` fields every server reports: who it is, how
        long it has served, and who ran its requests."""
        with self._lock:
            return {
                "pid": os.getpid(),
                "url": self.url,
                "protocol_version": WIRE_VERSION,
                "wire_versions": sorted(CODECS),
                "uptime_s": time.monotonic() - self.started_at,
                "connections_served": self.connections_served,
                "heartbeats_served": self.heartbeats_served,
                "served_in_place": self.served_in_place,
                "handed_off": self.handed_off,
            }

    def _heartbeat(self) -> dict:
        """The liveness probe reply: pid + uptime, nothing that can block."""
        with self._lock:
            self.heartbeats_served += 1
            self.last_heartbeat_at = time.monotonic()
        return {
            "pid": os.getpid(),
            "kind": self.server_kind,
            "uptime_s": time.monotonic() - self.started_at,
        }

    # -- handshake ---------------------------------------------------------

    def _hello(self, state: ClientConnectionState, request):
        """Authenticate the connection."""
        if not isinstance(request, HelloRequest):
            raise ServiceError(
                f"hello expects a HelloRequest, got {type(request).__name__}"
            )
        if self.auth_tokens is not None and request.token not in self.auth_tokens:
            raise PermissionDeniedError(
                f"Auth token rejected by the service at {self.url}"
            )
        state.token = request.token
        state.authenticated = True
        state.client = request.client
        return HelloReply(server=f"repro-{self.server_kind}-pid{os.getpid()}")

    def _dispatch(self, state: ClientConnectionState, method: str, args):
        """Execute one authenticated RPC. Implemented by subclasses."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------

    def _close_listener(self) -> None:
        """Close the listening socket, waking any thread blocked in accept().

        ``close()`` alone does not reliably interrupt an ``accept()`` blocked
        in *another* thread; ``shutdown(SHUT_RDWR)`` on the listening socket
        makes that accept fail immediately.
        """
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # Not connected / already closed, depending on platform.
        try:
            self._listener.close()
        except Exception:  # noqa: BLE001
            pass

    def request_shutdown(self) -> None:
        """Ask :meth:`serve_forever` to exit. Safe from a signal handler.

        Takes no locks (a signal handler runs on the main thread, which may
        already hold the server lock inside the accept loop — calling
        :meth:`shutdown` there would self-deadlock): it only sets the
        shutdown event and closes the listener so the blocked ``accept()``
        returns. The caller then runs :meth:`shutdown` in normal context.
        """
        self._shutdown_event.set()
        self._close_listener()

    def _begin_shutdown(self) -> bool:
        """Common first half of shutdown: stop accepting, drop clients.

        Returns False when the server was already shut down (idempotence).
        """
        with self._lock:
            if self.closed:
                return False
            self.closed = True
            clients = list(self._client_sockets)
            threads = list(self._handler_threads)
        self._shutdown_event.set()
        self._close_listener()
        for client in clients:
            try:
                client.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                client.close()
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=5)
        return True

    def _finish_shutdown(self) -> None:
        """Common last half of shutdown: retire the watcher, pools and the
        unix path."""
        self._wake_writer.close()
        self._watcher.join(timeout=5)
        self._selector.close()
        self._wake.close()
        self._dispatch_executor.shutdown(wait=True)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        if self._unix_path is not None:
            try:
                os.unlink(self._unix_path)
            except OSError:
                pass

    def shutdown(self) -> None:
        """Stop accepting and drop every client. Idempotent."""
        if not self._begin_shutdown():
            return
        self._finish_shutdown()

    def __enter__(self) -> "SocketRPCServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
