"""Generic framed-RPC socket server: the shared skeleton of the service tier.

Both ends of the fleet topology serve the same wire protocol — the compiler
*daemon* (:class:`~repro.core.service.runtime.server.ServiceServer`) and the
session-routing *gateway* (:class:`~repro.core.service.gateway.ServiceGateway`)
— so the protocol mechanics live here once: the listener and accept loop, the
per-connection reader that feeds a dispatch pool, reply framing (every
reply at :data:`~repro.core.service.wire.WIRE_VERSION`, the one dialect
there is), the ``hello`` handshake (auth token check), and orderly shutdown.
Subclasses implement :meth:`_dispatch` to say what the RPC methods *mean*.

Authentication is opt-in: constructed with ``auth_tokens``, a server rejects
every RPC on a connection until a ``hello`` presenting one of the accepted
tokens has succeeded, and hands the verified token to :meth:`_dispatch` so
subclasses can enforce per-tenant session ownership. Without ``auth_tokens``
all connections are implicitly authenticated as the anonymous tenant — the
behaviour every pre-gateway deployment had. A connection that has not
authenticated is served on its reader thread alone and may send only small
frames (:data:`~repro.core.service.wire.UNAUTHENTICATED_MAX_FRAME_BYTES`):
it can occupy neither the dispatch pool nor memory.
"""

import logging
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait as wait_futures
from typing import Iterable, Optional

from repro.core.service.proto import HelloReply, HelloRequest
from repro.core.service.wire import (
    MAX_FRAME_BYTES,
    REPLY_ERROR,
    REPLY_OK,
    UNAUTHENTICATED_MAX_FRAME_BYTES,
    corrupt_frame_payload,
    frame_bytes,
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
    # When True, a request arriving on a connection with no other request in
    # flight is served directly on the reader thread instead of the dispatch
    # pool. This removes a thread handoff from the hot path at the cost of
    # serializing requests multiplexed onto that one connection while the
    # inline request runs. The gateway opts in: its latency is all proxy
    # overhead and its clients batch (one outstanding RPC at a time), while
    # the daemon keeps fully parallel dispatch for its compile work.
    serve_inline_when_idle = False

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
        # Optional fault-injection hooks (a ``repro.core.service.chaos.
        # ServerChaos``): consulted once per executed request before its
        # reply is written. None in production.
        self.chaos = None
        self.closed = False
        self._lock = threading.Lock()
        self._shutdown_event = threading.Event()
        self._client_sockets = set()
        self._handler_threads = []
        self._accept_thread: Optional[threading.Thread] = None
        # Requests from one multiplexed client connection are served
        # concurrently on this pool (replies return in completion order, not
        # arrival order).
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

        The handler thread only *reads*: each request frame is handed to the
        dispatch pool, so concurrent requests multiplexed onto one
        connection (request ids distinguish them) execute in parallel and
        their replies return in completion order. Reply writes are
        serialized by a per-connection lock so frames never interleave.

        Until the connection has authenticated its requests (``hello``,
        ``heartbeat``, or a refusal) are served here on the reader thread and
        its frames are held to the small pre-auth limit: the limit for the
        next frame is then always read from a settled ``state``, and a peer
        without a token reaches neither the dispatch pool nor a large buffer.
        """
        try:
            client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # Unix sockets have no TCP options.
        rfile = client.makefile("rb")
        wfile = client.makefile("wb")
        write_lock = threading.Lock()
        state = ClientConnectionState(authenticated=self.auth_tokens is None)
        in_flight = []
        try:
            while not self._shutdown_event.is_set():
                try:
                    request_id, method, args = read_frame(
                        rfile,
                        MAX_FRAME_BYTES if state.authenticated
                        else UNAUTHENTICATED_MAX_FRAME_BYTES,
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
                in_flight = [f for f in in_flight if not f.done()]
                if not state.authenticated or (
                    self.serve_inline_when_idle and not in_flight
                ):
                    self._serve_request(
                        wfile, write_lock, state, request_id, method, args
                    )
                    continue
                try:
                    in_flight.append(
                        self._dispatch_executor.submit(
                            self._serve_request, wfile, write_lock, state,
                            request_id, method, args,
                        )
                    )
                except RuntimeError:
                    break  # Executor shut down: the server is stopping.
        finally:
            # Let in-flight requests finish before tearing the streams down:
            # their session work completes either way, but an orderly drain
            # lets final replies reach a client that is still listening.
            if in_flight:
                wait_futures(in_flight, timeout=5)
            for stream in (rfile, wfile):
                try:
                    stream.close()
                except Exception:  # noqa: BLE001
                    pass
            try:
                client.close()
            except Exception:  # noqa: BLE001
                pass
            with self._lock:
                self._client_sockets.discard(client)

    def _serve_request(
        self,
        wfile,
        write_lock: threading.Lock,
        state: ClientConnectionState,
        request_id,
        method,
        args,
    ) -> None:
        """Execute one request on a dispatch thread and write its reply."""
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
            status, payload = REPLY_ERROR, error
        else:
            status, payload = REPLY_OK, result
        if self.chaos is not None and method != "hello":
            fault = self.chaos.on_reply(method)
            if fault is not None:
                action, param = fault
                if action == "drop":
                    return  # Executed, but the reply never leaves the server.
                if action == "delay":
                    time.sleep(param)
                elif action == "corrupt":
                    self._write_corrupted_reply(
                        wfile, write_lock, request_id, status, payload
                    )
                    return
        try:
            with write_lock:
                write_frame_reply(wfile, request_id, status, payload)
        except (OSError, ConnectionError, ValueError):
            pass  # Reply write failed: the client is gone.

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

    def _write_corrupted_reply(
        self, wfile, write_lock, request_id, status, payload
    ) -> None:
        """Write a reply frame whose payload bytes are garbage (chaos only).

        The header (version byte + length) is kept intact so the client
        reads a plausible frame and fails in its decoder — the same shape as
        bit rot or a version-skewed peer.
        """
        frame = corrupt_frame_payload(frame_bytes((request_id, status, payload)))
        try:
            with write_lock:
                wfile.write(frame)
                wfile.flush()
        except (OSError, ConnectionError, ValueError):
            pass

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
        """Common last half of shutdown: retire pools and the unix path."""
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
