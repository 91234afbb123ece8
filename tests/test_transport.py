"""Tests for the service transport layer and the socket daemon.

Covers the client/server split that turns this reproduction into the paper's
actual architecture: the ``ServiceTransport`` implementations (in-process,
socket), the ``repro serve`` daemon's session multiplexing
(per-session locking, idle reaping, client-churn survival, graceful
shutdown), transport equivalence of full environments, persistent-daemon
reuse across sequential vectorized pools, and cross-transport stats
aggregation.
"""

import contextlib
import dataclasses
import io
import multiprocessing
import os
import pickle
import random
import socket
import struct
import subprocess
import sys
import textwrap
import threading
import time
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.service import (
    CompilationSession,
    CompilerGymServiceRuntime,
    ConnectionOpts,
    ServiceConnection,
)
from repro.testing.chaos import FlushLimitedSocket
from repro.core.service import wire
from repro.core.service.proto import (
    EndSessionRequest,
    ForkSessionReply,
    ForkSessionRequest,
    HelloReply,
    HelloRequest,
    SessionStepResult,
    StartSessionReply,
    StartSessionRequest,
    StepReply,
    StepRequest,
    StepSessionsReply,
    StepSessionsRequest,
)
from repro.core.service.runtime.server import ServiceServer, SpawnedDaemon, make_env_server
from repro.core.service.transport import (
    InProcessTransport,
    ServiceTransport,
    SocketTransport,
)
from repro.core.service.wire import (
    FRAME_HEADER_BYTES,
    IMPORTABLE_MODULES,
    REPLY_ERROR,
    REPLY_OK,
    WIRE_VERSION,
    KIND_ANY,
    KIND_PRIMITIVE,
    KIND_PRIMITIVE_LIST,
    field_kinds,
    frame_bytes,
    message_registry,
    parse_service_url,
    read_frame,
    reply_frame,
    write_frame,
)
from repro.core.spaces import NamedDiscrete, ObservationSpaceSpec, Reward, Scalar, Space
from repro.core.vector import VecCompilerEnv, make_vec_env
from repro.core.service.connection import CallStats
from repro.core.wrappers import TimeLimit
from repro.errors import (
    PermissionDeniedError,
    ServiceError,
    ServiceIsClosed,
    ServiceTransportError,
    SessionNotFound,
)
from tests.test_service import _CounterSession, _resolver, _runtime

new_session_id = ServiceConnection.new_session_id

BENCHMARK = "cbench-v1/crc32"


def _serve_handshake(client: socket.socket, status=REPLY_OK, payload=None):
    """Answer the hello handshake on a raw fake-daemon socket.

    Every SocketTransport opens its connection with a hello RPC; a
    hand-rolled fake daemon must answer it before the transport's connect()
    returns. Returns the read stream so the fake can keep consuming frames.
    """
    rfile = client.makefile("rb")
    request_id, method, _args = read_frame(rfile)
    assert method == "hello"
    client.sendall(reply_frame(request_id, status, payload or HelloReply()))
    return rfile


@contextlib.contextmanager
def _fake_daemon(serve, timeout=5.0):
    """A listener whose first client is handed to ``serve(client)`` on a
    thread. Yields ``(transport, thread)``; the transport is not connected."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    thread = threading.Thread(target=lambda: serve(listener.accept()[0]), daemon=True)
    thread.start()
    transport = SocketTransport(f"tcp://127.0.0.1:{listener.getsockname()[1]}", timeout=timeout)
    try:
        yield transport, thread
    finally:
        transport.shutdown()
        listener.close()


def _assert_hung_up_on(url: str, data: bytes):
    """A raw peer that sends ``data`` reaches EOF: dropped, not waited for."""
    raw = socket.create_connection(parse_service_url(url)[1])
    raw.sendall(data)
    raw.settimeout(5)
    assert raw.recv(1) == b""
    raw.close()


class _SlowStepSession(_CounterSession):
    """A counter session whose actions take a configurable wall time."""

    sleep_seconds = 0.1
    # Class-level concurrency tracker, observable because the daemon under
    # test runs in this process.
    _track_lock = threading.Lock()
    in_flight = 0
    max_in_flight = 0

    def apply_action(self, action):
        cls = _SlowStepSession
        with cls._track_lock:
            cls.in_flight += 1
            cls.max_in_flight = max(cls.max_in_flight, cls.in_flight)
        try:
            time.sleep(self.sleep_seconds)
            return super().apply_action(action)
        finally:
            with cls._track_lock:
                cls.in_flight -= 1

    @classmethod
    def reset_tracking(cls):
        with cls._track_lock:
            cls.in_flight = 0
            cls.max_in_flight = 0


class _UnpicklableError(Exception):
    """An exception that will not pickle: it holds a lambda."""

    def __init__(self):
        super().__init__("holds a lambda")
        self.callback = lambda: None


class _UnpicklableErrorSession(_CounterSession):
    """A counter session whose action 2 raises an :class:`_UnpicklableError`."""

    def apply_action(self, action):
        if int(action) == 2:
            raise _UnpicklableError()
        return super().apply_action(action)


def _slow_runtime() -> CompilerGymServiceRuntime:
    # Result cache off: these runtimes back the concurrency tests, which
    # assert on apply_action actually executing (sleeping, tracking
    # in-flight counts) — a cache hit would serve the step without running it.
    return CompilerGymServiceRuntime(
        session_type=_SlowStepSession, benchmark_resolver=_resolver, result_cache=False
    )


def _make_llvm_env(**kwargs):
    return repro.make(
        "llvm-v0",
        benchmark=BENCHMARK,
        observation_space="Autophase",
        reward_space="IrInstructionCount",
        **kwargs,
    )


@pytest.fixture(scope="module")
def llvm_daemon():
    """A module-scoped LLVM service daemon accepting socket clients."""
    server = make_env_server("llvm-v0", port=0, session_timeout=None).start()
    yield server
    server.shutdown()


# -- URL parsing and framing -------------------------------------------------


class TestServiceUrl:
    def test_tcp_with_scheme(self):
        assert parse_service_url("tcp://127.0.0.1:5499") == ("tcp", ("127.0.0.1", 5499))

    def test_tcp_without_scheme(self):
        assert parse_service_url("example.org:80") == ("tcp", ("example.org", 80))

    def test_unix(self):
        assert parse_service_url("unix:///tmp/svc.sock") == ("unix", "/tmp/svc.sock")

    def test_ipv6_brackets_are_stripped(self):
        assert parse_service_url("tcp://[::1]:5499") == ("tcp", ("::1", 5499))

    @pytest.mark.parametrize("url", ["", "tcp://", "nohost", "host:notaport", "unix://"])
    def test_invalid(self, url):
        with pytest.raises(ValueError):
            parse_service_url(url)


class TestFraming:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "frames.bin"
        with open(path, "wb") as f:
            write_frame(f, (1, "step", (1, [2, 3])))
            write_frame(f, (1, REPLY_OK, {"nested": np.arange(4)}))
        with open(path, "rb") as f:
            assert read_frame(f) == (1, "step", (1, [2, 3]))
            np.testing.assert_array_equal(read_frame(f)[2]["nested"], np.arange(4))
            with pytest.raises(EOFError):
                read_frame(f)

    def test_truncated_frame(self, tmp_path):
        path = tmp_path / "frames.bin"
        with open(path, "wb") as f:
            write_frame(f, (1, REPLY_OK, "payload"))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with open(path, "rb") as f:
            with pytest.raises(ConnectionError, match="Truncated"):
                read_frame(f)

    def test_large_frame_through_a_reader_of_small_chunks(self):
        """A multi-megabyte frame arriving 4 KiB at a time is assembled in one
        buffer (not re-copied on every chunk)."""

        class _Trickle(io.BytesIO):
            reads = 0

            def readinto(self, buffer):
                self.reads += 1
                return super().readinto(memoryview(buffer)[:4096])

        payload = np.arange(1 << 19, dtype=np.int64)  # 4 MiB
        stream = _Trickle()
        write_frame(stream, (1, REPLY_OK, payload))
        stream.seek(0)
        np.testing.assert_array_equal(read_frame(stream)[2], payload)
        assert stream.reads > 1000


def _write_sentinel(path):
    """What a hostile frame would run on load: leave a file behind."""
    with open(path, "w") as f:
        f.write("ran")


class _RunsOnLoad:
    """Unpickles by calling :func:`_write_sentinel`."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return _write_sentinel, (self.path,)


class _ForeignError(Exception):
    """Pickles fine, but is no class a peer decodes."""


class _Foreign:
    """A value that pickles fine, but of no class a peer decodes."""


class _ForeignObservationSession(_CounterSession):
    """A counter session whose ``foreign`` observation is a :class:`_Foreign`."""

    observation_spaces = _CounterSession.observation_spaces + [
        ObservationSpaceSpec("foreign", 2, Scalar(min=0, max=None, dtype=int), default_value=0)
    ]

    def get_observation(self, observation_space):
        if observation_space.id == "foreign":
            return _Foreign()
        return super().get_observation(observation_space)


class TestFramesRunNoCode:
    """The decoder builds only wire types: a frame naming anything else is
    refused, before and after authentication, and nothing it names runs."""

    def test_a_hostile_frame_is_refused_and_runs_nothing(self, tmp_path):
        sentinel = tmp_path / "sentinel"
        server = ServiceServer(_runtime(), session_timeout=None, auth_tokens=["secret"])
        with server.start():
            # Before authentication, in the envelope itself.
            payload = pickle.dumps((1, "heartbeat", (_RunsOnLoad(sentinel),)))
            _assert_hung_up_on(
                server.url, bytes([WIRE_VERSION]) + struct.pack(">Q", len(payload)) + payload
            )
            # After authentication, in a step request's opaque payload.
            raw = socket.create_connection(parse_service_url(server.url)[1], timeout=5)
            rfile = raw.makefile("rb")
            raw.sendall(frame_bytes((1, "hello", (HelloRequest(token="secret"),))))
            assert read_frame(rfile)[1] == REPLY_OK
            # Hand-lowered: this codec's own encoder refuses to send it.
            step = ("M", "StepRequest", {
                "session_id": 0,
                "actions": ("l", [("P", pickle.dumps(_RunsOnLoad(sentinel)))]),
            })
            payload = pickle.dumps(("t", (2, "step", ("t", (step,)))))
            raw.sendall(bytes([WIRE_VERSION]) + struct.pack(">Q", len(payload)) + payload)
            assert raw.recv(1) == b""
            rfile.close()
            raw.close()
            # Refused one client at a time: the daemon serves on.
            with ServiceConnection(SocketTransport(server.url, auth_token="secret")) as connection:
                connection.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/1"))
        assert not sentinel.exists()
        with pytest.raises(ServiceError, match="_write_sentinel: not a wire type"):
            read_frame(io.BytesIO(frame_bytes(_RunsOnLoad(sentinel))))
        assert not sentinel.exists()

    def test_an_error_the_peer_would_refuse_travels_as_a_service_error(self):
        frame = frame_bytes((1, REPLY_ERROR, _ForeignError("boom")))
        request_id, status, error = read_frame(io.BytesIO(frame))
        assert (request_id, status) == (1, REPLY_ERROR)
        assert type(error) is ServiceError and str(error) == "_ForeignError: boom"

    def test_a_value_the_peer_would_refuse_fails_only_its_call(self):
        """The daemon decodes what it is about to send by the client's rule:
        a reply the client would refuse becomes that call's ServiceError, and
        the connection, its other sessions and its later calls live on."""
        runtime = CompilerGymServiceRuntime(
            session_type=_ForeignObservationSession, benchmark_resolver=_resolver
        )
        with ServiceServer(runtime, session_timeout=None).start() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                first, second = (
                    connection.start_session(
                        StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://t-v0/{i}")
                    ).session_id
                    for i in (1, 2)
                )
                with pytest.raises(ServiceError, match="_Foreign: Refused to decode"):
                    connection.step(
                        StepRequest(
                            session_id=first, actions=[1], observation_space_names=["foreign"]
                        )
                    )
                for session_id, value in ((second, 3), (first, 3)):
                    reply = connection.step(
                        StepRequest(
                            session_id=session_id, actions=[1], observation_space_names=["value"]
                        )
                    )
                    assert reply.observations[0] == value
                # A request the daemon would refuse is never sent, and leaves
                # no reply slot waiting on the connection.
                with pytest.raises(ServiceError, match="Cannot send a .*_Foreign"):
                    connection.step(StepRequest(session_id=first, actions=[_Foreign()]))
                assert not connection.transport._conn._pending
                assert not any(stats.retries for stats in connection.stats.values())
                assert server.runtime.stats["step"] == 3

    def test_a_reply_field_off_its_kind_fails_only_its_call(self, monkeypatch):
        """A reply whose field does not match its kind (an int where the
        field is a bool) is refused by the daemon's encoder: the call gets a
        ServiceError reply, and the connection serves on."""
        runtime = _runtime()
        step = runtime.step

        def off_kind(request, owner=None):
            reply = step(request, owner=owner)
            if request.actions == [3]:
                reply.end_of_session = 1
            return reply

        monkeypatch.setattr(runtime, "step", off_kind)
        with ServiceServer(runtime, session_timeout=None).start() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                session_id = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/1")
                ).session_id
                with pytest.raises(
                    ServiceError, match="StepReply.end_of_session must be bool, not int"
                ):
                    connection.step(StepRequest(session_id=session_id, actions=[3]))
                reply = connection.step(StepRequest(
                    session_id=session_id, actions=[1], observation_space_names=["value"]
                ))
                assert reply.observations == [5]
                assert not any(stats.retries for stats in connection.stats.values())
                assert server.runtime.stats["step"] == 2

    def test_a_frame_naming_an_unloaded_module_imports_nothing(self):
        """Only the modules in IMPORTABLE_MODULES are imported to decode a
        frame; any other module it names must already be loaded. Run in a
        fresh interpreter, where the named module is surely not loaded."""
        code = textwrap.dedent(
            """
            import io, struct, sys
            from repro.core.service.wire import WIRE_VERSION, read_frame
            from repro.errors import ServiceError
            module = "repro.cost_model.ggnn"
            assert module not in sys.modules
            payload = f"c{module}\\nGatedGraphNeuralNetwork\\n.".encode()
            frame = bytes([WIRE_VERSION]) + struct.pack(">Q", len(payload)) + payload
            try:
                read_frame(io.BytesIO(frame))
            except ServiceError as error:
                assert "not a wire type" in str(error), error
            else:
                raise AssertionError("decoded")
            assert module not in sys.modules
            """
        )
        source_root = str(Path(repro.__file__).parents[1])
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env={**os.environ, "PYTHONPATH": source_root},
            timeout=60,
        )

    def test_every_backend_space_is_decodable(self):
        """A space defined outside ``repro.core.spaces`` is found only if
        its module is one a frame may have imported. Reward spaces are
        computed by the client and never travel."""
        import repro.gcc.service  # noqa: F401
        import repro.llvm.service  # noqa: F401
        import repro.loop_tool.service  # noqa: F401

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        backend_spaces = {
            space.__module__
            for space in subclasses(Space)
            if not issubclass(space, Reward)
            and space.__module__.startswith("repro.")
            and not space.__module__.startswith("repro.core.spaces")
        }
        assert backend_spaces and backend_spaces <= IMPORTABLE_MODULES

    def test_arbitrary_bytes_are_a_dropped_client(self):
        with ServiceServer(_runtime(), session_timeout=None).start() as server:

            @settings(max_examples=60, deadline=None, suppress_health_check=list(HealthCheck))
            @given(payload=st.binary(max_size=512))
            def arbitrary_payload(payload):
                frame = bytes([WIRE_VERSION]) + struct.pack(">Q", len(payload)) + payload
                try:
                    read_frame(io.BytesIO(frame))
                except (ConnectionError, ServiceError):
                    pass
                else:  # Bytes that happen to be a value: not a request.
                    return
                _assert_hung_up_on(server.url, frame)

            arbitrary_payload()
            assert server.runtime.stats["step"] == 0


# -- the codec: arrays raw, messages positional, one version -----------------


def _frame_of(lowered) -> bytes:
    """A frame holding a hand-lowered structure, as a peer could send it."""
    payload = pickle.dumps(lowered, protocol=pickle.HIGHEST_PROTOCOL)
    return bytes([WIRE_VERSION]) + struct.pack(">Q", len(payload)) + payload


def _decode_lowered(lowered):
    """Decode ``lowered`` as the payload of a reply envelope."""
    return read_frame(io.BytesIO(_frame_of((1, REPLY_OK, lowered))))[2]


def _round_trip(value):
    return read_frame(io.BytesIO(frame_bytes((1, REPLY_OK, value))))[2]


def _lowered_payload(value):
    """The lowered payload of a reply envelope holding ``value``."""
    return pickle.loads(frame_bytes((1, REPLY_OK, value))[FRAME_HEADER_BYTES:])[2]


# Every number dtype in both byte orders, once each ("l" and "q" are one).
_NUMBER_DTYPES = list({
    dtype.str: dtype
    for code in "?" + np.typecodes["AllInteger"] + np.typecodes["AllFloat"]
    for dtype in (np.dtype(code), np.dtype(code).newbyteorder())
}.values())

_LAYOUTS = {
    "C": lambda dtype: np.arange(6).astype(dtype).reshape(2, 3),
    "F": lambda dtype: np.asfortranarray(np.arange(6).astype(dtype).reshape(2, 3)),
    "strided": lambda dtype: np.arange(12).astype(dtype)[::3],
    "0-d": lambda dtype: np.array(5).astype(dtype),
    "empty": lambda dtype: np.zeros((0, 3), dtype),
}


def _step_holding(array_tag) -> tuple:
    """A step request envelope, hand-lowered, whose one action is ``array_tag``."""
    step = ("M", "StepRequest", 0, ("l", [array_tag]))
    return (2, "step", ("t", (step,)))


_HOSTILE_ARRAYS = {
    "object dtype": ("A", "O", (1,), "C", bytes(8)),
    "void dtype": ("A", "V8", (1,), "C", bytes(8)),
    "datetime dtype": ("A", "M8[s]", (1,), "C", bytes(8)),
    "structured dtype": ("A", "i4,i4", (1,), "C", bytes(8)),
    "dtype not a string": ("A", np.dtype("<i8"), (1,), "C", bytes(8)),
    "a byte short": ("A", "<i8", (2,), "C", bytes(15)),
    "a byte over": ("A", "<i8", (2,), "C", bytes(17)),
    "negative dimension": ("A", "<i8", (-1,), "C", b""),
    "shape not a tuple": ("A", "<i8", [1], "C", bytes(8)),
    "shape far past its data": ("A", "<i8", (2**40,), "C", bytes(8)),
}


def _request(*lowered_args) -> tuple:
    return (1, "step", ("t", lowered_args))


# Each a whole hand-lowered envelope, and what its refusal says.
_HOSTILE_PAYLOADS = {
    "int field holding a list": (
        _request(("M", "ForkSessionRequest", [1], 2)),
        "ForkSessionRequest.session_id must be int, not list",
    ),
    "str list holding a non-string": (
        _request(("M", "StepRequest", 0, ("F", [1]), ["Autophase", 3])),
        "StepRequest.observation_space_names must be a list of str, not a list holding int",
    ),
    "envelope of 2": ((1, "heartbeat"), r"Malformed wire envelope: \(int, str\)"),
    "envelope of 4": ((1, "heartbeat", ("t", ()), 0), "Malformed wire envelope"),
    "envelope not a tuple": ([1, "heartbeat", ("t", ())], "Malformed wire envelope: list"),
    "request id not an int": (("1", "heartbeat", ("t", ())), r"envelope: \(str, str, tuple\)"),
    "request id a bool": ((True, "heartbeat", ("t", ())), r"envelope: \(bool, str, tuple\)"),
    "more values than fields": (
        _request(("M", "ForkSessionRequest", 4, 1, 2)),
        "ForkSessionRequest carries 2 field values, not 3",
    ),
    "missing required field": (
        _request(("M", "StepRequest")), "StepRequest carries 1 to 3 field values, not 0",
    ),
    "unknown tag": (_request(("X", 1)), "Unknown typed wire tag: 'X'"),
    "unknown message": (_request(("M", "NoSuchMessage")), "Unknown wire message type"),
}


class TestWireCodec:
    """Version 5: a numeric array travels as its raw bytes, a message as a
    positional tuple whose fields are checked by kind, and every refusal is a
    ServiceError."""

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("dtype", _NUMBER_DTYPES, ids=lambda dtype: dtype.str)
    def test_a_numeric_array_round_trips_raw_and_writable(self, dtype, layout):
        array = _LAYOUTS[layout](dtype)
        assert _lowered_payload(array)[:2] == ("A", dtype.str)
        decoded = _round_trip(array)
        assert type(decoded) is np.ndarray
        assert decoded.dtype == array.dtype and decoded.shape == array.shape
        np.testing.assert_array_equal(decoded, array)
        assert decoded.flags.writeable and decoded.flags.owndata
        assert decoded.flags.f_contiguous if layout == "F" else decoded.flags.c_contiguous

    @pytest.mark.parametrize("array, refused", [
        (np.arange(3).astype("M8[s]"), True),
        (np.arange(3).astype("m8[s]"), True),
        (np.array([1, "a"], dtype=object), True),
        (np.zeros(2, np.dtype(float, metadata={"m": _Foreign()})), True),
        (np.zeros(2, np.dtype(float, metadata={"m": 1})), False),
        (np.zeros(2, [("a", "<i4")]), False),
        (np.array(["ab", "c"]), False),
    ], ids=["datetime64", "timedelta64", "object", "foreign-metadata", "metadata",
            "structured", "unicode"])
    def test_a_non_numeric_array_is_an_opaque_value(self, array, refused):
        """What numpy pickles from admitted globals travels as before, an
        opaque pickle; what a peer would refuse fails the sender's encode."""
        if refused:
            with pytest.raises(ServiceError, match="Cannot send a numpy.ndarray"):
                frame_bytes((1, REPLY_OK, array))
            return
        assert _lowered_payload(array)[0] == "P"
        decoded = _round_trip(array)
        assert decoded.dtype == array.dtype
        np.testing.assert_array_equal(decoded, array)

    def test_a_step_reply_with_an_array_names_no_global(self, monkeypatch):
        looked_up = []
        admitted = wire.admitted_global
        monkeypatch.setattr(
            wire, "admitted_global", lambda *name: looked_up.append(name) or admitted(*name)
        )
        reply = StepReply(observations=[np.arange(56), 3])
        decoded = _round_trip(reply)
        assert looked_up == []
        np.testing.assert_array_equal(decoded.observations[0], np.arange(56))
        assert decoded.observations[1] == 3
        # The counter sees what does name a global: a space.
        _round_trip(Scalar(min=0, max=None, dtype=int))
        assert looked_up

    @pytest.mark.parametrize("name", sorted(_HOSTILE_ARRAYS))
    def test_a_hostile_array_fails_the_decode(self, name):
        with pytest.raises(ServiceError) as raised:
            _decode_lowered(_HOSTILE_ARRAYS[name])
        if name == "shape far past its data":  # Refused before any allocation.
            assert "does not fill its shape" in str(raised.value)

    def test_a_hostile_array_in_a_step_is_a_dropped_client_and_runs_nothing(self):
        server = ServiceServer(_runtime(), session_timeout=None, auth_tokens=["secret"])
        with server.start():
            transport = SocketTransport(server.url, auth_token="secret")
            with ServiceConnection(transport) as connection:
                session = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/1")
                )
                connection.step(StepRequest(session_id=session.session_id, actions=[1]))
                for name, array in _HOSTILE_ARRAYS.items():
                    raw = socket.create_connection(parse_service_url(server.url)[1], timeout=5)
                    rfile = raw.makefile("rb")
                    raw.sendall(frame_bytes((1, "hello", (HelloRequest(token="secret"),))))
                    assert read_frame(rfile)[1] == REPLY_OK
                    raw.sendall(_frame_of(_step_holding(array)))
                    assert raw.recv(1) == b"", name
                    rfile.close()
                    raw.close()
                assert server.runtime.stats["step"] == 1
                # The daemon serves on.
                connection.step(StepRequest(session_id=session.session_id, actions=[1]))
                assert server.runtime.stats["step"] == 2

    @pytest.mark.parametrize("tag, payload", [
        ("F", {"a": 1}),
        ("F", "Autophase"),
        ("F", [("t", (1,))]),
        ("l", "abc"),
        ("t", [1, 2]),
        ("d", [("a", 1)]),
    ], ids=["F-dict", "F-str", "F-nested", "l-str", "t-list", "d-list"])
    def test_a_container_tag_must_hold_its_container(self, tag, payload):
        with pytest.raises(ServiceError, match=f"Malformed {tag!r} payload"):
            _decode_lowered((tag, payload))
        # Nor in a message's field of kind "any", where a runtime would
        # iterate it.
        step = ("M", "StepRequest", 0, (tag, payload))
        with pytest.raises(ServiceError, match=f"Malformed {tag!r} payload"):
            _decode_lowered(step)

    @pytest.mark.parametrize("name", sorted(_HOSTILE_PAYLOADS))
    def test_a_hostile_payload_fails_the_decode_and_builds_nothing(self, name, monkeypatch):
        well_formed = frame_bytes((1, "fork_session", (ForkSessionRequest(4, 5),)))
        built = []
        for cls in message_registry().values():
            monkeypatch.setattr(
                cls, "__init__",
                lambda self, *args, _init=cls.__init__, **kwargs: (
                    built.append(self), _init(self, *args, **kwargs)
                )[1],
            )
        envelope, refusal = _HOSTILE_PAYLOADS[name]
        with pytest.raises(ServiceError, match=refusal):
            read_frame(io.BytesIO(_frame_of(envelope)))
        assert built == []
        # A well-formed message builds (so the count above is live).
        read_frame(io.BytesIO(well_formed))
        assert len(built) == 1

    def test_a_dict_key_the_peer_would_refuse_fails_only_its_encode(self):
        """Keys are not lowered: a dict keyed by anything but primitives
        travels whole as a checked opaque value."""
        with pytest.raises(ServiceError, match="Cannot send a builtins.dict"):
            frame_bytes((1, "handle_session_parameter", ({_Foreign(): 1},)))
        assert _round_trip({(1, "a"): [2], "b": 3}) == {(1, "a"): [2], "b": 3}

    def test_an_older_version_frame_is_refused_on_its_first_byte(self, tmp_path):
        """A version 2, 3 or 4 peer's frame — here one that would run code if
        its payload were decoded — is refused before a payload byte is read."""
        assert WIRE_VERSION == 5 and len(wire.CODECS) == 1
        sentinel = tmp_path / "sentinel"
        payload = pickle.dumps((1, "heartbeat", (_RunsOnLoad(sentinel),)))
        for version in (2, 3, 4):
            stream = io.BytesIO(bytes([version]) + struct.pack(">Q", len(payload)) + payload)
            with pytest.raises(ConnectionError, match=f"version {version}"):
                read_frame(stream)
            assert stream.tell() == FRAME_HEADER_BYTES
        assert not sentinel.exists()

    def test_a_message_travels_positionally_without_its_trailing_defaults(self):
        assert _lowered_payload(StepRequest(session_id=3, actions=[1])) == (
            "M", "StepRequest", 3, ("F", [1]),
        )
        assert _lowered_payload(StartSessionRequest(4, "benchmark://t-v0/1", verify_ir=True)) == (
            "M", "StartSessionRequest", 4, "benchmark://t-v0/1", 0, [], True,
        )
        assert _lowered_payload(HelloReply()) == ("M", "HelloReply")
        assert _decode_lowered(("M", "StartSessionRequest", 4, "u")) == StartSessionRequest(4, "u")

    def test_an_envelope_is_a_plain_triple(self):
        request = (7, "fork_session", (ForkSessionRequest(session_id=2, fork_id=3),))
        frame = frame_bytes(request)
        assert pickle.loads(frame[FRAME_HEADER_BYTES:]) == (
            7, "fork_session", ("t", (("M", "ForkSessionRequest", 2, 3),)),
        )
        assert read_frame(io.BytesIO(frame)) == request
        for value in ((7, "step"), ("7", "step", ()), [7, "step", ()], "payload"):
            with pytest.raises(ServiceError, match="Not a wire envelope"):
                frame_bytes(value)


# The fields of the hot messages, by the kind their codec was built with. An
# annotation edit that moves one of them to another kind fails here first.
_HOT_FIELD_KINDS = {
    StepRequest: {
        "session_id": (KIND_PRIMITIVE, {int}),
        "actions": (KIND_ANY, set()),
        "observation_space_names": (KIND_PRIMITIVE_LIST, {str}),
    },
    StepReply: {
        "end_of_session": (KIND_PRIMITIVE, {bool}),
        "action_had_no_effect": (KIND_PRIMITIVE, {bool}),
        "new_action_space": (KIND_ANY, set()),
        "observations": (KIND_ANY, set()),
    },
    StepSessionsRequest: {"requests": (KIND_ANY, set())},
    StepSessionsReply: {"results": (KIND_ANY, set())},
    SessionStepResult: {
        "reply": (KIND_ANY, set()),
        "error": (KIND_ANY, set()),
        "wall_time_s": (KIND_PRIMITIVE, {float}),
    },
    StartSessionRequest: {
        "session_id": (KIND_PRIMITIVE, {int}),
        "benchmark_uri": (KIND_PRIMITIVE, {str}),
        "action_space": (KIND_PRIMITIVE, {int}),
        "observation_space_names": (KIND_PRIMITIVE_LIST, {str}),
        "verify_ir": (KIND_PRIMITIVE, {bool}),
    },
    StartSessionReply: {
        "session_id": (KIND_PRIMITIVE, {int}),
        "observations": (KIND_ANY, set()),
        "new_action_space": (KIND_ANY, set()),
    },
}


@pytest.mark.parametrize("cls", list(_HOT_FIELD_KINDS), ids=lambda cls: cls.__name__)
def test_the_hot_messages_keep_their_field_kinds(cls):
    assert field_kinds(cls) == _HOT_FIELD_KINDS[cls]


def test_field_kinds_are_derived_from_annotations(monkeypatch):
    for table in ("_REGISTERED", "_MESSAGE_RAISERS", "_LOWERERS"):
        monkeypatch.setattr(wire, table, dict(getattr(wire, table)))  # Registered here only.

    @wire.wire_message(name="test_transport.Kinds")
    @dataclasses.dataclass
    class Kinds:
        a: int
        b: "int"
        c: "Optional[str]" = None  # noqa: F821 - a forward reference is "any"
        d: typing.Optional[bytes] = None
        e: typing.List[typing.Optional[float]] = dataclasses.field(default_factory=list)
        f: typing.List[typing.Any] = dataclasses.field(default_factory=list)
        g: typing.Union[int, str] = 0
        h: typing.Optional[typing.List[int]] = None

    assert field_kinds(Kinds) == {
        "a": (KIND_PRIMITIVE, {int}),
        "b": (KIND_ANY, set()),
        "c": (KIND_ANY, set()),
        "d": (KIND_PRIMITIVE, {bytes, type(None)}),
        "e": (KIND_PRIMITIVE_LIST, {float, type(None)}),
        "f": (KIND_ANY, set()),
        "g": (KIND_ANY, set()),
        "h": (KIND_ANY, set()),
    }
    assert _round_trip(Kinds(1, [2], e=[None, 0.5], h=[3])) == Kinds(1, [2], e=[None, 0.5], h=[3])


_PRIMITIVE_VALUES = {
    type(None): st.none(),
    bool: st.booleans(),
    int: st.integers(),
    float: st.floats(allow_nan=False),
    str: st.text(max_size=6),
    bytes: st.binary(max_size=6),
}

_VALUES = st.recursive(
    st.one_of(*_PRIMITIVE_VALUES.values()),
    lambda children: (
        st.lists(children, max_size=3)
        | st.tuples(children, children)
        | st.dictionaries(st.text(max_size=4), children, max_size=3)
        | st.builds(ForkSessionReply, session_id=st.integers())
    ),
    max_leaves=10,
)


def _of_kind(kind, types_):
    values = st.one_of(*(_PRIMITIVE_VALUES[cls] for cls in sorted(types_, key=str)))
    if kind == KIND_PRIMITIVE:
        return values
    if kind == KIND_PRIMITIVE_LIST:
        return st.lists(values, max_size=3)
    return _VALUES


def _messages():
    def build(cls):
        return st.builds(cls, **{
            name: _of_kind(*kind) for name, kind in field_kinds(cls).items()
        })

    return st.sampled_from(sorted(message_registry().items())).flatmap(
        lambda item: build(item[1])
    )


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(message=_messages())
def test_every_registered_message_round_trips(message):
    codec = wire.CODECS[WIRE_VERSION]
    assert codec.decode(codec.encode((1, REPLY_OK, message))) == (1, REPLY_OK, message)


def _not_of_kind(kind, types_):
    """Values a field of this kind refuses: another type, or for a list of
    primitives also a list holding one."""
    strays = _VALUES.filter(lambda value: type(value) not in types_)
    if kind == KIND_PRIMITIVE:
        return strays
    return (
        _VALUES.filter(lambda value: type(value) is not list)
        | st.lists(_VALUES, max_size=2).flatmap(
            lambda items: strays.map(lambda stray: items + [stray])
        )
    )


@st.composite
def _mismatched_messages(draw):
    cls = draw(st.sampled_from([
        cls for _, cls in sorted(message_registry().items())
        if any(kind != KIND_ANY for kind, _ in field_kinds(cls).values())
    ]))
    message = draw(_messages().filter(lambda message: type(message) is cls))
    name, kind = draw(st.sampled_from([
        (name, kind) for name, kind in field_kinds(cls).items() if kind[0] != KIND_ANY
    ]))
    setattr(message, name, draw(_not_of_kind(*kind)))
    return message, name


@settings(max_examples=200, deadline=None, suppress_health_check=list(HealthCheck))
@given(case=_mismatched_messages())
def test_a_value_off_its_fields_kind_fails_the_encode(case):
    message, name = case
    with pytest.raises(ServiceError, match=rf"{type(message).__name__}\.{name} must be"):
        wire.CODECS[WIRE_VERSION].encode((1, REPLY_OK, message))


# -- transports behind ServiceConnection -------------------------------------


# One transport is left to run this class over; it stays a parameter so that
# the tests keep the ids ("...[in-process]") they are tracked under.
@pytest.mark.parametrize(
    "make_transport", [lambda: InProcessTransport(_runtime())], ids=["in-process"]
)
class TestTransportConnection:
    def test_full_session_lifecycle(self, make_transport):
        with ServiceConnection(make_transport()) as connection:
            assert [s.name for s in connection.spaces.action_spaces] == ["counter"]
            session = connection.start_session(
                StartSessionRequest(
                    session_id=new_session_id(), benchmark_uri="benchmark://t-v0/5", observation_space_names=["value"]
                )
            )
            assert session.observations[0] == 5
            reply = connection.step(
                StepRequest(
                    session_id=session.session_id,
                    actions=[1, 1],
                    observation_space_names=["value"],
                )
            )
            assert reply.observations[0] == 7
            assert connection.stats["step"].calls == 1

    def test_backend_error_surfaces_as_service_error_without_restart(self, make_transport):
        connection = ServiceConnection(
            make_transport(), ConnectionOpts(rpc_max_retries=3, retry_wait_seconds=0.001)
        )
        session = connection.start_session(
            StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
        )
        # Action 2 raises inside the backend: the transport classifies it as
        # a daemon's error reply is, so the session survives it.
        with pytest.raises(ServiceError, match="simulated compiler crash"):
            connection.step(StepRequest(session_id=session.session_id, actions=[2]))
        assert not any(stats.retries for stats in connection.stats.values())
        connection.step(StepRequest(session_id=session.session_id, actions=[1]))
        connection.close()

    def test_closed_connection_rejects_calls(self, make_transport):
        connection = ServiceConnection(make_transport())
        connection.close()
        with pytest.raises(ServiceIsClosed):
            connection.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))


class TestCallStatsIsBounded:
    def test_ten_thousand_calls_leave_only_scalars(self):
        """Regression: every RPC used to append a float to a per-method list
        that lived as long as the connection and was re-summed on each
        ``stats_summary()`` poll."""
        stats = CallStats()
        wall_times = [0.001 * (i % 7) for i in range(10_000)]
        for wall_time in wall_times:
            stats.record(wall_time)
        assert all(isinstance(value, (int, float)) for value in vars(stats).values())
        assert stats.summary()["calls"] == 10_000
        assert stats.summary()["wall_time_s"] == pytest.approx(sum(wall_times))


class TestSlowSuccessIsNotRetried:
    """Regression: a call that *succeeded* but exceeded the deadline must be
    recorded as a slow success and raised without retrying — re-executing an
    already-applied step() would corrupt the session."""

    def test_slow_success_raises_without_retry(self):
        connection = ServiceConnection(
            InProcessTransport(_slow_runtime()),
            ConnectionOpts(rpc_call_max_seconds=0.02, rpc_max_retries=5, retry_wait_seconds=0.001),
        )
        session = connection.start_session(
            StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
        )
        runtime = connection.runtime
        steps_before = runtime.stats["step"]
        with pytest.raises(ServiceTransportError, match="will not be retried"):
            connection.step(StepRequest(session_id=session.session_id, actions=[1]))
        # Applied exactly once: no restart, no re-execution.
        assert runtime.stats["step"] == steps_before + 1
        assert not any(stats.retries for stats in connection.stats.values())
        assert connection.stats["step"].retries == 0
        # The slow success is recorded in the wall-time accounting.
        assert connection.stats["step"].calls == 1
        assert connection.stats["step"].errors == 1
        assert connection.stats["step"].wall_time_s >= 0.02
        # The action WAS applied; the session remains usable and consistent.
        reply = connection.step(
            StepRequest(
                session_id=session.session_id,
                actions=[],
                observation_space_names=["value"],
            )
        )
        assert reply.observations[0] == 1
        connection.close()

    def test_fast_success_within_deadline_is_untouched(self):
        connection = ServiceConnection(
            InProcessTransport(_runtime()), ConnectionOpts(rpc_call_max_seconds=5.0)
        )
        session = connection.start_session(
            StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
        )
        connection.step(StepRequest(session_id=session.session_id, actions=[1]))
        assert connection.stats["step"].errors == 0
        connection.close()


class TestEndSessionRacesACall:
    """The runtime's ``end_session`` while a slow step runs on the session,
    with no daemon (and no daemon lock) around it: the end waits for the
    step and closes the session after it, and a call that was waiting on the
    session's lock finds the session gone."""

    @pytest.fixture
    def race(self, monkeypatch):
        """Start a 3-action slow step, queue a second step behind it, end the
        session meanwhile. Returns what each call did and what the end saw."""
        _SlowStepSession.reset_tracking()
        built, closed_mid_action = [], []
        init = _SlowStepSession.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(_SlowStepSession, "__init__", tracked_init)
        monkeypatch.setattr(
            _SlowStepSession,
            "close",
            lambda self: closed_mid_action.append(_SlowStepSession.in_flight > 0),
        )
        runtime = _slow_runtime()
        session_id = runtime.start_session(
            StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
        ).session_id
        outcomes = {}

        def step(name, actions):
            try:
                outcomes[name] = runtime.step(StepRequest(session_id=session_id, actions=actions))
            except Exception as error:  # noqa: BLE001 - asserted below
                outcomes[name] = error

        first = threading.Thread(target=step, args=("first", [1] * 3))
        first.start()
        deadline = time.monotonic() + 5
        while _SlowStepSession.in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        second = threading.Thread(target=step, args=("second", [1]))
        second.start()
        time.sleep(0.05)  # The second step is waiting on the session's lock.
        runtime.end_session(EndSessionRequest(session_id=session_id))
        value_at_end = built[0].value
        first.join(timeout=5)
        second.join(timeout=5)
        runtime.shutdown()
        return outcomes, built, closed_mid_action, value_at_end

    def test_end_session_waits_for_the_call_in_flight(self, race):
        outcomes, built, closed_mid_action, value_at_end = race
        assert not isinstance(outcomes["first"], Exception)
        # end_session returned after all three actions of the step had run,
        # and closed the session once, between actions.
        assert value_at_end == 3
        assert closed_mid_action == [False]

    def test_a_call_waiting_on_an_ended_session_finds_it_gone(self, race):
        outcomes, built, _, _ = race
        assert isinstance(outcomes["second"], SessionNotFound)
        # It built nothing and applied nothing.
        assert len(built) == 1
        assert built[0].value == 3


def test_an_error_reply_to_hello_fails_the_connect():
    """A peer that answers hello with an error (other than a refused
    token) is not one this client can talk to: connect() raises."""

    def refuse_hello(client):
        _serve_handshake(client, REPLY_ERROR, ServiceError("Unknown service method: 'hello'"))
        client.recv(1)  # Hold the socket open until the client hangs up.

    with _fake_daemon(refuse_hello) as (transport, _):
        with pytest.raises(ServiceError, match="refused the hello handshake"):
            transport.connect()


class TestSendFailureClassification:
    """Regression (headline): send-side failures must be classified by
    whether any bytes may have been flushed. A clean pre-flush failure
    cannot have reached the daemon, so it stays retryable ConnectionError;
    once part of the frame may be on the wire, the daemon may already own a
    complete request, so the failure is non-retryable."""

    def _server(self) -> ServiceServer:
        return ServiceServer(_runtime(), session_timeout=None).start()

    def test_presend_failure_surfaces_as_retryable_connection_error(self):
        with self._server() as server:
            transport = SocketTransport(server.url, timeout=5.0)
            transport.connect()
            conn = transport._conn
            conn.sock = FlushLimitedSocket(conn.sock, flush_budget=0)
            with pytest.raises(ConnectionError, match="before any of the request") as excinfo:
                transport.call("server_info")
            # The retryable family, NOT the non-retryable ServiceError one.
            assert not isinstance(excinfo.value, ServiceError)
            transport.shutdown()

    def test_presend_failure_is_retried_and_applied_exactly_once(self):
        with self._server() as server:
            connection = ServiceConnection(
                SocketTransport(server.url, timeout=5.0),
                ConnectionOpts(rpc_max_retries=3, retry_wait_seconds=0.001),
            )
            session = connection.start_session(
                StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
            )
            steps_before = server.runtime.stats["step"]
            conn = connection.transport._conn
            conn.sock = FlushLimitedSocket(conn.sock, flush_budget=0)
            reply = connection.step(
                StepRequest(
                    session_id=session.session_id,
                    actions=[1],
                    observation_space_names=["value"],
                )
            )
            # The retry transparently reconnected and applied the step once.
            assert reply.observations[0] == 1
            assert connection.stats["step"].retries == 1
            assert server.runtime.stats["step"] == steps_before + 1
            connection.close()

    def test_partial_flush_failure_is_never_retried(self):
        with self._server() as server:
            connection = ServiceConnection(
                SocketTransport(server.url, timeout=5.0),
                ConnectionOpts(rpc_max_retries=5, retry_wait_seconds=0.001),
            )
            session = connection.start_session(
                StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
            )
            steps_before = server.runtime.stats["step"]
            conn = connection.transport._conn
            # Let 5 bytes of the frame out, then fail: from the client's view
            # the daemon may or may not own a complete request.
            conn.sock = FlushLimitedSocket(conn.sock, flush_budget=5)
            with pytest.raises(ServiceTransportError, match="will not be retried"):
                connection.step(
                    StepRequest(session_id=session.session_id, actions=[1])
                )
            # Never retried, never restarted, never re-sent to the daemon.
            assert connection.stats["step"].retries == 0
            assert not any(stats.retries for stats in connection.stats.values())
            assert server.runtime.stats["step"] == steps_before
            # The daemon session is untouched; a fresh connection epoch
            # carries on where the episode left off.
            reply = connection.step(
                StepRequest(
                    session_id=session.session_id,
                    actions=[],
                    observation_space_names=["value"],
                )
            )
            assert reply.observations[0] == 0
            connection.close()


# -- the socket daemon --------------------------------------------------------


class TestServiceServer:
    def _server(self, **kwargs) -> ServiceServer:
        kwargs.setdefault("session_timeout", None)
        return ServiceServer(_runtime(), **kwargs).start()

    def test_socket_connection_lifecycle(self):
        with self._server() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                assert connection.runtime is None
                session = connection.start_session(
                    StartSessionRequest(
                        session_id=new_session_id(), benchmark_uri="benchmark://t-v0/4",
                        observation_space_names=["value"],
                    )
                )
                assert session.observations[0] == 4
                reply = connection.step(
                    StepRequest(
                        session_id=session.session_id,
                        actions=[1, 1, 1],
                        observation_space_names=["value"],
                    )
                )
                assert reply.observations[0] == 7

    def test_multiplexes_concurrent_clients(self):
        """Many clients, one runtime: all sessions land on the same backend."""
        with self._server() as server:
            connections = [
                ServiceConnection(SocketTransport(server.url)) for _ in range(4)
            ]
            try:
                sessions = [
                    connection.start_session(
                        StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://t-v0/{i}")
                    )
                    for i, connection in enumerate(connections)
                ]
                # Every client's session is in the one shared runtime.
                assert sorted(server.runtime.sessions) == sorted(s.session_id for s in sessions)
                for i, (connection, session) in enumerate(zip(connections, sessions)):
                    reply = connection.step(
                        StepRequest(
                            session_id=session.session_id,
                            actions=[1],
                            observation_space_names=["value"],
                        )
                    )
                    assert reply.observations[0] == i + 1
                assert server.runtime.stats["start_session"] == 4
            finally:
                for connection in connections:
                    connection.close()

    def test_sessions_survive_client_churn(self):
        """A dropped client ends nothing: its sessions remain reachable."""
        with self._server() as server:
            first = ServiceConnection(SocketTransport(server.url))
            session = first.start_session(
                StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/5")
            )
            first.step(StepRequest(session_id=session.session_id, actions=[1]))
            # Simulate a client crash: drop the socket without end_session.
            first._transport._close_socket()
            first.closed = True

            second = ServiceConnection(SocketTransport(server.url))
            reply = second.step(
                StepRequest(
                    session_id=session.session_id,
                    actions=[1],
                    observation_space_names=["value"],
                )
            )
            assert reply.observations[0] == 7
            second.close()

    def test_a_dropped_socket_reconnects_on_the_next_call(self):
        """A socket dropped under an idle client fails the next send before
        anything leaves; the retry opens a fresh connection, and the daemon's
        session is still there to step."""
        with self._server() as server:
            transport = SocketTransport(server.url)
            with ServiceConnection(transport) as connection:
                session = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/2")
                )
                dropped = transport._conn
                dropped.sock.shutdown(socket.SHUT_RDWR)
                reply = connection.step(
                    StepRequest(
                        session_id=session.session_id,
                        actions=[],
                        observation_space_names=["value"],
                    )
                )
                assert reply.observations[0] == 2
                assert connection.stats["step"].retries == 1
                assert transport._conn is not dropped and dropped.dead is not None

    def test_concurrent_callers_reconnect_on_one_fresh_connection(self):
        """Callers that all find the shared socket dropped each retry; the
        first to take the transport's lock opens the fresh connection, and
        the rest step on it. Five drops, eight callers, threads switched as
        often as possible."""
        callers, drops = 8, 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with self._server() as server:
                transport = SocketTransport(server.url)
                with ServiceConnection(transport) as connection:
                    sessions = [
                        connection.start_session(
                            StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://t-v0/{i}")
                        ).session_id
                        for i in range(callers)
                    ]
                    values = {}

                    def step(session_id):
                        reply = connection.step(
                            StepRequest(
                                session_id=session_id,
                                actions=[1],
                                observation_space_names=["value"],
                            )
                        )
                        values[session_id] = reply.observations[0]

                    for drop in range(1, drops + 1):
                        transport._conn.sock.shutdown(socket.SHUT_RDWR)
                        threads = [
                            threading.Thread(target=step, args=(sid,)) for sid in sessions
                        ]
                        for thread in threads:
                            thread.start()
                        for thread in threads:
                            thread.join(timeout=30)
                            assert not thread.is_alive()
                        assert values == {sid: i + drop for i, sid in enumerate(sessions)}
                    assert server.server_info()["connections_served"] == 1 + drops
        finally:
            sys.setswitchinterval(interval)

    def test_same_session_calls_serialize_different_sessions_overlap(self):
        _SlowStepSession.reset_tracking()
        with ServiceServer(_slow_runtime(), session_timeout=None).start() as server:
            a = ServiceConnection(SocketTransport(server.url))
            b = ServiceConnection(SocketTransport(server.url))
            try:
                shared = a.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                )

                def hammer(connection, session_id, actions):
                    connection.step(StepRequest(session_id=session_id, actions=actions))

                # Two clients on the SAME session: per-session locking keeps
                # the compiler state serialized.
                threads = [
                    threading.Thread(target=hammer, args=(c, shared.session_id, [1] * 3))
                    for c in (a, b)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert _SlowStepSession.max_in_flight == 1
                reply = a.step(
                    StepRequest(
                        session_id=shared.session_id,
                        actions=[],
                        observation_space_names=["value"],
                    )
                )
                assert reply.observations[0] == 6

                # Two clients on DIFFERENT sessions: their steps overlap.
                _SlowStepSession.reset_tracking()
                other = b.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                )
                threads = [
                    threading.Thread(target=hammer, args=(a, shared.session_id, [1] * 3)),
                    threading.Thread(target=hammer, args=(b, other.session_id, [1] * 3)),
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                assert _SlowStepSession.max_in_flight == 2
            finally:
                a.close()
                b.close()

    def test_daemon_crash_is_not_retried_and_not_double_applied(self):
        """A generic exception inside the daemon (compiler crash mid-step)
        must surface as a non-retryable ServiceError: the daemon session
        survives its client's reconnect, so a retry would re-apply the
        request's already-applied prefix."""
        with self._server() as server:
            connection = ServiceConnection(
                SocketTransport(server.url),
                ConnectionOpts(rpc_max_retries=5, retry_wait_seconds=0.001),
            )
            session = connection.start_session(
                StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
            )
            # Action 1 applies, then action 2 raises RuntimeError server-side.
            with pytest.raises(ServiceError, match="simulated compiler crash"):
                connection.step(
                    StepRequest(session_id=session.session_id, actions=[1, 2])
                )
            assert not any(stats.retries for stats in connection.stats.values())
            assert connection.stats["step"].retries == 0
            # The prefix was applied exactly once — no silent re-execution.
            reply = connection.step(
                StepRequest(
                    session_id=session.session_id,
                    actions=[],
                    observation_space_names=["value"],
                )
            )
            assert reply.observations[0] == 1
            connection.close()

    def test_idle_sessions_are_reaped(self):
        with ServiceServer(
            _runtime(), session_timeout=0.2, reap_interval=0.05
        ).start() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                session = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                )
                deadline = time.time() + 5
                while server.reaped_sessions == 0 and time.time() < deadline:
                    time.sleep(0.05)
                assert server.reaped_sessions == 1
                with pytest.raises(SessionNotFound):
                    connection.step(
                        StepRequest(session_id=session.session_id, actions=[1])
                    )

    def test_active_sessions_survive_reaping(self):
        with ServiceServer(
            _runtime(), session_timeout=0.3, reap_interval=0.05
        ).start() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                session = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                )
                # Keep touching the session for longer than the timeout.
                for _ in range(6):
                    time.sleep(0.1)
                    connection.step(
                        StepRequest(session_id=session.session_id, actions=[1])
                    )
                assert server.reaped_sessions == 0

    def test_malformed_frame_drops_client_not_daemon(self):
        """A corrupt frame (stray writer, version skew) must cost only that
        client's connection, never the serving thread or the daemon."""
        with self._server() as server:
            garbage = b"not a pickle at all"
            _assert_hung_up_on(server.url, struct.pack(">Q", len(garbage)) + garbage)
            # And keeps serving well-formed clients.
            with ServiceConnection(SocketTransport(server.url)) as connection:
                session = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/1")
                )
                assert list(server.runtime.sessions) == [session.session_id]

    @pytest.mark.parametrize("version", [WIRE_VERSION + 1, WIRE_VERSION - 1])
    def test_version_skewed_client_is_dropped(self, version):
        """A frame announcing any version but the one spoken (a future one;
        a version 2 peer's) must be rejected on its first byte — dropped
        cleanly, never unpickled."""
        with self._server() as server:
            payload = pickle.dumps((0, "server_info", ()))
            _assert_hung_up_on(
                server.url, bytes([version]) + struct.pack(">Q", len(payload)) + payload
            )
            # The daemon survives and still speaks the current version.
            with ServiceConnection(SocketTransport(server.url)) as connection:
                info = connection.transport.server_info()
                assert info["protocol_version"] == WIRE_VERSION == 5
                assert info["wire_versions"] == [WIRE_VERSION]

    def test_an_unauthenticated_peer_cannot_announce_a_large_frame(self):
        """The payload buffer is allocated from the 9-byte header: before
        hello has succeeded a header announcing more than 64 KiB is refused
        at once, unallocated; an authenticated client's frames are not held
        to that limit."""
        with self._server(auth_tokens=["secret"]) as server:
            # The payload is never sent, and never waited for.
            _assert_hung_up_on(server.url, bytes([WIRE_VERSION]) + struct.pack(">Q", 1 << 30))
            transport = SocketTransport(server.url, auth_token="secret")
            with ServiceConnection(transport) as connection:
                session = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/1")
                )
                value = "x" * (4 << 20)
                assert connection.handle_session_parameter(session.session_id, "k", value) is None

    def test_unknown_method_is_rejected(self):
        with self._server() as server:
            transport = SocketTransport(server.url)
            transport.connect()
            with pytest.raises(ServiceError, match="Unknown service method"):
                transport.call("__class__")
            transport.shutdown()

    def test_unknown_session_leaves_no_tracking_entry(self):
        """Calls against ended/unknown sessions must not grow the session
        table (an entry would leak forever with reaping off)."""
        with self._server() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                for bogus_id in (7, 8, 9):
                    with pytest.raises(SessionNotFound):
                        connection.step(StepRequest(session_id=bogus_id, actions=[1]))
                    with pytest.raises(SessionNotFound):
                        connection.fork_session(ForkSessionRequest(session_id=bogus_id, fork_id=new_session_id()))
                    with pytest.raises(SessionNotFound):
                        connection.handle_session_parameter(bogus_id, "k", "v")
                    connection.end_session(EndSessionRequest(session_id=bogus_id))
                (result,) = connection.step_sessions([StepRequest(session_id=10, actions=[1])])
                assert isinstance(result.error, SessionNotFound)
                assert server.server_info()["active_sessions"] == 0
                assert not server.runtime.sessions

    def test_another_tenant_cannot_touch_a_session_or_its_fork(self):
        with self._server(auth_tokens=["alice", "bob"]) as server:
            alice = ServiceConnection(SocketTransport(server.url, auth_token="alice"))
            bob = ServiceConnection(SocketTransport(server.url, auth_token="bob"))
            try:
                session = alice.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/3")
                )
                fork = alice.fork_session(ForkSessionRequest(session_id=session.session_id, fork_id=new_session_id()))
                for session_id in (session.session_id, fork.session_id):
                    calls = [
                        lambda: bob.step(StepRequest(session_id=session_id, actions=[1])),
                        lambda: bob.fork_session(ForkSessionRequest(session_id=session_id, fork_id=new_session_id())),
                        lambda: bob.end_session(EndSessionRequest(session_id=session_id)),
                        lambda: bob.handle_session_parameter(session_id, "k", "v"),
                    ]
                    for call in calls:
                        with pytest.raises(PermissionDeniedError, match="another tenant"):
                            call()
                    (result,) = bob.step_sessions(
                        [StepRequest(session_id=session_id, actions=[1])]
                    )
                    assert isinstance(result.error, PermissionDeniedError)
                    assert "another tenant" in str(result.error)
                assert sorted(server.runtime.sessions) == sorted([session.session_id, fork.session_id])
                for session_id in (session.session_id, fork.session_id):
                    reply = alice.step(
                        StepRequest(
                            session_id=session_id,
                            actions=[],
                            observation_space_names=["value"],
                        )
                    )
                    assert reply.observations[0] == 3
            finally:
                alice.close()
                bob.close()

    def test_request_shutdown_is_lock_free_and_stops_serving(self):
        """The signal-handler path: request_shutdown() under a held server
        lock must not deadlock, and serve_forever must exit afterwards."""
        server = self._server()
        with server._lock:
            server.request_shutdown()  # Deadlocks here if it takes _lock.
        deadline = time.time() + 5
        while server._accept_thread.is_alive() and time.time() < deadline:
            time.sleep(0.01)
        assert not server._accept_thread.is_alive()
        server.shutdown()

    def test_server_info(self):
        with self._server(env_id="counter-v0") as server:
            transport = SocketTransport(server.url)
            transport.connect()
            info = transport.server_info()
            assert info["env_id"] == "counter-v0"
            assert info["url"] == server.url
            assert info["connections_served"] == 1
            transport.shutdown()

    @pytest.mark.parametrize("family", ["tcp", "unix"])
    def test_graceful_shutdown_unblocks_clients(self, family, tmp_path):
        where = {"unix_path": str(tmp_path / "daemon.sock")} if family == "unix" else {}
        server = self._server(**where)
        assert server.url.startswith(f"{family}://")
        assert server.url.endswith(where.get("unix_path", ""))
        connection = ServiceConnection(SocketTransport(server.url))
        request = StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
        connection.start_session(request)
        server.shutdown()
        assert server.closed
        # Nobody reads an idle connection, so the client learns the daemon is
        # gone from its next call: a send that fails outright (unix) and a
        # retry loop that cannot reconnect, or a send the kernel accepts and
        # a read that hits EOF (tcp). A service error either way.
        connection.opts.rpc_max_retries = 2
        connection.opts.retry_wait_seconds = 0.001
        with pytest.raises(ServiceError):
            connection.start_session(request)
        # A fresh daemon at the same address is reached by the next call.
        where = where or {"port": parse_service_url(server.url)[1][1]}
        with self._server(**where) as fresh:
            connection.start_session(request)
            assert list(fresh.runtime.sessions) == [request.session_id]
        connection.close()
        # Shutdown is idempotent.
        server.shutdown()


# -- batched stepping and request-id multiplexing -----------------------------


class TestBatchedStepSessions:
    """The batched stepping RPC: a vec pool's whole step in one round trip,
    stepped in request order under per-session locks, reaper-safe, and with
    per-session accounting."""

    def _server(self, **kwargs) -> ServiceServer:
        kwargs.setdefault("session_timeout", None)
        return ServiceServer(_runtime(), **kwargs).start()

    def test_batch_matches_individual_steps(self):
        with self._server() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                sessions = [
                    connection.start_session(
                        StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://t-v0/{i}")
                    )
                    for i in range(3)
                ]
                results = connection.step_sessions(
                    [
                        StepRequest(
                            session_id=session.session_id,
                            actions=[1] * (i + 1),
                            observation_space_names=["value"],
                        )
                        for i, session in enumerate(sessions)
                    ]
                )
                assert all(r.ok for r in results)
                # Counter i stepped (i + 1) times: same values as individual
                # step() calls would produce.
                assert [r.reply.observations[0] for r in results] == [1, 3, 5]
                assert server.batched_steps == 1
                assert server.server_info()["batched_steps"] == 1
                # A batch of one is every single step a gateway forwards.
                (alone,) = connection.step_sessions(
                    [
                        StepRequest(
                            session_id=sessions[0].session_id,
                            actions=[1],
                            observation_space_names=["value"],
                        )
                    ]
                )
                assert alone.ok and alone.unwrap().observations[0] == 2

    def test_batched_sub_steps_run_in_request_order_on_the_serving_thread(self, monkeypatch):
        _SlowStepSession.reset_tracking()
        stepped = []
        apply_action = _SlowStepSession.apply_action

        def recording_apply_action(session, action):
            stepped.append((session.value, threading.current_thread().name))
            return apply_action(session, action)

        monkeypatch.setattr(_SlowStepSession, "apply_action", recording_apply_action)
        with ServiceServer(_slow_runtime(), session_timeout=None).start() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                sessions = [
                    connection.start_session(
                        StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://t-v0/{start}")
                    )
                    for start in (30, 10, 20)
                ]
                results = connection.step_sessions(
                    [
                        StepRequest(session_id=s.session_id, actions=[1])
                        for s in sessions
                    ]
                )
                assert all(r.ok for r in results)
                # One sub-step at a time, in request order, all on one thread.
                assert _SlowStepSession.max_in_flight == 1
                assert [value for value, _ in stepped] == [30, 10, 20]
                assert len({thread for _, thread in stepped}) == 1

    def test_per_session_failure_is_reported_not_raised(self):
        with self._server() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                session = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                )
                results = connection.step_sessions(
                    [
                        StepRequest(session_id=session.session_id, actions=[1]),
                        StepRequest(session_id=999, actions=[1]),
                    ]
                )
                assert results[0].ok
                assert not results[1].ok
                assert isinstance(results[1].error, SessionNotFound)
                # The bogus id left no tracking entry behind; the live
                # session is untouched.
                assert server.server_info()["active_sessions"] == 1

    def test_an_unpicklable_slot_error_fails_only_its_slot(self):
        """The codec lowers an exception that will not pickle as a
        ServiceError naming its type, so the batch's other slots still
        return their replies."""
        runtime = CompilerGymServiceRuntime(
            session_type=_UnpicklableErrorSession, benchmark_resolver=_resolver
        )
        with ServiceServer(runtime, session_timeout=None).start() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                sessions = [
                    connection.start_session(
                        StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://t-v0/{i}")
                    )
                    for i in range(3)
                ]
                results = connection.step_sessions(
                    [
                        StepRequest(
                            session_id=session.session_id,
                            actions=[action],
                            observation_space_names=["value"],
                        )
                        for session, action in zip(sessions, [1, 2, 1])
                    ]
                )
                assert [r.ok for r in results] == [True, False, True]
                assert [results[i].reply.observations[0] for i in (0, 2)] == [1, 3]
                assert type(results[1].error) is ServiceError
                assert str(results[1].error) == "_UnpicklableError: holds a lambda"

    def test_daemon_side_exception_reads_the_same_alone_and_pooled(self, llvm_daemon):
        """A generic exception inside the daemon (an out-of-range action's
        ValueError) ends the episode with the same ServiceError text whether
        the step was one RPC or one slot of a pool's batch."""
        env = _make_llvm_env(service_url=llvm_daemon.url)
        try:
            with VecCompilerEnv(
                _make_llvm_env(service_url=llvm_daemon.url), n=2, backend="thread"
            ) as vec:
                env.reset()
                vec.reset()
                _, reward, done, info = env.step(9999)
                _, rewards, dones, infos = vec.step([9999, 1])
                assert vec.connection_stats()["step_sessions"]["calls"] == 1
                assert done and dones == [True, False]
                assert info == infos[0] and rewards[0] == reward
                assert info["error_details"] == (
                    "Compiler service error in step(): "
                    "ValueError: Action out of range: 9999"
                )
                assert "error_details" not in infos[1]
        finally:
            env.close()

    def test_batched_stats_attribute_per_session(self):
        # connection_stats() keeps seeing per-worker load when the pool
        # steps through the batched RPC.
        with self._server() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                sessions = [
                    connection.start_session(
                        StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                    )
                    for _ in range(4)
                ]
                before = connection.stats_summary()
                connection.step_sessions(
                    [
                        StepRequest(session_id=s.session_id, actions=[1])
                        for s in sessions
                    ]
                )
                after = connection.stats_summary()

                def delta(method, key):
                    return after[method][key] - before.get(method, {}).get(key, 0)

                # One round trip, but four per-session step records — NOT one
                # shared counter.
                assert delta("step_sessions", "calls") == 1
                assert delta("step", "calls") == 4
                assert delta("step", "wall_time_s") > 0

    def test_failed_sub_steps_are_counted_as_step_errors(self):
        with self._server() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                session = connection.start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                )
                # An empty batch is no round trip at all.
                assert connection.step_sessions([]) == []
                assert "step_sessions" not in connection.stats_summary()
                connection.step_sessions(
                    [
                        StepRequest(session_id=session.session_id, actions=[1]),
                        StepRequest(session_id=999, actions=[1]),
                        StepRequest(session_id=998, actions=[1]),
                    ]
                )
                stats = connection.stats_summary()
                assert stats["step_sessions"]["calls"] == 1
                assert stats["step_sessions"]["errors"] == 0
                assert stats["step"]["calls"] == 1
                assert stats["step"]["errors"] == 2

    def test_reaper_cannot_reap_mid_batch(self):
        # Satellite: a session stepping inside a batch holds its per-session
        # lock and re-stamps last_used, so a reaper firing mid-batch (the
        # step here takes 2x the idle timeout) must never end it.
        _SlowStepSession.reset_tracking()
        with ServiceServer(
            _slow_runtime(), session_timeout=0.2, reap_interval=0.02
        ).start() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                sessions = [
                    connection.start_session(
                        StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                    )
                    for _ in range(2)
                ]
                results = connection.step_sessions(
                    [
                        StepRequest(
                            session_id=s.session_id,
                            actions=[1] * 4,  # 4 x 0.1s >> 0.2s idle timeout
                            observation_space_names=["value"],
                        )
                        for s in sessions
                    ]
                )
                assert all(r.ok for r in results)
                assert server.reaped_sessions == 0
                # Both sessions are still alive and consistent.
                for session in sessions:
                    reply = connection.step(
                        StepRequest(
                            session_id=session.session_id,
                            actions=[],
                            observation_space_names=["value"],
                        )
                    )
                    assert reply.observations[0] == 4


class TestMultiplexedConcurrency:
    """Request-id multiplexing: concurrent callers share one socket without
    serializing on it, and produce exactly the traces dedicated connections
    would."""

    def _trace_sessions(self, url, shared: bool, action_plans):
        n = len(action_plans)
        if shared:
            owned = [ServiceConnection(SocketTransport(url))]
            connections = owned * n
        else:
            owned = [ServiceConnection(SocketTransport(url)) for _ in range(n)]
            connections = owned
        traces = [None] * n
        try:
            sessions = [
                connections[i].start_session(
                    StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://t-v0/{i}")
                )
                for i in range(n)
            ]

            def run(i):
                trace = []
                for action in action_plans[i]:
                    reply = connections[i].step(
                        StepRequest(
                            session_id=sessions[i].session_id,
                            actions=[action],
                            observation_space_names=["value"],
                        )
                    )
                    trace.append(reply.observations[0])
                traces[i] = trace

            threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            # The waiting callers read the socket themselves.
            assert "repro-socket-reader" not in {t.name for t in threading.enumerate()}
        finally:
            for connection in owned:
                connection.close()
        return traces

    def test_shared_connection_traces_match_dedicated_connections(self):
        rng = random.Random(3)
        plans = [[rng.choice([0, 1]) for _ in range(8)] for _ in range(4)]
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            dedicated = self._trace_sessions(server.url, shared=False, action_plans=plans)
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            shared = self._trace_sessions(server.url, shared=True, action_plans=plans)
        assert shared == dedicated

    def test_out_of_order_replies_reach_the_callers_that_asked(self, monkeypatch):
        """8 callers x 200 calls on one connection whose replies complete out
        of order (per-call sleeps): whoever holds the reader role routes
        frames that are not its own and hands the role on when its own
        arrives first, so every caller sees exactly its own session's
        replies and nobody is left waiting for a reply already read."""
        rng = random.Random(5)
        monkeypatch.setattr(
            _SlowStepSession, "sleep_seconds", property(lambda self: rng.uniform(0, 1e-3))
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # Switch threads mid-protocol as often as possible.
        try:
            with ServiceServer(_slow_runtime(), session_timeout=None).start() as server:
                traces = self._trace_sessions(server.url, shared=True, action_plans=[[1] * 200] * 8)
        finally:
            sys.setswitchinterval(interval)
        assert traces == [list(range(i + 1, i + 201)) for i in range(8)]

    def test_concurrent_callers_overlap_on_one_socket(self):
        # The point of multiplexing: independent sessions driven through ONE
        # transport reach the daemon concurrently instead of queueing on a
        # client-side lock.
        _SlowStepSession.reset_tracking()
        with ServiceServer(_slow_runtime(), session_timeout=None).start() as server:
            with ServiceConnection(SocketTransport(server.url)) as connection:
                sessions = [
                    connection.start_session(
                        StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
                    )
                    for _ in range(3)
                ]

                def hammer(session):
                    connection.step(
                        StepRequest(session_id=session.session_id, actions=[1] * 2)
                    )

                threads = [
                    threading.Thread(target=hammer, args=(s,)) for s in sessions
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert _SlowStepSession.max_in_flight >= 2

    @pytest.mark.parametrize("callers", [1, 3])
    def test_connection_death_fails_every_in_flight_caller_without_retry(self, callers):
        # The daemon dying with calls in flight must fail EVERY caller
        # promptly and non-retryably — a lone caller reading its own reply,
        # or one reading and two parked behind it as followers. The daemon
        # survives with the session live, so a retried step() would be
        # applied twice.
        requests_seen = []

        def swallow_then_die(client):
            rfile = _serve_handshake(client)
            for _ in range(callers):
                requests_seen.append(read_frame(rfile))
            client.close()  # The daemon "dies" with the calls in flight.

        errors = []
        errors_lock = threading.Lock()

        with _fake_daemon(swallow_then_die, timeout=60.0) as (transport, daemon):
            transport.connect()

            def call_step(i):
                try:
                    transport.call("step", StepRequest(session_id=i, actions=[1]))
                except BaseException as error:  # noqa: BLE001 - collected for asserts
                    with errors_lock:
                        errors.append(error)

            threads = [
                threading.Thread(target=call_step, args=(i,)) for i in range(callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            # Nobody hangs until the 60s transport timeout...
            assert not any(thread.is_alive() for thread in threads)
            # ...and every caller got the non-retryable classification (the
            # requests DID reach the wire, so a retry could double-apply).
            assert len(errors) == callers
            for error in errors:
                assert isinstance(error, ServiceTransportError)
                assert "will not be retried" in str(error)
            # The daemon saw each request exactly once.
            daemon.join(timeout=5)
            assert len(requests_seen) == callers


# -- full environments over the socket transport ------------------------------


    def test_a_call_with_no_reply_fails_at_the_transport_timeout(self):
        """The receive deadline is the kernel's (``SO_RCVTIMEO``), not a
        poll before each receive: a request the daemon swallows fails once
        the transport timeout has passed, as a non-retryable error that
        retires the connection."""
        swallowed = threading.Event()
        release = threading.Event()

        def swallow(client):
            rfile = _serve_handshake(client)
            read_frame(rfile)
            swallowed.set()
            release.wait(10)
            client.close()

        with _fake_daemon(swallow, timeout=0.3) as (transport, daemon):
            transport.connect()
            dead = transport._conn
            assert dead.sock.gettimeout() is None
            started = time.monotonic()
            with pytest.raises(
                ServiceTransportError,
                match=r"No reply from tcp://127\.0\.0\.1:\d+ within 0\.3s: the call "
                r"may already be applied on the daemon and will not be retried",
            ):
                transport.call("step", StepRequest(session_id=0, actions=[1]))
            assert 0.3 <= time.monotonic() - started < 5
            assert swallowed.is_set() and dead.dead is not None
            release.set()
            daemon.join(timeout=5)


class TestSocketEnvEquivalence:
    """Beyond behaving like an in-process one (``tests/test_conformance.py``)."""

    def test_spec_records_service_url(self, llvm_daemon):
        env = _make_llvm_env(service_url=llvm_daemon.url)
        try:
            assert env.spec.kwargs["service_url"] == llvm_daemon.url
        finally:
            env.close()

    def test_custom_benchmark_fails_fast_over_daemon(self, llvm_daemon):
        from repro.errors import BenchmarkInitError

        env = _make_llvm_env(service_url=llvm_daemon.url)
        try:
            env.reset()
            custom = env.make_benchmark(
                env.observation["Ir"], uri="benchmark://user-v0/socket-test"
            )
            env.benchmark = custom
            with pytest.raises(BenchmarkInitError, match="resolved by the daemon"):
                env.reset()
        finally:
            env.close()


class TestDaemonPoolReuse:
    """Acceptance: sequential VecCompilerEnv pools against one daemon reuse
    its service process — workers become daemon sessions, and no new service
    subprocess is spawned for the second pool."""

    def _pool(self, url, n):
        return make_vec_env(
            env_id="llvm-v0",
            n=n,
            backend="thread",
            service_url=url,
            benchmark=BENCHMARK,
            observation_space="Autophase",
            reward_space="IrInstructionCount",
        )

    def test_sequential_pools_share_one_daemon(self, llvm_daemon):
        children_before = len(multiprocessing.active_children())
        sessions_before = llvm_daemon.runtime.stats["start_session"]

        with self._pool(llvm_daemon.url, 2) as pool1:
            pool1.reset()
            pool1.step([1, 2])
            info1 = pool1.workers[0].service.transport.server_info()
            # The forked workers stay on the root's multiplexed connection:
            # no per-worker handshake, and batched steps cover the whole pool.
            assert len({id(worker.service) for worker in pool1.workers}) == 1
        after_pool1 = llvm_daemon.runtime.stats["start_session"]
        assert after_pool1 >= sessions_before + 2

        with self._pool(llvm_daemon.url, 2) as pool2:
            pool2.reset()
            pool2.step([1, 2])
            info2 = pool2.workers[0].service.transport.server_info()

        # Same daemon process served both pools; its runtime accumulated the
        # second pool's sessions on top of the first's.
        assert info1["pid"] == info2["pid"]
        assert llvm_daemon.runtime.stats["start_session"] >= after_pool1 + 2
        # No service subprocess was spawned client-side for either pool.
        assert len(multiprocessing.active_children()) == children_before

    def test_daemon_pool_accepts_unpicklable_wrapper(self, llvm_daemon):
        """Wrappers are applied client-side, so any callable will do."""
        with make_vec_env(
            env_id="llvm-v0",
            n=2,
            backend="thread",
            service_url=llvm_daemon.url,
            benchmark=BENCHMARK,
            reward_space="IrInstructionCount",
            worker_wrapper=lambda e: TimeLimit(e, max_episode_steps=3),
        ) as pool:
            pool.reset()
            _, _, dones, _ = pool.step([1, 2])
            assert dones == [False, False]


class TestSocketStatsAggregation:
    """Connection stats of daemon-hosted and local sessions come out of the
    same summary pipeline."""

    def test_daemon_and_local_summaries_merge(self, llvm_daemon):
        remote = _make_llvm_env(service_url=llvm_daemon.url)
        local = _make_llvm_env()
        try:
            for env in (remote, local):
                env.reset()
                env.step(1)
                summary = env.service.stats_summary()
                assert summary["step"]["calls"] == env.service.stats["step"].calls >= 1
                assert summary["start_session"]["calls"] == 1
                assert summary["get_spaces"]["calls"] == 1
        finally:
            remote.close()
            local.close()

    def test_a_pool_accounts_its_steps_alike_batched_or_fanned_out(self, llvm_daemon):
        def calls_made(worker_wrapper):
            with VecCompilerEnv(
                _make_llvm_env(service_url=llvm_daemon.url),
                n=3,
                backend="thread",
                worker_wrapper=worker_wrapper,
            ) as vec:
                vec.reset()
                before = vec.connection_stats()
                for action in (1, 2):
                    vec.step([action] * 3)
                after = vec.connection_stats()
            return {
                method: after.get(method, {}).get("calls", 0)
                - before.get(method, {}).get("calls", 0)
                for method in ("step", "step_sessions")
            }

        # Two pool steps of three workers are six worker steps either way.
        assert calls_made(None) == {"step": 6, "step_sessions": 2}
        # A wrapped worker opts the pool out of batching: one RPC per worker.
        fanned_out = calls_made(lambda worker: TimeLimit(worker, max_episode_steps=10))
        assert fanned_out == {"step": 6, "step_sessions": 0}


class _RefusesGetSpaces(ServiceTransport):
    """Connects, then fails the first question a connection asks."""

    shutdowns = 0

    def call(self, method, *args):
        raise ServiceError(f"refused {method}")

    def shutdown(self) -> None:
        self.shutdowns += 1


class TestConnectionSpaces:
    """Every connection, over any transport, asks its service for its spaces
    once; none remembers another's answer."""

    @pytest.mark.parametrize("family", ["tcp", "unix"])
    def test_a_reused_address_serves_the_new_daemons_spaces(self, family, tmp_path):
        """The client outlives a daemon (another process, so nothing of the
        daemon's shutdown reaches the client) and meets its successor."""

        def action_spaces_served(env_id, **where):
            daemon = SpawnedDaemon(env_id, session_timeout=None, **where)
            try:
                with ServiceConnection(SocketTransport(daemon.url)) as connection:
                    assert connection.stats["get_spaces"].calls == 1
                    return daemon.url, [message.name for message in connection.spaces.action_spaces]
            finally:
                daemon.stop()

        where = {"unix_path": str(tmp_path / "daemon.sock")} if family == "unix" else {"port": 0}
        url, names = action_spaces_served("llvm-v0", **where)
        assert names == ["PhaseOrdering"]
        if family == "tcp":
            where = {"port": parse_service_url(url)[1][1]}
        assert action_spaces_served("gcc-v0", **where) == (url, ["Categorical", "Choices"])

    def test_failed_first_call_shuts_the_transport_down(self):
        transport = _RefusesGetSpaces()
        with pytest.raises(ServiceError, match="refused get_spaces"):
            ServiceConnection(transport)
        assert transport.shutdowns == 1


# -- spec picklability (required by the remote transports) --------------------


class TestSpecPickling:
    def test_default_spec_roundtrips(self):
        spec = ObservationSpaceSpec(
            "value", 0, Scalar(min=0, max=None, dtype=int), default_value=0
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.translate(41) == 41
        assert clone.to_string(41) == "41"

    def test_unpicklable_callables_degrade_to_defaults(self):
        spec = ObservationSpaceSpec(
            "value",
            0,
            Scalar(min=0, max=None, dtype=int),
            translate=lambda value: value * 2,
            to_string=lambda value: f"<{value}>",
        )
        assert spec.translate(4) == 8
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.translate(4) == 4
        assert clone.to_string(4) == "4"

    def test_get_spaces_reply_is_picklable(self):
        runtime = CompilerGymServiceRuntime(
            session_type=_CounterSession, benchmark_resolver=_resolver
        )
        reply = pickle.loads(pickle.dumps(runtime.get_spaces()))
        assert [s.name for s in reply.action_spaces] == ["counter"]
