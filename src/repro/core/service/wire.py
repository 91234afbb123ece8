"""The versioned binary wire format of the compiler service protocol.

Every byte that crosses a process boundary in this project — socket RPCs to
a daemon or gateway, whoever started it — is framed and encoded by this
module. It is the single source of truth for the wire conventions:

* the ``(status, payload)`` reply convention (:data:`REPLY_OK` /
  :data:`REPLY_ERROR`) and its degrade-on-unpicklable fallback
  (:func:`write_frame_reply`);
* the socket frame layout — one version byte, a big-endian uint64 length
  prefix, then the encoded payload (:func:`frame_bytes`, :func:`read_frame`);
* service URL parsing (:func:`parse_service_url`).

**Versioning.** Frames are self-describing: the leading byte names the
*wire version* the payload is encoded with, and each version maps to a
:class:`Codec` in :data:`CODECS`. This build speaks exactly one version,
:data:`WIRE_VERSION`, in both directions: every request and every reply is
framed at it, and nothing is negotiated. A frame whose version byte has no
registered codec (an older or newer peer, or garbage) is refused on that
byte with a :class:`ConnectionError`, never decoded. The byte is the upgrade
path: a future version is introduced by registering its codec here beside
the current one, and the frames of both then decode.

**Codec.** Version 2 (:class:`TypedPickleCodec`): the message graph is
first lowered to a tagged primitive structure in which every registered
protocol message (see :func:`wire_message`) travels as ``(tag, field-dict)``
*by registry name*, not by pickle's module path. Decoding looks the tag up
in the registry and rebuilds the dataclass from its fields, ignoring unknown
field names — so messages can gain fields, move between modules, or be
reordered without breaking the wire. Values outside the registry (numpy
arrays, spaces, exceptions) travel as explicitly-tagged opaque pickles.

The typed layer pins *what* a peer may say to the registered message
vocabulary plus tagged opaque payloads. Its envelope and the opaque payloads
are still pickle, so both are decoded by an unpickler that builds no object
of a class off an allow-list (:func:`admitted_global`): the spaces, this
project's errors, the builtin exceptions, a few primitives and numpy's array
and scalar constructors. Anything else a frame names — a function that would
run on load, say — fails the decode with :class:`ServiceError`, as does any
other malformed payload. That holds before authentication, too: tokens gate
*who* may speak. Until a connection has authenticated, a server reads no
frame larger than :data:`UNAUTHENTICATED_MAX_FRAME_BYTES`. The encoder
decodes each opaque value by the same rule before sending it, so a value the
peer would refuse fails the one message that held it, not the connection.
"""

import dataclasses
import importlib
import io
import pickle
import random
import struct
import sys
from typing import Any, Callable, Dict, Optional, Tuple, Type

import numpy as np

from repro.core.spaces import Space
from repro.errors import CompilerGymError, ServiceError

# Wire statuses of the request/reply protocol.
REPLY_OK = "ok"
REPLY_ERROR = "error"


def raise_remote_error(method: str, error: BaseException):
    """Raise, on the client, an error the service raised executing ``method()``.

    This project's own errors and lookup failures mean the same on both sides
    of the wire and are raised as they are. Any other exception was raised
    *inside* the service (a compiler crash mid-multistep, say) and reached us
    over a healthy channel: the request may be partially applied to a session
    that lives on, as do its siblings. It is wrapped in the non-retryable
    family so no retry loop can re-apply it; the environment's fault-tolerance
    path ends the episode instead. An ``error`` reply frame, a failed
    :class:`SessionStepResult` and an in-process runtime's exception are all
    read by this one rule.
    """
    if isinstance(error, (CompilerGymError, LookupError)):
        raise error
    raise ServiceError(
        f"Compiler service error in {method}(): {type(error).__name__}: {error}"
    ) from error

# The wire version this build speaks: the version byte of every frame it
# writes. Bump when the encoding changes incompatibly.
WIRE_VERSION = 2

# Frame header after the version byte: payload length, big-endian uint64.
_FRAME_HEADER = struct.Struct(">Q")

# Upper bound on a single message; a frame header announcing more than this
# is treated as protocol corruption rather than honored with an allocation.
MAX_FRAME_BYTES = 1 << 31

# What a server reads from a connection that has not authenticated yet. The
# payload buffer is allocated from the header alone, so without this bound
# nine bytes from anyone who can connect would buy a 2 GiB allocation; a
# ``hello`` or ``heartbeat`` request is under 300 bytes.
UNAUTHENTICATED_MAX_FRAME_BYTES = 1 << 16


# -- typed message registry ---------------------------------------------------

# Registry name -> dataclass, for every message allowed to travel typed.
_MESSAGE_REGISTRY: Dict[str, Type] = {}
_MESSAGE_TAGS: Dict[Type, str] = {}
# Per-class field names, precomputed at registration: dataclasses.fields()
# is too slow to call once per message on the encode/decode hot path.
_MESSAGE_FIELDS: Dict[Type, Tuple[str, ...]] = {}
# Per-class (name, default-singleton) pairs for the encoder. Fields whose
# value *is* its declared default are omitted from the wire — the decoder
# already reconstructs missing fields from dataclass defaults (that is the
# schema-skew mechanism), and most messages are sparse (an Event sets one
# of its eight slots). Identity, not equality: only default singletons like
# None/True/False/interned small ints are safely elidable; anything else
# compares ``is``-false and travels explicitly.
_NO_DEFAULT = object()
_MESSAGE_ENCODE_FIELDS: Dict[Type, Tuple[Tuple[str, Any], ...]] = {}


def wire_message(cls=None, *, name: Optional[str] = None):
    """Class decorator registering a dataclass as a typed wire message.

    Registered messages are encoded by *registry name* rather than by
    pickle's module path, which is what makes the typed format stable across
    refactors: the name is the wire contract, the import location is not.
    """

    def register(message_cls):
        if not dataclasses.is_dataclass(message_cls):
            raise TypeError(f"wire_message requires a dataclass, got {message_cls!r}")
        tag = name or message_cls.__name__
        existing = _MESSAGE_REGISTRY.get(tag)
        if existing is not None and existing is not message_cls:
            raise ValueError(f"Duplicate wire message tag {tag!r}")
        _MESSAGE_REGISTRY[tag] = message_cls
        _MESSAGE_TAGS[message_cls] = tag
        _MESSAGE_FIELDS[message_cls] = tuple(
            f.name for f in dataclasses.fields(message_cls)
        )
        _MESSAGE_ENCODE_FIELDS[message_cls] = tuple(
            (
                f.name,
                f.default if f.default is not dataclasses.MISSING else _NO_DEFAULT,
            )
            for f in dataclasses.fields(message_cls)
        )
        return message_cls

    return register(cls) if cls is not None else register


def message_registry() -> Dict[str, Type]:
    """A snapshot of the registered wire message types, by tag."""
    return dict(_MESSAGE_REGISTRY)


# -- what a frame may name ------------------------------------------------------

try:
    from numpy._core import multiarray as _np_multiarray, numeric as _np_numeric
except ImportError:  # numpy 1
    from numpy.core import multiarray as _np_multiarray, numeric as _np_numeric

# The globals no rule below derives: primitives, a space's sampling stream
# once it has drawn, and what numpy pickles an array (``_frombuffer``) or a
# scalar (``scalar``: ``np.float64`` is a float, so the codec passes it raw)
# down to, under numpy 2's module and numpy 1's.
_ADMITTED: Dict[Tuple[str, str], Any] = {
    ("builtins", cls.__name__): cls for cls in (int, str, float, bytes)
}
_ADMITTED[("random", "Random")] = random.Random
_ADMITTED[("numpy", "dtype")] = np.dtype
for _module in ("numpy._core", "numpy.core"):
    _ADMITTED[(f"{_module}.numeric", "_frombuffer")] = _np_numeric._frombuffer
    _ADMITTED[(f"{_module}.multiarray", "scalar")] = _np_multiarray.scalar

# The graph class of the Programl observation, admitted by name: networkx is
# imported only when a frame holds a graph.
_PROGRAML_GRAPH = ("networkx.classes.multidigraph", "MultiDiGraph")

# The modules a frame may have imported to find its class in: a backend's own
# spaces (on a client that never loaded the backend) and the Programl graph.
# Any other module a frame names must already be loaded, or it is refused.
IMPORTABLE_MODULES = frozenset({"repro.gcc.service", _PROGRAML_GRAPH[0]})


def admitted_global(module: str, name: str) -> Optional[Any]:
    """The object a frame may name as ``module.name``, or ``None``.

    Beyond the fixed entries above, the rule is by class, so a new space or
    error needs no edit here: a class defined in ``repro.core.spaces``, a
    :class:`~repro.core.spaces.Space` subclass (a backend's own space, whose
    module must be in :data:`IMPORTABLE_MODULES`), a
    :class:`CompilerGymError` subclass, or a builtin exception class.
    """
    found = _ADMITTED.get((module, name))
    if found is not None:
        return found
    owner = sys.modules.get(module)
    if owner is None and module in IMPORTABLE_MODULES:
        owner = importlib.import_module(module)
    cls = getattr(owner, name, None) if owner is not None else None
    if not isinstance(cls, type) or cls.__module__ != module:
        return None
    if (
        module == "builtins" and issubclass(cls, BaseException)
        or issubclass(cls, (CompilerGymError, Space))
        or module.startswith("repro.core.spaces.")
        or (module, name) == _PROGRAML_GRAPH
    ):
        _ADMITTED[(module, name)] = cls
        return cls
    return None


class _FrameUnpickler(pickle.Unpickler):
    """``pickle.loads`` that refuses every global off the allow-list."""

    def find_class(self, module: str, name: str) -> Any:
        found = admitted_global(module, name)
        if found is None:
            raise ServiceError(f"Refused to decode {module}.{name}: not a wire type")
        return found


def _unpickle(data: bytes) -> Any:
    return _FrameUnpickler(io.BytesIO(data)).load()


def _plain_array(value: Any) -> bool:
    """Whether numpy pickles ``value`` from admitted globals only: a
    contiguous array of native-order numbers without dtype metadata (what
    the numeric observations are) is ``_frombuffer`` over its bytes and a
    ``dtype``. An object or non-contiguous array pickles through
    ``_reconstruct``, which a peer refuses."""
    if type(value) is not np.ndarray:
        return False
    dtype = value.dtype
    return (
        dtype.kind in "biufc"
        and dtype.isnative
        and dtype.metadata is None
        and (value.flags.c_contiguous or value.flags.f_contiguous)
    )


# -- codecs -------------------------------------------------------------------


class Codec:
    """Encodes one message to payload bytes (and back) for one wire version."""

    version: int = 0
    name = "codec"

    def encode(self, message: Any) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes) -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(version={self.version})"


# Structure tags of the typed codec's lowered form. Raw primitives travel
# as themselves; every tuple in the lowered structure is one of these tags,
# so user tuples (lowered to ("t", ...)) can never be confused with them.
_TAG_MESSAGE = "M"
_TAG_OPAQUE = "P"
_TAG_LIST = "l"
_TAG_FLAT_LIST = "F"  # list of primitives only: no per-item lowering needed
_TAG_TUPLE = "t"
_TAG_DICT = "d"

_PRIMITIVES = (type(None), bool, int, float, str, bytes)
# Exact-type set for the flat-list scan: ``set(map(type, ...)) <= this`` runs
# the whole check in C, where a per-item isinstance() genexpr would dominate
# encode time for long observation vectors. Exactness is safe: a primitive
# *subclass* just falls back to the per-item tagged-list path.
_PRIMITIVE_TYPES = frozenset(_PRIMITIVES)


class TypedPickleCodec(Codec):
    """Wire version 2: registered messages travel as ``(tag, fields)`` pairs.

    The message graph is lowered to a primitive structure — primitives raw,
    containers tagged, registered dataclasses as ``("M", tag, field-dict)``,
    anything else as a tagged opaque pickle — and that structure is then
    serialized. An opaque value that will not pickle or that the peer would
    refuse is lowered as ``ServiceError("<Type>: <message>")`` if it is an
    exception, and otherwise fails the encode with :class:`ServiceError`.
    Decoding validates every message tag against the registry and drops
    unknown field names, giving one version of schema skew for free (new
    fields fall back to the dataclass defaults on an old peer). A payload
    that does not decode raises :class:`ServiceError`.
    """

    version = 2
    name = "typed-pickle"

    def encode(self, message: Any) -> bytes:
        return pickle.dumps(self._lower(message), protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> Any:
        try:
            return self._raise_(_unpickle(data))
        except ServiceError:
            raise
        except Exception as error:  # noqa: BLE001 - arbitrary bytes raise anything
            raise ServiceError(
                f"Malformed wire payload: {type(error).__name__}: {error}"
            ) from error

    def _lower(self, value: Any) -> Any:
        if isinstance(value, _PRIMITIVES):
            return value
        cls = type(value)
        tag = _MESSAGE_TAGS.get(cls)
        if tag is not None:
            lower = self._lower
            fields = {}
            for name, default in _MESSAGE_ENCODE_FIELDS[cls]:
                item = getattr(value, name)
                if item is default:
                    continue  # The decoder rebuilds it from the default.
                fields[name] = lower(item)
            return (_TAG_MESSAGE, tag, fields)
        if isinstance(value, list):
            # Observation vectors are long lists of floats; skipping per-item
            # lowering (and per-item raising on the peer) dominates codec cost.
            if cls is list and set(map(type, value)) <= _PRIMITIVE_TYPES:
                return (_TAG_FLAT_LIST, value)
            return (_TAG_LIST, [self._lower(item) for item in value])
        if isinstance(value, tuple):
            return (_TAG_TUPLE, tuple(self._lower(item) for item in value))
        if isinstance(value, dict):
            return (_TAG_DICT, {key: self._lower(item) for key, item in value.items()})
        # Everything else — numpy arrays, spaces, exceptions — travels as an
        # explicitly-tagged opaque pickle: the escape hatch is visible on the
        # wire instead of being the whole format. It is decoded here by the
        # peer's own rule, so what the peer would refuse fails this message
        # and never the connection it would travel on; a plain array, on
        # every step's reply, is known to pass.
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            if not _plain_array(value):
                _unpickle(payload)
        except Exception as error:  # noqa: BLE001 - __reduce__ may raise anything
            if isinstance(value, BaseException):
                # An exception that will not pickle (one holding a lambda,
                # say) or that the peer would refuse still says what went
                # wrong, and fails only its own slot of a batched reply.
                return self._lower(ServiceError(f"{cls.__name__}: {value}"))
            raise ServiceError(
                f"Cannot send a {cls.__module__}.{cls.__qualname__}: {error}"
            ) from error
        return (_TAG_OPAQUE, payload)

    def _raise_(self, value: Any) -> Any:
        if isinstance(value, _PRIMITIVES):
            return value
        if not isinstance(value, tuple) or not value:
            raise ServiceError(f"Malformed typed wire payload: {type(value).__name__}")
        tag = value[0]
        if tag == _TAG_MESSAGE:
            _, name, fields = value
            cls = _MESSAGE_REGISTRY.get(name)
            if cls is None:
                raise ServiceError(f"Unknown wire message type: {name!r}")
            known = _MESSAGE_FIELDS[cls]
            raise_ = self._raise_
            return cls(**{
                key: raise_(item)
                for key, item in fields.items()
                if key in known
            })
        if tag == _TAG_FLAT_LIST:
            return value[1]
        if tag == _TAG_LIST:
            return [self._raise_(item) for item in value[1]]
        if tag == _TAG_TUPLE:
            return tuple(self._raise_(item) for item in value[1])
        if tag == _TAG_DICT:
            return {key: self._raise_(item) for key, item in value[1].items()}
        if tag == _TAG_OPAQUE:
            return _unpickle(value[1])
        raise ServiceError(f"Unknown typed wire tag: {tag!r}")


#: Every wire version this build can decode, by version byte. A frame
#: announcing any other version is refused on its first byte.
CODECS: Dict[int, Codec] = {WIRE_VERSION: TypedPickleCodec()}


# -- framing ------------------------------------------------------------------


#: Size of the fixed frame header: one version byte plus the uint64 length
#: prefix. Fault injectors that corrupt frames in flight preserve exactly
#: this many leading bytes so the receiver reads a plausible frame of the
#: right length and fails in its *decoder*, not on the length prefix.
FRAME_HEADER_BYTES = 1 + _FRAME_HEADER.size


def corrupt_frame_payload(frame: bytes) -> bytes:
    """Flip every payload byte of a complete frame, preserving the header.

    Chaos-testing helper: the returned frame is structurally valid (version
    byte and length prefix intact) but its payload no longer decodes,
    modelling bit rot or a version-skewed peer on the wire.
    """
    corrupted = bytearray(frame)
    for i in range(FRAME_HEADER_BYTES, len(corrupted)):
        corrupted[i] ^= 0xA5
    return bytes(corrupted)


def frame_bytes(message: Any) -> bytes:
    """Serialize one message to its on-the-wire frame: version byte,
    length prefix, encoded payload."""
    data = CODECS[WIRE_VERSION].encode(message)
    return bytes([WIRE_VERSION]) + _FRAME_HEADER.pack(len(data)) + data


def write_frame(wfile, message: Any) -> None:
    """Write one version-prefixed, length-prefixed encoded message."""
    wfile.write(frame_bytes(message))
    wfile.flush()


def write_frame_reply(wfile, request_id: Optional[int], status: str, payload: Any) -> None:
    """Write a ``(request_id, status, payload)`` reply frame, degrading an
    unencodable payload to a :class:`ServiceError`.

    Encoding happens before any bytes hit the stream, and *any* encoding
    failure — ``__reduce__`` of an exotic payload can raise anything —
    degrades to an encodable :class:`ServiceError` instead of killing the
    serving thread (which would drop the connection after the request was
    already applied, tricking the client into a retry). Only genuine stream
    errors propagate.
    """
    try:
        frame = frame_bytes((request_id, status, payload))
    except Exception as error:  # noqa: BLE001 - degrade, don't drop the connection
        frame = frame_bytes(
            (request_id, REPLY_ERROR, ServiceError(f"{type(payload).__name__} not sent: {error}"))
        )
    wfile.write(frame)
    wfile.flush()


def read_frame(rfile, max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """Read one framed message from a binary stream.

    Raises ``EOFError`` on a cleanly closed stream and ``ConnectionError``
    on a version-skewed, truncated, or oversized frame. A frame whose
    version byte has no registered codec is refused here, before a single
    payload byte is read; one whose header announces more than
    ``max_bytes`` is refused before its payload is allocated or read.

    Only ``readinto`` is called, and never for a byte past the frame's end,
    so over an unbuffered socket stream every byte of the next frame is
    still in the kernel, where a readiness check can see it.
    """
    header = bytearray(FRAME_HEADER_BYTES)
    filled = rfile.readinto(header)
    if not filled:
        raise EOFError("Connection closed")
    while filled < FRAME_HEADER_BYTES:
        count = rfile.readinto(memoryview(header)[filled:])
        if not count:
            raise ConnectionError("Truncated frame header")
        filled += count
    version = header[0]
    if version not in CODECS:
        raise ConnectionError(
            f"Unsupported wire protocol version {version}: this peer speaks "
            f"version {WIRE_VERSION} only"
        )
    (length,) = _FRAME_HEADER.unpack_from(header, 1)
    if length > max_bytes:
        raise ConnectionError(f"Frame of {length} bytes exceeds protocol maximum")
    data = bytearray(length)
    unfilled = memoryview(data)
    while unfilled:
        count = rfile.readinto(unfilled)
        if not count:
            raise ConnectionError("Truncated frame payload")
        unfilled = unfilled[count:]
    return CODECS[version].decode(data)


# -- service URLs -------------------------------------------------------------


def parse_service_url(url: str) -> Tuple[str, Any]:
    """Parse a service URL into ``(family, address)``.

    Accepted forms: ``tcp://host:port``, ``host:port`` (TCP is implied),
    ``unix:///path/to/socket``, and bracketed IPv6 literals
    (``tcp://[::1]:port``).
    """
    if url.startswith("unix://"):
        path = url[len("unix://"):]
        if not path:
            raise ValueError(f"Service URL has no socket path: {url!r}")
        return "unix", path
    if url.startswith("tcp://"):
        url = url[len("tcp://"):]
    host, sep, port = url.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"Invalid service URL {url!r}: expected tcp://host:port, "
            "host:port, or unix:///path"
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        return "tcp", (host, int(port))
    except ValueError:
        raise ValueError(f"Invalid service port in URL: {url!r}") from None
