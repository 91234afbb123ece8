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

**Codec.** Version 3 (:class:`TypedCodec`): the message graph is first
lowered, in one pass, to a tagged primitive structure in which every
registered protocol message (see :func:`wire_message`) travels as
``(tag, field-dict)`` *by registry name*, not by pickle's module path.
Decoding looks the tag up in the registry and rebuilds the dataclass from its
fields, ignoring unknown field names — so messages can gain fields, move
between modules, or be reordered without breaking the wire. A numeric numpy
array (bool, integer, float or complex, any byte order or layout) travels
under its own tag as ``(dtype, shape, order, raw bytes)``: the numeric
observations are never pickled. Values outside the registry and the array
tag (spaces, exceptions, the Programl graph, non-numeric arrays) travel as
explicitly-tagged opaque pickles.

The typed layer pins *what* a peer may say to the registered message
vocabulary, raw numeric arrays and tagged opaque payloads. Its envelope and
the opaque payloads are still pickle, so both are decoded by an unpickler
that builds no object of a class off an allow-list (:func:`admitted_global`):
the spaces, this project's errors, the builtin exceptions, a few primitives
and numpy's array and scalar constructors. Anything else a frame names — a
function that would run on load, say — fails the decode with
:class:`ServiceError`, as does any other malformed payload: an unknown tag or
message name, a container tag whose payload is not that container, or an
array whose dtype is not numeric or whose byte count does not match its
shape (checked before anything is allocated). That holds before
authentication, too: tokens gate *who* may speak. Until a connection has
authenticated, a server reads no frame larger than
:data:`UNAUTHENTICATED_MAX_FRAME_BYTES`. The encoder decodes each opaque
value by the same rule before sending it, so a value the peer would refuse
fails the one message that held it, not the connection.
"""

import dataclasses
import importlib
import io
import math
import pickle
import random
import struct
import sys
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Type

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
WIRE_VERSION = 3

# Frame header: the version byte, then the payload length, big-endian uint64.
_FRAME_HEADER = struct.Struct(">BQ")

# Upper bound on a single message; a frame header announcing more than this
# is treated as protocol corruption rather than honored with an allocation.
MAX_FRAME_BYTES = 1 << 31

# What a server reads from a connection that has not authenticated yet. The
# payload buffer is allocated from the header alone, so without this bound
# nine bytes from anyone who can connect would buy a 2 GiB allocation; a
# ``hello`` or ``heartbeat`` request is under 300 bytes.
UNAUTHENTICATED_MAX_FRAME_BYTES = 1 << 16


# -- typed message registry ---------------------------------------------------

# Registry name -> (dataclass, its field names), for every message allowed to
# travel typed: the decode table. Unknown field names are dropped against it.
_MESSAGE_DECODERS: Dict[str, Tuple[Type, FrozenSet[str]]] = {}
# Exact type -> the function lowering a value of it: the encode table. Holds
# a lowerer per registered message class (built once, by wire_message) beside
# the containers' and the numeric array's.
_LOWERERS: Dict[Type, Callable[[Any], Any]] = {}
_NO_DEFAULT = object()


def _message_lowerer(tag: str, message_cls: Type) -> Callable[[Any], Any]:
    """The lowering of one registered class: ``("M", tag, field-dict)``.

    Fields whose value *is* its declared default are omitted from the wire —
    the decoder rebuilds missing fields from the dataclass defaults (that is
    the schema-skew mechanism), and most messages are sparse (an Event sets
    one of its eight slots). Identity, not equality: only default singletons
    like None/True/False/interned small ints are safely elidable; anything
    else compares ``is``-false and travels explicitly.
    """
    fields = tuple(
        (f.name, f.default if f.default is not dataclasses.MISSING else _NO_DEFAULT)
        for f in dataclasses.fields(message_cls)
    )

    def lower_message(value: Any) -> tuple:
        lowered = {}
        for name, default in fields:
            item = getattr(value, name)
            if item is default:
                continue
            lowered[name] = item if type(item) in _PRIMITIVE_TYPES else _lower(item)
        return (_TAG_MESSAGE, tag, lowered)

    return lower_message


def wire_message(cls=None, *, name: Optional[str] = None):
    """Class decorator registering a dataclass as a typed wire message.

    Registered messages are encoded by *registry name* rather than by
    pickle's module path, which is what makes the typed format stable across
    refactors: the name is the wire contract, the import location is not.
    The class's encode and decode tables are built here, once.
    """

    def register(message_cls):
        if not dataclasses.is_dataclass(message_cls):
            raise TypeError(f"wire_message requires a dataclass, got {message_cls!r}")
        tag = name or message_cls.__name__
        existing = _MESSAGE_DECODERS.get(tag)
        if existing is not None and existing[0] is not message_cls:
            raise ValueError(f"Duplicate wire message tag {tag!r}")
        _MESSAGE_DECODERS[tag] = (
            message_cls,
            frozenset(f.name for f in dataclasses.fields(message_cls)),
        )
        _LOWERERS[message_cls] = _message_lowerer(tag, message_cls)
        return message_cls

    return register(cls) if cls is not None else register


def message_registry() -> Dict[str, Type]:
    """A snapshot of the registered wire message types, by tag."""
    return {tag: cls for tag, (cls, _) in _MESSAGE_DECODERS.items()}


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
_TAG_ARRAY = "A"
_TAG_OPAQUE = "P"
_TAG_LIST = "l"
_TAG_FLAT_LIST = "F"  # list of primitives only: no per-item lowering needed
_TAG_TUPLE = "t"
_TAG_DICT = "d"

# The types that travel as themselves, by exact type: a primitive *subclass*
# (``np.float64``, an ``IntEnum``) is an opaque value. ``set(map(type, ...))
# <= this`` checks a whole list in C, where a per-item genexpr would dominate
# the cost of a long observation vector.
_PRIMITIVE_TYPES = frozenset((type(None), bool, int, float, str, bytes))

# Every dtype an array may travel raw with, by ``dtype.str``: bool and every
# builtin integer, float and complex type, in both byte orders. A frame's
# array names its dtype by one of these strings or is refused; nothing else
# it names is parsed.
_ARRAY_DTYPES: Dict[str, np.dtype] = {
    dtype.str: dtype
    for code in "?" + np.typecodes["AllInteger"] + np.typecodes["AllFloat"]
    for dtype in (np.dtype(code), np.dtype(code).newbyteorder())
}
# The same table the other way, for the encoder: a dtype is looked up by
# equality (``dtype.str`` builds a new string on every read).
_ARRAY_DTYPE_NAMES: Dict[np.dtype, str] = {
    dtype: name for name, dtype in _ARRAY_DTYPES.items()
}
# numpy's own bound on an array's dimensions; it also bounds the work of
# checking a frame's shape.
_MAX_ARRAY_DIMS = 64


def _lower(value: Any) -> Any:
    """Lower one value: primitives raw, everything else tagged."""
    cls = type(value)
    if cls in _PRIMITIVE_TYPES:
        return value
    lower = _LOWERERS.get(cls)
    if lower is not None:
        return lower(value)
    # A container subclass travels as its container.
    if isinstance(value, list):
        return _lower_list(list(value))
    if isinstance(value, tuple):
        return _lower_tuple(value)
    if isinstance(value, dict):
        return _lower_dict(value)
    return _lower_opaque(value)


def _lower_list(value: list) -> tuple:
    # Observation vectors are long lists of floats; skipping per-item
    # lowering (and per-item raising on the peer) dominates codec cost.
    if set(map(type, value)) <= _PRIMITIVE_TYPES:
        return (_TAG_FLAT_LIST, value)
    return (_TAG_LIST, [_lower(item) for item in value])


def _lower_tuple(value: tuple) -> tuple:
    return (
        _TAG_TUPLE,
        tuple([item if type(item) in _PRIMITIVE_TYPES else _lower(item) for item in value]),
    )


def _lower_dict(value: dict) -> tuple:
    if not set(map(type, value)) <= _PRIMITIVE_TYPES:
        # Keys travel as themselves: a dict keyed by anything else is an
        # opaque value, so its keys are checked by the peer's rule too.
        return _lower_opaque(value)
    return (
        _TAG_DICT,
        {
            key: item if type(item) in _PRIMITIVE_TYPES else _lower(item)
            for key, item in value.items()
        },
    )


def _lower_array(value: np.ndarray) -> tuple:
    """A numeric array as ``("A", dtype, shape, order, raw bytes)``: its
    bytes in C order, or in Fortran order if that is its layout (a strided
    view is copied to C order). Any other array is an opaque value."""
    dtype = value.dtype
    if dtype.kind not in "biufc" or dtype.metadata is not None:
        return _lower_opaque(value)
    name = _ARRAY_DTYPE_NAMES.get(dtype)
    if name is None:  # A number type numpy does not build in.
        return _lower_opaque(value)
    flags = value.flags
    order = "F" if flags.f_contiguous and not flags.c_contiguous else "C"
    return (_TAG_ARRAY, name, value.shape, order, value.tobytes(order))


def _lower_opaque(value: Any) -> tuple:
    """Spaces, exceptions and the rest travel as an explicitly-tagged opaque
    pickle: the escape hatch is visible on the wire instead of being the
    whole format. It is decoded here by the peer's own rule, so what the
    peer would refuse fails this message and never the connection it would
    travel on."""
    try:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        _unpickle(payload)
    except Exception as error:  # noqa: BLE001 - __reduce__ may raise anything
        cls = type(value)
        if isinstance(value, BaseException):
            # An exception that will not pickle (one holding a lambda,
            # say) or that the peer would refuse still says what went
            # wrong, and fails only its own slot of a batched reply.
            return _lower(ServiceError(f"{cls.__name__}: {value}"))
        raise ServiceError(
            f"Cannot send a {cls.__module__}.{cls.__qualname__}: {error}"
        ) from error
    return (_TAG_OPAQUE, payload)


_LOWERERS.update({
    list: _lower_list,
    tuple: _lower_tuple,
    dict: _lower_dict,
    np.ndarray: _lower_array,
})


def _raise_(value: Any) -> Any:
    """Rebuild one lowered value, checking its tag and its payload's type."""
    if type(value) in _PRIMITIVE_TYPES:
        return value
    if type(value) is not tuple or not value:
        raise ServiceError(f"Malformed typed wire payload: {type(value).__name__}")
    raise_tagged = _RAISERS.get(value[0])
    if raise_tagged is None:
        raise ServiceError(f"Unknown typed wire tag: {value[0]!r}")
    return raise_tagged(value)


def _malformed(tag: str, payload: Any) -> ServiceError:
    return ServiceError(f"Malformed {tag!r} payload: {type(payload).__name__}")


def _raise_message(value: tuple) -> Any:
    _, name, fields = value
    decoder = _MESSAGE_DECODERS.get(name)
    if decoder is None:
        raise ServiceError(f"Unknown wire message type: {name!r}")
    if type(fields) is not dict:
        raise _malformed(_TAG_MESSAGE, fields)
    cls, known = decoder
    return cls(**{
        key: item if type(item) in _PRIMITIVE_TYPES else _raise_(item)
        for key, item in fields.items()
        if key in known
    })


def _raise_array(value: tuple) -> np.ndarray:
    """A writable copy of a raw array, built only once its dtype, shape and
    byte count have been checked: nothing is allocated from the shape."""
    _, name, shape, order, data = value
    dtype = _ARRAY_DTYPES.get(name) if type(name) is str else None
    if dtype is None:
        raise ServiceError(f"Refused array dtype {name!r}: not a number type")
    if (
        type(shape) is not tuple
        or len(shape) > _MAX_ARRAY_DIMS
        or not all(type(n) is int and n >= 0 for n in shape)
    ):
        raise ServiceError(f"Malformed array shape {shape!r}")
    if type(order) is not str or order not in ("C", "F"):
        raise ServiceError(f"Malformed array order {order!r}")
    if type(data) is not bytes or len(data) != dtype.itemsize * math.prod(shape):
        raise ServiceError(f"Array data does not fill its shape {shape} of {name}")
    array = np.frombuffer(data, dtype)
    if len(shape) != 1:
        array = array.reshape(shape, order=order)
    return array.copy(order)


def _raise_flat_list(value: tuple) -> list:
    _, items = value
    if type(items) is not list or not set(map(type, items)) <= _PRIMITIVE_TYPES:
        raise _malformed(_TAG_FLAT_LIST, items)
    return items


def _raise_list(value: tuple) -> list:
    _, items = value
    if type(items) is not list:
        raise _malformed(_TAG_LIST, items)
    return [item if type(item) in _PRIMITIVE_TYPES else _raise_(item) for item in items]


def _raise_tuple(value: tuple) -> tuple:
    _, items = value
    if type(items) is not tuple:
        raise _malformed(_TAG_TUPLE, items)
    return tuple([item if type(item) in _PRIMITIVE_TYPES else _raise_(item) for item in items])


def _raise_dict(value: tuple) -> dict:
    _, items = value
    if type(items) is not dict:
        raise _malformed(_TAG_DICT, items)
    return {
        key: item if type(item) in _PRIMITIVE_TYPES else _raise_(item)
        for key, item in items.items()
    }


def _raise_opaque(value: tuple) -> Any:
    _, payload = value
    if type(payload) is not bytes:
        raise _malformed(_TAG_OPAQUE, payload)
    return _unpickle(payload)


_RAISERS: Dict[str, Callable[[tuple], Any]] = {
    _TAG_MESSAGE: _raise_message,
    _TAG_ARRAY: _raise_array,
    _TAG_OPAQUE: _raise_opaque,
    _TAG_LIST: _raise_list,
    _TAG_FLAT_LIST: _raise_flat_list,
    _TAG_TUPLE: _raise_tuple,
    _TAG_DICT: _raise_dict,
}


class TypedCodec(Codec):
    """Wire version 3: registered messages travel as ``(tag, fields)`` pairs
    and numeric arrays as raw buffers.

    The message graph is lowered in one pass, dispatching on each value's
    exact type — primitives raw, containers tagged, registered dataclasses
    as ``("M", tag, field-dict)``, numeric arrays as ``("A", dtype, shape,
    order, bytes)``, anything else as a tagged opaque pickle — and that
    structure is then serialized. An opaque value that will not pickle or
    that the peer would refuse is lowered as ``ServiceError("<Type>:
    <message>")`` if it is an exception, and otherwise fails the encode with
    :class:`ServiceError`. Decoding validates every message tag against the
    registry and drops unknown field names, giving one version of schema
    skew for free (new fields fall back to the dataclass defaults on an old
    peer); a container tag must hold that container, a flat list only
    primitives, and an array a numeric dtype, a shape of non-negative ints
    and exactly the bytes that shape needs. A payload that does not decode
    raises :class:`ServiceError`.
    """

    version = 3
    name = "typed"

    def encode(self, message: Any) -> bytes:
        return pickle.dumps(_lower(message), protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, data: bytes) -> Any:
        try:
            return _raise_(_unpickle(data))
        except ServiceError:
            raise
        except Exception as error:  # noqa: BLE001 - arbitrary bytes raise anything
            raise ServiceError(
                f"Malformed wire payload: {type(error).__name__}: {error}"
            ) from error


#: Every wire version this build can decode, by version byte. A frame
#: announcing any other version is refused on its first byte.
CODECS: Dict[int, Codec] = {WIRE_VERSION: TypedCodec()}


# -- framing ------------------------------------------------------------------


#: Size of the fixed frame header: one version byte plus the uint64 length
#: prefix. Fault injectors that corrupt frames in flight preserve exactly
#: this many leading bytes so the receiver reads a plausible frame of the
#: right length and fails in its *decoder*, not on the length prefix.
FRAME_HEADER_BYTES = _FRAME_HEADER.size


def frame_bytes(message: Any) -> bytes:
    """Serialize one message to its on-the-wire frame: version byte,
    length prefix, encoded payload."""
    data = CODECS[WIRE_VERSION].encode(message)
    return _FRAME_HEADER.pack(WIRE_VERSION, len(data)) + data


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

    A batch reply degrades slot by slot: each slot that does not encode
    becomes its own :class:`ServiceError`, and the slots that do still
    travel, since their steps were applied.
    """
    try:
        frame = frame_bytes((request_id, status, payload))
    except Exception as error:  # noqa: BLE001 - degrade, don't drop the connection
        try:
            frame = frame_bytes((request_id, status, _sendable_slots(payload)))
        except Exception:  # noqa: BLE001 - not a batch, or not the slots' fault
            frame = frame_bytes(
                (request_id, REPLY_ERROR, ServiceError(f"{type(payload).__name__} not sent: {error}"))
            )
    wfile.write(frame)
    wfile.flush()


def _sendable_slots(reply: Any) -> Any:
    """The batch reply ``reply`` with each slot that does not encode replaced
    by a failed slot saying why. Raises :class:`TypeError` for anything that
    is not a batch reply."""
    # Imported here: the protocol messages register themselves with this
    # module, and this runs only when a reply did not encode.
    from repro.core.service.proto import SessionStepResult, StepSessionsReply

    if type(reply) is not StepSessionsReply:
        raise TypeError(f"{type(reply).__name__} is not a batch reply")
    for index, result in enumerate(reply.results):
        try:
            _lower(result)
        except Exception as error:  # noqa: BLE001 - __reduce__ may raise anything
            reply.results[index] = SessionStepResult(
                session_id=result.session_id, wall_time_s=result.wall_time_s,
                error=ServiceError(f"{type(result.reply).__name__} not sent: {error}"),
            )
    return reply


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
    version, length = _FRAME_HEADER.unpack(header)
    if version not in CODECS:
        raise ConnectionError(
            f"Unsupported wire protocol version {version}: this peer speaks "
            f"version {WIRE_VERSION} only"
        )
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
