"""The versioned binary wire format of the compiler service protocol.

Every byte that crosses a process boundary in this project — socket RPCs to
a daemon or gateway, whoever started it — is framed and encoded by this
module. It is the single source of truth for the wire conventions:

* the ``(status, payload)`` reply convention (:data:`REPLY_OK` /
  :data:`REPLY_ERROR`) and its degrade-on-unpicklable fallback
  (:func:`reply_frame`);
* the socket frame layout — one version byte, a big-endian uint64 length
  prefix, then the encoded payload (:func:`frame_bytes`, :func:`recv_frame`);
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

**Codec.** Version 5 (:class:`TypedCodec`). A frame's payload is one fixed
envelope, pickled as a plain 3-tuple: a request is ``(request_id, method,
args)`` and a reply ``(request_id, status, payload)``, the id an ``int`` and
the method or status a ``str``. The decoder checks that shape before
anything else. The third item is first lowered, in one pass, to a tagged
primitive structure in which every registered protocol message (see
:func:`wire_message`) travels *by registry name*, not by pickle's module
path, as a positional tuple ``("M", tag, v0, v1, ...)``: its fields in
declaration order, the trailing ones that equal their defaults dropped. It
is rebuilt as ``cls(v0, v1, ...)``, a missing trailing field taking its
default; a value count outside the class's required and total field counts
is refused.

Each field has a *kind*, derived once from its annotation: a primitive
(``int``, ``str``, ``bool``, ``float``, ``bytes``, or an ``Optional`` of
one), a list of primitives, or anything else (a string forward reference
included). Primitives and primitive lists travel raw, without a tag or a
per-item lowering, and a value whose exact type does not match its field's
kind is refused with :class:`ServiceError` on both ends: the encoder fails
that one message, the decoder builds nothing. A field of any other kind is
lowered generically: containers under their own tags, a numeric numpy array
(bool, integer, float or complex, any byte order or layout) as ``(dtype,
shape, order, raw bytes)``, so the numeric observations are never pickled.
Values outside the registry and the array tag (spaces, exceptions, the
Programl graph, non-numeric arrays) travel as explicitly-tagged opaque
pickles. Observations travel as their raw values.

The typed layer pins *what* a peer may say to the envelope, the registered
message vocabulary, raw numeric arrays and tagged opaque payloads. The
envelope and the opaque payloads are still pickle, so both are decoded by an
unpickler that builds no object of a class off an allow-list
(:func:`admitted_global`): the spaces, this project's errors, the builtin
exceptions, a few primitives and numpy's array and scalar constructors.
Anything else a frame names — a function that would run on load, say —
fails the decode with :class:`ServiceError`, as does any other malformed
payload: an envelope of another shape, an unknown tag or message name, a
field value off its kind, a container tag whose payload is not that
container, or an array whose dtype is not numeric or whose byte count does
not match its shape (checked before anything is allocated). That holds
before authentication, too: tokens gate *who* may speak. Until a connection
has authenticated, a server reads no frame larger than
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
import types
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple, Type, Union, get_args, get_origin

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
WIRE_VERSION = 5

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

# The kinds of a message field, derived once from its annotation (see
# field_kinds). A primitive field or a primitive list travels raw, checked by
# exact type on both ends; a field of any other kind is lowered generically.
KIND_PRIMITIVE = "primitive"
KIND_PRIMITIVE_LIST = "primitive list"
KIND_ANY = "any"

# The annotations a primitive field may have, alone or as an Optional.
_WIRE_PRIMITIVES = (int, str, bool, float, bytes)
_UNION_ORIGINS = (Union,) + ((types.UnionType,) if hasattr(types, "UnionType") else ())

# Registry name -> registered class.
_REGISTERED: Dict[str, Type] = {}
# Registry name -> the function rebuilding a message from its lowered tuple:
# the decode table.
_MESSAGE_RAISERS: Dict[str, Callable[[tuple], Any]] = {}
# Exact type -> the function lowering a value of it: the encode table. Holds
# a lowerer per registered message class (built once, by wire_message) beside
# the containers' and the numeric array's.
_LOWERERS: Dict[Type, Callable[[Any], Any]] = {}


def _primitive_types(annotation: Any) -> FrozenSet[type]:
    """The exact types a value annotated ``annotation`` may have if it is a
    primitive, or an ``Optional`` of one; empty for anything else."""
    if annotation in _WIRE_PRIMITIVES:
        return frozenset((annotation,))
    if get_origin(annotation) in _UNION_ORIGINS:
        args = get_args(annotation)
        if len(args) == 2 and type(None) in args:
            (other,) = [arg for arg in args if arg is not type(None)]
            if other in _WIRE_PRIMITIVES:
                return frozenset((other, type(None)))
    return frozenset()


def _field_kind(annotation: Any) -> Tuple[str, FrozenSet[type]]:
    """``(kind, types)`` of a field: for a primitive the types its value may
    have, for a primitive list the types each item may have. A string
    (forward) reference is of kind "any"."""
    types_ = _primitive_types(annotation)
    if types_:
        return KIND_PRIMITIVE, types_
    if get_origin(annotation) is list:
        types_ = _primitive_types((get_args(annotation) or (Any,))[0])
        if types_:
            return KIND_PRIMITIVE_LIST, types_
    return KIND_ANY, frozenset()


def _describe_kind(kind: str, types_: FrozenSet[type]) -> str:
    names = " or ".join(sorted("None" if cls is type(None) else cls.__name__ for cls in types_))
    return f"a list of {names}" if kind == KIND_PRIMITIVE_LIST else names


def _kind_error(tag: str, name: str, kind: str, types_: FrozenSet[type], value: Any) -> ServiceError:
    got = type(value).__name__
    if kind == KIND_PRIMITIVE_LIST and type(value) is list:
        strays = {type(item).__name__ for item in value if type(item) not in types_}
        got = f"a list holding {' and '.join(sorted(strays))}"
    return ServiceError(f"{tag}.{name} must be {_describe_kind(kind, types_)}, not {got}")


def _elision_test(field: dataclasses.Field, var: str, const: str, namespace: dict) -> Optional[str]:
    """Source testing whether ``var`` equals the field's default, or ``None``
    if a value of this field is never dropped. Only a primitive default
    (compared by type and value, ``None`` and the bools by identity) or an
    empty list from ``default_factory=list`` is dropped."""
    if field.default is not dataclasses.MISSING:
        default = field.default
        if default is None or type(default) is bool:
            namespace[const] = default
            return f"{var} is {const}"
        if type(default) in _PRIMITIVE_TYPES:
            namespace[const] = default
            return f"type({var}) is type({const}) and {var} == {const}"
    elif field.default_factory is list:
        return f"type({var}) is list and not {var}"
    return None


def _compile_message(tag: str, cls: Type, kinds: Dict[str, Tuple[str, FrozenSet[type]]]):
    """The lowerer and the raiser of one registered class, generated once as
    straight-line code (as :mod:`dataclasses` generates ``__init__``): one
    read, one kind check and at most one lowering per field, no loop and no
    dict. A message travels as ``("M", tag, v0, v1, ...)`` in declaration
    order, its trailing default-valued fields dropped; it is rebuilt as
    ``cls(v0, v1, ...)``, the dropped fields taking their defaults."""
    fields = dataclasses.fields(cls)
    count = len(fields)
    required = sum(
        field.default is dataclasses.MISSING and field.default_factory is dataclasses.MISSING
        for field in fields
    )

    def refuse(index: int, value: Any):
        name = fields[index].name
        raise _kind_error(tag, name, *kinds[name], value)

    def refuse_count(got: int):
        span = f"{required} to {count}" if required < count else f"{count}"
        raise ServiceError(f"{tag} carries {span} field values, not {got}")

    namespace = {
        "cls": cls, "tag": tag, "M": _TAG_MESSAGE, "PRIMITIVE": _PRIMITIVE_TYPES,
        "lower_any": _lower, "raise_any": _raise_, "refuse": refuse,
        "refuse_count": refuse_count,
    }
    checks, lowered, raised = [], [], []
    for index, field in enumerate(fields):
        kind, types_ = kinds[field.name]
        var = f"v{index}"
        namespace[f"T{index}"] = types_
        if kind == KIND_PRIMITIVE and len(types_) == 1:
            (namespace[f"T{index}"],) = types_
            test = f"type({var}) is not T{index}"
        elif kind == KIND_PRIMITIVE:
            test = f"type({var}) not in T{index}"
        elif kind == KIND_PRIMITIVE_LIST:
            test = f"type({var}) is not list or not set(map(type, {var})) <= T{index}"
        else:
            test = None
        if test is None:
            lowered.append(f"({var} if type({var}) in PRIMITIVE else lower_any({var}))")
            raised.append(f"    if type({var}) not in PRIMITIVE: {var} = raise_any({var})")
        else:
            checks.append(f"    if {test}: refuse({index}, {var})")
            lowered.append(var)
            raised.append(f"    if {test}: refuse({index}, {var})")

    def as_tuple(items):
        return "(M, tag" + "".join(", " + item for item in items) + ")"

    lower = [f"def lower_{cls.__name__}(message):"]
    lower += [f"    v{index} = message.{field.name}" for index, field in enumerate(fields)]
    lower += checks
    end = count
    while end > required:
        test = _elision_test(fields[end - 1], f"v{end - 1}", f"D{end - 1}", namespace)
        if test is None:
            break
        lower.append(f"    if not ({test}): return {as_tuple(lowered[:end])}")
        end -= 1
    lower.append(f"    return {as_tuple(lowered[:end])}")

    raise_ = [f"def raise_{cls.__name__}(value):", "    n = len(value) - 2"]
    raise_.append(f"    if n < {required} or n > {count}: refuse_count(n)")
    for index in range(count):
        if index >= required:
            raise_.append(f"    if n == {index}: return cls({', '.join(f'v{i}' for i in range(index))})")
        raise_.append(f"    v{index} = value[{index + 2}]")
        raise_.append(raised[index])
    raise_.append(f"    return cls({', '.join(f'v{i}' for i in range(count))})")

    source = "\n".join(lower + [""] + raise_) + "\n"
    exec(compile(source, f"<wire message {tag}>", "exec"), namespace)
    return namespace[f"lower_{cls.__name__}"], namespace[f"raise_{cls.__name__}"]


def wire_message(cls=None, *, name: Optional[str] = None):
    """Class decorator registering a dataclass as a typed wire message.

    Registered messages are encoded by *registry name* rather than by
    pickle's module path, which is what makes the typed format stable across
    refactors: the name is the wire contract, the import location is not.
    Each field's kind is derived here from its annotation, and the class's
    lowerer and raiser are built here, once.
    """

    def register(message_cls):
        if not dataclasses.is_dataclass(message_cls):
            raise TypeError(f"wire_message requires a dataclass, got {message_cls!r}")
        tag = name or message_cls.__name__
        existing = _REGISTERED.get(tag)
        if existing is not None and existing is not message_cls:
            raise ValueError(f"Duplicate wire message tag {tag!r}")
        lower, raise_message = _compile_message(tag, message_cls, field_kinds(message_cls))
        _MESSAGE_RAISERS[tag] = raise_message
        _LOWERERS[message_cls] = lower
        _REGISTERED[tag] = message_cls
        return message_cls

    return register(cls) if cls is not None else register


def message_registry() -> Dict[str, Type]:
    """A snapshot of the registered wire message types, by tag."""
    return dict(_REGISTERED)


def field_kinds(message_cls: Type) -> Dict[str, Tuple[str, FrozenSet[type]]]:
    """The kind of each field of a message class, in declaration order, as
    its codec is built: ``(KIND_PRIMITIVE, types)``, ``(KIND_PRIMITIVE_LIST,
    item types)`` or ``(KIND_ANY, frozenset())``."""
    return {field.name: _field_kind(field.type) for field in dataclasses.fields(message_cls)}


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
# as themselves; every tuple in the lowered structure below the envelope
# starts with one of these tags, so user tuples (lowered to ("t", ...)) can
# never be confused with them.
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
    name = value[1] if len(value) > 1 else None
    raise_fields = _MESSAGE_RAISERS.get(name) if type(name) is str else None
    if raise_fields is None:
        raise ServiceError(f"Unknown wire message type: {name!r}")
    return raise_fields(value)


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


def _envelope_shape(envelope: Any) -> str:
    if type(envelope) is not tuple:
        return type(envelope).__name__
    names = [type(item).__name__ for item in envelope[:4]]
    return "(" + ", ".join(names + ["..."] * (len(envelope) > 4)) + ")"


class TypedCodec(Codec):
    """Wire version 5: a frame is one fixed envelope, registered messages
    travel as positional tuples and numeric arrays as raw buffers.

    A request is ``(request_id, method, args)`` and a reply ``(request_id,
    status, payload)``: a plain 3-tuple whose first item is an ``int`` and
    second a ``str``, checked by the decoder before anything else. Its third
    item is lowered in one pass, dispatching on each value's exact type —
    primitives raw, containers tagged, registered dataclasses by their own
    lowerer (see :func:`wire_message`), numeric arrays as ``("A", dtype,
    shape, order, bytes)``, anything else as a tagged opaque pickle — and the
    envelope is then serialized. An opaque value that will not pickle or
    that the peer would refuse is lowered as ``ServiceError("<Type>:
    <message>")`` if it is an exception, and otherwise fails the encode with
    :class:`ServiceError`; so does a field value that does not match its
    field's kind, and a message that is not an envelope. Decoding checks the
    same kinds before a message is built, and a message's value count
    against its fields; a container tag must hold that container, a flat
    list only primitives, and an array a numeric dtype, a shape of
    non-negative ints and exactly the bytes that shape needs. A payload that
    does not decode raises :class:`ServiceError`.
    """

    version = 5
    name = "typed"

    def encode(self, message: Any) -> bytes:
        if type(message) is tuple and len(message) == 3:
            request_id, head, body = message
            if type(request_id) is int and type(head) is str:
                if type(body) not in _PRIMITIVE_TYPES:
                    body = _lower(body)
                return pickle.dumps((request_id, head, body), protocol=pickle.HIGHEST_PROTOCOL)
        # Lowered all the same, so that a value that cannot travel says why,
        # as it would inside an envelope.
        _lower(message)
        raise ServiceError(f"Not a wire envelope: {_envelope_shape(message)}")

    def decode(self, data: bytes) -> Any:
        try:
            envelope = _unpickle(data)
            if (
                type(envelope) is not tuple
                or len(envelope) != 3
                or type(envelope[0]) is not int
                or type(envelope[1]) is not str
            ):
                raise ServiceError(
                    f"Malformed wire envelope: {_envelope_shape(envelope)}, "
                    "not (int, str, payload)"
                )
            request_id, head, body = envelope
            if type(body) not in _PRIMITIVE_TYPES:
                body = _raise_(body)
            return request_id, head, body
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


def reply_frame(request_id: Optional[int], status: str, payload: Any) -> bytes:
    """The frame of a ``(request_id, status, payload)`` reply, degrading an
    unencodable payload to a :class:`ServiceError`.

    *Any* encoding failure — ``__reduce__`` of an exotic payload can raise
    anything — degrades to an encodable :class:`ServiceError` instead of
    killing the serving thread (which would drop the connection after the
    request was already applied, tricking the client into a retry).

    A batch reply degrades slot by slot: each slot that does not encode
    becomes its own :class:`ServiceError`, and the slots that do still
    travel, since their steps were applied.
    """
    try:
        return frame_bytes((request_id, status, payload))
    except Exception as error:  # noqa: BLE001 - degrade, don't drop the connection
        try:
            return frame_bytes((request_id, status, _sendable_slots(payload)))
        except Exception:  # noqa: BLE001 - not a batch, or not the slots' fault
            return frame_bytes(
                (request_id, REPLY_ERROR, ServiceError(f"{type(payload).__name__} not sent: {error}"))
            )


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
                error=ServiceError(f"{type(result.reply).__name__} not sent: {error}"),
                wall_time_s=result.wall_time_s,
            )
    return reply


def recv_frame(sock, max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """Read one framed message off a socket with ``recv_into``.

    Raises ``EOFError`` on a cleanly closed stream and ``ConnectionError``
    on a version-skewed, truncated, or oversized frame. A frame whose
    version byte has no registered codec is refused here, before a single
    payload byte is read; one whose header announces more than
    ``max_bytes`` is refused before its payload is allocated or read.

    No byte past the frame's end is read, so every byte of the next frame
    is still in the kernel, where a readiness check can see it.
    """
    return _read_frame(sock.recv_into, max_bytes)


def read_frame(rfile, max_bytes: int = MAX_FRAME_BYTES) -> Any:
    """:func:`recv_frame` from a binary stream, with ``readinto``."""
    return _read_frame(rfile.readinto, max_bytes)


def _read_frame(readinto: Callable[[memoryview], int], max_bytes: int) -> Any:
    header = bytearray(FRAME_HEADER_BYTES)
    filled = readinto(header)
    if not filled:
        raise EOFError("Connection closed")
    while filled < FRAME_HEADER_BYTES:
        count = readinto(memoryview(header)[filled:])
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
        count = readinto(unfilled)
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
