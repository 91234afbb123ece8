"""IR values: constants, arguments, globals.

Every operand of an instruction is a :class:`Value`. Instructions themselves
are values (they produce a result that other instructions use), as are
function arguments, constants, global variables, and functions.

A :class:`Constant` is interned, as LLVM uniques its constants per context:
there is one object per (type, value), immutable and shared by every module,
clone and pass, so ``is`` is its equality. It keeps no use list.
"""

import threading
from typing import Dict, List
from weakref import KeyedRef
from _weakref import _remove_dead_weakref

from repro.llvm.ir.journal import RECORDING
from repro.llvm.ir.types import I32, PTR, Type

# What a value that keeps no use list has for ``uses``: a void instruction
# (``store``, ``br``, ``ret``, ...), which can never be an operand, and every
# constant, which is shared by too many instructions in too many modules for
# a list of them to mean anything. Read-only, so nothing can write into it.
NO_USES: tuple = ()


def _use(value: "Value", user) -> None:
    """Register one more operand slot of ``user`` holding ``value``.

    A constant registers nothing. Every other value has a use list, except a
    void instruction, which may not be an operand: its ``NO_USES`` refuses
    the write.
    """
    if type(value) is not Constant:
        value.uses.append(user)


def _unuse(value: "Value", user) -> None:
    """Unregister one operand slot of ``user`` holding ``value``."""
    if type(value) is not Constant:
        value.uses.remove(user)


class Value:
    """Base class for everything that can appear as an instruction operand.

    Attributes:
        uses: The instructions that hold this value as an operand, one entry
            per operand *slot* (``add %x, %x`` lists the ``add`` twice), in
            the order the slots were written. Kept current by the mutation
            surface of :class:`~repro.llvm.ir.instructions.Instruction` —
            construction, ``set_operand``/``set_operands``, ``erase`` — and
            written nowhere else; there is no "unbuilt" state. An instruction
            unlinked with ``BasicBlock.remove`` still uses its operands (it is
            about to be re-inserted); one that was ``erase``d does not.
            A value that keeps no use list — a constant, a void
            instruction — has the shared, empty, read-only ``NO_USES``. The
            mutation surface registers nothing for a constant, so which
            slots hold one cannot be found through ``uses``; a void
            instruction is never an operand.

    The classes a module holds by the thousand declare ``__slots__``: an
    instruction is then one object the collector tracks instead of two, a
    third smaller, and quicker for ``Module.clone()`` to copy — which is what
    pays for the use lists. (:class:`Function` does not bother.)
    """

    __slots__ = ("type", "name", "uses")

    def __init__(self, type: Type, name: str = ""):  # noqa: A002
        self.type = type
        self.name = name
        self.uses: List = []

    @property
    def is_constant(self) -> bool:
        return False

    def short(self) -> str:
        """Render the value as an operand reference (e.g. ``%x`` or ``42``)."""
        return f"%{self.name}"

    def replace_all_uses_with(self, new: "Value") -> int:
        """Rewrite every operand slot that holds this value to hold ``new``.

        Returns the number of slots rewritten. Costs this value's use count,
        not the size of the function. A constant keeps no use list, so it
        cannot be replaced this way (``TypeError``): scan the operands.
        """
        if type(self) is Constant:
            raise TypeError(f"{self!r} keeps no use list: scan the operands for its slots")
        uses = self.uses
        if not uses or new is self:
            return 0
        undo = RECORDING.undo
        slots = None
        if undo is not None:
            slots = []
            undo.append((_restore_uses, self, new, uses, slots))
        for user in uses:
            _use(new, user)
            operands = user.operands
            for index, operand in enumerate(operands):
                if operand is self:
                    operands[index] = new
                    if slots is not None:
                        slots.append((user, index))
        self.uses = []
        return len(uses)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.short()}: {self.type})"


def _restore_uses(value: Value, new: Value, uses: List, slots: List[tuple]) -> None:
    """Undo ``value.replace_all_uses_with(new)``."""
    for user, index in slots:
        user.operands[index] = value
    for user in uses:
        _unuse(new, user)
    value.uses = uses


def _pool_key(type: Type, value) -> tuple:  # noqa: A002
    """What tells two constants apart: everything that prints differently.

    ``0``, ``0.0`` and ``False`` compare equal but are of different classes;
    ``0.0`` and ``-0.0`` compare equal and NaN equals nothing, so a float is
    keyed by its ``repr``.
    """
    cls = value.__class__
    return (type, cls, repr(value) if cls is float else value)


class Constant(Value):
    """A compile-time constant scalar: interned, immutable and shared.

    ``Constant(type, value)`` returns the one object for that key (see
    :func:`_pool_key`), making it on first sight; every module, clone and
    pass shares it, and ``copy``, ``deepcopy`` and pickle return it too, so
    two constants are equal exactly when they are the same object. The pool
    holds its constants weakly: one that no module holds goes away. A miss
    takes the pool's lock, so two threads that miss on the same key still
    get one object.

    A constant registers no users: its ``uses`` is ``NO_USES``, and no field
    can be assigned.
    """

    __slots__ = ("value", "__weakref__")

    uses = NO_USES

    # Key -> a weak reference to the constant. A dead reference's callback
    # removes its entry, unless a new constant has taken the key since.
    _pool: Dict[tuple, KeyedRef] = {}
    _pool_lock = threading.Lock()

    def __new__(cls, type: Type, value):  # noqa: A002
        key = _pool_key(type, value)
        ref = cls._pool.get(key)
        if ref is not None:
            constant = ref()
            if constant is not None:
                return constant
        with cls._pool_lock:
            ref = cls._pool.get(key)
            constant = None if ref is None else ref()
            if constant is None:
                constant = object.__new__(cls)
                object.__setattr__(constant, "type", type)
                object.__setattr__(constant, "name", str(value))
                object.__setattr__(constant, "value", value)
                cls._pool[key] = KeyedRef(constant, _forget, key)
        return constant

    def __init__(self, type: Type, value):  # noqa: A002
        """Everything was set by ``__new__``, once per key."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{self!r} is a shared constant: {name!r} cannot be assigned")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{self!r} is a shared constant: {name!r} cannot be deleted")

    def __copy__(self) -> "Constant":
        return self

    def __deepcopy__(self, memo) -> "Constant":
        return self

    def __reduce__(self):
        return (Constant, (self.type, self.value))

    @property
    def is_constant(self) -> bool:
        return True

    def short(self) -> str:
        return str(self.value)


def _forget(ref: KeyedRef, pool: Dict[tuple, KeyedRef] = Constant._pool) -> None:
    """Drop a dead constant's pool entry (its reference's callback)."""
    _remove_dead_weakref(pool, ref.key)


class Argument(Value):
    """A formal argument of a function."""

    __slots__ = ()

    def __init__(self, name: str, type: Type = I32):  # noqa: A002
        super().__init__(type, name=name)


class GlobalVariable(Value):
    """A module-level global variable.

    Globals are always of pointer type (they denote an address); the
    ``initializer`` (one scalar, replicated ``array_size`` times) and
    ``element_type`` describe the pointed-to storage.
    """

    __slots__ = ("element_type", "initializer", "is_constant_global", "array_size")

    def __init__(
        self,
        name: str,
        element_type: Type = I32,
        initializer=0,
        is_constant_global: bool = False,
        array_size: int = 1,
    ):
        super().__init__(PTR, name=name)
        self.element_type = element_type
        self.initializer = initializer
        self.is_constant_global = is_constant_global
        self.array_size = array_size

    def short(self) -> str:
        return f"@{self.name}"


class UndefValue(Value):
    """The undefined value, produced when a use has no defined reaching value."""

    __slots__ = ()

    def __init__(self, type: Type = I32):  # noqa: A002
        super().__init__(type, name="undef")

    def short(self) -> str:
        return "undef"
