"""IR values: constants, arguments, globals.

Every operand of an instruction is a :class:`Value`. Instructions themselves
are values (they produce a result that other instructions use), as are
function arguments, constants, global variables, and functions.
"""

from typing import List

from repro.llvm.ir.journal import RECORDING
from repro.llvm.ir.types import I32, PTR, Type

# What a void instruction (``store``, ``br``, ``ret``, ...) has for ``uses``:
# it can never be an operand, so it needs no list of its own.
NO_USES: tuple = ()


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
        not the size of the function.
        """
        uses = self.uses
        if not uses or new is self:
            return 0
        undo = RECORDING.undo
        slots = None
        if undo is not None:
            slots = []
            undo.append((_restore_uses, self, new, uses, slots))
        for user in uses:
            operands = user.operands
            for index, operand in enumerate(operands):
                if operand is self:
                    operands[index] = new
                    if slots is not None:
                        slots.append((user, index))
        new.uses.extend(uses)
        self.uses = []
        return len(uses)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.short()}: {self.type})"


def _restore_uses(value: Value, new: Value, uses: List, slots: List[tuple]) -> None:
    """Undo ``value.replace_all_uses_with(new)``."""
    for user, index in slots:
        user.operands[index] = value
    for user in uses:
        new.uses.remove(user)
    value.uses = uses


class Constant(Value):
    """A compile-time constant scalar."""

    __slots__ = ("value",)

    def __init__(self, type: Type, value):  # noqa: A002
        super().__init__(type, name=str(value))
        self.value = value

    @property
    def is_constant(self) -> bool:
        return True

    def short(self) -> str:
        return str(self.value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return self.type is other.type and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.type.name, self.value))


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
