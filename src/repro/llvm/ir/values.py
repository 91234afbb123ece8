"""IR values: constants, arguments, globals.

Every operand of an instruction is a :class:`Value`. Instructions themselves
are values (they produce a result that other instructions use), as are
function arguments, constants, global variables, and functions.
"""

from typing import Optional

from repro.llvm.ir.types import I32, PTR, Type


class Value:
    """Base class for everything that can appear as an instruction operand."""

    def __init__(self, type: Type, name: str = ""):  # noqa: A002
        self.type = type
        self.name = name

    @property
    def is_constant(self) -> bool:
        return False

    def short(self) -> str:
        """Render the value as an operand reference (e.g. ``%x`` or ``42``)."""
        return f"%{self.name}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.short()}: {self.type})"


class Constant(Value):
    """A compile-time constant scalar."""

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

    def __init__(self, name: str, type: Type = I32):  # noqa: A002
        super().__init__(type, name=name)


class GlobalVariable(Value):
    """A module-level global variable.

    Globals are always of pointer type (they denote an address); the
    ``initializer`` (one scalar, replicated ``array_size`` times) and
    ``element_type`` describe the pointed-to storage.
    """

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

    def __init__(self, type: Type = I32):  # noqa: A002
        super().__init__(type, name="undef")

    def short(self) -> str:
        return "undef"
