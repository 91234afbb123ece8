"""IR instructions.

Instructions are values: the result of an ``add`` can be used as an operand
of later instructions. Control flow, memory, comparison, cast, and call
instructions follow LLVM's shape closely enough that the optimization passes
read like their LLVM counterparts.
"""

from typing import Dict, List, Optional

from repro.llvm.ir.types import I1, I32, VOID, Type
from repro.llvm.ir.values import Value

# Opcode categories. These drive the generic logic in passes, the printer,
# the verifier, and the feature extractors.
BINARY_OPCODES = frozenset(
    {
        "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
        "and", "or", "xor", "shl", "lshr", "ashr",
        "fadd", "fsub", "fmul", "fdiv", "frem",
    }
)
COMPARE_OPCODES = frozenset({"icmp", "fcmp"})
CAST_OPCODES = frozenset(
    {"zext", "sext", "trunc", "bitcast", "ptrtoint", "inttoptr", "sitofp", "fptosi", "fpext", "fptrunc"}
)
MEMORY_OPCODES = frozenset({"alloca", "load", "store", "getelementptr"})
TERMINATOR_OPCODES = frozenset({"br", "ret", "switch", "unreachable"})
OTHER_OPCODES = frozenset({"phi", "call", "select"})

ALL_OPCODES = (
    BINARY_OPCODES
    | COMPARE_OPCODES
    | CAST_OPCODES
    | MEMORY_OPCODES
    | TERMINATOR_OPCODES
    | OTHER_OPCODES
)

# Integer comparison predicates.
ICMP_PREDICATES = ("eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge")
FCMP_PREDICATES = ("oeq", "one", "olt", "ole", "ogt", "oge")

# Binary operators that commute, used by reassociation and GVN value numbering.
COMMUTATIVE_OPCODES = frozenset({"add", "mul", "and", "or", "xor", "fadd", "fmul"})


class Instruction(Value):
    """A single IR instruction.

    Attributes:
        opcode: The operation, e.g. ``"add"`` or ``"br"``.
        operands: The operand values. For ``phi`` the list interleaves
            ``[value, block, value, block, ...]``; for conditional ``br`` it is
            ``[condition, true_block, false_block]``; for ``switch`` it is
            ``[value, default_block, const, block, const, block, ...]``.
        attrs: Opcode-specific attributes such as the ``icmp`` predicate, the
            ``call`` callee name, or the ``alloca`` element type. Values are
            immutable (strings, booleans, interned types): ``Module.clone()``
            copies the dict and shares what it holds.
        parent: The :class:`BasicBlock` containing the instruction.
    """

    def __init__(
        self,
        opcode: str,
        operands: Optional[List[Value]] = None,
        type: Type = VOID,  # noqa: A002
        name: str = "",
        attrs: Optional[Dict] = None,
    ):
        if opcode not in ALL_OPCODES:
            raise ValueError(f"Unknown opcode: {opcode!r}")
        super().__init__(type, name=name)
        self.opcode = opcode
        self.operands: List[Value] = list(operands or [])
        self.attrs: Dict = dict(attrs or {})
        self.parent = None  # Set when appended to a BasicBlock.

    # -- classification ----------------------------------------------------

    @property
    def is_terminator(self) -> bool:
        return self.opcode in TERMINATOR_OPCODES

    @property
    def is_binary(self) -> bool:
        return self.opcode in BINARY_OPCODES

    @property
    def is_compare(self) -> bool:
        return self.opcode in COMPARE_OPCODES

    @property
    def is_cast(self) -> bool:
        return self.opcode in CAST_OPCODES

    @property
    def is_memory(self) -> bool:
        return self.opcode in MEMORY_OPCODES

    @property
    def is_commutative(self) -> bool:
        return self.opcode in COMMUTATIVE_OPCODES

    @property
    def has_result(self) -> bool:
        """Whether the instruction produces an SSA value."""
        return not self.type.is_void

    def has_side_effects(self) -> bool:
        """Conservative side-effect check used by dead-code elimination."""
        if self.opcode in ("store", "ret", "br", "switch", "unreachable"):
            return True
        if self.opcode == "call":
            return not self.attrs.get("pure", False)
        return False

    # -- control-flow helpers -----------------------------------------------

    def successors(self) -> List["Value"]:
        """Successor basic blocks of a terminator instruction."""
        if self.opcode == "br":
            if len(self.operands) == 1:
                return [self.operands[0]]
            return [self.operands[1], self.operands[2]]
        if self.opcode == "switch":
            return [self.operands[1]] + [self.operands[i] for i in range(3, len(self.operands), 2)]
        return []

    def replace_successor(self, old, new) -> None:
        """Rewrite a successor block reference of a terminator."""
        for i, operand in enumerate(self.operands):
            if operand is old and self._operand_is_block(i):
                self.operands[i] = new

    def _operand_is_block(self, index: int) -> bool:
        if self.opcode == "br":
            return index >= 1 or len(self.operands) == 1
        if self.opcode == "switch":
            return index >= 1 and (index == 1 or (index - 2) % 2 == 1)
        if self.opcode == "phi":
            return index % 2 == 1
        return False

    # -- phi helpers ---------------------------------------------------------

    def phi_incoming(self):
        """Yield ``(value, block)`` pairs of a phi instruction."""
        assert self.opcode == "phi"
        for i in range(0, len(self.operands), 2):
            yield self.operands[i], self.operands[i + 1]

    def set_phi_incoming(self, pairs) -> None:
        assert self.opcode == "phi"
        self.operands = []
        for value, block in pairs:
            self.operands.extend([value, block])

    # -- misc ---------------------------------------------------------------

    def value_operands(self) -> List[Value]:
        """Operands that are SSA values (excludes block references)."""
        return [
            operand
            for i, operand in enumerate(self.operands)
            if not self._operand_is_block(i)
        ]

    def clone(self) -> "Instruction":
        """Shallow copy: same operand references, no parent."""
        return Instruction(
            opcode=self.opcode,
            operands=list(self.operands),
            type=self.type,
            name=self.name,
            attrs=dict(self.attrs),
        )

    def __repr__(self) -> str:
        result = f"%{self.name} = " if self.has_result and self.name else ""
        return f"<{result}{self.opcode}>"
