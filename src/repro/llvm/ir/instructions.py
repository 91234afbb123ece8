"""IR instructions.

Instructions are values: the result of an ``add`` can be used as an operand
of later instructions. Control flow, memory, comparison, cast, and call
instructions follow LLVM's shape closely enough that the optimization passes
read like their LLVM counterparts.
"""

from typing import Dict, List, Optional

from repro.llvm.ir.journal import RECORDING
from repro.llvm.ir.types import LABEL, VOID, Type
from repro.llvm.ir.values import NO_USES, Value, _unuse, _use

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

    ``operands`` is read freely and written only through this class:
    :meth:`set_operand`, :meth:`set_operands` (and :meth:`set_phi_incoming`,
    :meth:`replace_successor` on top of them), :meth:`erase`, and
    ``Value.replace_all_uses_with``. Those keep every operand's ``uses`` list
    current and drop the function's cached CFG analyses when a terminator's
    successors change; a constant operand keeps no use list and gets no
    entry. Where the instruction *sits* is the block's business:
    ``BasicBlock.append``/``insert``/``remove``.
    """

    __slots__ = ("opcode", "operands", "attrs", "parent")

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
        if type is VOID:
            self.uses = NO_USES
        self.opcode = opcode
        self.operands: List[Value] = list(operands or [])
        if self.operands:
            undo = RECORDING.undo
            if undo is not None:
                # A new instruction is a new user of values that were there before it.
                undo.append((_restore_operands, self, []))
            for operand in self.operands:
                _use(operand, self)
        self.attrs: Dict = dict(attrs or {})
        self.parent = None  # Set when appended to a BasicBlock.

    # -- mutation ----------------------------------------------------------

    def set_operand(self, index: int, value: Value) -> None:
        """Write one operand slot."""
        operands = self.operands
        old = operands[index]
        if old is value:
            return
        _use(value, self)  # First: a value that cannot be an operand changes nothing.
        undo = RECORDING.undo
        if undo is not None:
            undo.append((_restore_operand, self, index, old))
        _unuse(old, self)
        operands[index] = value
        if value.type is LABEL and self.opcode in TERMINATOR_OPCODES:
            self._cfg_changed()

    def set_operands(self, values) -> None:
        """Replace the whole operand list (it may change length)."""
        undo = RECORDING.undo
        if undo is not None:
            undo.append((_restore_operands, self, self.operands))
        for old in self.operands:
            _unuse(old, self)
        self.operands = operands = list(values)
        for value in operands:
            _use(value, self)
        if self.opcode in TERMINATOR_OPCODES:
            self._cfg_changed()

    def erase(self) -> None:
        """Delete the instruction: unlink it from its block (if it is in one)
        and give up its operands, so no use list names it afterwards.

        Contrast ``BasicBlock.remove``, which only unlinks — the instruction
        keeps its operands and stays in their use lists, ready to be inserted
        somewhere else. Whoever still uses the erased instruction's *result*
        must have been rewritten first (``replace_all_uses_with``).
        """
        if self.parent is not None:
            self.parent.remove(self)
        undo = RECORDING.undo
        if undo is not None:
            undo.append((_restore_operands, self, self.operands))
        for operand in self.operands:
            _unuse(operand, self)
        self.operands = []

    def set_attr(self, key: str, value) -> None:
        """Write one entry of ``attrs``."""
        attrs = self.attrs
        undo = RECORDING.undo
        if undo is not None:
            undo.append((attrs.__setitem__, key, attrs[key]) if key in attrs else (attrs.pop, key))
        attrs[key] = value

    def pop_attr(self, key: str):
        """Delete one entry of ``attrs``. Returns its value, ``None`` if it had none."""
        attrs = self.attrs
        if key not in attrs:
            return None
        undo = RECORDING.undo
        if undo is not None:
            undo.append((attrs.__setitem__, key, attrs[key]))
        return attrs.pop(key)

    def _cfg_changed(self) -> None:
        block = self.parent
        if block is not None and block.parent is not None:
            block.parent.invalidate_analyses()

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
        """Rewrite a block reference: a terminator's successor or a phi's
        incoming block."""
        for i, operand in enumerate(self.operands):
            if operand is old and self._operand_is_block(i):
                self.set_operand(i, new)

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
        self.set_operands([operand for pair in pairs for operand in pair])

    # -- misc ---------------------------------------------------------------

    def value_operands(self) -> List[Value]:
        """Operands that are SSA values (excludes block references)."""
        return [
            operand
            for i, operand in enumerate(self.operands)
            if not self._operand_is_block(i)
        ]

    def clone(self, operands=None, name: Optional[str] = None) -> "Instruction":
        """Shallow copy with no parent. It uses the same operands (one more
        use of each) unless ``operands`` gives it others — empty, for a copy
        whose operands are remapped once every copy exists — and has the same
        name unless ``name`` gives it another: a value is named once, when it
        is made."""
        return Instruction(
            opcode=self.opcode,
            operands=self.operands if operands is None else operands,
            type=self.type,
            name=self.name if name is None else name,
            attrs=self.attrs,
        )

    def __repr__(self) -> str:
        result = f"%{self.name} = " if self.has_result and self.name else ""
        return f"<{result}{self.opcode}>"


def _restore_operand(instruction: Instruction, index: int, old: Value) -> None:
    """Undo ``instruction.set_operand(index, ...)``."""
    operands = instruction.operands
    _unuse(operands[index], instruction)
    _use(old, instruction)
    operands[index] = old


def _restore_operands(instruction: Instruction, old: List[Value]) -> None:
    """Undo ``set_operands`` or the operand half of ``erase``: the list object
    itself comes back, so an index recorded earlier still means its slot."""
    for value in instruction.operands:
        _unuse(value, instruction)
    instruction.operands = old
    for value in old:
        _use(value, instruction)
