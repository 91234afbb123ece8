"""Shared helpers for optimization passes: purity, constant folding, phi and
terminator surgery. Who uses a value is ``value.uses``; rewriting them is
``value.replace_all_uses_with`` (see "Mutating the IR" in ``registry``)."""

from typing import Optional

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.types import I1, Type
from repro.llvm.ir.values import Constant, Value


def is_pure(inst: Instruction) -> bool:
    """Whether the instruction can be removed or moved freely (no side effects,
    no dependence on memory state)."""
    if inst.has_side_effects():
        return False
    # Loads depend on memory state: they are removable when unused but not
    # freely reorderable past stores, so they are excluded from CSE/LICM by
    # default.
    if inst.opcode in ("load", "phi", "alloca"):
        return False
    return True


def is_trivially_dead(inst: Instruction) -> bool:
    """Whether the instruction has no side effects and its result is unused."""
    if inst.is_terminator or inst.has_side_effects():
        return False
    return not inst.uses


_INT_BINOPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "shl": lambda a, b: a << (b & 63),
    "lshr": lambda a, b: (a & 0xFFFFFFFFFFFFFFFF) >> (b & 63),
    "ashr": lambda a, b: a >> (b & 63),
}

_FLOAT_BINOPS = {
    "fadd": lambda a, b: a + b,
    "fsub": lambda a, b: a - b,
    "fmul": lambda a, b: a * b,
}

_ICMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "slt": lambda a, b: a < b,
    "sle": lambda a, b: a <= b,
    "sgt": lambda a, b: a > b,
    "sge": lambda a, b: a >= b,
    "ult": lambda a, b: abs(a) < abs(b),
    "ule": lambda a, b: abs(a) <= abs(b),
    "ugt": lambda a, b: abs(a) > abs(b),
    "uge": lambda a, b: abs(a) >= abs(b),
}

_FCMP = {
    "oeq": lambda a, b: a == b,
    "one": lambda a, b: a != b,
    "olt": lambda a, b: a < b,
    "ole": lambda a, b: a <= b,
    "ogt": lambda a, b: a > b,
    "oge": lambda a, b: a >= b,
}


def _wrap_int(value: int, type: Type) -> int:  # noqa: A002
    """Wrap an integer to the bit width of its type (two's complement)."""
    bits = type.bits or 64
    mask = (1 << bits) - 1
    value &= mask
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def fold_binary(inst: Instruction) -> Optional[Constant]:
    """Constant-fold a binary instruction whose operands are both constants."""
    if not inst.is_binary or len(inst.operands) != 2:
        return None
    return fold_binary_operation(inst.opcode, inst.type, *inst.operands)


def fold_binary_operation(op: str, type: Type, lhs: Value, rhs: Value) -> Optional[Constant]:  # noqa: A002
    """Constant-fold ``op type lhs, rhs`` if both operands are constants."""
    if not (isinstance(lhs, Constant) and isinstance(rhs, Constant)):
        return None
    try:
        if op in _INT_BINOPS:
            return Constant(type, _wrap_int(_INT_BINOPS[op](int(lhs.value), int(rhs.value)), type))
        if op in _FLOAT_BINOPS:
            return Constant(type, _FLOAT_BINOPS[op](float(lhs.value), float(rhs.value)))
        if op in ("sdiv", "udiv"):
            if int(rhs.value) == 0:
                return None
            return Constant(type, _wrap_int(int(int(lhs.value) / int(rhs.value)), type))
        if op in ("srem", "urem"):
            if int(rhs.value) == 0:
                return None
            return Constant(type, _wrap_int(int(lhs.value) - int(int(lhs.value) / int(rhs.value)) * int(rhs.value), type))
        if op in ("fdiv", "frem"):
            if float(rhs.value) == 0.0:
                return None
            if op == "fdiv":
                return Constant(type, float(lhs.value) / float(rhs.value))
            return Constant(type, float(lhs.value) % float(rhs.value))
    except (OverflowError, ValueError, ZeroDivisionError):
        return None
    return None


def fold_compare(inst: Instruction) -> Optional[Constant]:
    """Constant-fold a comparison whose operands are both constants."""
    if not inst.is_compare or len(inst.operands) != 2:
        return None
    lhs, rhs = inst.operands
    if not (isinstance(lhs, Constant) and isinstance(rhs, Constant)):
        return None
    predicate = inst.attrs.get("predicate", "eq")
    table = _ICMP if inst.opcode == "icmp" else _FCMP
    if predicate not in table:
        return None
    return Constant(I1, int(bool(table[predicate](lhs.value, rhs.value))))


def fold_cast(inst: Instruction) -> Optional[Constant]:
    """Constant-fold a cast of a constant."""
    if not inst.is_cast or len(inst.operands) != 1:
        return None
    (operand,) = inst.operands
    if not isinstance(operand, Constant):
        return None
    op = inst.opcode
    value = operand.value
    try:
        if op in ("zext", "sext", "trunc", "ptrtoint", "inttoptr", "bitcast", "fptosi"):
            return Constant(inst.type, _wrap_int(int(value), inst.type))
        if op in ("sitofp", "fpext", "fptrunc"):
            return Constant(inst.type, float(value))
    except (OverflowError, ValueError):
        return None
    return None


def fold_instruction(inst: Instruction) -> Optional[Constant]:
    """Constant-fold any foldable instruction."""
    folded = fold_binary(inst)
    if folded is None:
        folded = fold_compare(inst)
    if folded is None:
        folded = fold_cast(inst)
    if folded is None and inst.opcode == "select":
        cond = inst.operands[0]
        if isinstance(cond, Constant):
            return inst.operands[1] if cond.value else inst.operands[2]
    return folded


def remove_phi_incoming(block: BasicBlock, pred: BasicBlock) -> None:
    """Remove ``pred`` from the incoming lists of every phi in ``block``.

    Phis left with a single incoming value are replaced by that value.
    """
    for phi in block.phis():
        incoming = list(phi.phi_incoming())
        pairs = [(value, source) for value, source in incoming if source is not pred]
        if len(pairs) == len(incoming):
            continue
        if len(pairs) > 1:
            phi.set_phi_incoming(pairs)
            continue
        if pairs:
            phi.replace_all_uses_with(pairs[0][0])
        phi.erase()


def replace_phi_incoming_block(block: BasicBlock, old_pred: BasicBlock, new_pred: BasicBlock) -> None:
    """Rewrite phi incoming-block references from ``old_pred`` to ``new_pred``."""
    for phi in block.phis():
        phi.replace_successor(old_pred, new_pred)


def make_unconditional(block: BasicBlock, target: BasicBlock) -> None:
    """Replace the block's terminator with an unconditional branch to ``target``.

    Phi nodes in abandoned successors are updated.
    """
    terminator = block.terminator
    if terminator is not None:
        for successor in terminator.successors():
            if successor is not target:
                remove_phi_incoming(successor, block)
        terminator.erase()
    block.append(Instruction("br", [target]))


def erase_dead_instructions(function: Function) -> int:
    """Remove trivially dead instructions until none is left. Returns the
    count removed. One sweep finds what is dead now; after that only the
    operands of an erased instruction can have become dead."""
    worklist = [inst for inst in function.instructions() if is_trivially_dead(inst)]
    removed = 0
    while worklist:
        inst = worklist.pop()
        if inst.parent is None:
            continue  # Listed twice (``add %x, %x``) and already gone.
        operands = inst.operands
        inst.erase()
        removed += 1
        worklist.extend(
            operand
            for operand in operands
            if isinstance(operand, Instruction)
            and operand.parent is not None
            and is_trivially_dead(operand)
        )
    return removed
