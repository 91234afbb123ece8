"""Peephole instruction combining: -instcombine, -instsimplify, -reassociate,
-aggressive-instcombine, -div-rem-pairs."""

from typing import Optional

from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.values import Constant, Value
from repro.llvm.passes.utils import fold_binary_operation, fold_instruction


def _is_const(value: Value, number=None) -> bool:
    if not isinstance(value, Constant):
        return False
    return True if number is None else value.value == number


def _simplify(inst: Instruction) -> Optional[Value]:
    """Return a simpler value equivalent to ``inst``, or None."""
    folded = fold_instruction(inst)
    if folded is not None:
        return folded

    op = inst.opcode
    if inst.is_binary:
        lhs, rhs = inst.operands
        if op == "add":
            if _is_const(rhs, 0):
                return lhs
            if _is_const(lhs, 0):
                return rhs
        if op == "sub":
            if _is_const(rhs, 0):
                return lhs
            if lhs is rhs:
                return Constant(inst.type, 0)
        if op == "mul":
            if _is_const(rhs, 1):
                return lhs
            if _is_const(lhs, 1):
                return rhs
            if _is_const(rhs, 0) or _is_const(lhs, 0):
                return Constant(inst.type, 0)
        if op in ("sdiv", "udiv"):
            if _is_const(rhs, 1):
                return lhs
            if lhs is rhs and not _is_const(rhs, 0):
                return Constant(inst.type, 1)
        if op in ("srem", "urem") and _is_const(rhs, 1):
            return Constant(inst.type, 0)
        if op == "and":
            if lhs is rhs:
                return lhs
            if _is_const(rhs, 0) or _is_const(lhs, 0):
                return Constant(inst.type, 0)
        if op == "or":
            if lhs is rhs:
                return lhs
            if _is_const(rhs, 0):
                return lhs
            if _is_const(lhs, 0):
                return rhs
        if op == "xor":
            if lhs is rhs:
                return Constant(inst.type, 0)
            if _is_const(rhs, 0):
                return lhs
            if _is_const(lhs, 0):
                return rhs
        if op in ("shl", "lshr", "ashr") and _is_const(rhs, 0):
            return lhs
        if op == "fadd" and _is_const(rhs, 0.0):
            return lhs
        if op == "fmul":
            if _is_const(rhs, 1.0):
                return lhs
            if _is_const(lhs, 1.0):
                return rhs
        if op == "fsub" and _is_const(rhs, 0.0):
            return lhs

    if op == "icmp" and len(inst.operands) == 2:
        lhs, rhs = inst.operands
        if lhs is rhs:
            predicate = inst.attrs.get("predicate", "eq")
            if predicate in ("eq", "sle", "sge", "ule", "uge"):
                return Constant(inst.type, 1)
            if predicate in ("ne", "slt", "sgt", "ult", "ugt"):
                return Constant(inst.type, 0)

    if op == "select":
        cond, if_true, if_false = inst.operands
        if if_true is if_false:
            return if_true
        if isinstance(cond, Constant):
            return if_true if cond.value else if_false

    return None


def _canonicalize_commutative(inst: Instruction) -> bool:
    """Move constants to the right-hand side of commutative operations."""
    if inst.is_commutative and len(inst.operands) == 2:
        lhs, rhs = inst.operands
        if isinstance(lhs, Constant) and not isinstance(rhs, Constant):
            inst.set_operands([rhs, lhs])
            return True
    return False


def instruction_combining(function: Function) -> bool:
    """-instcombine."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            for inst in list(block.instructions):
                if _canonicalize_commutative(inst):
                    changed = True
                simplified = _simplify(inst)
                if simplified is not None and simplified is not inst:
                    inst.replace_all_uses_with(simplified)
                    inst.erase()
                    changed = True
                    progress = True
    return changed


def instruction_simplify(function: Function) -> bool:
    """-instsimplify: a single, non-iterative simplification sweep."""
    changed = False
    for block in function.blocks:
        for inst in list(block.instructions):
            simplified = _simplify(inst)
            if simplified is not None and simplified is not inst:
                inst.replace_all_uses_with(simplified)
                inst.erase()
                changed = True
    return changed


def aggressive_instcombine(function: Function) -> bool:
    """-aggressive-instcombine: instcombine run to a fixpoint."""
    changed = False
    while instruction_combining(function):
        changed = True
    return changed


def reassociate(function: Function) -> bool:
    """-reassociate: reassociate commutative chains to expose constant folding.

    ``(x + c1) + c2`` becomes ``x + (c1 + c2)`` (and similarly for mul/and/or/
    xor), enabling instcombine/constprop to fold the constants.
    """
    changed = False
    for block in function.blocks:
        for inst in block.instructions:
            if not inst.is_commutative or len(inst.operands) != 2:
                continue
            lhs, rhs = inst.operands
            if not isinstance(rhs, Constant):
                continue
            if (
                isinstance(lhs, Instruction)
                and lhs.opcode == inst.opcode
                and len(lhs.operands) == 2
                and isinstance(lhs.operands[1], Constant)
            ):
                folded = fold_binary_operation(inst.opcode, inst.type, lhs.operands[1], rhs)
                if folded is not None:
                    inst.set_operands([lhs.operands[0], folded])
                    changed = True
    return changed


def div_rem_pairs(function: Function) -> bool:
    """-div-rem-pairs: hoist matching sdiv/srem pairs next to each other.

    On this IR the transformation is a reordering with no effect on the cost
    metrics; it reports a change only when a pair is actually found, so it is
    usually a no-op action.
    """
    changed = False
    for block in function.blocks:
        divs = {}
        for inst in block.instructions:
            if inst.opcode in ("sdiv", "udiv"):
                divs[(id(inst.operands[0]), id(inst.operands[1]))] = inst
        for inst in list(block.instructions):
            if inst.opcode in ("srem", "urem"):
                key = (id(inst.operands[0]), id(inst.operands[1]))
                partner = divs.get(key)
                if partner is not None and partner.parent is block:
                    index = block.instructions.index(partner)
                    if block.instructions.index(inst) != index + 1:
                        block.remove(inst)
                        block.insert(index + 1, inst)
                        changed = True
    return changed
