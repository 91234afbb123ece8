"""Redundancy elimination: -early-cse, -gvn, -newgvn, -sink."""

from typing import Dict, Tuple

from repro.llvm.ir.cfg import dominator_tree, predecessors, reverse_postorder
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.passes.utils import is_pure


def _value_key(inst: Instruction) -> Tuple:
    """A hashable key identifying the computation an instruction performs.

    Operands are keyed by identity: constants are interned, so two equal
    constants are one object."""
    operands = tuple(map(id, inst.operands))
    if inst.is_commutative and len(operands) == 2:
        operands = tuple(sorted(operands))
    return (
        inst.opcode,
        inst.attrs.get("predicate"),
        inst.attrs.get("callee"),
        str(inst.attrs.get("element_type", "")),
        inst.type.name,
        operands,
    )


def early_cse(function: Function) -> bool:
    """-early-cse: block-local common subexpression elimination."""
    changed = False
    for block in function.blocks:
        available: Dict[Tuple, Instruction] = {}
        for inst in list(block.instructions):
            if not is_pure(inst) or not inst.has_result:
                continue
            key = _value_key(inst)
            existing = available.get(key)
            if existing is not None:
                inst.replace_all_uses_with(existing)
                inst.erase()
                changed = True
            else:
                available[key] = inst
    return changed


def global_value_numbering(function: Function) -> bool:
    """-gvn: dominance-based global value numbering.

    An instruction is redundant if an identical computation exists in a block
    that dominates it (or earlier in the same block).
    """
    changed = False
    tree = dominator_tree(function)
    order = reverse_postorder(function)
    leader: Dict[Tuple, Instruction] = {}
    for block in order:
        for inst in list(block.instructions):
            if not is_pure(inst) or not inst.has_result:
                continue
            key = _value_key(inst)
            existing = leader.get(key)
            if existing is not None and existing.parent is not None:
                same_block = existing.parent is block
                if same_block or tree.dominates(existing.parent, block):
                    inst.replace_all_uses_with(existing)
                    inst.erase()
                    changed = True
                    continue
            leader[key] = inst
    return changed


def new_gvn(function: Function) -> bool:
    """-newgvn: iterate GVN to a fixpoint (value numbers refine each round)."""
    changed = False
    while global_value_numbering(function):
        changed = True
    return changed


def sink(function: Function) -> bool:
    """-sink: move pure computations into the single successor block that uses
    them, reducing work on paths that do not need the value."""
    changed = False
    for block in function.blocks:
        successors = block.successors()
        if len(successors) != 2:
            continue
        for inst in list(block.instructions):
            if not is_pure(inst) or not inst.has_result:
                continue
            users = inst.uses
            if not users:
                continue
            user_blocks = {user.parent for user in users}
            if len(user_blocks) != 1:
                continue
            (target,) = user_blocks
            if target is block or target not in successors:
                continue
            # Do not sink into a block with multiple predecessors (the
            # value would not dominate all paths into it).
            if len(predecessors(function)[target]) != 1:
                continue
            if any(user.opcode == "phi" for user in users):
                continue
            block.remove(inst)
            target.insert(len(target.phis()), inst)
            changed = True
    return changed
