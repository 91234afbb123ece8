"""Dead code elimination passes: -dce, -die, -adce."""

from typing import Set

from repro.llvm.ir.function import Function
from repro.llvm.ir.values import Value
from repro.llvm.passes.utils import erase_dead_instructions, is_trivially_dead


def dead_instruction_elimination(function: Function) -> bool:
    """-die: a single sweep removing trivially dead instructions. What is dead
    is decided before anything is removed: an instruction that only the sweep
    itself left unused stays for the next one."""
    dead = [inst for inst in function.instructions() if is_trivially_dead(inst)]
    for inst in dead:
        inst.erase()
    return bool(dead)


def dead_code_elimination(function: Function) -> bool:
    """-dce: trivially-dead removal to a fixpoint."""
    return erase_dead_instructions(function) > 0


def aggressive_dce(function: Function) -> bool:
    """-adce: mark-and-sweep DCE. Everything not transitively required by a
    side-effecting or terminator instruction is removed.

    Unlike iterative trivial DCE this removes dead cycles (e.g. a phi that
    only feeds an add that only feeds the phi).
    """
    live: Set[Value] = set()
    worklist = []
    for block in function.blocks:
        for inst in block.instructions:
            if inst.is_terminator or inst.has_side_effects():
                live.add(inst)
                worklist.append(inst)
    while worklist:
        inst = worklist.pop()
        for operand in inst.operands:
            if operand not in live and hasattr(operand, "opcode"):
                live.add(operand)
                worklist.append(operand)
    changed = False
    for block in function.blocks:
        for inst in list(block.instructions):
            if inst not in live:
                inst.erase()
                changed = True
    return changed
