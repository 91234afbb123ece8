"""Control-flow graph simplification: -simplifycfg, -jump-threading,
-correlated-propagation, -mergereturn."""

from typing import List

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.cfg import predecessors, reachable_blocks
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.types import VOID
from repro.llvm.ir.values import Constant
from repro.llvm.passes.constants import fold_constant_branches
from repro.llvm.passes.utils import remove_phi_incoming, replace_phi_incoming_block


def _remove_unreachable_blocks(function: Function) -> bool:
    reachable = reachable_blocks(function)
    dead = [block for block in function.blocks if block not in reachable]
    if not dead:
        return False
    for block in dead:
        for successor in block.successors():
            if successor in reachable:
                remove_phi_incoming(successor, block)
        block.erase()
    return True


def _merge_single_successor_blocks(function: Function) -> bool:
    """Merge a block into its unique predecessor when that predecessor has a
    single successor (straight-line control flow)."""
    changed = False
    restart = True
    while restart:
        restart = False
        preds = predecessors(function)
        for block in list(function.blocks):
            if block is function.entry:
                continue
            block_preds = preds.get(block, [])
            if len(block_preds) != 1:
                continue
            pred = block_preds[0]
            if len(pred.successors()) != 1 or pred.successors()[0] is not block:
                continue
            if pred is block:
                continue
            # Phis in the block have a single incoming value: fold them.
            for phi in block.phis():
                phi.replace_all_uses_with(phi.operands[0])
                phi.erase()
            # Splice instructions: drop the predecessor's terminator, move the
            # block's instructions in.
            pred.terminator.erase()
            block.move_instructions(0, pred)
            # Successors of the merged block now flow from pred.
            for successor in pred.successors():
                replace_phi_incoming_block(successor, block, pred)
            function.remove_block(block)
            changed = True
            restart = True
            break
    return changed


def _skip_empty_blocks(function: Function) -> bool:
    """Forward branches that target a block containing only ``br label %next``.

    The empty block is bypassed: predecessors branch directly to its
    destination.
    """
    changed = False
    preds = predecessors(function)
    for block in list(function.blocks):
        if block is function.entry:
            continue
        if len(block.instructions) != 1:
            continue
        terminator = block.terminator
        if terminator is None or terminator.opcode != "br" or len(terminator.operands) != 1:
            continue
        target = terminator.operands[0]
        if target is block:
            continue
        # Skip if the destination has phis: rewriting incoming edges correctly
        # would require merging values from multiple predecessors.
        if target.phis():
            continue
        block_preds = preds.get(block, [])
        if not block_preds:
            continue
        for pred in block_preds:
            pred_term = pred.terminator
            if pred_term is not None:
                pred_term.replace_successor(block, target)
        changed = True
    return changed


def simplify_cfg(function: Function) -> bool:
    """-simplifycfg."""
    changed = fold_constant_branches(function)
    changed |= _skip_empty_blocks(function)
    changed |= _remove_unreachable_blocks(function)
    changed |= _merge_single_successor_blocks(function)
    return changed


def jump_threading(function: Function) -> bool:
    """-jump-threading (simplified): fold branches whose condition is constant
    and bypass trivial forwarding blocks."""
    changed = fold_constant_branches(function)
    changed |= _skip_empty_blocks(function)
    changed |= _remove_unreachable_blocks(function)
    return changed


def correlated_value_propagation(function: Function) -> bool:
    """-correlated-propagation (simplified): in a block reached only via the
    true edge of ``br (icmp eq x, C)``, replace uses of x with C."""
    changed = False
    preds = predecessors(function)
    for block in function.blocks:
        block_preds = preds.get(block, [])
        if len(block_preds) != 1:
            continue
        pred = block_preds[0]
        terminator = pred.terminator
        if terminator is None or terminator.opcode != "br" or len(terminator.operands) != 3:
            continue
        condition, if_true, if_false = terminator.operands
        if if_true is if_false or not isinstance(condition, Instruction):
            continue
        if condition.opcode != "icmp" or condition.attrs.get("predicate") != "eq":
            continue
        if block is not if_true:
            continue
        lhs, rhs = condition.operands
        if isinstance(rhs, Constant) and not isinstance(lhs, Constant):
            for inst in block.instructions:
                for index, operand in enumerate(inst.operands):
                    if operand is lhs and inst.opcode != "phi":
                        inst.set_operand(index, rhs)
                        changed = True
    return changed


def merge_return(function: Function) -> bool:
    """-mergereturn: funnel all returns through a single exit block."""
    ret_blocks = [
        block
        for block in function.blocks
        if block.terminator is not None and block.terminator.opcode == "ret"
    ]
    if len(ret_blocks) <= 1:
        return False
    exit_block = BasicBlock(function.new_block_name("unified_return"))
    returns_value = not function.return_type.is_void
    incoming = []
    for block in ret_blocks:
        ret = block.terminator
        value = ret.operands[0] if ret.operands else None
        ret.erase()
        block.append(Instruction("br", [exit_block], type=VOID))
        if returns_value:
            incoming.append((value, block))
    if returns_value:
        phi = Instruction("phi", type=function.return_type, name=function.new_value_name("retval"))
        phi.set_phi_incoming(incoming)
        exit_block.append(phi)
        exit_block.append(Instruction("ret", [phi], type=VOID))
    else:
        exit_block.append(Instruction("ret", [], type=VOID))
    function.add_block(exit_block)
    return True
