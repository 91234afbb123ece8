"""Lowering and utility passes: -lowerswitch, -loweratomic, -lowerinvoke,
-strip, -break-crit-edges, and other structural canonicalizations."""

from typing import Set

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.cfg import predecessors
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.module import Module
from repro.llvm.ir.types import I1, VOID
from repro.llvm.ir.values import Constant
from repro.llvm.passes.utils import replace_phi_incoming_block


def lower_switch(function: Function) -> bool:
    """-lowerswitch: expand switch instructions into chains of conditional
    branches. This typically *increases* instruction count — one of several
    actions with negative code-size reward."""
    changed = False
    for block in list(function.blocks):
        terminator = block.terminator
        if terminator is None or terminator.opcode != "switch":
            continue
        value = terminator.operands[0]
        default = terminator.operands[1]
        cases = [
            (terminator.operands[i], terminator.operands[i + 1])
            for i in range(2, len(terminator.operands), 2)
        ]
        terminator.erase()  # Drop the switch.
        current = block
        for index, (case_const, case_block) in enumerate(cases):
            compare = Instruction(
                "icmp",
                [value, case_const],
                type=I1,
                name=function.new_value_name("switch.cmp"),
                attrs={"predicate": "eq"},
            )
            current.append(compare)
            if index + 1 < len(cases):
                next_test = function.insert_block(
                    function.blocks.index(current) + 1,
                    BasicBlock(function.new_block_name("switch.test")),
                )
                current.append(Instruction("br", [compare, case_block, next_test], type=VOID))
                replace_phi_incoming_block(case_block, block, current)
                current = next_test
            else:
                current.append(Instruction("br", [compare, case_block, default], type=VOID))
                replace_phi_incoming_block(case_block, block, current)
                replace_phi_incoming_block(default, block, current)
        if not cases:
            current.append(Instruction("br", [default], type=VOID))
        changed = True
    return changed


def break_critical_edges(function: Function) -> bool:
    """-break-crit-edges: split edges from multi-successor blocks into
    multi-predecessor blocks by inserting an empty forwarding block."""
    changed = False
    preds = predecessors(function)
    edges = []
    for block in function.blocks:
        successors = block.successors()
        if len(successors) < 2:
            continue
        for successor in successors:
            if len(preds.get(successor, [])) >= 2:
                edges.append((block, successor))
    for source, destination in edges:
        middle = BasicBlock(function.new_block_name("crit_edge"))
        middle.append(Instruction("br", [destination], type=VOID))
        function.insert_block(function.blocks.index(destination), middle)
        terminator = source.terminator
        terminator.replace_successor(destination, middle)
        replace_phi_incoming_block(destination, source, middle)
        changed = True
    return changed


def lower_atomic(module: Module) -> bool:
    """-loweratomic: the IR has no atomic operations; never fires."""
    del module
    return False


def lower_invoke(module: Module) -> bool:
    """-lowerinvoke: the IR has no exception handling; never fires."""
    del module
    return False


def lower_expect(module: Module) -> bool:
    """-lower-expect: the IR has no llvm.expect intrinsic; never fires."""
    del module
    return False


def strip_metadata(module: Module, touched: Set[Function]) -> bool:
    """-strip (a module pass): remove module metadata and call annotations."""
    changed = False
    if module.metadata:
        module.clear_metadata()
        changed = True
    for function in module.defined_functions():
        for inst in function.instructions():
            if inst.pop_attr("debug") is not None:
                touched.add(function)
    return changed or bool(touched)


def strip_debug_declare(module: Module, touched: Set[Function]) -> bool:
    """-strip-debug-declare: alias of -strip for this IR."""
    return strip_metadata(module, touched)


def canonicalize_aliases(module: Module) -> bool:
    """-canonicalize-aliases: the IR has no aliases; never fires."""
    del module
    return False


def name_anon_globals(module: Module) -> bool:
    """-name-anon-globals: give anonymous globals a name. Generated globals
    are always named, so this never fires."""
    del module
    return False


def verify_pass(module: Module) -> bool:
    """-verify: run the IR verifier as an action (never modifies the module)."""
    from repro.llvm.ir.verifier import verify_module

    verify_module(module, raise_on_error=False)
    return False


def barrier(module: Module) -> bool:
    """-barrier: pass-manager barrier; has no effect on the module."""
    del module
    return False
