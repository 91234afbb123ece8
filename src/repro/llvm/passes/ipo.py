"""Interprocedural passes: -inline, -always-inline, -partial-inliner,
-deadargelim, -globaldce, -globalopt, -mergefunc, -tailcallelim,
-strip-dead-prototypes, -argpromotion.

Module passes: each adds the functions it mutates to ``touched`` (see ``registry``).
"""

from typing import Dict, List, Optional, Set

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.module import Module
from repro.llvm.ir.types import VOID
from repro.llvm.ir.values import Argument, Constant, GlobalVariable, Value
from repro.llvm.passes.utils import replace_phi_incoming_block

# Callee size limits, mirroring LLVM's inline cost thresholds.
INLINE_THRESHOLD = 40
PARTIAL_INLINE_THRESHOLD = 80


def _is_recursive(function: Function) -> bool:
    return any(
        inst.opcode == "call" and inst.attrs.get("callee") == function.name
        for inst in function.instructions()
    )


def _inline_call_site(caller: Function, call: Instruction, callee: Function) -> None:
    """Inline one call site. The callee body is cloned into the caller."""
    block = call.parent
    call_index = block.instructions.index(call)

    # Split the call block: everything after the call moves to a continuation.
    # The call itself is unlinked but keeps its arguments and its users until
    # the callee's body is in place.
    continuation = BasicBlock(caller.new_block_name("inline.cont"))
    block.move_instructions(call_index + 1, continuation)
    block.remove(call)
    # Successor phis that named the original block as the incoming edge now
    # receive control from the continuation block instead.
    for successor in continuation.successors():
        replace_phi_incoming_block(successor, block, continuation)

    # Clone the callee body.
    value_map: Dict[Value, Value] = {}
    for arg, operand in zip(callee.args, call.operands):
        value_map[arg] = operand
    block_map: Dict[BasicBlock, BasicBlock] = {}
    cloned_blocks: List[BasicBlock] = []
    for callee_block in callee.blocks:
        clone = BasicBlock(caller.new_block_name(f"inl.{callee_block.name}"))
        block_map[callee_block] = clone
        cloned_blocks.append(clone)
    for callee_block in callee.blocks:
        clone_block = block_map[callee_block]
        for inst in callee_block.instructions:
            name = caller.new_value_name(f"inl{inst.name}") if inst.name else ""
            clone = inst.clone(operands=(), name=name)
            clone_block.append(clone)
            value_map[inst] = clone
    # Give the clones their operands (a second pass, for forward references).
    value_map.update(block_map)
    for callee_block in callee.blocks:
        for inst in callee_block.instructions:
            value_map[inst].set_operands([value_map.get(op, op) for op in inst.operands])

    # Rewrite cloned returns into branches to the continuation, collecting
    # returned values for the call result.
    returned: List = []
    for clone_block in cloned_blocks:
        terminator = clone_block.terminator
        if terminator is not None and terminator.opcode == "ret":
            value = terminator.operands[0] if terminator.operands else None
            terminator.erase()
            clone_block.append(Instruction("br", [continuation], type=VOID))
            returned.append((value, clone_block))

    # Wire the call block into the cloned entry.
    entry_clone = block_map[callee.entry]
    block.append(Instruction("br", [entry_clone], type=VOID))

    # Splice the new blocks into the caller's block list right after the call
    # block (before rewriting call-result uses, so that uses in the
    # continuation and cloned blocks are rewritten too).
    insert_at = caller.blocks.index(block) + 1
    for offset, clone_block in enumerate(cloned_blocks + [continuation]):
        caller.insert_block(insert_at + offset, clone_block)

    # Replace uses of the call result.
    if call.has_result and call.name:
        values = [value for value, _ in returned if value is not None]
        if len(returned) == 1 and values:
            replacement: Value = values[0]
        elif values:
            phi = Instruction("phi", type=call.type, name=caller.new_value_name("inlret"))
            phi.set_phi_incoming([(value, source) for value, source in returned])
            continuation.insert(0, phi)
            replacement = phi
        else:
            replacement = Constant(call.type, 0)
        call.replace_all_uses_with(replacement)
    call.erase()


def _inline_functions(
    module: Module,
    touched: Set[Function],
    threshold: int,
    require_attribute: Optional[str] = None,
) -> bool:
    # Collect call sites up front; inlining mutates the functions being walked.
    call_sites = []
    for caller in module.defined_functions():
        for inst in caller.instructions():
            if inst.opcode != "call":
                continue
            callee = module.function(inst.attrs.get("callee", ""))
            if callee is None or callee.is_declaration or callee is caller:
                continue
            if _is_recursive(callee):
                continue
            if "noinline" in callee.attributes:
                continue
            if require_attribute and require_attribute not in callee.attributes:
                continue
            if len(callee) > threshold and "alwaysinline" not in callee.attributes:
                continue
            call_sites.append((caller, inst, callee))
    for caller, call, callee in call_sites:
        if call.parent is None:  # Removed by an earlier inline in this run.
            continue
        _inline_call_site(caller, call, callee)
        touched.add(caller)
    return bool(touched)


def inline_functions(module: Module, touched: Set[Function]) -> bool:
    """-inline: inline small functions into their callers."""
    return _inline_functions(module, touched, INLINE_THRESHOLD)


def always_inline(module: Module, touched: Set[Function]) -> bool:
    """-always-inline: inline only functions marked ``alwaysinline``."""
    return _inline_functions(module, touched, 0, require_attribute="alwaysinline")


def partial_inliner(module: Module, touched: Set[Function]) -> bool:
    """-partial-inliner: a higher-threshold inliner (outlining of cold regions
    is not modelled)."""
    return _inline_functions(module, touched, PARTIAL_INLINE_THRESHOLD)


def dead_argument_elimination(module: Module, touched: Set[Function]) -> bool:
    """-deadargelim: drop unused arguments of internal functions and update
    every call site."""
    for function in module.defined_functions():
        if function.name == "main":
            continue
        keep = [index for index, arg in enumerate(function.args) if arg.uses]
        if len(keep) == len(function.args):
            continue
        function.set_args([function.args[i] for i in keep])
        touched.add(function)
        for caller in module.defined_functions():
            for inst in caller.instructions():
                if inst.opcode == "call" and inst.attrs.get("callee") == function.name:
                    if len(inst.operands) > len(keep):
                        inst.set_operands(
                            [inst.operands[i] for i in keep if i < len(inst.operands)]
                        )
                        touched.add(caller)
    return bool(touched)


def _referenced_functions(module: Module) -> Set[str]:
    referenced = {"main"}
    for function in module.defined_functions():
        for inst in function.instructions():
            if inst.opcode == "call":
                referenced.add(inst.attrs.get("callee", ""))
            for operand in inst.operands:
                if isinstance(operand, Function):
                    referenced.add(operand.name)
    return referenced


def global_dce(module: Module, touched: Set[Function]) -> bool:
    """-globaldce: remove unreferenced functions and globals. Mutates no function."""
    changed = False
    referenced = _referenced_functions(module)
    for name in list(module.functions):
        if name not in referenced:
            module.remove_function(name)
            changed = True
    used_globals: Set[str] = set()
    for function in module.defined_functions():
        for inst in function.instructions():
            for operand in inst.operands:
                if isinstance(operand, GlobalVariable):
                    used_globals.add(operand.name)
    for name in list(module.globals):
        if name not in used_globals:
            module.remove_global(name)
            changed = True
    return changed


def strip_dead_prototypes(module: Module, touched: Set[Function]) -> bool:
    """-strip-dead-prototypes: remove unused external function declarations."""
    changed = False
    referenced = _referenced_functions(module)
    for name in list(module.functions):
        if module.functions[name].is_declaration and name not in referenced:
            module.remove_function(name)
            changed = True
    return changed


def global_opt(module: Module, touched: Set[Function]) -> bool:
    """-globalopt: replace loads of never-written globals with their initializer."""
    written: Set[str] = set()
    escaped: Set[str] = set()
    for function in module.defined_functions():
        for inst in function.instructions():
            for index, operand in enumerate(inst.operands):
                if not isinstance(operand, GlobalVariable):
                    continue
                if inst.opcode == "store" and index == 1:
                    written.add(operand.name)
                elif inst.opcode not in ("load",):
                    escaped.add(operand.name)
    for function in module.defined_functions():
        for block in function.blocks:
            for inst in list(block.instructions):
                if inst.opcode != "load":
                    continue
                pointer = inst.operands[0]
                if (
                    isinstance(pointer, GlobalVariable)
                    and pointer.name not in written
                    and pointer.name not in escaped
                    and pointer.array_size == 1
                ):
                    constant = Constant(inst.type, pointer.initializer)
                    inst.replace_all_uses_with(constant)
                    inst.erase()
                    touched.add(function)
    return bool(touched)


def merge_functions(module: Module, touched: Set[Function]) -> bool:
    """-mergefunc: merge structurally identical functions, redirecting calls."""
    from repro.llvm.ir.printer import print_function

    changed = False
    signatures: Dict[str, Function] = {}
    for function in list(module.defined_functions()):
        if function.name == "main":
            continue
        body = print_function(function)
        # Normalize the function's own name out of the signature.
        normalized = body.replace(f"@{function.name}(", "@__self__(")
        canonical = signatures.get(normalized)
        if canonical is None:
            signatures[normalized] = function
            continue
        # Redirect every call of the duplicate to the canonical function.
        for caller in module.defined_functions():
            for inst in caller.instructions():
                if inst.opcode == "call" and inst.attrs.get("callee") == function.name:
                    inst.set_attr("callee", canonical.name)
                    touched.add(caller)
        module.remove_function(function.name)
        changed = True
    return changed


def tail_call_elimination(function: Function) -> bool:
    """-tailcallelim (a function pass): mark calls in tail position.

    The IR has no dedicated tail-call lowering, so this only annotates the
    call; it reports a change the first time a tail call is marked.
    """
    changed = False
    for block in function.blocks:
        instructions = block.instructions
        for index, inst in enumerate(instructions[:-1]):
            if inst.opcode != "call" or inst.attrs.get("tail"):
                continue
            next_inst = instructions[index + 1]
            is_tail = next_inst.opcode == "ret" and (
                not next_inst.operands or next_inst.operands[0] is inst
            )
            if is_tail:
                inst.set_attr("tail", True)
                changed = True
    return changed


def argument_promotion(module: Module) -> bool:
    """-argpromotion: promote pointer arguments to value arguments. Pointer
    arguments are rare in the generated benchmarks, so this is typically a
    no-op action."""
    del module
    return False
