"""Constant propagation passes: -constprop, -sccp, -ipsccp, -constmerge."""

from typing import Dict, Set

from repro.llvm.ir.function import Function
from repro.llvm.ir.module import Module
from repro.llvm.ir.values import Constant
from repro.llvm.passes.utils import fold_instruction, make_unconditional


def constant_propagation(function: Function) -> bool:
    """-constprop: fold instructions with constant operands and propagate the
    results."""
    changed = False
    progress = True
    while progress:
        progress = False
        for block in function.blocks:
            for inst in list(block.instructions):
                folded = fold_instruction(inst)
                if folded is None:
                    continue
                inst.replace_all_uses_with(folded)
                inst.erase()
                changed = True
                progress = True
    return changed


def fold_constant_branches(function: Function) -> bool:
    """Rewrite conditional branches and switches on constants."""
    changed = False
    for block in function.blocks:
        terminator = block.terminator
        if terminator is None:
            continue
        if terminator.opcode == "br" and len(terminator.operands) == 3:
            condition = terminator.operands[0]
            if isinstance(condition, Constant):
                target = terminator.operands[1] if condition.value else terminator.operands[2]
                make_unconditional(block, target)
                changed = True
        elif terminator.opcode == "switch":
            value = terminator.operands[0]
            if isinstance(value, Constant):
                target = terminator.operands[1]  # Default.
                for i in range(2, len(terminator.operands), 2):
                    case_const, case_block = terminator.operands[i], terminator.operands[i + 1]
                    if isinstance(case_const, Constant) and case_const.value == value.value:
                        target = case_block
                        break
                make_unconditional(block, target)
                changed = True
    return changed


def sparse_conditional_constant_propagation(function: Function) -> bool:
    """-sccp: constant propagation plus folding of branches on constants."""
    changed = constant_propagation(function)
    if fold_constant_branches(function):
        changed = True
    return changed


def interprocedural_sccp(module: Module, touched: Set[Function]) -> bool:
    """-ipsccp: SCCP plus propagation of constant arguments into callees.

    If every call site of an internal function passes the same constant for an
    argument, the argument is replaced by that constant inside the callee.
    """
    functions = module.defined_functions()
    touched.update(f for f in functions if sparse_conditional_constant_propagation(f))
    # Gather call sites per callee.
    call_args: Dict[str, list] = {}
    for function in functions:
        for inst in function.instructions():
            if inst.opcode == "call":
                call_args.setdefault(inst.attrs.get("callee", ""), []).append(inst.operands)
    for callee_name, sites in call_args.items():
        callee = module.function(callee_name)
        if callee is None or callee.is_declaration or callee.name == "main":
            continue
        for index, arg in enumerate(callee.args):
            values = {  # The distinct constants passed for this argument.
                (operands[index].type.name, operands[index].value)
                for operands in sites
                if index < len(operands) and isinstance(operands[index], Constant)
            }
            all_constant = all(
                index < len(operands) and isinstance(operands[index], Constant)
                for operands in sites
            )
            if all_constant and len(values) == 1 and sites:
                type_name, value = next(iter(values))
                constant = Constant(arg.type, value)
                if arg.replace_all_uses_with(constant):
                    touched.add(callee)
    if touched:
        touched.update(f for f in functions if constant_propagation(f))
    return bool(touched)


def constant_merge(module: Module, touched: Set[Function]) -> bool:
    """-constmerge: merge duplicate constant globals."""
    changed = False
    seen: Dict[tuple, str] = {}
    replacements: Dict[str, str] = {}
    for name, global_var in list(module.globals.items()):
        if not global_var.is_constant_global:
            continue
        key = (global_var.element_type.name, global_var.initializer, global_var.array_size)
        if key in seen:
            replacements[name] = seen[key]
        else:
            seen[key] = name
    for old_name, new_name in replacements.items():
        old = module.globals[old_name]
        new = module.globals[new_name]
        touched.update(user.parent.parent for user in old.uses)
        old.replace_all_uses_with(new)
        module.remove_global(old_name)
        changed = True
    return changed
