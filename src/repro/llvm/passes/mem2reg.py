"""Memory-to-register promotion: -mem2reg, -sroa, -reg2mem, -dse, -memcpyopt."""

from typing import Dict, List, Optional

from repro.llvm.ir.cfg import dominator_tree
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.module import Module
from repro.llvm.ir.types import PTR, VOID
from repro.llvm.ir.values import UndefValue, Value


def _promotable_allocas(function: Function) -> List[Instruction]:
    """Allocas used only by direct loads and stores (no GEPs, no escaping)."""
    return [
        inst
        for inst in function.instructions()
        if inst.opcode == "alloca"
        and all(
            user.opcode == "load"
            # The alloca is the store destination, not the stored value.
            or (user.opcode == "store" and user.operands[0] is not inst)
            for user in inst.uses
        )
    ]


def _promote_single_block(alloca: Instruction) -> bool:
    """Promote an alloca whose loads and stores all live in one basic block."""
    blocks = {user.parent for user in alloca.uses}
    if len(blocks) > 1:
        return False
    block = blocks.pop() if blocks else alloca.parent
    current: Optional[Value] = None
    for inst in list(block.instructions):
        if inst.opcode == "store" and inst.operands[1] is alloca:
            current = inst.operands[0]
            inst.erase()
        elif inst.opcode == "load" and inst.operands[0] is alloca:
            inst.replace_all_uses_with(current if current is not None else UndefValue(inst.type))
            inst.erase()
    alloca.erase()
    return True


def _promote_single_store(function: Function, alloca: Instruction) -> bool:
    """Promote an alloca with exactly one store that dominates every load."""
    stores = [user for user in alloca.uses if user.opcode == "store"]
    loads = [user for user in alloca.uses if user.opcode == "load"]
    if len(stores) != 1:
        return False
    store = stores[0]
    tree = dominator_tree(function)
    stored_value = store.operands[0]
    for load in loads:
        if load.parent is store.parent:
            if store.parent.instructions.index(store) > load.parent.instructions.index(load):
                return False
        elif not tree.dominates(store.parent, load.parent):
            return False
    for load in loads:
        load.replace_all_uses_with(stored_value)
        load.erase()
    store.erase()
    alloca.erase()
    return True


def promote_memory_to_registers(function: Function) -> bool:
    """-mem2reg: promote stack slots to SSA values.

    Two promotion strategies are implemented: block-local promotion (loads
    forward to the most recent store in the same block) and single-store
    promotion (the stored value dominates every load). These cover the stack
    slots emitted by the benchmark generators; allocas with more complex
    def-use webs are left in memory form, exactly as the real pass leaves
    address-taken allocas.
    """
    changed = False
    for alloca in _promotable_allocas(function):
        if _promote_single_store(function, alloca):
            changed = True
        elif _promote_single_block(alloca):
            changed = True
    return changed


def scalar_replacement_of_aggregates(function: Function) -> bool:
    """-sroa: on this IR aggregates are modelled as scalar allocas, so SROA
    reduces to mem2reg promotion."""
    return promote_memory_to_registers(function)


def demote_registers_to_memory(function: Function) -> bool:
    """-reg2mem: demote SSA values that cross block boundaries into stack slots.

    This is the inverse of mem2reg and exists (as in LLVM) mainly to make
    other transformations simpler; it increases instruction count.
    """
    changed = False
    entry = function.entry
    # Reloads are named in the program order of the uses they feed, and only
    # instructions that exist now are ever such a use.
    position = {inst: n for n, inst in enumerate(function.instructions())}
    for block in function.blocks:
        for inst in list(block.instructions):
            if not inst.has_result or inst.opcode in ("alloca", "phi"):
                continue
            users = set(inst.uses)  # Before the spill below adds a store.
            if all(user.parent is block for user in users) or any(
                user.opcode == "phi" for user in users
            ):
                continue
            alloca = Instruction(
                "alloca",
                [],
                type=PTR,
                name=function.new_value_name("slot"),
                attrs={"element_type": inst.type},
            )
            entry.insert(0, alloca)
            store = Instruction("store", [inst, alloca], type=VOID)
            block.insert(block.instructions.index(inst) + 1, store)
            for user in sorted((u for u in users if u.parent is not block), key=position.get):
                for index, operand in enumerate(user.operands):
                    if operand is inst:
                        load = Instruction(
                            "load", [alloca], type=inst.type, name=function.new_value_name("reload")
                        )
                        user.parent.insert(user.parent.instructions.index(user), load)
                        user.set_operand(index, load)
            changed = True
    return changed


def dead_store_elimination(function: Function) -> bool:
    """-dse: remove stores that are overwritten before any intervening load."""
    changed = False
    for block in function.blocks:
        last_store: Dict[int, Instruction] = {}
        for inst in list(block.instructions):
            if inst.opcode == "store":
                pointer = inst.operands[1]
                previous = last_store.get(id(pointer))
                if previous is not None and previous.parent is block:
                    previous.erase()
                    changed = True
                last_store[id(pointer)] = inst
            elif inst.opcode == "load":
                last_store.pop(id(inst.operands[0]), None)
            elif inst.opcode == "call":
                # Calls may read any memory: invalidate everything.
                last_store.clear()
    return changed


def memcpy_optimization(module: Module) -> bool:
    """-memcpyopt: this IR has no memcpy intrinsic, so the pass never fires.

    Kept as a registered action for action-space parity with the paper; like
    many real passes it is frequently a no-op for a given module.
    """
    del module
    return False
