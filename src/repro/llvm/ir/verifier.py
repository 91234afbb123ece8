"""IR verifier: structural *and* semantic invariants.

Checks the invariants that the passes rely on, mirroring LLVM's ``-verify``
machinery. Structural checks (terminators, operand membership, phi placement)
catch malformed IR; semantic checks catch *miscompiling* IR that is still
structurally plausible:

- **SSA dominance**: every use of an instruction's value must be dominated by
  its definition (phi operands must instead dominate the end of their incoming
  block). This is the check that catches illegal hoists and sinks.
- **Phi coherence**: a phi's incoming blocks must match the block's CFG
  predecessors exactly, and every incoming value must match the phi's type.
- **Operand typing**: binary/compare/cast/memory/terminator operands must have
  the types their opcode requires, and calls must match their callee's
  signature.

The structural mode also audits the bookkeeping that the IR mutation surface
maintains (see "Mutating the IR" in ``passes.registry``), so a pass that wrote
``inst.operands[i]`` or ``block.instructions`` behind its back is caught here
rather than by whatever later reads the stale state: every operand slot is
registered exactly once in its operand's ``uses``, no use list names an erased
or foreign instruction, the function's name sets equal the names in it, and
the cached CFG analyses equal freshly computed ones. That audit is a test
oracle for the passes, not a check of the program: ``bookkeeping=False``
leaves it out, as the ``-verify`` action does.

The environment verifies the module after every pass when running in debug
mode (``REPRO_VERIFY_IR=1`` / ``make(..., verify_ir=True)``), and the
pass-validation harness (``repro-compilergym lint``) uses it to vet every
registered pass over the builtin datasets.

Dominance requires a dominator-tree construction per function, so
``verify_module(module, semantic=False)`` retains the cheap structural-only
mode for hot paths that want a quick sanity check.
"""

from typing import Dict, List

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.module import Module
from repro.llvm.ir.types import I1, Type
from repro.llvm.ir.values import Argument, Constant, GlobalVariable, UndefValue
from repro.llvm.ir.cfg import dominator_tree, predecessors, reachable_blocks, stale_analyses


class VerificationError(Exception):
    """The module violates an IR structural or semantic invariant."""

    def __init__(self, errors: List[str]):
        self.errors = errors
        super().__init__("\n".join(errors))


# Cast opcodes grouped by the (operand kind -> result kind) they require.
_INT_TO_INT_CASTS = frozenset({"zext", "sext", "trunc"})
_FLOAT_TO_FLOAT_CASTS = frozenset({"fpext", "fptrunc"})


def _kind(type: Type) -> str:  # noqa: A002
    if type.is_integer:
        return "int"
    if type.is_float:
        return "float"
    if type.is_pointer:
        return "ptr"
    return type.name


def _type_errors(function: Function, module: Module, inst: Instruction, where: str) -> List[str]:
    """Operand/result type rules for one instruction."""
    errors: List[str] = []
    op = inst.opcode

    def operand_types_must_match_result(operands) -> None:
        for operand in operands:
            if isinstance(operand, UndefValue):
                continue  # undef is freely retyped, as when phis lack a value.
            if operand.type is not inst.type:
                errors.append(
                    f"{where}: {op} operand {operand.short()} has type "
                    f"{operand.type}, expected {inst.type}"
                )

    if inst.is_binary:
        if len(inst.operands) != 2:
            return [f"{where}: {op} must have exactly 2 operands"]
        if inst.type.is_void:
            errors.append(f"{where}: {op} result cannot be void")
        operand_types_must_match_result(inst.operands)
        if op.startswith("f") and not inst.type.is_float:
            errors.append(f"{where}: {op} requires a floating-point type, got {inst.type}")
        if not op.startswith("f") and inst.type.is_float:
            errors.append(f"{where}: {op} is an integer operation, got {inst.type}")
    elif inst.is_compare:
        if len(inst.operands) != 2:
            return [f"{where}: {op} must have exactly 2 operands"]
        if inst.type is not I1:
            errors.append(f"{where}: {op} result must be i1, got {inst.type}")
        lhs, rhs = inst.operands
        if (
            not isinstance(lhs, UndefValue)
            and not isinstance(rhs, UndefValue)
            and lhs.type is not rhs.type
        ):
            errors.append(
                f"{where}: {op} operand types differ ({lhs.type} vs {rhs.type})"
            )
    elif inst.is_cast:
        if len(inst.operands) != 1:
            return [f"{where}: {op} must have exactly 1 operand"]
        source = inst.operands[0].type
        if isinstance(inst.operands[0], UndefValue):
            return errors
        expected = {
            "zext": ("int", "int"), "sext": ("int", "int"), "trunc": ("int", "int"),
            "ptrtoint": ("ptr", "int"), "inttoptr": ("int", "ptr"),
            "sitofp": ("int", "float"), "fptosi": ("float", "int"),
            "fpext": ("float", "float"), "fptrunc": ("float", "float"),
        }.get(op)
        if expected is not None:
            source_kind, result_kind = expected
            if _kind(source) != source_kind or _kind(inst.type) != result_kind:
                errors.append(
                    f"{where}: {op} requires {source_kind} -> {result_kind}, "
                    f"got {source} -> {inst.type}"
                )
    elif op == "alloca":
        if not inst.type.is_pointer:
            errors.append(f"{where}: alloca result must be ptr, got {inst.type}")
    elif op == "load":
        if len(inst.operands) != 1:
            return [f"{where}: load must have exactly 1 operand"]
        if not inst.operands[0].type.is_pointer:
            errors.append(
                f"{where}: load address {inst.operands[0].short()} is not a pointer"
            )
    elif op == "store":
        if len(inst.operands) != 2:
            return [f"{where}: store must have exactly 2 operands"]
        if not inst.operands[1].type.is_pointer:
            errors.append(
                f"{where}: store address {inst.operands[1].short()} is not a pointer"
            )
        if inst.operands[0].type.is_void:
            errors.append(f"{where}: cannot store a void value")
    elif op == "getelementptr":
        if not inst.operands:
            return [f"{where}: getelementptr must have a base operand"]
        if not inst.operands[0].type.is_pointer:
            errors.append(
                f"{where}: getelementptr base {inst.operands[0].short()} is not a pointer"
            )
        if not inst.type.is_pointer:
            errors.append(f"{where}: getelementptr result must be ptr, got {inst.type}")
        for index in inst.operands[1:]:
            if not (index.type.is_integer or isinstance(index, UndefValue)):
                errors.append(
                    f"{where}: getelementptr index {index.short()} is not an integer"
                )
    elif op == "select":
        if len(inst.operands) != 3:
            return [f"{where}: select must have exactly 3 operands"]
        cond = inst.operands[0]
        if not isinstance(cond, UndefValue) and cond.type is not I1:
            errors.append(f"{where}: select condition must be i1, got {cond.type}")
        operand_types_must_match_result(inst.operands[1:])
    elif op == "phi":
        for value, _ in inst.phi_incoming():
            if isinstance(value, (UndefValue, BasicBlock)):
                continue
            if value.type is not inst.type:
                errors.append(
                    f"{where}: phi incoming value {value.short()} has type "
                    f"{value.type}, expected {inst.type}"
                )
    elif op == "br":
        if len(inst.operands) == 3:
            cond = inst.operands[0]
            if not isinstance(cond, UndefValue) and cond.type is not I1:
                errors.append(f"{where}: branch condition must be i1, got {cond.type}")
    elif op == "switch":
        if len(inst.operands) >= 1 and not inst.operands[0].type.is_integer:
            errors.append(
                f"{where}: switch value {inst.operands[0].short()} is not an integer"
            )
        for i in range(2, len(inst.operands), 2):
            case = inst.operands[i]
            if not isinstance(case, Constant):
                errors.append(f"{where}: switch case {case!r} is not a constant")
    elif op == "ret":
        if function.return_type.is_void:
            if inst.operands:
                errors.append(f"{where}: void function returns a value")
        else:
            if not inst.operands:
                errors.append(
                    f"{where}: non-void function @{function.name} returns no value"
                )
            elif (
                not isinstance(inst.operands[0], UndefValue)
                and inst.operands[0].type is not function.return_type
            ):
                errors.append(
                    f"{where}: returned value has type {inst.operands[0].type}, "
                    f"function returns {function.return_type}"
                )
    elif op == "call":
        callee = module.function(inst.attrs.get("callee", ""))
        if callee is not None and not callee.is_declaration:
            if len(inst.operands) != len(callee.args):
                errors.append(
                    f"{where}: call to @{callee.name} passes {len(inst.operands)} "
                    f"argument(s), expected {len(callee.args)}"
                )
            if not inst.type.is_void and inst.type is not callee.return_type:
                errors.append(
                    f"{where}: call result type {inst.type} does not match "
                    f"@{callee.name} return type {callee.return_type}"
                )
    return errors


def _dominance_errors(function: Function) -> List[str]:
    """SSA dominance: every use is dominated by its def.

    Only reachable code is checked (dominance is vacuous in unreachable
    blocks, matching LLVM). Phi operands are checked against the end of their
    incoming block rather than the phi itself.
    """
    errors: List[str] = []
    tree = dominator_tree(function)
    reachable = tree.reachable
    # Instruction positions for same-block dominance queries, computed once.
    positions: Dict[Instruction, int] = {}
    for block in function.blocks:
        for index, inst in enumerate(block.instructions):
            positions[inst] = index

    def defined_in_dominating_position(definition: Instruction, use: Instruction) -> bool:
        def_block, use_block = definition.parent, use.parent
        if def_block is not use_block:
            return tree.dominates(def_block, use_block)
        if use.opcode == "phi":
            return definition.opcode == "phi"
        if definition.opcode == "phi":
            return True
        return positions[definition] < positions[use]

    for block in function.blocks:
        if block not in reachable:
            continue
        for inst in block.instructions:
            where = f"@{function.name}/%{block.name}"
            if inst.opcode == "phi":
                for value, incoming in inst.phi_incoming():
                    if not isinstance(value, Instruction) or value.parent is None:
                        continue
                    if incoming not in reachable:
                        continue
                    if not tree.dominates(value.parent, incoming):
                        errors.append(
                            f"{where}: phi %{inst.name} incoming value "
                            f"%{value.name} from %{incoming.name} does not "
                            f"dominate the end of %{incoming.name}"
                        )
                continue
            for index, operand in enumerate(inst.operands):
                if inst._operand_is_block(index):
                    continue
                if not isinstance(operand, Instruction) or operand.parent is None:
                    continue
                if not defined_in_dominating_position(operand, inst):
                    errors.append(
                        f"{where}: use of %{operand.name} by "
                        f"{'%' + inst.name if inst.name else inst.opcode} is not "
                        f"dominated by its definition in %{operand.parent.name}"
                    )
    return errors


def _bookkeeping_errors(function: Function, module: Module) -> List[str]:
    """What the mutation surface maintains must equal what a scan finds."""
    errors: List[str] = []
    where = f"@{function.name}"
    instructions = list(function.instructions())
    attached = set(instructions)
    # Who holds each value in an operand slot here. Keyed by id(): constants
    # compare by value, and the slots keep every operand alive meanwhile.
    holders: Dict[int, tuple] = {
        id(value): (value, []) for value in (*function.args, *function.blocks, *instructions)
    }
    for inst in instructions:
        for operand in inst.operands:
            holder = holders.get(id(operand))
            if holder is None:
                holder = holders[id(operand)] = (operand, [])
            holder[1].append(inst)
    for value, users in holders.values():
        local = isinstance(value, (Argument, BasicBlock, Instruction))
        listed = []
        for user in value.uses:
            if user in attached:
                listed.append(user)
                continue
            home = user.parent.parent if user.parent is not None else None
            if home is None or module.functions.get(home.name) is not home:
                errors.append(
                    f"{where}: use list of {value.short()} names an erased or detached "
                    f"{user.opcode}"
                )
            elif local:
                errors.append(
                    f"{where}: use list of {value.short()} names a {user.opcode} in "
                    f"@{home.name}"
                )
        if sorted(map(id, listed)) != sorted(map(id, users)):
            errors.append(
                f"{where}: use list of {value.short()} does not match the operand slots "
                f"holding it (an operand was written behind the IR's back)"
            )
    value_names = {arg.name for arg in function.args}
    value_names.update(inst.name for inst in instructions if inst.name)
    block_names = {block.name for block in function.blocks}
    for kind, kept, found in (
        ("value", function._value_names, value_names),
        ("block", function._block_names, block_names),
    ):
        if kept != found:
            errors.append(f"{where}: {kind} name set is stale: {sorted(kept ^ found)}")
    errors.extend(f"{where}: cached {name} is stale" for name in stale_analyses(function))
    return errors


def verify_function(function: Function, module: Module, semantic: bool = True) -> List[str]:
    errors: List[str] = []
    if function.is_declaration:
        return errors

    block_set = set(function.blocks)
    defined_values = set(function.args)
    for block in function.blocks:
        for inst in block.instructions:
            defined_values.add(inst)

    names = [inst.name for inst in function.instructions() if inst.name]
    if len(names) != len(set(names)):
        duplicates = sorted({n for n in names if names.count(n) > 1})
        errors.append(f"@{function.name}: duplicate value names {duplicates}")

    preds = predecessors(function)
    reachable = reachable_blocks(function)

    for block in function.blocks:
        if block.terminator is None:
            errors.append(f"@{function.name}/%{block.name}: block has no terminator")
        for position, inst in enumerate(block.instructions):
            where = f"@{function.name}/%{block.name}"
            if inst.is_terminator and position != len(block.instructions) - 1:
                errors.append(f"{where}: terminator is not the last instruction")
            if inst.opcode == "phi" and position >= len(block.phis()):
                errors.append(f"{where}: phi after non-phi instruction")
            if inst.has_result and not inst.name:
                errors.append(f"{where}: {inst.opcode} result has no name")
            for i, operand in enumerate(inst.operands):
                if isinstance(operand, BasicBlock):
                    if operand not in block_set:
                        errors.append(
                            f"{where}: reference to block %{operand.name} not in function"
                        )
                elif isinstance(operand, Instruction):
                    if operand not in defined_values:
                        errors.append(
                            f"{where}: use of value %{operand.name} not defined in function"
                        )
                elif isinstance(operand, (Constant, Argument, GlobalVariable, UndefValue)):
                    if isinstance(operand, Argument) and operand not in defined_values:
                        errors.append(f"{where}: use of foreign argument %{operand.name}")
                    if (
                        isinstance(operand, GlobalVariable)
                        and operand.name not in module.globals
                    ):
                        errors.append(f"{where}: use of unknown global @{operand.name}")
                elif isinstance(operand, Function):
                    if operand.name not in module.functions:
                        errors.append(f"{where}: use of unknown function @{operand.name}")
                else:
                    errors.append(f"{where}: invalid operand {operand!r}")
            if inst.opcode == "phi" and block in reachable:
                incoming_blocks = [incoming for _, incoming in inst.phi_incoming()]
                expected = set(preds[block])
                if set(incoming_blocks) != expected:
                    errors.append(
                        f"{where}: phi incoming blocks "
                        f"{sorted(b.name for b in incoming_blocks)} do not match predecessors "
                        f"{sorted(b.name for b in expected)}"
                    )
                if len(incoming_blocks) != len(set(incoming_blocks)):
                    errors.append(f"{where}: phi lists an incoming block twice")
            if inst.opcode == "call":
                callee = inst.attrs.get("callee")
                if callee and callee not in module.functions:
                    errors.append(f"{where}: call to unknown function @{callee}")
            if semantic:
                errors.extend(_type_errors(function, module, inst, where))

    # Dominance needs structurally coherent blocks to be meaningful; skip it
    # when structure is already broken (the structural errors say it all).
    if semantic and not errors:
        errors.extend(_dominance_errors(function))
    return errors


def verify_module(
    module: Module, raise_on_error: bool = True, semantic: bool = True, bookkeeping: bool = True
) -> List[str]:
    """Verify a module. Returns the list of errors (empty if valid).

    ``semantic=False`` restricts verification to the cheap structural checks
    (no dominator-tree construction, no type rules). ``bookkeeping=False``
    skips the audit of what the mutation surface maintains.
    """
    errors: List[str] = []
    for function in module.functions.values():
        audit = []
        if bookkeeping and not function.is_declaration:
            audit = _bookkeeping_errors(function, module)
            errors.extend(audit)
        # Stale CFG caches can mislead the dominance check, so a failed audit
        # is reported with the structural errors only.
        errors.extend(verify_function(function, module, semantic=semantic and not audit))
    if errors and raise_on_error:
        raise VerificationError(errors)
    return errors
