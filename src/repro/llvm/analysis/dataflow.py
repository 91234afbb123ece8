"""A generic worklist dataflow solver, with liveness and reaching definitions.

The framework follows the textbook shape: a :class:`DataflowProblem` declares
a direction, lattice operations (``meet`` over set union by default), and a
block transfer function; :func:`solve` iterates a worklist seeded in reverse
postorder (forward) or postorder (backward) until a fixed point.

Problems may also override ``edge_value`` to make the meet edge-sensitive —
liveness uses this so that a phi's incoming values are live only on the edges
they flow along, rather than conservatively in every predecessor.

Concrete instances:

- :func:`liveness`: backward may-analysis of live SSA values per block.
- :func:`reaching_definitions`: forward may-analysis of which instruction
  definitions reach each block.
- :func:`use_def_chains` / :func:`def_use_chains`: per-use resolution of SSA
  operands to their defining instructions (trivial in SSA form, but exposed
  in chain form for consumers like the verifier and feature extractors).
"""

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.cfg import predecessors, reverse_postorder
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.values import Argument, Value

FORWARD = "forward"
BACKWARD = "backward"


class DataflowProblem:
    """A dataflow problem over sets of facts (the default lattice).

    Subclasses set :attr:`direction` and implement :meth:`transfer`; the
    remaining hooks have set-union defaults that fit may-analyses.
    """

    direction: str = FORWARD

    def boundary(self, function: Function) -> FrozenSet:
        """The value at the entry (forward) or at every exit (backward)."""
        del function
        return frozenset()

    def initial(self, function: Function, block: BasicBlock) -> FrozenSet:
        """The optimistic starting value of every block."""
        del function, block
        return frozenset()

    def meet(self, values: Iterable[FrozenSet]) -> FrozenSet:
        """Combine the values flowing in from neighboring blocks."""
        result = frozenset()
        for value in values:
            result |= value
        return result

    def edge_value(self, block: BasicBlock, neighbor: BasicBlock, value: FrozenSet) -> FrozenSet:
        """The neighbor's solution as seen along the ``block``/``neighbor`` edge.

        Forward problems see ``neighbor``'s OUT flowing into ``block``;
        backward problems see ``neighbor``'s IN flowing back into ``block``.
        The default is edge-insensitive.
        """
        del block, neighbor
        return value

    def transfer(self, block: BasicBlock, value: FrozenSet) -> FrozenSet:
        """Apply the block's transfer function to the incoming value."""
        raise NotImplementedError


class DataflowResult:
    """The fixed-point solution: a value at each block boundary.

    ``in_of``/``out_of`` are in *program order* regardless of the problem's
    direction: ``in_of`` is the value at the top of the block, ``out_of`` at
    the bottom.
    """

    def __init__(self, problem: DataflowProblem, entry_values: Dict, exit_values: Dict):
        self.problem = problem
        self._in = entry_values
        self._out = exit_values

    def in_of(self, block: BasicBlock) -> FrozenSet:
        return self._in.get(block, frozenset())

    def out_of(self, block: BasicBlock) -> FrozenSet:
        return self._out.get(block, frozenset())


def solve(function: Function, problem: DataflowProblem) -> DataflowResult:
    """Iterate ``problem`` over ``function``'s CFG to a fixed point."""
    if function.is_declaration:
        return DataflowResult(problem, {}, {})
    forward = problem.direction == FORWARD
    reachable = reverse_postorder(function)
    # Unreachable blocks still get a (locally converged) solution so that
    # consumers can query any block; append them after the reachable ones.
    # (A new list: the reverse postorder is the function's cached copy.)
    seen = set(reachable)
    order = reachable + [b for b in function.blocks if b not in seen]
    if not forward:
        order = list(reversed(order))
    preds = predecessors(function)
    neighbors = (
        {block: list(preds[block]) for block in function.blocks}
        if forward
        else {block: block.successors() for block in function.blocks}
    )

    boundary = problem.boundary(function)
    incoming: Dict[BasicBlock, FrozenSet] = {}
    outgoing: Dict[BasicBlock, FrozenSet] = {
        block: problem.initial(function, block) for block in function.blocks
    }
    position = {block: i for i, block in enumerate(order)}
    pending = dict.fromkeys(order)  # Insertion-ordered worklist set.
    while pending:
        block = next(iter(pending))
        del pending[block]
        flowed = [
            problem.edge_value(block, neighbor, outgoing[neighbor])
            for neighbor in neighbors[block]
        ]
        is_boundary_block = (block is function.entry) if forward else (not block.successors())
        if is_boundary_block:
            flowed.append(boundary)
        value = problem.meet(flowed)
        incoming[block] = value
        new_out = problem.transfer(block, value)
        if new_out != outgoing[block]:
            outgoing[block] = new_out
            dependents = (
                block.successors()
                if forward
                else [p for p in preds[block]]
            )
            for dependent in sorted(dependents, key=lambda b: position.get(b, 0)):
                pending[dependent] = None

    if forward:
        return DataflowResult(problem, incoming, outgoing)
    return DataflowResult(problem, outgoing, incoming)


# -- liveness ------------------------------------------------------------------


def _is_trackable(value: Value) -> bool:
    """Liveness tracks SSA values with defs: instructions and arguments."""
    return isinstance(value, (Instruction, Argument))


class LivenessProblem(DataflowProblem):
    """Backward may-analysis: which SSA values are live at block boundaries.

    Phi semantics follow SSA convention: a phi's incoming value is treated as
    used at the end of the corresponding predecessor (so it is live on that
    edge only), and phi results are defined at the top of their block.
    """

    direction = BACKWARD

    def __init__(self, function: Function):
        self.uses: Dict[BasicBlock, FrozenSet] = {}
        self.defs: Dict[BasicBlock, FrozenSet] = {}
        self.phi_uses: Dict[Tuple[BasicBlock, BasicBlock], FrozenSet] = {}
        for block in function.blocks:
            upward_exposed = set()
            defined = set()
            for inst in block.instructions:
                if inst.opcode != "phi":
                    for operand in inst.value_operands():
                        if _is_trackable(operand) and operand not in defined:
                            upward_exposed.add(operand)
                if inst.has_result:
                    defined.add(inst)
            self.uses[block] = frozenset(upward_exposed)
            self.defs[block] = frozenset(defined)
        for block in function.blocks:
            for phi in block.phis():
                for value, incoming in phi.phi_incoming():
                    if _is_trackable(value):
                        key = (incoming, block)
                        self.phi_uses[key] = self.phi_uses.get(key, frozenset()) | {value}

    def edge_value(self, block: BasicBlock, successor: BasicBlock, live_in: FrozenSet) -> FrozenSet:
        # Along the block->successor edge: the successor's live-in minus its
        # phi defs (phis are defs, handled by transfer via self.defs), plus
        # the values its phis read specifically from this predecessor.
        return live_in | self.phi_uses.get((block, successor), frozenset())

    def transfer(self, block: BasicBlock, live_out: FrozenSet) -> FrozenSet:
        return self.uses[block] | (live_out - self.defs[block])


def liveness(function: Function) -> DataflowResult:
    """Per-block live-in/live-out sets of SSA values.

    ``result.in_of(block)`` is the set of values live at the top of the block
    (before its phis execute); ``result.out_of(block)`` the set live at the
    bottom, including values read by successor phis along the outgoing edges.
    """
    return solve(function, LivenessProblem(function))


# -- reaching definitions ------------------------------------------------------


class ReachingDefinitionsProblem(DataflowProblem):
    """Forward may-analysis: which instruction defs reach each block.

    In SSA form every value has exactly one def, so there are no kills: a def
    reaches a block iff some CFG path from the def's block leads there. The
    analysis is still useful in aggregate (the ``ReachingDefs`` observation
    space) and doubles as a cross-check of dominance for the verifier tests.
    """

    direction = FORWARD

    def __init__(self, function: Function):
        self.gen: Dict[BasicBlock, FrozenSet] = {
            block: frozenset(inst for inst in block.instructions if inst.has_result)
            for block in function.blocks
        }

    def boundary(self, function: Function) -> FrozenSet:
        return frozenset(function.args)

    def transfer(self, block: BasicBlock, reaching_in: FrozenSet) -> FrozenSet:
        return reaching_in | self.gen[block]


def reaching_definitions(function: Function) -> DataflowResult:
    """Per-block reaching-definition sets (args + instruction results)."""
    return solve(function, ReachingDefinitionsProblem(function))


# -- use-def chains ------------------------------------------------------------


def use_def_chains(function: Function) -> Dict[Tuple[Instruction, int], Value]:
    """Map every SSA-value operand position to the value it reads.

    Keys are ``(instruction, operand_index)``; values are the defining
    :class:`Instruction`, :class:`Argument`, etc. Constants and block
    references are excluded.
    """
    chains: Dict[Tuple[Instruction, int], Value] = {}
    for block in function.blocks:
        for inst in block.instructions:
            for index, operand in enumerate(inst.operands):
                if inst._operand_is_block(index):
                    continue
                if _is_trackable(operand):
                    chains[(inst, index)] = operand
    return chains


def def_use_chains(function: Function) -> Dict[Value, List[Tuple[Instruction, int]]]:
    """Map every def (instruction or argument) to its list of uses."""
    chains: Dict[Value, List[Tuple[Instruction, int]]] = {}
    for (inst, index), definition in use_def_chains(function).items():
        chains.setdefault(definition, []).append((inst, index))
    return chains
