"""Control-flow analyses: CFG, dominator tree, natural loops.

:func:`predecessors`, :func:`reverse_postorder`, :func:`dominator_tree` and
:func:`natural_loops` are computed once per CFG, not once per caller: the
result is kept on the function (``Function._analyses``) and dropped by the IR
mutation surface the moment the block list or a terminator's successors
change — also in the middle of a pass, which a key made of the function's
``stamp`` could not do. Callers share the returned objects and must not
mutate them.

The immediate-dominator tree is computed with the Cooper–Harvey–Kennedy
iterative algorithm over reverse postorder — simpler than Lengauer–Tarjan and,
at the module sizes the benchmarks use, just as fast in practice. It is the
one dominator computation: the passes, :func:`natural_loops`, the semantic
verifier (every SSA use must be dominated by its def) and the
``DomTreeDepth`` observation space all read it. Only blocks reachable from
the entry participate: unreachable blocks have no immediate dominator and are
reported via :attr:`DominatorTree.unreachable`.
"""

import functools
from typing import Callable, Dict, List, Optional, Set

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction


def _once_per_cfg(compute: Callable) -> Callable:
    """Cache ``compute(function)`` on the function until its CFG changes."""
    key = compute.__name__

    @functools.wraps(compute)
    def cached(function: Function):
        try:
            return function._analyses[key]
        except KeyError:
            result = function._analyses[key] = compute(function)
            return result

    return cached


@_once_per_cfg
def predecessors(function: Function) -> Dict[BasicBlock, List[BasicBlock]]:
    """Map from each block to the list of its CFG predecessors."""
    preds: Dict[BasicBlock, List[BasicBlock]] = {block: [] for block in function.blocks}
    for block in function.blocks:
        for successor in block.successors():
            if successor in preds:
                preds[successor].append(block)
    return preds


@_once_per_cfg
def reverse_postorder(function: Function) -> List[BasicBlock]:
    """Blocks in reverse postorder of a DFS from the entry."""
    visited: Set[BasicBlock] = set()
    postorder: List[BasicBlock] = []

    def visit(block: BasicBlock) -> None:
        stack = [(block, iter(block.successors()))]
        visited.add(block)
        while stack:
            current, successors = stack[-1]
            advanced = False
            for successor in successors:
                if successor not in visited:
                    visited.add(successor)
                    stack.append((successor, iter(successor.successors())))
                    advanced = True
                    break
            if not advanced:
                postorder.append(current)
                stack.pop()

    if function.entry is not None:
        visit(function.entry)
    return list(reversed(postorder))


def reachable_blocks(function: Function) -> Set[BasicBlock]:
    """The set of blocks reachable from the entry block."""
    return set(reverse_postorder(function))


class DominatorTree:
    """The dominator tree of a function's reachable CFG.

    Attributes:
        root: The entry block (``None`` for declarations).
        idom: Immediate dominator of each reachable block (entry maps to
            ``None``).
        children: Dominator-tree children of each reachable block.
        depth: Depth of each reachable block in the tree (entry is 0).
        unreachable: Blocks not reachable from the entry, in function order.
    """

    def __init__(self, function: Function):
        self.function = function
        self.root: Optional[BasicBlock] = function.entry
        self.idom: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self.children: Dict[BasicBlock, List[BasicBlock]] = {}
        self.depth: Dict[BasicBlock, int] = {}
        self._rpo_index: Dict[BasicBlock, int] = {}
        self.unreachable: List[BasicBlock] = []
        if self.root is None:
            return

        order = reverse_postorder(function)
        self._rpo_index = {block: i for i, block in enumerate(order)}
        reachable = set(order)
        self.unreachable = [b for b in function.blocks if b not in reachable]
        preds = predecessors(function)

        # Cooper–Harvey–Kennedy: iterate idom approximations to a fixed point.
        idom: Dict[BasicBlock, Optional[BasicBlock]] = {self.root: self.root}
        changed = True
        while changed:
            changed = False
            for block in order:
                if block is self.root:
                    continue
                new_idom: Optional[BasicBlock] = None
                for pred in preds[block]:
                    if pred not in idom:
                        continue  # Not yet processed (or unreachable).
                    new_idom = pred if new_idom is None else self._intersect(idom, pred, new_idom)
                if new_idom is not None and idom.get(block) is not new_idom:
                    idom[block] = new_idom
                    changed = True

        idom[self.root] = None
        self.idom = idom
        self.children = {block: [] for block in order}
        for block in order:
            parent = idom[block]
            if parent is not None:
                self.children[parent].append(block)
        # Depths via BFS from the root (children lists are in RPO already).
        self.depth[self.root] = 0
        worklist = [self.root]
        while worklist:
            block = worklist.pop()
            for child in self.children[block]:
                self.depth[child] = self.depth[block] + 1
                worklist.append(child)

    def _intersect(self, idom, a: BasicBlock, b: BasicBlock) -> BasicBlock:
        """Nearest common ancestor of two blocks in the (partial) idom tree."""
        index = self._rpo_index
        while a is not b:
            while index[a] > index[b]:
                a = idom[a]
            while index[b] > index[a]:
                b = idom[b]
        return a

    # -- queries ---------------------------------------------------------------

    @property
    def reachable(self) -> Set[BasicBlock]:
        """The set of blocks reachable from the entry."""
        return set(self.idom)

    def dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        """Whether block ``a`` dominates block ``b`` (reflexively).

        Unreachable blocks neither dominate nor are dominated by anything
        (matching LLVM, where dominance queries on unreachable code are
        vacuous and the verifier skips them).
        """
        if a not in self.idom or b not in self.idom:
            return False
        while b is not None and self.depth.get(b, 0) > self.depth[a]:
            b = self.idom[b]
        return a is b

    def strictly_dominates(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates(a, b)

    def instruction_dominates(self, definition: Instruction, use: Instruction) -> bool:
        """Whether ``definition``'s value is available at ``use``.

        Within one block, an instruction dominates every later instruction;
        phi nodes conceptually define their value at the top of the block.
        Phi *operands* must not be checked with this helper — an incoming
        value only needs to dominate the end of its incoming block (see
        :meth:`value_reaches_end_of_block`).
        """
        def_block, use_block = definition.parent, use.parent
        if def_block is None or use_block is None:
            return False
        if def_block is not use_block:
            return self.dominates(def_block, use_block)
        if use.opcode == "phi":
            # A non-phi def in the same block never dominates a phi above it;
            # a phi def does (all phis define "simultaneously" at the top).
            return definition.opcode == "phi"
        if definition.opcode == "phi" and use.opcode != "phi":
            return True
        instructions = def_block.instructions
        return instructions.index(definition) < instructions.index(use)

    def value_reaches_end_of_block(self, definition: Instruction, block: BasicBlock) -> bool:
        """Whether ``definition`` is available at the terminator of ``block``.

        This is the dominance rule for phi operands: the incoming value for
        predecessor P must dominate the *end* of P, not the phi itself.
        """
        def_block = definition.parent
        if def_block is None:
            return False
        return self.dominates(def_block, block)

    def frontiers(self) -> Dict[BasicBlock, Set[BasicBlock]]:
        """Dominance frontiers of every reachable block (Cytron et al.)."""
        frontier: Dict[BasicBlock, Set[BasicBlock]] = {block: set() for block in self.idom}
        preds = predecessors(self.function)
        for block in self.idom:
            block_preds = [p for p in preds[block] if p in self.idom]
            if len(block_preds) < 2:
                continue
            for pred in block_preds:
                runner = pred
                while runner is not None and runner is not self.idom[block]:
                    frontier[runner].add(block)
                    runner = self.idom[runner]
        return frontier

    def __repr__(self) -> str:
        return (
            f"DominatorTree(@{self.function.name}, {len(self.idom)} reachable, "
            f"{len(self.unreachable)} unreachable)"
        )


@_once_per_cfg
def dominator_tree(function: Function) -> DominatorTree:
    """The dominator tree of the function's current CFG."""
    return DominatorTree(function)


class Loop:
    """A natural loop: a header plus the set of blocks in the loop body."""

    def __init__(self, header: BasicBlock, blocks: Set[BasicBlock], latches: List[BasicBlock]):
        self.header = header
        self.blocks = blocks
        self.latches = latches
        self.parent: Optional["Loop"] = None

    @property
    def depth(self) -> int:
        depth, loop = 1, self.parent
        while loop is not None:
            depth += 1
            loop = loop.parent
        return depth

    def __repr__(self) -> str:
        return f"Loop(header={self.header.name}, blocks={len(self.blocks)}, depth={self.depth})"


@_once_per_cfg
def natural_loops(function: Function) -> List[Loop]:
    """Find the natural loops of a function via back-edge detection.

    Loops are listed in the order their first back edge appears in the
    function's block list, so passes that draw fresh names per loop produce
    the same text in every process.
    """
    tree = dominator_tree(function)
    preds = predecessors(function)
    loops: List[Loop] = []
    by_header: Dict[BasicBlock, Loop] = {}
    for block in function.blocks:
        if block not in tree.idom:
            continue
        for successor in block.successors():
            if tree.dominates(successor, block):
                # Back edge block -> successor; successor is the loop header.
                header, latch = successor, block
                body: Set[BasicBlock] = {header}
                worklist = [latch]
                while worklist:
                    current = worklist.pop()
                    if current in body:
                        continue
                    body.add(current)
                    worklist.extend(p for p in preds.get(current, []))
                if header in by_header:
                    existing = by_header[header]
                    existing.blocks |= body
                    existing.latches.append(latch)
                else:
                    loop = Loop(header, body, [latch])
                    by_header[header] = loop
                    loops.append(loop)
    # Establish nesting: a loop's parent is the smallest loop strictly containing it.
    for loop in loops:
        candidates = [
            other
            for other in loops
            if other is not loop and loop.header in other.blocks and loop.blocks <= other.blocks
        ]
        if candidates:
            loop.parent = min(candidates, key=lambda l: len(l.blocks))
    return loops


def loop_depths(function: Function) -> Dict[BasicBlock, int]:
    """Map from each block to its loop nesting depth (0 outside any loop)."""
    depths: Dict[BasicBlock, int] = {block: 0 for block in function.blocks}
    for loop in natural_loops(function):
        for block in loop.blocks:
            depths[block] = max(depths[block], loop.depth)
    return depths


_CACHED_ANALYSES = {
    analysis.__name__: analysis
    for analysis in (predecessors, reverse_postorder, dominator_tree, natural_loops)
}


def _comparable(result):
    if isinstance(result, DominatorTree):
        return result.idom
    if isinstance(result, list) and result and isinstance(result[0], Loop):
        return [(loop.header, loop.blocks, loop.latches) for loop in result]
    return result


def stale_analyses(function: Function) -> List[str]:
    """Names of the cached analyses that a fresh computation contradicts.

    Always empty unless the CFG was edited behind the mutation surface; the
    verifier and the tests ask.
    """
    cached = function._analyses
    function._analyses = {}
    try:
        return [
            name
            for name, result in cached.items()
            if _comparable(result) != _comparable(_CACHED_ANALYSES[name](function))
        ]
    finally:
        function._analyses = cached
