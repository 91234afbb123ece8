"""Dominator tree queries for the observation spaces and the verifier.

:class:`DominatorTree` itself lives in :mod:`repro.llvm.ir.cfg`, next to the
CFG walks it is built from and the per-function cache that
:func:`dominator_tree` reads; the names are re-exported here because this is
where analyses are looked up. Dominance frontiers are exposed for
phi-placement-style analyses.
"""

from typing import Dict, Set

from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.cfg import DominatorTree, dominator_tree
from repro.llvm.ir.function import Function

__all__ = ["DominatorTree", "dom_tree_depths", "dominance_frontiers", "dominator_tree"]


def dominance_frontiers(function: Function) -> Dict[BasicBlock, Set[BasicBlock]]:
    """Convenience wrapper: the dominance frontiers of every reachable block."""
    return dominator_tree(function).frontiers()


def dom_tree_depths(function: Function) -> Dict[BasicBlock, int]:
    """Map each reachable block to its dominator-tree depth (entry is 0)."""
    return dict(dominator_tree(function).depth)
