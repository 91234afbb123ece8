"""Summary-vector observation spaces derived from the dataflow analyses.

Each space compresses a per-block analysis (liveness, reaching definitions,
dominator-tree shape) into a small fixed-shape integer vector, so the values
flow unchanged through :class:`ObservationView`, vec pools, the daemon wire
format, and the gateway. Everything here is a deterministic aggregate —
independent of set iteration order — so observations compare equal across
transports and python versions.
"""

from typing import List

import numpy as np

from repro.llvm.analysis.dataflow import liveness, reaching_definitions
from repro.llvm.analysis.dominators import dominator_tree
from repro.llvm.ir.module import Module

LIVENESS_FEATURE_NAMES: List[str] = [
    "TotalBlocks",
    "TotalLiveIn",
    "TotalLiveOut",
    "MaxLiveIn",
    "MaxLiveOut",
    "TotalTrackedValues",
    "TotalPhiEdgeUses",
    "BlocksWithEmptyLiveIn",
]
LIVENESS_DIMS = len(LIVENESS_FEATURE_NAMES)

REACHINGDEFS_FEATURE_NAMES: List[str] = [
    "TotalBlocks",
    "TotalReachingIn",
    "TotalReachingOut",
    "MaxReachingIn",
    "MaxReachingOut",
    "TotalDefs",
    "TotalArgs",
    "UnreachableBlocks",
]
REACHINGDEFS_DIMS = len(REACHINGDEFS_FEATURE_NAMES)


# Dimensions that combine across functions with max() rather than sum()
# (MaxLiveIn/MaxLiveOut and MaxReachingIn/MaxReachingOut respectively).
LIVENESS_MAX_FEATURE_INDICES = (3, 4)
REACHINGDEFS_MAX_FEATURE_INDICES = (3, 4)


def liveness_function_features(function) -> np.ndarray:
    """One defined function's liveness summary (zeros for declarations)."""
    features = np.zeros(LIVENESS_DIMS, dtype=np.int64)
    if function.is_declaration:
        return features
    result = liveness(function)
    problem = result.problem
    features[5] += len(function.args) + sum(
        1 for inst in function.instructions() if inst.has_result
    )
    features[6] += sum(len(uses) for uses in problem.phi_uses.values())
    for block in function.blocks:
        live_in = len(result.in_of(block))
        live_out = len(result.out_of(block))
        features[0] += 1
        features[1] += live_in
        features[2] += live_out
        features[3] = max(features[3], live_in)
        features[4] = max(features[4], live_out)
        if live_in == 0:
            features[7] += 1
    return features


def reachingdefs_function_features(function) -> np.ndarray:
    """One defined function's reaching-defs summary (zeros for declarations)."""
    features = np.zeros(REACHINGDEFS_DIMS, dtype=np.int64)
    if function.is_declaration:
        return features
    result = reaching_definitions(function)
    tree = dominator_tree(function)
    features[5] += sum(1 for inst in function.instructions() if inst.has_result)
    features[6] += len(function.args)
    features[7] += len(tree.unreachable)
    for block in function.blocks:
        reach_in = len(result.in_of(block))
        reach_out = len(result.out_of(block))
        features[0] += 1
        features[1] += reach_in
        features[2] += reach_out
        features[3] = max(features[3], reach_in)
        features[4] = max(features[4], reach_out)
    return features


def _combine(vectors, dims: int, max_indices) -> np.ndarray:
    total = np.zeros(dims, dtype=np.int64)
    vectors = list(vectors)
    for vector in vectors:
        total += vector
    for index in max_indices:
        total[index] = max((int(vector[index]) for vector in vectors), default=0)
    return total


def liveness_features(module: Module) -> np.ndarray:
    """Aggregate live-range pressure statistics over all defined functions."""
    return _combine(
        (liveness_function_features(f) for f in module.functions.values()),
        LIVENESS_DIMS,
        LIVENESS_MAX_FEATURE_INDICES,
    )


def reachingdefs_features(module: Module) -> np.ndarray:
    """Aggregate reaching-definition statistics over all defined functions."""
    return _combine(
        (reachingdefs_function_features(f) for f in module.functions.values()),
        REACHINGDEFS_DIMS,
        REACHINGDEFS_MAX_FEATURE_INDICES,
    )


def function_domtree_depth(function) -> int:
    """The deepest dominator-tree node of one function (0 for declarations)."""
    if function.is_declaration:
        return 0
    tree = dominator_tree(function)
    if not tree.depth:
        return 0
    return max(tree.depth.values())


def max_domtree_depth(module: Module) -> int:
    """The deepest dominator-tree node across all defined functions."""
    return max(
        (function_domtree_depth(f) for f in module.functions.values()), default=0
    )
