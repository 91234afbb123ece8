"""The Autophase observation space: a 56-dimensional integer feature vector.

Autophase (Haj-Ali et al., MLSys 2020) describes programs with 56 counters of
IR structure — block-level CFG shape, instruction mix, operand kinds, and phi
statistics. The feature definitions below follow the published list, computed
over the simulated IR.
"""

from typing import List

import numpy as np

from repro.llvm.ir.instructions import BINARY_OPCODES
from repro.llvm.ir.module import Module
from repro.llvm.ir.values import Argument, Constant

AUTOPHASE_FEATURE_NAMES: List[str] = [
    "BBNumArgsHi",              # Blocks with >=2 phi arguments per phi.
    "BBNumArgsLo",              # Blocks with <2 phi arguments.
    "onePred",                  # Blocks with a single predecessor.
    "onePredOneSuc",
    "onePredTwoSuc",
    "oneSuccessor",
    "twoPred",
    "twoPredOneSuc",
    "twoEach",
    "twoSuccessor",
    "morePreds",
    "BB03Phi",                  # Blocks with between 1 and 3 phis.
    "BBHiPhi",                  # Blocks with more than 3 phis.
    "BBNoPhi",
    "BeginPhi",                 # Phi nodes at the start of a block.
    "BranchCount",
    "returnInt",                # Returns of an integer constant.
    "CriticalCount",            # Critical CFG edges.
    "NumEdges",
    "const32Bit",
    "const64Bit",
    "numConstZeroes",
    "numConstOnes",
    "UncondBranches",
    "binaryConstArg",           # Binary operations with a constant operand.
    "NumAShrInst",
    "NumAddInst",
    "NumAllocaInst",
    "NumAndInst",
    "BlockMid",                 # Blocks with 15-500 instructions.
    "BlockLow",                 # Blocks with <15 instructions.
    "NumBitCastInst",
    "NumBrInst",
    "NumCallInst",
    "NumGetElementPtrInst",
    "NumICmpInst",
    "NumLShrInst",
    "NumLoadInst",
    "NumMulInst",
    "NumOrInst",
    "NumPHIInst",
    "NumRetInst",
    "NumSExtInst",
    "NumSelectInst",
    "NumShlInst",
    "NumStoreInst",
    "NumSubInst",
    "NumTruncInst",
    "NumXorInst",
    "NumZExtInst",
    "TotalBlocks",
    "TotalInsts",
    "TotalMemInst",
    "TotalFuncs",
    "ArgsPhi",                  # Total phi incoming arguments.
    "testUnary",                # Unary (single value operand) instructions.
]
AUTOPHASE_DIMS = 56
assert len(AUTOPHASE_FEATURE_NAMES) == AUTOPHASE_DIMS, len(AUTOPHASE_FEATURE_NAMES)

_OPCODE_FEATURES = {
    "ashr": "NumAShrInst",
    "add": "NumAddInst",
    "alloca": "NumAllocaInst",
    "and": "NumAndInst",
    "bitcast": "NumBitCastInst",
    "br": "NumBrInst",
    "call": "NumCallInst",
    "getelementptr": "NumGetElementPtrInst",
    "icmp": "NumICmpInst",
    "lshr": "NumLShrInst",
    "load": "NumLoadInst",
    "mul": "NumMulInst",
    "or": "NumOrInst",
    "phi": "NumPHIInst",
    "ret": "NumRetInst",
    "sext": "NumSExtInst",
    "select": "NumSelectInst",
    "shl": "NumShlInst",
    "store": "NumStoreInst",
    "sub": "NumSubInst",
    "trunc": "NumTruncInst",
    "xor": "NumXorInst",
    "zext": "NumZExtInst",
}


# Counter positions in the feature vector, by name and by opcode.
_INDEX = {name: index for index, name in enumerate(AUTOPHASE_FEATURE_NAMES)}
_OPCODE_INDEX = {opcode: _INDEX[name] for opcode, name in _OPCODE_FEATURES.items()}
_MEMORY_OPCODES = frozenset({"load", "store", "alloca", "getelementptr"})


def autophase_function_features(function) -> np.ndarray:
    """One defined function's contribution to the 56-D Autophase vector.

    Every Autophase feature is a plain counter, so the module vector is the
    elementwise sum of the per-function vectors — which lets the session
    cache features per function and recompute only what a pass touched.

    This is the session's hot analysis, so it is one sweep over the blocks
    for the CFG shape (successor lists taken once, predecessors only counted)
    and one over the instructions, bumping positions of a flat list.
    ``tests/test_llvm_analysis.py`` holds the readable dict-of-names version
    and checks the two agree on every function of every dataset.
    """
    counts = [0] * AUTOPHASE_DIMS
    blocks = function.blocks
    if not blocks:
        return np.array(counts, dtype=np.int64)
    index = _INDEX
    opcode_index = _OPCODE_INDEX
    counts[index["TotalFuncs"]] = 1
    counts[index["TotalBlocks"]] = len(blocks)

    # An edge counts once per terminator slot that names the target, and only
    # towards blocks of this function (as cfg.predecessors does).
    successors = [
        block.instructions[-1].successors() if block.instructions else ()
        for block in blocks
    ]
    num_preds = dict.fromkeys(blocks, 0)
    for targets in successors:
        for target in targets:
            if target in num_preds:
                num_preds[target] += 1

    # Integer constant type -> the counter for its width (None: not an integer).
    width_index = {}
    for block, targets in zip(blocks, successors):
        preds = num_preds[block]
        succs = len(targets)
        counts[index["NumEdges"]] += succs
        if succs >= 2 and any(num_preds.get(target, 0) >= 2 for target in targets):
            counts[index["CriticalCount"]] += 1
        if preds == 1:
            counts[index["onePred"]] += 1
            if succs == 1:
                counts[index["onePredOneSuc"]] += 1
            elif succs == 2:
                counts[index["onePredTwoSuc"]] += 1
        elif preds == 2:
            counts[index["twoPred"]] += 1
            if succs == 1:
                counts[index["twoPredOneSuc"]] += 1
            elif succs == 2:
                counts[index["twoEach"]] += 1
        elif preds > 2:
            counts[index["morePreds"]] += 1
        if succs == 1:
            counts[index["oneSuccessor"]] += 1
        elif succs == 2:
            counts[index["twoSuccessor"]] += 1

        instructions = block.instructions
        if len(instructions) < 15:
            counts[index["BlockLow"]] += 1
        elif len(instructions) <= 500:
            counts[index["BlockMid"]] += 1

        phis = max_phi_args = 0
        for inst in instructions:
            opcode = inst.opcode
            operands = inst.operands
            num_operands = len(operands)
            position = opcode_index.get(opcode)
            if position is not None:
                counts[position] += 1

            has_constant = False
            for operand in operands:
                if isinstance(operand, Constant):
                    has_constant = True
                    type_ = operand.type
                    if type_ not in width_index:
                        width_index[type_] = (
                            index["const32Bit" if type_.bits <= 32 else "const64Bit"]
                            if type_.is_integer
                            else None
                        )
                    position = width_index[type_]
                    if position is not None:
                        counts[position] += 1
                        if operand.value == 0:
                            counts[index["numConstZeroes"]] += 1
                        elif operand.value == 1:
                            counts[index["numConstOnes"]] += 1

            # testUnary counts instructions with exactly one operand that is a
            # value rather than a block reference: blocks sit at every operand
            # of an unconditional br, at all but the first of a conditional
            # one, and at the odd positions of phi and switch.
            if opcode == "phi":
                phis += 1
                counts[index["ArgsPhi"]] += num_operands // 2
                max_phi_args = max(max_phi_args, num_operands // 2)
                unary = 1 <= num_operands <= 2
            elif opcode == "br":
                counts[index["BranchCount"]] += 1
                if num_operands == 1:
                    counts[index["UncondBranches"]] += 1
                unary = num_operands >= 2
            elif opcode == "ret":
                if num_operands and isinstance(operands[0], Constant):
                    counts[index["returnInt"]] += 1
                unary = False
            elif opcode == "switch":
                unary = 1 <= num_operands <= 2
            else:
                unary = num_operands == 1
                if opcode in _MEMORY_OPCODES:
                    counts[index["TotalMemInst"]] += 1
                elif has_constant and opcode in BINARY_OPCODES:
                    counts[index["binaryConstArg"]] += 1
            if unary:
                counts[index["testUnary"]] += 1

        counts[index["TotalInsts"]] += len(instructions)
        if not phis:
            counts[index["BBNoPhi"]] += 1
        else:
            counts[index["BB03Phi" if phis <= 3 else "BBHiPhi"]] += 1
            counts[index["BeginPhi"]] += phis
            counts[index["BBNumArgsHi" if max_phi_args >= 2 else "BBNumArgsLo"]] += 1

    return np.array(counts, dtype=np.int64)


def autophase_features(module: Module) -> np.ndarray:
    """Compute the 56-D Autophase feature vector of a module."""
    total = np.zeros(AUTOPHASE_DIMS, dtype=np.int64)
    for function in module.functions.values():
        total += autophase_function_features(function)
    return total
