"""Tests for the LLVM feature extractors (observation spaces)."""

import numpy as np
import pytest

from repro.llvm.analysis.autophase import (
    _OPCODE_FEATURES,
    AUTOPHASE_FEATURE_NAMES,
    autophase_features,
    autophase_function_features,
)
from repro.llvm.analysis.inst2vec import (
    inst2vec_embedding_indices,
    inst2vec_embeddings,
    inst2vec_preprocess,
)
from repro.llvm.analysis.instcount import INSTCOUNT_FEATURE_NAMES, instcount_features
from repro.llvm.analysis.programl import programl_graph
from repro.llvm.datasets.generators import generate_module
from repro.llvm.datasets.suites import make_llvm_datasets
from repro.llvm.ir.cfg import predecessors
from repro.llvm.ir.parser import parse_module
from repro.llvm.ir.values import Constant
from repro.llvm.passes.registry import OZ_PIPELINE, run_pass, run_pipeline


class TestInstCount:
    def test_dimensionality(self, generated_module):
        features = instcount_features(generated_module)
        assert features.shape == (70,)
        assert features.dtype == np.int64
        assert len(INSTCOUNT_FEATURE_NAMES) == 70

    def test_total_instructions_feature(self, generated_module):
        features = instcount_features(generated_module)
        assert features[0] == generated_module.instruction_count

    def test_counts_are_non_negative(self, generated_module):
        assert (instcount_features(generated_module) >= 0).all()

    def test_features_change_with_optimization(self, generated_module):
        before = instcount_features(generated_module).copy()
        run_pass(generated_module, "mem2reg")
        run_pass(generated_module, "dce")
        after = instcount_features(generated_module)
        assert not np.array_equal(before, after)

    def test_deterministic(self, generated_module):
        assert np.array_equal(instcount_features(generated_module), instcount_features(generated_module))


class TestAutophase:
    def test_dimensionality(self, generated_module):
        features = autophase_features(generated_module)
        assert features.shape == (56,)
        assert len(AUTOPHASE_FEATURE_NAMES) == 56

    def test_total_insts_matches_module(self, generated_module):
        features = autophase_features(generated_module)
        index = AUTOPHASE_FEATURE_NAMES.index("TotalInsts")
        assert features[index] == generated_module.instruction_count

    def test_block_and_function_counts(self, generated_module):
        features = autophase_features(generated_module)
        assert features[AUTOPHASE_FEATURE_NAMES.index("TotalFuncs")] == len(
            generated_module.defined_functions()
        )
        total_blocks = sum(len(f.blocks) for f in generated_module.defined_functions())
        assert features[AUTOPHASE_FEATURE_NAMES.index("TotalBlocks")] == total_blocks

    def test_branch_counts_consistent(self, generated_module):
        features = autophase_features(generated_module)
        branches = features[AUTOPHASE_FEATURE_NAMES.index("BranchCount")]
        unconditional = features[AUTOPHASE_FEATURE_NAMES.index("UncondBranches")]
        assert 0 <= unconditional <= branches

    def test_small_module_values(self, small_module):
        features = autophase_features(small_module)
        names = AUTOPHASE_FEATURE_NAMES
        assert features[names.index("NumAddInst")] == 6
        assert features[names.index("NumMulInst")] == 2
        assert features[names.index("NumRetInst")] == 1
        assert features[names.index("TotalMemInst")] == 0


def _oracle_autophase_function_features(function) -> np.ndarray:
    """The dict-of-names Autophase implementation the single-sweep kernel
    replaced, kept verbatim: it reads like the feature definitions."""
    features = {name: 0 for name in AUTOPHASE_FEATURE_NAMES}

    if not function.is_declaration:
        features["TotalFuncs"] += 1
        preds = predecessors(function)
        for block in function.blocks:
            features["TotalBlocks"] += 1
            num_preds = len(preds.get(block, []))
            successors = block.successors()
            num_succs = len(successors)
            features["NumEdges"] += num_succs
            if num_succs >= 2 and any(len(preds.get(s, [])) >= 2 for s in successors):
                features["CriticalCount"] += 1
            if num_preds == 1:
                features["onePred"] += 1
                if num_succs == 1:
                    features["onePredOneSuc"] += 1
                if num_succs == 2:
                    features["onePredTwoSuc"] += 1
            if num_preds == 2:
                features["twoPred"] += 1
                if num_succs == 1:
                    features["twoPredOneSuc"] += 1
                if num_succs == 2:
                    features["twoEach"] += 1
            if num_preds > 2:
                features["morePreds"] += 1
            if num_succs == 1:
                features["oneSuccessor"] += 1
            if num_succs == 2:
                features["twoSuccessor"] += 1

            phis = block.phis()
            if not phis:
                features["BBNoPhi"] += 1
            elif len(phis) <= 3:
                features["BB03Phi"] += 1
            else:
                features["BBHiPhi"] += 1
            if phis:
                features["BeginPhi"] += len(phis)
                max_args = max(len(list(phi.phi_incoming())) for phi in phis)
                if max_args >= 2:
                    features["BBNumArgsHi"] += 1
                else:
                    features["BBNumArgsLo"] += 1

            block_size = len(block.instructions)
            if block_size < 15:
                features["BlockLow"] += 1
            elif block_size <= 500:
                features["BlockMid"] += 1

            for inst in block.instructions:
                features["TotalInsts"] += 1
                feature_name = _OPCODE_FEATURES.get(inst.opcode)
                if feature_name:
                    features[feature_name] += 1
                if inst.opcode in ("load", "store", "alloca", "getelementptr"):
                    features["TotalMemInst"] += 1
                if inst.opcode == "br":
                    features["BranchCount"] += 1
                    if len(inst.operands) == 1:
                        features["UncondBranches"] += 1
                if inst.opcode == "ret" and inst.operands and isinstance(inst.operands[0], Constant):
                    features["returnInt"] += 1
                if inst.opcode == "phi":
                    features["ArgsPhi"] += len(inst.operands) // 2
                if inst.is_binary:
                    if any(isinstance(op, Constant) for op in inst.operands):
                        features["binaryConstArg"] += 1
                if len(inst.value_operands()) == 1 and inst.opcode != "ret":
                    features["testUnary"] += 1
                for operand in inst.operands:
                    if isinstance(operand, Constant) and operand.type.is_integer:
                        if operand.type.bits <= 32:
                            features["const32Bit"] += 1
                        else:
                            features["const64Bit"] += 1
                        if operand.value == 0:
                            features["numConstZeroes"] += 1
                        elif operand.value == 1:
                            features["numConstOnes"] += 1

    return np.array([features[name] for name in AUTOPHASE_FEATURE_NAMES], dtype=np.int64)


# CFG and operand shapes the generators rarely or never emit.
_AUTOPHASE_CORNER_CASES = """
declare i32 @ext(i32 %a)

define i32 @corners(i32 %a, i64 %w) {
entry:
  %c = icmp eq i32 %a, 1
  br i1 %c, label %same, label %same
same:
  %single = phi i32 [ %a, %entry ]
  %wide = add i64 %w, 0
  %t = trunc i64 %wide to i32
  switch i32 %t, label %out
out:
  switch i32 %a, label %one [ i32 0, label %one ] [ i32 1, label %many ] [ i32 2, label %many ]
one:
  br label %many
many:
  %p1 = phi i32 [ 0, %out ], [ 1, %out ], [ %t, %one ]
  %p2 = phi i32 [ 1, %out ], [ 1, %out ], [ %a, %one ]
  %p3 = phi i32 [ %a, %out ], [ %a, %out ], [ 2, %one ]
  %p4 = phi i32 [ %t, %out ], [ %t, %out ], [ 3, %one ]
  %f = fadd double 1.0, 0.0
  %r = call i32 @ext(i32 %p1)
  ret i32 7
}

define void @nothing() {
entry:
  ret void
}
"""


class TestAutophaseKernelMatchesOracle:
    @staticmethod
    def _assert_equal(function):
        expected = _oracle_autophase_function_features(function)
        actual = autophase_function_features(function)
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tolist() == expected.tolist(), function.name

    def test_corner_cases(self):
        module = parse_module(_AUTOPHASE_CORNER_CASES)
        for function in module.functions.values():
            self._assert_equal(function)
        names = AUTOPHASE_FEATURE_NAMES
        corners = autophase_function_features(module.functions["corners"])
        assert corners[names.index("BBHiPhi")] == 1 and corners[names.index("BB03Phi")] == 1
        assert corners[names.index("BBNumArgsLo")] == 1 and corners[names.index("const64Bit")] == 1
        assert not autophase_function_features(module.functions["ext"]).any()

    def test_every_function_of_every_builtin_dataset(self):
        """Pristine, after passes that reshape the CFG and the phis, and after
        -Oz: every function's vector equals the oracle's, bit for bit."""
        seen = {"functions": 0, "declarations": 0, "switches": 0, "phis": 0}
        for dataset in make_llvm_datasets():
            for index, benchmark in enumerate(dataset.benchmarks()):
                if index == 2:
                    break
                reshaped = benchmark.program.clone()
                for name in ("mem2reg", "loop-unroll", "lowerswitch", "reg2mem"):
                    run_pass(reshaped, name)
                optimized = benchmark.program.clone()
                run_pipeline(optimized, OZ_PIPELINE)
                for module in (benchmark.program, reshaped, optimized):
                    for function in module.functions.values():
                        self._assert_equal(function)
                        seen["functions"] += 1
                        seen["declarations"] += function.is_declaration
                        opcodes = {inst.opcode for inst in function.instructions()}
                        seen["switches"] += "switch" in opcodes
                        seen["phis"] += "phi" in opcodes
        assert min(seen.values()) >= 10, seen


class TestInst2vec:
    def test_preprocess_normalizes_identifiers(self, small_module):
        statements = inst2vec_preprocess(small_module)
        assert len(statements) == small_module.instruction_count
        assert all("<%ID>" in s or "<INT>" in s or "ret" in s for s in statements)
        assert not any("%a" in s for s in statements)

    def test_embeddings_shape(self, small_module):
        embeddings = inst2vec_embeddings(small_module)
        assert len(embeddings) == small_module.instruction_count
        assert embeddings[0].shape == (200,)

    def test_identical_statements_share_embedding(self, small_module):
        statements = inst2vec_preprocess(small_module)
        embeddings = inst2vec_embeddings(small_module)
        by_statement = {}
        for statement, embedding in zip(statements, embeddings):
            if statement in by_statement:
                assert np.array_equal(by_statement[statement], embedding)
            by_statement[statement] = embedding

    def test_embedding_indices_within_vocabulary(self, small_module):
        indices = inst2vec_embedding_indices(small_module)
        assert all(0 <= i < 8565 for i in indices)


class TestPrograml:
    def test_graph_structure(self, generated_module):
        graph = programl_graph(generated_module)
        assert graph.number_of_nodes() > generated_module.instruction_count
        flows = {data["flow"] for _, _, data in graph.edges(data=True)}
        assert flows == {"control", "data", "call"}

    def test_instruction_nodes_match_instruction_count(self, generated_module):
        graph = programl_graph(generated_module)
        instruction_nodes = [
            n for n, data in graph.nodes(data=True)
            if data["type"] == "instruction" and data["text"] != "[external]"
        ]
        assert len(instruction_nodes) == generated_module.instruction_count

    def test_call_edges_connect_functions(self):
        module = generate_module(2, size_scale=4)
        graph = programl_graph(module)
        call_edges = [
            (u, v) for u, v, data in graph.edges(data=True) if data["flow"] == "call"
        ]
        assert call_edges
        functions = {
            (graph.nodes[u]["function"], graph.nodes[v]["function"]) for u, v in call_edges
        }
        assert any(src != dst for src, dst in functions)

    def test_data_edges_have_positions(self, small_module):
        graph = programl_graph(small_module)
        positions = [
            data["position"] for _, _, data in graph.edges(data=True) if data["flow"] == "data"
        ]
        assert max(positions) >= 1
