"""Unit tests for the optimization passes."""

import pytest

from repro.llvm.datasets.generators import generate_module
from repro.llvm.interpreter import run_module
from repro.llvm.ir import BasicBlock, Constant, Function, I32, IRBuilder, Instruction, Module, VOID
from repro.llvm.ir.parser import parse_module
from repro.llvm.ir.printer import print_module
from repro.llvm.ir.verifier import verify_module
from repro.llvm.passes.registry import (
    ACTION_SPACE_PASSES,
    O3_PIPELINE,
    OZ_PIPELINE,
    PASS_REGISTRY,
    get_pass,
    run_pass,
    run_pipeline,
)


def _parse(ir: str) -> Module:
    module = parse_module(ir)
    assert verify_module(module) == []
    return module


class TestRegistry:
    def test_action_space_has_124_passes(self):
        assert len(ACTION_SPACE_PASSES) == 124
        assert len(set(ACTION_SPACE_PASSES)) == 124

    def test_every_action_is_registered(self):
        for name in ACTION_SPACE_PASSES:
            assert callable(get_pass(name))

    def test_get_pass_accepts_leading_dash(self):
        assert get_pass("-dce") is get_pass("dce")

    def test_unknown_pass_raises(self):
        with pytest.raises(LookupError):
            get_pass("-frobnicate")

    def test_gvn_sink_registered_but_not_an_action(self):
        assert "gvn-sink" in PASS_REGISTRY
        assert "gvn-sink" not in ACTION_SPACE_PASSES

    def test_pipelines_reference_registered_passes(self):
        for name in OZ_PIPELINE + O3_PIPELINE:
            assert name in PASS_REGISTRY


class TestDce:
    def test_removes_unused_instruction(self, small_module):
        before = small_module.instruction_count
        assert run_pass(small_module, "dce")
        assert small_module.instruction_count == before - 1
        assert not any(inst.name == "dead" for inst in small_module.instructions())

    def test_second_run_is_noop(self, small_module):
        run_pass(small_module, "dce")
        assert not run_pass(small_module, "dce")

    def test_adce_removes_dead_cycle(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n  br label %loop\n"
            "loop:\n"
            "  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]\n"
            "  %dead = phi i32 [ 1, %entry ], [ %dead.next, %loop ]\n"
            "  %dead.next = add i32 %dead, 1\n"
            "  %i.next = add i32 %i, 1\n"
            "  %c = icmp slt i32 %i.next, 4\n"
            "  br i1 %c, label %loop, label %exit\n"
            "exit:\n  ret i32 %i.next\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "adce")
        assert not any(inst.name == "dead.next" for inst in module.instructions())

    def test_stores_and_calls_are_not_removed(self, generated_module):
        stores_before = sum(1 for i in generated_module.instructions() if i.opcode == "store")
        run_pass(generated_module, "dce")
        stores_after = sum(1 for i in generated_module.instructions() if i.opcode == "store")
        assert stores_before == stores_after


class TestConstantPasses:
    def test_constprop_folds_chain(self):
        ir = (
            "define i32 @f() {\n"
            "entry:\n"
            "  %a = add i32 2, 3\n"
            "  %b = mul i32 %a, 4\n"
            "  ret i32 %b\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "constprop")
        ret = module.function("f").entry.terminator
        assert isinstance(ret.operands[0], Constant)
        assert ret.operands[0].value == 20

    def test_sccp_folds_constant_branch(self):
        ir = (
            "define i32 @f() {\n"
            "entry:\n"
            "  %c = icmp slt i32 1, 2\n"
            "  br i1 %c, label %a, label %b\n"
            "a:\n  ret i32 1\n"
            "b:\n  ret i32 2\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "sccp")
        entry = module.function("f").entry
        assert entry.terminator.opcode == "br"
        assert len(entry.terminator.operands) == 1
        assert entry.terminator.operands[0].name == "a"

    def test_ipsccp_propagates_constant_arguments(self):
        ir = (
            "define i32 @callee(i32 %x) {\n"
            "entry:\n  %r = add i32 %x, 1\n  ret i32 %r\n"
            "}\n"
            "define i32 @main() {\n"
            "entry:\n  %a = call i32 @callee(i32 41)\n  ret i32 %a\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "ipsccp")
        callee_ret = module.function("callee").blocks[-1].terminator
        assert isinstance(callee_ret.operands[0], Constant)
        assert callee_ret.operands[0].value == 42

    def test_constmerge_merges_identical_constants(self):
        module = Module("m")
        from repro.llvm.ir.values import GlobalVariable

        module.add_global(GlobalVariable("a", I32, 5, is_constant_global=True))
        module.add_global(GlobalVariable("b", I32, 5, is_constant_global=True))
        function = Function("main")
        entry = function.add_block("entry")
        builder = IRBuilder(function, entry)
        builder.load(module.globals["b"], I32)
        builder.ret(Constant(I32, 0))
        module.add_function(function)
        assert run_pass(module, "constmerge")
        assert len(module.globals) == 1


class TestInstcombine:
    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("%r = add i32 %x, 0", "%x"),
            ("%r = mul i32 %x, 1", "%x"),
            ("%r = sub i32 %x, %x", "0"),
            ("%r = xor i32 %x, %x", "0"),
            ("%r = and i32 %x, 0", "0"),
        ],
    )
    def test_identities(self, expression, expected):
        ir = f"define i32 @f(i32 %x) {{\nentry:\n  {expression}\n  ret i32 %r\n}}\n"
        module = _parse(ir)
        assert run_pass(module, "instcombine")
        ret = module.function("f").entry.terminator
        assert ret.operands[0].short().lstrip("%") == expected.lstrip("%")

    def test_icmp_identical_operands(self):
        ir = "define i1 @f(i32 %x) {\nentry:\n  %r = icmp eq i32 %x, %x\n  ret i1 %r\n}\n"
        module = _parse(ir)
        assert run_pass(module, "instcombine")
        ret = module.function("f").entry.terminator
        assert isinstance(ret.operands[0], Constant) and ret.operands[0].value == 1

    def test_canonicalizes_constant_to_rhs(self):
        ir = "define i32 @f(i32 %x) {\nentry:\n  %r = add i32 5, %x\n  %u = add i32 %r, %x\n  ret i32 %u\n}\n"
        module = _parse(ir)
        run_pass(module, "instcombine")
        add = next(i for i in module.function("f").instructions() if i.name == "r")
        assert isinstance(add.operands[1], Constant)

    def test_reassociate_enables_folding(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n  %a = add i32 %x, 3\n  %b = add i32 %a, 4\n  ret i32 %b\n}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "reassociate")
        b = next(i for i in module.function("f").instructions() if i.name == "b")
        assert isinstance(b.operands[1], Constant) and b.operands[1].value == 7


class TestCse:
    def test_early_cse_removes_block_local_duplicate(self, small_module):
        before = small_module.instruction_count
        assert run_pass(small_module, "early-cse")
        assert small_module.instruction_count < before

    def test_gvn_removes_cross_block_duplicate(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n  %a = mul i32 %x, %x\n  br label %next\n"
            "next:\n  %b = mul i32 %x, %x\n  %s = add i32 %a, %b\n  ret i32 %s\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "gvn")
        assert not any(inst.name == "b" for inst in module.instructions())

    def test_gvn_distinguishes_callees(self):
        ir = (
            "define i32 @f(i32 %x) { \nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}\n"
            "define i32 @g(i32 %x) { \nentry:\n  %r = add i32 %x, 2\n  ret i32 %r\n}\n"
            "define i32 @main() {\n"
            "entry:\n"
            "  %a = call i32 @f(i32 1) ; pure\n"
            "  %b = call i32 @g(i32 1) ; pure\n"
            "  %s = add i32 %a, %b\n"
            "  ret i32 %s\n"
            "}\n"
        )
        module = _parse(ir)
        run_pass(module, "gvn")
        calls = [i for i in module.function("main").instructions() if i.opcode == "call"]
        assert len(calls) == 2

    def test_gvn_respects_dominance(self):
        # The same expression in two sibling blocks must NOT be unified.
        ir = (
            "define i32 @f(i32 %x, i32 %c) {\n"
            "entry:\n  %p = icmp eq i32 %c, 0\n  br i1 %p, label %a, label %b\n"
            "a:\n  %u = mul i32 %x, %x\n  ret i32 %u\n"
            "b:\n  %v = mul i32 %x, %x\n  ret i32 %v\n"
            "}\n"
        )
        module = _parse(ir)
        run_pass(module, "gvn")
        assert verify_module(module) == []
        names = {inst.name for inst in module.instructions() if inst.name}
        assert {"u", "v"} <= names or len(names) >= 2


class TestSimplifyCfg:
    def test_removes_unreachable_block(self):
        ir = (
            "define i32 @f() {\n"
            "entry:\n  ret i32 0\n"
            "dead:\n  ret i32 1\n"
            "}\n"
        )
        module = parse_module(ir)
        assert run_pass(module, "simplifycfg")
        assert len(module.function("f").blocks) == 1

    def test_merges_straight_line_blocks(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n  %a = add i32 %x, 1\n  br label %next\n"
            "next:\n  %b = add i32 %a, 2\n  ret i32 %b\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "simplifycfg")
        assert len(module.function("f").blocks) == 1
        assert verify_module(module) == []

    def test_folds_constant_branch_and_prunes(self):
        ir = (
            "define i32 @f() {\n"
            "entry:\n  br i1 1, label %a, label %b\n"
            "a:\n  ret i32 1\n"
            "b:\n  ret i32 2\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "simplifycfg")
        assert len(module.function("f").blocks) == 1
        assert module.function("f").entry.terminator.operands[0].value == 1

    def test_mergereturn_creates_single_exit(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n  %c = icmp slt i32 %x, 0\n  br i1 %c, label %a, label %b\n"
            "a:\n  ret i32 1\n"
            "b:\n  ret i32 2\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "mergereturn")
        rets = [i for i in module.function("f").instructions() if i.opcode == "ret"]
        assert len(rets) == 1
        assert verify_module(module) == []


class TestMem2Reg:
    def test_promotes_single_store_alloca(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n"
            "  %p = alloca i32\n"
            "  store i32 %x, ptr %p\n"
            "  br label %use\n"
            "use:\n"
            "  %v = load i32, ptr %p\n"
            "  ret i32 %v\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "mem2reg")
        opcodes = {inst.opcode for inst in module.function("f").instructions()}
        assert "alloca" not in opcodes and "load" not in opcodes and "store" not in opcodes

    def test_promotes_block_local_alloca(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n"
            "  %p = alloca i32\n"
            "  store i32 1, ptr %p\n"
            "  %a = load i32, ptr %p\n"
            "  store i32 %x, ptr %p\n"
            "  %b = load i32, ptr %p\n"
            "  %s = add i32 %a, %b\n"
            "  ret i32 %s\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "mem2reg")
        assert verify_module(module) == []
        assert run_module(module, entry_point="f", args=[5]).return_value == 6

    def test_reg2mem_is_inverse_direction(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n  %a = add i32 %x, 1\n  br label %next\n"
            "next:\n  %b = add i32 %a, 2\n  ret i32 %b\n"
            "}\n"
        )
        module = _parse(ir)
        before = module.instruction_count
        assert run_pass(module, "reg2mem")
        assert module.instruction_count > before
        assert verify_module(module) == []

    def test_dse_removes_overwritten_store(self):
        ir = (
            "; ModuleID = 'm'\n"
            "@g = global i32 0\n"
            "define i32 @f(i32 %x) {\n"
            "entry:\n"
            "  store i32 1, ptr @g\n"
            "  store i32 %x, ptr @g\n"
            "  %v = load i32, ptr @g\n"
            "  ret i32 %v\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "dse")
        stores = [i for i in module.function("f").instructions() if i.opcode == "store"]
        assert len(stores) == 1

    def test_dse_keeps_store_before_load(self):
        ir = (
            "; ModuleID = 'm'\n"
            "@g = global i32 0\n"
            "define i32 @f(i32 %x) {\n"
            "entry:\n"
            "  store i32 1, ptr @g\n"
            "  %v = load i32, ptr @g\n"
            "  store i32 %x, ptr @g\n"
            "  ret i32 %v\n"
            "}\n"
        )
        module = _parse(ir)
        assert not run_pass(module, "dse")


class TestLoopPasses:
    LOOP_IR = (
        "define i32 @f(i32 %a, i32 %b) {\n"
        "entry:\n  br label %loop\n"
        "loop:\n"
        "  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]\n"
        "  %acc = phi i32 [ 0, %entry ], [ %acc.next, %loop ]\n"
        "  %inv = mul i32 %a, %b\n"
        "  %acc.next = add i32 %acc, %inv\n"
        "  %i.next = add i32 %i, 1\n"
        "  %c = icmp slt i32 %i.next, 4\n"
        "  br i1 %c, label %loop, label %exit\n"
        "exit:\n  ret i32 %acc.next\n"
        "}\n"
    )

    def test_licm_hoists_invariant(self):
        module = _parse(self.LOOP_IR)
        assert run_pass(module, "licm")
        loop_block = module.function("f").block_by_name("loop")
        assert not any(inst.name == "inv" for inst in loop_block.instructions)
        entry = module.function("f").entry
        assert any(inst.name == "inv" for inst in entry.instructions)
        assert verify_module(module) == []

    def test_licm_preserves_semantics(self):
        module = _parse(self.LOOP_IR)
        expected = run_module(module, entry_point="f", args=[3, 5]).return_value
        run_pass(module, "licm")
        assert run_module(module, entry_point="f", args=[3, 5]).return_value == expected

    @staticmethod
    def _two_block_loop(allocate_body_first: bool) -> Module:
        """A loop of blocks ``loop`` and ``body``, an invariant in each. The
        block list is the same either way; which object is older is not."""
        if allocate_body_first:
            body, loop = BasicBlock("body"), BasicBlock("loop")
        else:
            loop, body = BasicBlock("loop"), BasicBlock("body")
        function = Function("f", return_type=I32, arg_types=[I32, I32], arg_names=["a", "b"])
        entry = function.add_block("entry")
        function.add_block(loop)
        function.add_block(body)
        exit_block = function.add_block("exit")
        a, b = function.args
        zero = Constant(I32, 0)
        IRBuilder(function, entry).br(loop)
        builder = IRBuilder(function, body)
        builder.add(a, b, name="inv.body")
        i_next = builder.add(zero, Constant(I32, 1), name="i.next")
        builder.cond_br(builder.icmp("slt", i_next, Constant(I32, 4), name="c"), loop, exit_block)
        builder = IRBuilder(function, loop)
        i_next.set_operand(0, builder.phi(I32, [(zero, entry), (i_next, body)], name="i"))
        builder.mul(a, b, name="inv.loop")
        builder.br(body)
        IRBuilder(function, exit_block).ret(i_next)
        module = Module("m")
        module.add_function(function)
        return module

    def test_licm_hoists_in_block_list_order(self):
        expected = (
            "; ModuleID = 'm'\n\n"
            "define i32 @f(i32 %a, i32 %b) {\n"
            "entry:\n"
            "  %inv.loop = mul i32 %a, %b\n"
            "  %inv.body = add i32 %a, %b\n"
            "  br label %loop\n"
            "loop:\n"
            "  %i = phi i32 [ 0, %entry ], [ %i.next, %body ]\n"
            "  br label %body\n"
            "body:\n"
            "  %i.next = add i32 %i, 1\n"
            "  %c = icmp slt i32 %i.next, 4\n"
            "  br i1 %c, label %loop, label %exit\n"
            "exit:\n"
            "  ret i32 %i.next\n"
            "}\n"
        )
        for allocate_body_first in (False, True):
            module = self._two_block_loop(allocate_body_first)
            assert run_pass(module, "licm")
            assert verify_module(module) == []
            assert print_module(module) == expected, allocate_body_first

    def test_loop_unroll_removes_back_edge(self):
        module = _parse(self.LOOP_IR)
        expected = run_module(module, entry_point="f", args=[2, 7]).return_value
        assert run_pass(module, "loop-unroll")
        from repro.llvm.ir.cfg import natural_loops

        assert natural_loops(module.function("f")) == []
        assert verify_module(module) == []
        assert run_module(module, entry_point="f", args=[2, 7]).return_value == expected

    def test_unroll_then_fold_collapses_constant_loop(self):
        ir = (
            "define i32 @f() {\n"
            "entry:\n  br label %loop\n"
            "loop:\n"
            "  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]\n"
            "  %i.next = add i32 %i, 1\n"
            "  %c = icmp slt i32 %i.next, 5\n"
            "  br i1 %c, label %loop, label %exit\n"
            "exit:\n  ret i32 %i.next\n"
            "}\n"
        )
        module = _parse(ir)
        run_pipeline(module, ["loop-unroll", "instcombine", "simplifycfg", "dce"])
        assert module.instruction_count <= 3
        assert run_module(module, entry_point="f").return_value == 5

    def test_loop_deletion_removes_unused_pure_loop(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n  br label %loop\n"
            "loop:\n"
            "  %i = phi i32 [ 0, %entry ], [ %i.next, %loop ]\n"
            "  %i.next = add i32 %i, 1\n"
            "  %c = icmp slt i32 %i.next, 100\n"
            "  br i1 %c, label %loop, label %exit\n"
            "exit:\n  ret i32 %x\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "loop-deletion")
        assert module.function("f").block_by_name("loop") is None
        assert run_module(module, entry_point="f", args=[9]).return_value == 9

    def test_loop_simplify_creates_preheader(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n  %c0 = icmp slt i32 %x, 0\n  br i1 %c0, label %pre1, label %pre2\n"
            "pre1:\n  br label %loop\n"
            "pre2:\n  br label %loop\n"
            "loop:\n"
            "  %i = phi i32 [ 0, %pre1 ], [ 1, %pre2 ], [ %i.next, %loop ]\n"
            "  %i.next = add i32 %i, 1\n"
            "  %c = icmp slt i32 %i.next, 4\n"
            "  br i1 %c, label %loop, label %exit\n"
            "exit:\n  ret i32 %i.next\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "loop-simplify")
        assert verify_module(module) == []


class TestInterprocedural:
    CALL_IR = (
        "define i32 @helper(i32 %a, i32 %b) {\n"
        "entry:\n  %s = add i32 %a, %b\n  ret i32 %s\n"
        "}\n"
        "define i32 @main() {\n"
        "entry:\n  %r = call i32 @helper(i32 3, i32 4)\n  %t = add i32 %r, 1\n  ret i32 %t\n"
        "}\n"
    )

    def test_inline_replaces_call(self):
        module = _parse(self.CALL_IR)
        assert run_pass(module, "inline")
        main = module.function("main")
        assert not any(inst.opcode == "call" for inst in main.instructions())
        assert verify_module(module) == []
        assert run_module(module).return_value == 8

    def test_inline_then_cleanup_matches_oz(self):
        module = _parse(self.CALL_IR)
        run_pipeline(module, ["inline", "sccp", "simplifycfg", "globaldce", "dce"])
        assert run_module(module).return_value == 8
        assert module.instruction_count <= 4

    def test_inline_respects_noinline(self):
        ir = self.CALL_IR.replace("define i32 @helper(i32 %a, i32 %b) {", "define i32 @helper(i32 %a, i32 %b) noinline {")
        module = parse_module(ir)
        run_pass(module, "inline")
        assert any(inst.opcode == "call" for inst in module.function("main").instructions())

    def test_globaldce_removes_uncalled_function(self):
        ir = self.CALL_IR + "define i32 @dead() {\nentry:\n  ret i32 0\n}\n"
        module = _parse(ir)
        assert run_pass(module, "globaldce")
        assert module.function("dead") is None
        assert module.function("helper") is not None

    def test_deadargelim_drops_unused_argument(self):
        ir = (
            "define i32 @helper(i32 %a, i32 %unused) {\n"
            "entry:\n  %s = add i32 %a, 1\n  ret i32 %s\n"
            "}\n"
            "define i32 @main() {\n"
            "entry:\n  %r = call i32 @helper(i32 3, i32 99)\n  ret i32 %r\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "deadargelim")
        assert len(module.function("helper").args) == 1
        call = next(i for i in module.function("main").instructions() if i.opcode == "call")
        assert len(call.operands) == 1
        assert run_module(module).return_value == 4

    def test_mergefunc_redirects_duplicate(self):
        ir = (
            "define i32 @f1(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}\n"
            "define i32 @f2(i32 %x) {\nentry:\n  %r = add i32 %x, 1\n  ret i32 %r\n}\n"
            "define i32 @main() {\n"
            "entry:\n  %a = call i32 @f1(i32 1)\n  %b = call i32 @f2(i32 2)\n  %s = add i32 %a, %b\n  ret i32 %s\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "mergefunc")
        assert len(module.defined_functions()) == 2  # main + one merged helper
        assert run_module(module).return_value == 5

    def test_globalopt_propagates_unwritten_global(self):
        ir = (
            "; ModuleID = 'm'\n"
            "@k = global i32 11\n"
            "define i32 @main() {\n"
            "entry:\n  %v = load i32, ptr @k\n  ret i32 %v\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "globalopt")
        assert module.function("main").entry.terminator.operands[0].value == 11

    def test_tailcallelim_marks_tail_call(self):
        ir = (
            "define i32 @helper(i32 %a) {\nentry:\n  ret i32 %a\n}\n"
            "define i32 @main(i32 %x) {\n"
            "entry:\n  %r = call i32 @helper(i32 %x)\n  ret i32 %r\n"
            "}\n"
        )
        module = _parse(ir)
        assert run_pass(module, "tailcallelim")
        call = next(i for i in module.function("main").instructions() if i.opcode == "call")
        assert call.attrs.get("tail")


class TestLowering:
    def test_lowerswitch_expands_switch(self):
        ir = (
            "define i32 @f(i32 %x) {\n"
            "entry:\n"
            "  switch i32 %x, label %d [ i32 0, label %a ] [ i32 1, label %b ]\n"
            "a:\n  ret i32 10\n"
            "b:\n  ret i32 20\n"
            "d:\n  ret i32 30\n"
            "}\n"
        )
        module = _parse(ir)
        expected = {value: run_module(module, entry_point="f", args=[value]).return_value for value in (0, 1, 7)}
        assert run_pass(module, "lowerswitch")
        assert not any(inst.opcode == "switch" for inst in module.instructions())
        assert verify_module(module) == []
        for value, result in expected.items():
            assert run_module(module, entry_point="f", args=[value]).return_value == result

    def test_noop_passes_report_no_change(self, generated_module):
        for name in ("loweratomic", "lowerinvoke", "memcpyopt", "barrier", "attributor"):
            assert not run_pass(generated_module, name)

    def test_verify_action_never_changes_module(self, generated_module):
        text = print_module(generated_module)
        assert not run_pass(generated_module, "verify")
        assert print_module(generated_module) == text


class TestPipelines:
    @pytest.mark.parametrize("pipeline", [OZ_PIPELINE, O3_PIPELINE])
    def test_pipelines_shrink_generated_code(self, pipeline):
        module = generate_module(3, size_scale=6)
        before = module.instruction_count
        run_pipeline(module, pipeline)
        assert module.instruction_count < before * 0.6
        assert verify_module(module) == []

    def test_pipelines_preserve_semantics(self):
        module = generate_module(11, size_scale=5)
        expected = run_module(module, max_steps=500_000)
        optimized = module.clone()
        run_pipeline(optimized, OZ_PIPELINE)
        assert run_module(optimized, max_steps=500_000) == expected

    def test_oz_is_comparable_to_o3_on_average(self):
        # -Oz optimizes for size. On individual modules -O3's unrolling can
        # go either way (a fully-folded constant loop shrinks, a materialized
        # unroll grows), so the comparison is made in aggregate.
        oz_total = o3_total = 0
        for seed in range(6):
            module = generate_module(seed, size_scale=6)
            oz = module.clone()
            o3 = module.clone()
            run_pipeline(oz, OZ_PIPELINE)
            run_pipeline(o3, O3_PIPELINE)
            oz_total += oz.instruction_count
            o3_total += o3.instruction_count
        # The two pipelines land in the same ballpark; -O3's full unrolling of
        # constant-trip loops can make it *smaller* on these synthetic
        # modules, so only a same-order-of-magnitude check is meaningful.
        assert oz_total <= o3_total * 2.0
        assert o3_total <= oz_total * 2.0
