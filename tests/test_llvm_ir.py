"""Unit tests for the simulated LLVM IR data structures."""

import copy
import gc
import pickle
import sys
import threading

import pytest

from repro.llvm.ir import (
    DOUBLE,
    I1,
    I32,
    I64,
    PTR,
    VOID,
    BasicBlock,
    Constant,
    Function,
    IRBuilder,
    Instruction,
    Module,
    Type,
)
from repro.llvm.datasets.generators import generate_module, llvm_stress_module
from repro.llvm.ir.cfg import dominator_tree, loop_depths, natural_loops, predecessors, reachable_blocks
from repro.llvm.ir.journal import Journal
from repro.llvm.ir.parser import parse_module
from repro.llvm.ir.values import NO_USES, Argument, GlobalVariable, UndefValue, _forget, _pool_key
from repro.llvm.ir.printer import print_module
from repro.llvm.ir.verifier import VerificationError, verify_module
from repro.llvm.passes.registry import OZ_PIPELINE, run_pipeline


class TestTypes:
    def test_interning(self):
        assert Type("i32") is I32
        assert Type("i32") is Type("i32")

    def test_bits(self):
        assert I32.bits == 32
        assert I64.bits == 64
        assert I1.bits == 1
        assert PTR.bits == 64
        assert VOID.bits == 0

    def test_predicates(self):
        assert I32.is_integer and not I32.is_float
        assert Type("double").is_float
        assert PTR.is_pointer
        assert VOID.is_void

    def test_deepcopy_preserves_identity(self):
        assert copy.deepcopy(I32) is I32


class TestValues:
    def test_constant_equality(self):
        # Constants are interned: equal is the same object.
        assert Constant(I32, 5) is Constant(I32, 5)
        assert Constant(I32, 5) is not Constant(I32, 6)
        assert Constant(I32, 5) is not Constant(I64, 5)
        assert Constant(I32, 5) != Constant(I32, 6)

    def test_constant_rendering(self):
        assert Constant(I32, 42).short() == "42"

    def test_argument(self):
        arg = Argument("x", I32)
        assert arg.short() == "%x"

    def test_global(self):
        g = GlobalVariable("counter", I32, initializer=3)
        assert g.short() == "@counter"
        assert g.type is PTR

    def test_undef(self):
        assert UndefValue(I32).short() == "undef"


def _constants(module: Module) -> list:
    """The constant operands of ``module``, in program order."""
    return [operand for inst in module.instructions() for operand in inst.operands
            if type(operand) is Constant]


class TestInternedConstants:
    """A constant is one object per (type, value), shared by every module,
    clone and pass, immutable and without a use list."""

    def test_clones_and_parses_share_every_constant(self, generated_module):
        first, second = generated_module.clone(), generated_module.clone()
        text = print_module(generated_module)
        parsed, reparsed = parse_module(text), parse_module(text)
        expected = _constants(generated_module)
        assert expected
        for module in (first, second, parsed, reparsed):
            found = _constants(module)
            assert len(found) == len(expected)
            assert all(a is b for a, b in zip(found, expected))

    def test_the_key_separates_what_prints_differently(self):
        zero, real, false = Constant(I32, 0), Constant(I32, 0.0), Constant(I32, False)
        assert len({id(zero), id(real), id(false)}) == 3
        assert (zero.short(), real.short(), false.short()) == ("0", "0.0", "False")
        positive, negative = Constant(DOUBLE, 0.0), Constant(DOUBLE, -0.0)
        assert positive is not negative
        assert (positive.short(), negative.short()) == ("0.0", "-0.0")
        # NaN equals nothing, itself included, but one NaN constant is one object.
        nan = Constant(DOUBLE, float("nan"))
        assert nan is Constant(DOUBLE, float("nan")) and nan.short() == "nan"

        module = Module("keys")
        function = module.add_function(Function("f", arg_types=[DOUBLE], return_type=DOUBLE))
        builder = IRBuilder(function, function.add_block("entry"))
        x = function.args[0]
        builder.ret(builder.binary("fadd", builder.binary("fadd", x, positive, name="p"),
                                   negative, name="n"))
        text = print_module(module)
        assert "fadd double %arg0, 0.0" in text and "fadd double %p, -0.0" in text
        assert print_module(parse_module(text)) == text

    def test_the_pool_lets_go_of_what_no_module_holds(self):
        gc.collect()
        before = len(Constant._pool)
        made = [Constant(I64, 10**15 + i) for i in range(10_000)]
        assert len(Constant._pool) >= before + 10_000
        del made
        gc.collect()
        assert len(Constant._pool) <= before

    def test_a_dropped_constant_leaves_the_pool(self):
        value = 10**15 - 7
        key = _pool_key(I64, value)
        constant = Constant(I64, value)
        dead = Constant._pool[key]
        assert dead() is constant
        del constant
        assert key not in Constant._pool
        # A late callback of the dead reference leaves the key's new
        # constant in the pool.
        again = Constant(I64, value)
        _forget(dead)
        assert Constant._pool[key]() is again
        assert Constant(I64, value) is again

    def test_threads_that_miss_together_get_one_object(self):
        value = 10**15 - 1
        barrier = threading.Barrier(8, timeout=10)
        made = []

        def construct():
            barrier.wait()
            made.append(Constant(I64, value))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=construct) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(made) == 8 and all(constant is made[0] for constant in made)

    def test_copies_and_pickles_are_the_pooled_object(self):
        constant = Constant(I32, 12345)
        assert copy.copy(constant) is constant
        assert copy.deepcopy(constant) is constant
        assert pickle.loads(pickle.dumps(constant)) is constant
        assert copy.deepcopy([constant, constant]) == [constant, constant]

    def test_no_use_list_is_kept_or_written(self, small_module):
        constant = Constant(I32, 7)
        with pytest.raises(AttributeError):
            constant.uses = []
        with pytest.raises(AttributeError):
            constant.value = 8
        assert constant.uses is NO_USES

        function = small_module.function("main")
        x = function.args[0]
        before = print_module(small_module)
        journal = Journal(small_module)
        block = function.blocks[0]
        made = block.insert(0, Instruction("add", [x, constant], type=I32, name="made"))
        made.set_operand(0, constant)
        made.set_operand(1, x)
        made.set_operands([constant, constant])
        assert constant.uses is NO_USES
        # A constant as the new value: every slot is rewritten, none registered.
        used = made.clone(operands=[made, x], name="user")
        block.insert(1, used)
        assert made.replace_all_uses_with(constant) == 1
        assert used.operands == [constant, x] and made.uses == []
        # Nor can a constant's slots be found through it.
        with pytest.raises(TypeError, match="keeps no use list"):
            constant.replace_all_uses_with(x)
        assert used.operands == [constant, x] and x.uses.count(used) == 1
        used.erase()
        made.erase()
        assert constant.uses is NO_USES and constant.uses == ()
        journal.rollback()
        assert print_module(small_module) == before
        assert constant.uses is NO_USES and constant.uses == ()
        assert verify_module(small_module, raise_on_error=False) == []


class TestInstructions:
    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            Instruction("frobnicate")

    def test_classification(self):
        add = Instruction("add", [Constant(I32, 1), Constant(I32, 2)], type=I32, name="x")
        assert add.is_binary and add.has_result and not add.is_terminator
        ret = Instruction("ret", [], type=VOID)
        assert ret.is_terminator and not ret.has_result

    def test_side_effects(self):
        store = Instruction("store", [Constant(I32, 1), Constant(I32, 0)], type=VOID)
        assert store.has_side_effects()
        call = Instruction("call", [], type=I32, name="r", attrs={"callee": "f", "pure": True})
        assert not call.has_side_effects()
        impure = Instruction("call", [], type=I32, name="r", attrs={"callee": "f"})
        assert impure.has_side_effects()

    def test_branch_successors(self):
        a, b = BasicBlock("a"), BasicBlock("b")
        cond = Constant(I1, 1)
        br = Instruction("br", [cond, a, b], type=VOID)
        assert br.successors() == [a, b]
        br.replace_successor(b, a)
        assert br.successors() == [a, a]

    def test_phi_incoming(self):
        a, b = BasicBlock("a"), BasicBlock("b")
        phi = Instruction("phi", [Constant(I32, 1), a, Constant(I32, 2), b], type=I32, name="p")
        incoming = list(phi.phi_incoming())
        assert len(incoming) == 2
        phi.set_phi_incoming([(Constant(I32, 9), a)])
        assert len(list(phi.phi_incoming())) == 1

    def test_value_operands_excludes_blocks(self):
        a, b = BasicBlock("a"), BasicBlock("b")
        cond = Constant(I1, 1)
        br = Instruction("br", [cond, a, b], type=VOID)
        assert br.value_operands() == [cond]

    def test_clone(self):
        add = Instruction("add", [Constant(I32, 1), Constant(I32, 2)], type=I32, name="x")
        clone = add.clone()
        assert clone is not add
        assert clone.operands == add.operands
        assert clone.parent is None


class TestStructure:
    def test_block_append_and_terminator(self):
        block = BasicBlock("entry")
        assert block.terminator is None
        inst = Instruction("ret", [], type=VOID)
        block.append(inst)
        assert block.terminator is inst
        assert inst.parent is block

    def test_function_naming_helpers(self):
        function = Function("f", arg_types=[I32], arg_names=["x"])
        name1 = function.new_value_name()
        name2 = function.new_value_name()
        assert name1 != name2
        assert function.new_block_name() != function.new_block_name()

    def test_function_len_counts_instructions(self, small_module):
        assert len(small_module.function("main")) == 9

    def test_module_queries(self, small_module):
        assert small_module.instruction_count == 9
        assert small_module.function("main") is not None
        assert small_module.function("missing") is None
        assert len(small_module.defined_functions()) == 1

    def test_module_clone_is_deep(self, small_module):
        clone = small_module.clone()
        clone.function("main").blocks[0].terminator.erase()
        assert small_module.instruction_count == 9
        assert clone.instruction_count == 8

    def test_declaration(self):
        function = Function("printf", arg_types=[I32])
        assert function.is_declaration


class TestModuleClone:
    """The structural cloner; ``check_clone`` (conftest) holds the contract."""

    def _forward_references(self) -> Module:
        """Operands that a single in-order pass meets before their definition:
        a value defined in a later block, a later function used as a value,
        and a phi that uses itself."""
        module = Module("forward")
        module.add_global(GlobalVariable("table", I32, initializer=3, array_size=4))
        main = Function("main", return_type=I32)
        entry, use, define = (main.add_block(name) for name in ("entry", "use", "define"))
        IRBuilder(main, entry).br(define)
        # Listed before the block that defines %late, executed after it.
        result = use.append(Instruction("add", [], type=I32, name="early"))
        callee = use.append(Instruction("ptrtoint", [], type=I64, name="fnaddr"))
        use.append(Instruction("ret", [result], type=VOID))
        loop = define.append(Instruction("phi", [], type=I32, name="loop"))
        late = define.append(Instruction("add", [loop, Constant(I32, 1)], type=I32, name="late"))
        loop.set_phi_incoming([(Constant(I32, 0), entry), (loop, define)])
        define.append(Instruction("br", [use], type=VOID))
        result.set_operands([late, module.globals["table"]])
        module.add_function(main)
        helper = module.add_function(Function("helper", arg_types=[I32], attributes=["noinline"]))
        IRBuilder(helper, helper.add_block("entry")).ret(helper.args[0])
        callee.set_operands([helper])
        return module

    def test_hand_built_modules(self, check_clone, small_module, generated_module):
        for module in (small_module, generated_module, Module("empty"), self._forward_references()):
            module.metadata["origin"] = "test"
            check_clone(module, module.clone())

    def test_llvm_stress_module(self, check_clone):
        module = llvm_stress_module(seed=3, num_instructions=120)
        assert verify_module(module, raise_on_error=False) == []
        check_clone(module, module.clone())

    def test_forward_references_are_remapped_not_duplicated(self):
        clone = self._forward_references().clone()
        use, define = clone.function("main").blocks[1:]
        early, fnaddr = use.instructions[:2]
        loop, late = define.instructions[:2]
        assert early.operands[0] is late
        assert early.operands[1] is clone.globals["table"]
        assert fnaddr.operands[0] is clone.function("helper")
        assert loop.operands[2] is loop and loop.operands[3] is define
        assert define.instructions[-1].operands[0] is use

    def test_unowned_operands_are_copied_once_per_clone(self):
        module = self._forward_references()
        block = module.function("main").blocks[1]
        shared, undef = Constant(I32, 7), UndefValue(I32)
        detached = Instruction("add", [shared, module.globals["table"]], type=I32, name="gone")
        first = block.insert(0, Instruction("add", [shared, Constant(I32, 7)], type=I32, name="a"))
        block.insert(1, Instruction("add", [shared, undef], type=I32, name="b"))
        block.insert(2, Instruction("add", [detached, undef], type=I32, name="c"))

        clone = module.clone()
        a, b, c = clone.function("main").blocks[1].instructions[:3]
        # One object in the source is one object in the clone ...
        assert b.operands[1] is c.operands[1] and b.operands[1] is not undef
        # ... except a constant, which is interned: both sides hold the one object.
        assert first.operands[1] is shared
        assert a.operands[0] is b.operands[0] is shared and a.operands[1] is shared
        # A value detached from its block comes along, pointing into the clone.
        gone = c.operands[0]
        assert gone is not detached and gone.name == "gone" and gone.parent is None
        assert gone.operands[0] is a.operands[0]
        assert gone.operands[1] is clone.globals["table"]

    def test_detached_block_comes_along_with_its_instructions(self, check_clone):
        """A phi may still name a block that was unlinked from the function
        (its ``parent`` cleared or stale): the block is copied once, whichever
        of its instructions or the block itself is met first."""
        module = self._forward_references()
        main = module.function("main")
        orphan = BasicBlock("orphan")
        inner = orphan.append(Instruction("add", [Constant(I32, 1), main.blocks[2].instructions[1]],
                                          type=I32, name="inner"))
        orphan.parent = main  # Stale link: main.blocks does not list it.
        phi = main.blocks[2].instructions[0]
        phi.set_operands(phi.operands + [inner, orphan])

        clone = module.clone()
        twin = clone.function("main")
        copied_inner, copied_orphan = twin.blocks[2].instructions[0].operands[4:]
        assert copied_orphan is not orphan and copied_orphan.parent is twin
        assert copied_orphan not in twin.blocks
        assert copied_orphan.instructions == [copied_inner]
        assert copied_inner.parent is copied_orphan
        assert copied_inner.operands[1] is twin.blocks[2].instructions[1]
        check_clone(module, clone)

    def test_scalars_carry_over_and_fresh_names_agree(self, generated_module):
        generated_module.version = 41
        function = generated_module.defined_functions()[0]
        function.new_value_name(), function.new_block_name()
        clone = generated_module.clone()
        assert clone.version == 41 and clone.bump_version() == 42
        assert generated_module.version == 41
        twin = clone.function(function.name)
        assert twin.new_value_name() == function.new_value_name()
        assert twin.new_block_name() == function.new_block_name()

    def test_optimising_one_side_leaves_the_other_untouched(self, check_clone):
        source = generate_module(seed=11, size_scale=6, runnable=True)
        pristine = print_module(source)
        clone = source.clone()
        assert run_pipeline(clone, OZ_PIPELINE)
        assert print_module(source) == pristine
        assert print_module(clone) != pristine
        # The other direction, against a copy taken before either changed.
        untouched = source.clone()
        run_pipeline(source, OZ_PIPELINE)
        assert print_module(untouched) == pristine
        # Both sides started from identical IR, so they optimise identically,
        # and an optimised module clones as exactly as a generated one.
        assert print_module(source) == print_module(clone)
        assert source.version == clone.version
        check_clone(source, source.clone())


class TestBuilder:
    def test_builder_produces_verified_ir(self, small_module):
        assert verify_module(small_module) == []

    def test_cond_br_and_phi(self):
        module = Module("m")
        function = Function("f", arg_types=[I32], arg_names=["x"])
        entry = function.add_block("entry")
        then_block = function.add_block("then")
        else_block = function.add_block("else")
        join = function.add_block("join")
        builder = IRBuilder(function, entry)
        cond = builder.icmp("slt", function.args[0], Constant(I32, 0))
        builder.cond_br(cond, then_block, else_block)
        builder.set_insert_point(then_block)
        a = builder.add(function.args[0], Constant(I32, 1))
        builder.br(join)
        builder.set_insert_point(else_block)
        b = builder.sub(function.args[0], Constant(I32, 1))
        builder.br(join)
        builder.set_insert_point(join)
        phi = builder.phi(I32, [(a, then_block), (b, else_block)])
        builder.ret(phi)
        module.add_function(function)
        assert verify_module(module) == []

    def test_invalid_binary_opcode(self):
        function = Function("f")
        function.add_block("entry")
        builder = IRBuilder(function)
        with pytest.raises(ValueError):
            builder.binary("load", Constant(I32, 1), Constant(I32, 2))


class TestCfgAnalyses:
    def _diamond(self):
        function = Function("f", arg_types=[I32], arg_names=["x"])
        entry = function.add_block("entry")
        left = function.add_block("left")
        right = function.add_block("right")
        join = function.add_block("join")
        builder = IRBuilder(function, entry)
        cond = builder.icmp("eq", function.args[0], Constant(I32, 0))
        builder.cond_br(cond, left, right)
        builder.set_insert_point(left)
        builder.br(join)
        builder.set_insert_point(right)
        builder.br(join)
        builder.set_insert_point(join)
        builder.ret(Constant(I32, 0))
        return function, entry, left, right, join

    def test_predecessors(self):
        function, entry, left, right, join = self._diamond()
        preds = predecessors(function)
        assert set(preds[join]) == {left, right}
        assert preds[entry] == []

    def test_reachability(self):
        function, *_ = self._diamond()
        dead = function.add_block("dead")
        IRBuilder(function, dead).ret(Constant(I32, 1))
        reachable = reachable_blocks(function)
        assert dead not in reachable
        assert len(reachable) == 4

    def test_dominators(self):
        function, entry, left, right, join = self._diamond()
        tree = dominator_tree(function)
        assert tree.dominates(entry, join)
        assert not tree.dominates(left, join)
        assert tree.dominates(join, join)

    def test_natural_loop_detection(self):
        from repro.llvm.datasets.generators import generate_module

        # Counted over several generated modules so the check does not depend
        # on one seed's random region choices.
        total_loops = sum(
            len(natural_loops(f))
            for seed in range(5)
            for f in generate_module(seed, size_scale=6).defined_functions()
        )
        assert total_loops >= 1

    def test_loop_depths(self, generated_module):
        for function in generated_module.defined_functions():
            depths = loop_depths(function)
            for loop in natural_loops(function):
                assert depths[loop.header] >= 1

    def test_no_loops_in_diamond(self):
        function, *_ = self._diamond()
        assert natural_loops(function) == []


class TestVerifier:
    def test_detects_missing_terminator(self):
        module = Module("bad")
        function = Function("f")
        block = function.add_block("entry")
        block.append(Instruction("add", [Constant(I32, 1), Constant(I32, 2)], type=I32, name="x"))
        module.add_function(function)
        errors = verify_module(module, raise_on_error=False)
        assert any("no terminator" in error for error in errors)

    def test_detects_foreign_value_use(self):
        module = Module("bad")
        other = Function("other", arg_types=[I32], arg_names=["y"])
        function = Function("f")
        block = function.add_block("entry")
        block.append(Instruction("ret", [Instruction("add", [], type=I32, name="ghost")], type=VOID))
        module.add_function(function)
        del other
        errors = verify_module(module, raise_on_error=False)
        assert errors

    def test_raises_when_requested(self):
        module = Module("bad")
        function = Function("f")
        function.add_block("entry")
        module.add_function(function)
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_detects_unknown_callee(self):
        module = Module("bad")
        function = Function("f")
        block = function.add_block("entry")
        block.append(Instruction("call", [], type=I32, name="r", attrs={"callee": "missing"}))
        block.append(Instruction("ret", [], type=VOID))
        module.add_function(function)
        errors = verify_module(module, raise_on_error=False)
        assert any("unknown function" in error for error in errors)
