"""Synthetic program generators.

Real benchmarks reach the LLVM optimizer straight out of a C frontend, full of
redundancy that ``-O0`` leaves behind: stack slots for every local variable,
constant-foldable arithmetic, repeated subexpressions, dead code, branches on
compile-time-known conditions, small loops, and small helper functions. The
:class:`ModuleGenerator` plants exactly those patterns so that the phase
ordering problem over the simulated pass library has the same structure as the
real one: different passes unlock different reductions, pass order matters,
and per-benchmark optimization potential varies widely.

``llvm_stress_module`` mirrors LLVM's ``llvm-stress`` tool: structurally valid
but semantically meaningless random IR, useful for fuzzing the pass pipeline.
"""

import random
from typing import List, Optional

from repro.llvm.ir.builder import IRBuilder
from repro.llvm.ir.basic_block import BasicBlock
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.module import Module
from repro.llvm.ir.types import DOUBLE, I1, I32, I64, PTR, VOID
from repro.llvm.ir.values import Constant, GlobalVariable, Value

_INT_BINOPS = ["add", "sub", "mul", "and", "or", "xor", "shl"]
_PREDICATES = ["eq", "ne", "slt", "sle", "sgt", "sge"]


class ModuleGenerator:
    """Deterministic generator of realistic unoptimized modules.

    Args:
        seed: RNG seed; the same seed always yields the same module.
        size_scale: Roughly the number of "statement groups" per function;
            total module size grows linearly with it.
        num_functions: Number of mid-sized worker functions (besides main and
            the helper functions).
        runnable: When True, every loop bound and branch condition is chosen
            so that the interpreter can execute ``main`` in a bounded number
            of steps, enabling differential-testing validation.
    """

    def __init__(
        self,
        seed: int,
        size_scale: int = 6,
        num_functions: int = 3,
        num_helpers: int = 3,
        runnable: bool = True,
        name: str = "benchmark",
    ):
        self.rng = random.Random(seed)
        self.size_scale = max(1, size_scale)
        self.num_functions = max(1, num_functions)
        self.num_helpers = max(0, num_helpers)
        self.runnable = runnable
        self.name = name

    # -- helpers ----------------------------------------------------------------

    def _const(self, lo: int = -64, hi: int = 64) -> Constant:
        return Constant(I32, self.rng.randint(lo, hi))

    def _pick_value(self, pool: List[Value]) -> Value:
        if pool and self.rng.random() < 0.75:
            return self.rng.choice(pool)
        return self._const()

    def _arith_chain(self, builder: IRBuilder, pool: List[Value], length: int) -> List[Value]:
        """A chain of binary operations, seeded with redundancy.

        Produces: constant-foldable operations (both operands constant),
        identity operations (x+0, x*1), duplicated subexpressions, and some
        results that are never used (dead code).
        """
        produced: List[Value] = []
        for _ in range(length):
            roll = self.rng.random()
            if roll < 0.2:
                # Constant-foldable.
                value = builder.binary(self.rng.choice(_INT_BINOPS), self._const(), self._const())
            elif roll < 0.35:
                # Identity operation: instcombine fodder.
                base = self._pick_value(pool + produced)
                identity = self.rng.choice(
                    [("add", 0), ("mul", 1), ("or", 0), ("xor", 0), ("shl", 0), ("sub", 0)]
                )
                value = builder.binary(identity[0], base, Constant(I32, identity[1]))
            elif roll < 0.55 and produced:
                # Duplicate an earlier computation exactly: CSE/GVN fodder.
                earlier = self.rng.choice([v for v in produced if isinstance(v, Instruction)])
                value = builder.binary(
                    earlier.opcode if earlier.is_binary else "add",
                    earlier.operands[0] if earlier.is_binary else self._pick_value(pool),
                    earlier.operands[1] if earlier.is_binary else self._const(),
                )
            else:
                value = builder.binary(
                    self.rng.choice(_INT_BINOPS),
                    self._pick_value(pool + produced),
                    self._pick_value(pool + produced),
                )
            produced.append(value)
        return produced

    # -- function generators ------------------------------------------------------

    def _make_helper(self, module: Module, index: int) -> Function:
        """A small, pure, inlinable helper function."""
        num_args = self.rng.randint(1, 3)
        function = Function(
            f"helper{index}",
            return_type=I32,
            arg_types=[I32] * num_args,
            arg_names=[f"a{i}" for i in range(num_args)],
            attributes=["inlinehint"] if self.rng.random() < 0.5 else [],
        )
        entry = function.add_block("entry")
        builder = IRBuilder(function, entry)
        pool: List[Value] = list(function.args)
        values = self._arith_chain(builder, pool, self.rng.randint(2, 5))
        result = values[-1] if values else function.args[0]
        builder.ret(result)
        module.add_function(function)
        return function

    def _make_dead_function(self, module: Module, index: int) -> Function:
        """A function that nothing calls: globaldce fodder."""
        function = Function(f"unused{index}", return_type=I32, arg_types=[I32], arg_names=["x"])
        entry = function.add_block("entry")
        builder = IRBuilder(function, entry)
        values = self._arith_chain(builder, list(function.args), self.rng.randint(3, 8))
        builder.ret(values[-1])
        module.add_function(function)
        return function

    def _emit_locals_block(self, builder: IRBuilder, function: Function, pool: List[Value]) -> List[Instruction]:
        """Allocas + stores + loads: mem2reg fodder."""
        slots = []
        for _ in range(self.rng.randint(2, 2 + self.size_scale // 2)):
            slot = builder.alloca(I32)
            builder.store(self._pick_value(pool), slot)
            slots.append(slot)
        for slot in slots:
            if self.rng.random() < 0.8:
                pool.append(builder.load(slot, I32))
        return slots

    def _emit_branchy_region(
        self, module: Module, function: Function, builder: IRBuilder, pool: List[Value]
    ) -> BasicBlock:
        """An if/else diamond. With some probability the condition is a
        compile-time constant (sccp/simplifycfg fodder)."""
        then_block = function.add_block(function.new_block_name("then"))
        else_block = function.add_block(function.new_block_name("else"))
        join_block = function.add_block(function.new_block_name("join"))

        if self.rng.random() < 0.4:
            # Constant condition, possibly needing constant folding to expose.
            lhs, rhs = self._const(0, 10), self._const(0, 10)
            condition = builder.icmp(self.rng.choice(_PREDICATES), lhs, rhs)
        else:
            condition = builder.icmp(
                self.rng.choice(_PREDICATES), self._pick_value(pool), self._const(0, 10)
            )
        builder.cond_br(condition, then_block, else_block)

        builder.set_insert_point(then_block)
        then_values = self._arith_chain(builder, pool, self.rng.randint(1, 3))
        builder.br(join_block)

        builder.set_insert_point(else_block)
        else_values = self._arith_chain(builder, pool, self.rng.randint(1, 3))
        builder.br(join_block)

        builder.set_insert_point(join_block)
        merged = builder.phi(I32, [(then_values[-1], then_block), (else_values[-1], else_block)])
        pool.append(merged)
        return join_block

    def _emit_counted_loop(
        self, function: Function, builder: IRBuilder, pool: List[Value], small: bool
    ) -> None:
        """A canonical single-block counted loop.

        Small loops (constant trip count <= 12) are loop-unroll fodder; larger
        loops carry loop-invariant computations for LICM and an accumulator so
        the loop is not trivially deletable.
        """
        trip_count = self.rng.randint(3, 12) if small else self.rng.randint(20, 80)
        preheader_block = builder.block
        loop_block = function.add_block(function.new_block_name("loop"))
        exit_block = function.add_block(function.new_block_name("loop.exit"))

        invariant_a = self._pick_value(pool)
        invariant_b = self._pick_value(pool)
        builder.br(loop_block)

        builder.set_insert_point(loop_block)
        induction = builder.phi(I32, [(Constant(I32, 0), preheader_block)])
        accumulator = builder.phi(I32, [(Constant(I32, 0), preheader_block)])
        # Loop-invariant computation inside the loop: LICM fodder.
        invariant = builder.binary("mul", invariant_a, invariant_b)
        invariant2 = builder.binary("add", invariant, Constant(I32, 7))
        body_value = builder.binary("add", accumulator, invariant2)
        body_value = builder.binary("add", body_value, induction)
        next_induction = builder.add(induction, Constant(I32, 1))
        condition = builder.icmp("slt", next_induction, Constant(I32, trip_count))
        builder.cond_br(condition, loop_block, exit_block)
        induction.set_phi_incoming(
            [(Constant(I32, 0), preheader_block), (next_induction, loop_block)]
        )
        accumulator.set_phi_incoming(
            [(Constant(I32, 0), preheader_block), (body_value, loop_block)]
        )

        builder.set_insert_point(exit_block)
        pool.append(body_value)

    def _emit_switch_region(
        self, function: Function, builder: IRBuilder, pool: List[Value]
    ) -> None:
        """A small switch: lowerswitch fodder."""
        num_cases = self.rng.randint(2, 4)
        case_blocks = [function.add_block(function.new_block_name("case")) for _ in range(num_cases)]
        default_block = function.add_block(function.new_block_name("default"))
        join_block = function.add_block(function.new_block_name("switch.join"))
        selector = self._pick_value(pool)
        if isinstance(selector, Constant):
            selector = builder.binary("and", self._pick_value(pool), Constant(I32, num_cases - 1))
        builder.switch(selector, default_block, [(Constant(I32, i), case_blocks[i]) for i in range(num_cases)])
        incoming = []
        for i, case_block in enumerate(case_blocks):
            builder.set_insert_point(case_block)
            value = builder.binary("add", self._pick_value(pool), Constant(I32, i * 3))
            builder.br(join_block)
            incoming.append((value, case_block))
        builder.set_insert_point(default_block)
        default_value = self._const()
        builder.br(join_block)
        incoming.append((default_value, default_block))
        builder.set_insert_point(join_block)
        pool.append(builder.phi(I32, incoming))

    def _emit_global_traffic(self, module: Module, builder: IRBuilder, pool: List[Value]) -> None:
        """Stores/loads of globals, including dead stores (DSE fodder)."""
        if not module.globals:
            return
        global_var = self.rng.choice(list(module.globals.values()))
        if global_var.is_constant_global:
            pool.append(builder.load(global_var, I32))
            return
        builder.store(self._pick_value(pool), global_var)
        if self.rng.random() < 0.6:
            # Overwrite without an intervening load: the first store is dead.
            builder.store(self._pick_value(pool), global_var)
        pool.append(builder.load(global_var, I32))

    def _make_worker(self, module: Module, index: int, helpers: List[Function]) -> Function:
        num_args = self.rng.randint(1, 3)
        # One extra, never-used argument: deadargelim fodder.
        function = Function(
            f"work{index}",
            return_type=I32,
            arg_types=[I32] * (num_args + 1),
            arg_names=[f"p{i}" for i in range(num_args)] + ["unused_arg"],
        )
        entry = function.add_block("entry")
        builder = IRBuilder(function, entry)
        pool: List[Value] = list(function.args[:num_args])

        self._emit_locals_block(builder, function, pool)
        self._arith_chain(builder, pool, self.size_scale)

        for _ in range(max(1, self.size_scale // 3)):
            region = self.rng.random()
            if region < 0.35:
                self._emit_branchy_region(module, function, builder, pool)
            elif region < 0.6:
                self._emit_counted_loop(function, builder, pool, small=self.rng.random() < 0.5)
            elif region < 0.75:
                self._emit_switch_region(function, builder, pool)
            else:
                self._arith_chain(builder, pool, self.size_scale // 2 + 1)
            self._emit_global_traffic(module, builder, pool)
            if helpers and self.rng.random() < 0.7:
                helper = self.rng.choice(helpers)
                args = [self._pick_value(pool) for _ in helper.args]
                pool.append(builder.call(helper, args, pure=True))

        result = self._pick_value(pool)
        builder.ret(result if not isinstance(result, Constant) else self._pick_value(pool))
        module.add_function(function)
        return function

    def _make_main(self, module: Module, workers: List[Function], helpers: List[Function]) -> Function:
        function = Function("main", return_type=I32, arg_types=[], arg_names=[])
        entry = function.add_block("entry")
        builder = IRBuilder(function, entry)
        pool: List[Value] = [self._const(1, 20) for _ in range(3)]
        # Runtime inputs: calls to an opaque external input() function keep a
        # core of the computation live through constant propagation, as real
        # program inputs do.
        external_input = module.function("input")
        if external_input is not None:
            for _ in range(self.rng.randint(2, 4)):
                pool.append(builder.call(external_input, [], return_type=I32))
        self._emit_locals_block(builder, function, pool)
        self._arith_chain(builder, pool, self.size_scale)
        results = []
        for worker in workers:
            args = [self._pick_value(pool) for _ in worker.args]
            results.append(builder.call(worker, args))
        for helper in helpers[:2]:
            args = [self._pick_value(pool) for _ in helper.args]
            results.append(builder.call(helper, args, pure=True))
        total: Value = results[0] if results else self._const()
        for value in results[1:]:
            total = builder.add(total, value)
        # Emit the result through an output call so the interpreter observes it.
        printf = module.function("printf")
        if printf is not None:
            builder.call(printf, [total], return_type=I32)
        builder.ret(builder.binary("and", total, Constant(I32, 255)))
        module.add_function(function)
        return function

    # -- entry point ---------------------------------------------------------------

    def generate(self) -> Module:
        """Generate the module."""
        module = Module(self.name)
        module.set_metadata("generator", "ModuleGenerator")
        module.add_function(Function("printf", return_type=I32, arg_types=[I32], arg_names=["value"]))
        module.add_function(Function("input", return_type=I32, arg_types=[], arg_names=[]))
        for i in range(self.rng.randint(2, 4)):
            module.add_global(
                GlobalVariable(
                    f"g{i}",
                    element_type=I32,
                    initializer=self.rng.randint(0, 100),
                    is_constant_global=self.rng.random() < 0.3,
                )
            )
        helpers = [self._make_helper(module, i) for i in range(self.num_helpers)]
        if self.rng.random() < 0.7:
            self._make_dead_function(module, 0)
        workers = [self._make_worker(module, i, helpers) for i in range(self.num_functions)]
        self._make_main(module, workers, helpers)
        return module


def generate_module(
    seed: int,
    size_scale: int = 6,
    num_functions: int = 3,
    num_helpers: int = 3,
    runnable: bool = True,
    name: str = "benchmark",
) -> Module:
    """Generate a deterministic module from a seed (convenience wrapper)."""
    return ModuleGenerator(
        seed=seed,
        size_scale=size_scale,
        num_functions=num_functions,
        num_helpers=num_helpers,
        runnable=runnable,
        name=name,
    ).generate()


def llvm_stress_module(seed: int, num_instructions: int = 120, name: str = "llvm-stress") -> Module:
    """Random, structurally valid, semantically meaningless IR (llvm-stress).

    A single function of straight-line random arithmetic over random constants
    and previous results, with occasional dead branches. Useful for fuzzing
    passes, and notoriously easy for optimizers to collapse — the paper's
    Table VI shows llvm-stress as an outlier dataset for exactly that reason.
    """
    rng = random.Random(seed)
    module = Module(name)
    module.set_metadata("generator", "llvm-stress")
    function = Function("stress", return_type=I32, arg_types=[I32, I32], arg_names=["a", "b"])
    entry = function.add_block("entry")
    builder = IRBuilder(function, entry)
    pool: List[Value] = list(function.args)
    block_budget = rng.randint(1, 4)
    for block_index in range(block_budget):
        for _ in range(num_instructions // block_budget):
            op = rng.choice(_INT_BINOPS + ["sdiv", "srem", "lshr", "ashr"])
            lhs = rng.choice(pool) if rng.random() < 0.7 else Constant(I32, rng.randint(-100, 100))
            rhs = rng.choice(pool) if rng.random() < 0.5 else Constant(I32, rng.randint(1, 100))
            pool.append(builder.binary(op, lhs, rhs))
        if block_index + 1 < block_budget:
            next_block = function.add_block(function.new_block_name("stress"))
            condition = builder.icmp(rng.choice(_PREDICATES), rng.choice(pool), Constant(I32, rng.randint(-5, 5)))
            dead_block = function.add_block(function.new_block_name("dead"))
            builder.cond_br(condition, next_block, dead_block)
            builder.set_insert_point(dead_block)
            builder.binary("add", rng.choice(pool), Constant(I32, 1))
            builder.br(next_block)
            builder.set_insert_point(next_block)
    builder.ret(rng.choice(pool))
    module.add_function(function)
    main = Function("main", return_type=I32, arg_types=[], arg_names=[])
    main_entry = main.add_block("entry")
    main_builder = IRBuilder(main, main_entry)
    call = main_builder.call(function, [Constant(I32, rng.randint(1, 50)), Constant(I32, rng.randint(1, 50))])
    main_builder.ret(main_builder.binary("and", call, Constant(I32, 255)))
    module.add_function(main)
    return module
