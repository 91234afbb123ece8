"""Shared fixtures for the test suite."""

from collections import Counter

import pytest

import repro
from repro.llvm.datasets.generators import generate_module
from repro.llvm.ir.builder import IRBuilder
from repro.llvm.ir.function import Function
from repro.llvm.ir.module import Module
from repro.llvm.ir.types import I32
from repro.llvm.ir.values import Constant


@pytest.fixture(scope="session")
def llvm_env():
    """A session-scoped LLVM environment (qsort benchmark, code-size reward)."""
    env = repro.make(
        "llvm-v0",
        benchmark="cbench-v1/qsort",
        observation_space="Autophase",
        reward_space="IrInstructionCount",
    )
    yield env
    env.close()


@pytest.fixture()
def fresh_llvm_env():
    """A function-scoped LLVM environment for tests that mutate configuration."""
    env = repro.make("llvm-v0", benchmark="cbench-v1/crc32", reward_space="IrInstructionCount")
    yield env
    env.close()


@pytest.fixture(scope="session")
def gcc_env():
    env = repro.make("gcc-v0", benchmark="chstone-v0/adpcm", reward_space="obj_size")
    yield env
    env.close()


@pytest.fixture(scope="session")
def loop_tool_env():
    env = repro.make("loop_tool-v0", observation_space="flops", reward_space="flops")
    yield env
    env.close()


class Deployment:
    """One way of serving ``llvm-v0``. Calling it makes an environment there."""

    def __init__(self, kind: str, result_cache: bool, server=None):
        self.kind, self.result_cache, self.server = kind, result_cache, server

    def __call__(self, **make_kwargs):
        if self.server is None:
            make_kwargs["result_cache"] = None if self.result_cache else False
        else:
            make_kwargs["service_url"] = self.server.url
        return repro.make("llvm-v0", **make_kwargs)

    def sessions(self, env) -> int:
        """How many sessions the service holds (a gateway: routes) right now."""
        if self.server is None:
            return len(env.service.runtime.sessions)
        return self.server.server_info()["active_sessions"]

    def result_cache_stats(self, env):
        """The (benchmark, action-prefix) cache counters behind ``env`` as the
        service reports them, summed over a fleet; ``None`` where the
        deployment runs without that cache."""
        if self.server is None:
            return env.service.runtime.cache_stats()["result_cache"]
        stats = env.service.transport.server_info()["cache_stats"]["result_cache"]
        return stats if stats and stats.get("daemons") != 0 else None


@pytest.fixture(
    scope="module",
    params=[(kind, cache) for kind in ("in-process", "daemon", "gateway") for cache in (True, False)],
    ids=lambda param: f"{param[0]}-{'cache' if param[1] else 'nocache'}",
)
def deployment(request):
    """The deployment matrix: {runtime in this process, one daemon, a gateway
    over two daemon processes} x {result cache on, off}. A test that takes it
    runs once per cell, against servers started once per module."""
    from repro.core.service.gateway import ServiceGateway
    from repro.core.service.runtime.server import make_env_server

    kind, cache = request.param
    result_cache = None if cache else False
    if kind == "in-process":
        yield Deployment(kind, cache)
        return
    if kind == "daemon":
        server = make_env_server("llvm-v0", session_timeout=None, result_cache=result_cache)
    else:
        server = ServiceGateway(
            env_id="llvm-v0", daemons=2, make_kwargs={"result_cache": result_cache}
        )
    with server.start():
        yield Deployment(kind, cache, server)


@pytest.fixture
def pass_runs(monkeypatch):
    """The names of the passes the LLVM session ran, in order."""
    from repro.llvm.passes.registry import run_pass

    runs = []

    def counting_run_pass(module, name):
        runs.append(name)
        return run_pass(module, name)

    monkeypatch.setattr("repro.llvm.service.run_pass", counting_run_pass)
    return runs


@pytest.fixture
def copies(monkeypatch):
    """One entry per module an LLVM session copied, in order: ``"pristine"``
    for a session constructed on the benchmark's program, ``"fork"`` for a
    real fork. (A step run on the parent's module under a journal copies
    nothing.)"""
    from repro.llvm.service import LlvmCompilationSession, _LazyLlvmFork

    made = []
    construct, build = LlvmCompilationSession.__init__, _LazyLlvmFork.build

    def counting_init(session, *args, **kwargs):
        made.append("pristine")
        construct(session, *args, **kwargs)

    def counting_build(lazy_fork, onto=None):
        if onto is None:
            made.append("fork")
        return build(lazy_fork, onto)

    monkeypatch.setattr(LlvmCompilationSession, "__init__", counting_init)
    monkeypatch.setattr(_LazyLlvmFork, "build", counting_build)
    return made


@pytest.fixture()
def small_module() -> Module:
    """A tiny hand-built module with obvious optimization opportunities."""
    module = Module("small")
    function = Function("main", return_type=I32, arg_types=[I32], arg_names=["x"])
    entry = function.add_block("entry")
    builder = IRBuilder(function, entry)
    x = function.args[0]
    a = builder.add(Constant(I32, 2), Constant(I32, 3), name="a")        # Foldable.
    b = builder.add(x, Constant(I32, 0), name="b")                       # Identity.
    c = builder.mul(x, x, name="c")
    d = builder.mul(x, x, name="d")                                      # Redundant with c.
    dead = builder.add(x, Constant(I32, 7), name="dead")                 # Unused.
    total = builder.add(a, b, name="t0")
    total = builder.add(total, c, name="t1")
    total = builder.add(total, d, name="t2")
    builder.ret(total)
    module.add_function(function)
    return module


@pytest.fixture()
def generated_module() -> Module:
    """A deterministic generated module of moderate size."""
    return generate_module(seed=7, size_scale=5)


def _owned_objects(module: Module) -> dict:
    """Every mutable IR object reachable from ``module``, by id: what its dicts
    and lists own, plus whatever operands and ``parent`` links point at."""
    seen = {}

    def visit(value):
        if value is None or id(value) in seen:
            return
        seen[id(value)] = value
        # ``Function.instructions`` is a method; a block's is its list.
        fields = ("args", "blocks") if isinstance(value, Function) else ("instructions", "operands")
        for field in fields:
            for child in getattr(value, field, ()):
                visit(child)
        visit(getattr(value, "parent", None))

    for global_var in module.globals.values():
        visit(global_var)
    for function in module.functions.values():
        visit(function)
    return seen


def _assert_clone_is_exact_and_independent(source: Module, clone: Module) -> None:
    from repro.llvm.ir.printer import print_module
    from repro.llvm.ir.verifier import verify_module

    assert clone is not source
    assert print_module(clone) == print_module(source)
    assert verify_module(clone, raise_on_error=False) == verify_module(source, raise_on_error=False)
    assert (clone.name, clone.version) == (source.name, source.version)
    assert clone.metadata == source.metadata and clone.metadata is not source.metadata
    assert list(clone.globals) == list(source.globals)
    assert list(clone.functions) == list(source.functions)

    # No object of one side is reachable from the other.
    source_objects, clone_objects = _owned_objects(source), _owned_objects(clone)
    assert not source_objects.keys() & clone_objects.keys()
    assert len(clone_objects) == len(source_objects)

    # One copy per source object, wherever it is referenced from: a second
    # copy of anything (an operand duplicated instead of remapped) breaks the
    # one-to-one correspondence.
    forward, backward = {}, {}

    def pair(original, copy):
        assert type(copy) is type(original)
        assert forward.setdefault(id(original), copy) is copy
        assert backward.setdefault(id(copy), original) is original
        assert copy.type is original.type and copy.name == original.name

    for name, original in source.globals.items():
        copy = clone.globals[name]
        pair(original, copy)
        for field in ("element_type", "initializer", "is_constant_global", "array_size"):
            assert getattr(copy, field) == getattr(original, field)
    for name, original in source.functions.items():
        copy = clone.functions[name]
        pair(original, copy)
        assert copy.return_type is original.return_type
        assert copy.attributes == original.attributes
        assert copy.attributes is not original.attributes
        assert copy._next_value_id == original._next_value_id
        assert copy._next_block_id == original._next_block_id
        assert copy.stamp == original.stamp
        assert len(copy.args) == len(original.args) and len(copy.blocks) == len(original.blocks)
        for original_arg, copy_arg in zip(original.args, copy.args):
            pair(original_arg, copy_arg)
        for original_block, copy_block in zip(original.blocks, copy.blocks):
            pair(original_block, copy_block)
            assert copy_block.parent is copy
            assert len(copy_block.instructions) == len(original_block.instructions)
            for original_inst, copy_inst in zip(original_block.instructions, copy_block.instructions):
                pair(original_inst, copy_inst)
                assert copy_inst.parent is copy_block
                assert copy_inst.opcode == original_inst.opcode
                assert copy_inst.attrs == original_inst.attrs
                assert copy_inst.attrs is not original_inst.attrs
                assert all(a is b for a, b in zip(copy_inst.attrs.values(), original_inst.attrs.values()))
                assert copy_inst.operands is not original_inst.operands
                assert len(copy_inst.operands) == len(original_inst.operands)
                for original_operand, copy_operand in zip(original_inst.operands, copy_inst.operands):
                    pair(original_operand, copy_operand)
        assert copy._value_names == original._value_names
        assert copy._value_names is not original._value_names
        assert copy._block_names == original._block_names
        assert copy._block_names is not original._block_names
        # Filled by the verifier above, from the clone's own blocks.
        assert copy._analyses is not original._analyses
        assert all(id(block) in clone_objects for block in copy._analyses.get("predecessors", ()))

    # Use lists: a copy is used by the copies of the original's users (the
    # order is the clone's own) and by nothing of the source's, whose lists
    # still name only source objects.
    for key, copy in forward.items():
        original = backward[id(copy)]
        assert copy.uses is not original.uses or not hasattr(copy.uses, "append")
        assert all(id(user) in clone_objects for user in copy.uses)
        assert not any(id(user) in clone_objects for user in original.uses)
        assert Counter(id(user) for user in copy.uses) == Counter(
            id(forward[id(user)]) for user in original.uses if id(user) in forward
        )


@pytest.fixture(scope="session")
def check_clone():
    """``check_clone(source, clone)``: the whole contract of ``Module.clone()``
    short of running passes — identical printed IR and verifier verdict, every
    scalar carried over, types shared, no mutable object shared, and exactly
    one copy per source object however many places reference it, use lists
    that stay on their own side, name sets copied and analysis caches of its own."""
    return _assert_clone_is_exact_and_independent


@pytest.fixture(scope="session")
def check_sessions_current():
    """``check_sessions_current(runtime)``: the result-cache protocol's one
    invariant. Every session of an LLVM runtime that is built and cacheable
    holds a module that prints identically to its ``prefix`` run on a clone of
    the pristine program; an unbuilt session holds nothing to check."""
    from functools import lru_cache

    from repro.llvm.datasets.suites import make_llvm_datasets
    from repro.llvm.ir.printer import print_module
    from repro.llvm.passes.registry import ACTION_SPACE_PASSES, run_pipeline

    datasets = make_llvm_datasets()

    @lru_cache(maxsize=256)
    def reference(uri, prefix):
        module = datasets.benchmark(uri).program.clone()
        run_pipeline(module, [ACTION_SPACE_PASSES[action] for action in prefix])
        return print_module(module)

    def check(runtime) -> None:
        for session_id, session in runtime.sessions.items():
            state = runtime._cache_states[session_id]
            if session is not None and state.cacheable:
                assert print_module(session.module) == reference(state.uri, state.prefix)

    return check
