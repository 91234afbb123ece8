"""Shared fixtures for the test suite."""

import contextlib
from collections import Counter

import pytest

import repro
from repro.llvm.datasets.generators import generate_module
from repro.llvm.ir.builder import IRBuilder
from repro.llvm.ir.function import Function
from repro.llvm.ir.module import Module
from repro.llvm.ir.types import I32
from repro.llvm.ir.values import NO_USES, Constant


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

    def steps_executed(self, env) -> int:
        """How many steps the service behind ``env`` has executed so far."""
        if self.server is None:
            return env.service.runtime.stats["step"]
        if self.kind == "daemon":
            return self.server.runtime.stats["step"]
        return sum(
            daemon.connection.transport.server_info()["runtime_stats"]["step"]
            for daemon in self.server.live_daemons()
        )

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


class Fault:
    """One fault on one call of an environment's connection.

    A client-side fault is a ``ChaosTransport`` event, and every deployment
    has it. A server-side fault is a ``ServerChaos`` reply fault of the
    daemon or gateway the client talks to, so only a socket deployment has
    it. ``retryable``: the connection's retry loop recovers the call;
    otherwise the call's episode ends. Either way the service executes the
    call :meth:`executions` times.
    """

    #: The call deadline of an environment under a fault: a reply this late
    #: is a slow success, and a dropped reply is given up on after the
    #: socket timeout the deadline sets (5 s more).
    DEADLINE = 0.5

    def __init__(
        self, name: str, kind: str, param: float = 0.0, server=False, retryable=False, executes=1
    ):
        self.name, self.kind, self.param = name, kind, param
        self.server, self.retryable, self.executes = server, retryable, executes

    def executions(self, deployment) -> int:
        """How many times the service executes the faulted call."""
        if self.kind == "cut_recv" and deployment.server is None:
            # The request goes out whole before its reply is lost, but only
            # over a socket: in-process there is nothing to send it on.
            return 0
        return self.executes

    @contextlib.contextmanager
    def injected(self, deployment, call_index: int):
        """While open, the fault lands on call ``call_index`` of the first
        environment made (counted from its ``get_spaces``, which is 0)."""
        from repro.testing.chaos import FaultEvent, FaultPlan, ServerChaos, inject

        if not self.server:
            event = FaultEvent(call_index, self.kind, method="step", param=self.param)
            with inject(FaultPlan(events=(event,))) as made:
                yield made
            return
        if deployment.server is None:
            pytest.skip("no server in-process")
        chaos = ServerChaos(**{self.kind: {call_index: self.param}}).attach(deployment.server)
        try:
            yield chaos
        finally:
            chaos.detach()


FAULTS = [
    Fault("refuse_connect", "refuse_connect", retryable=True),
    Fault("cut_send-unsent", "cut_send", 0.0, retryable=True),
    Fault("cut_send-partial", "cut_send", 5.0, executes=0),
    Fault("cut_recv", "cut_recv"),
    Fault("delay", "delay", 1.5 * Fault.DEADLINE),
    Fault("server-drop", "drop_reply_at", server=True),
    Fault("server-corrupt", "corrupt_reply_at", server=True),
    Fault("server-delay", "delay_reply", 1.5 * Fault.DEADLINE, server=True),
]


@pytest.fixture(params=FAULTS, ids=lambda fault: fault.name)
def fault(request):
    """The fault axis: every fault the harness injects into a step, client
    side in any deployment and server side in a socket one."""
    return request.param


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
    and lists own, plus whatever operands and ``parent`` links point at.
    Constants are interned and immutable: every module shares them."""
    seen = {}

    def visit(value):
        if value is None or id(value) in seen or type(value) is Constant:
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
    # one-to-one correspondence. A constant is not copied at all: both sides
    # hold the one interned object.
    forward, backward = {}, {}

    def pair(original, copy):
        assert type(copy) is type(original)
        if type(original) is Constant:
            assert copy is original
            return
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
    # still name only source objects. A void instruction shares NO_USES.
    for key, copy in forward.items():
        original = backward[id(copy)]
        assert copy.uses is not original.uses or copy.uses is NO_USES
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
    """``check_sessions_current(runtime)``: the session table's one
    invariant, with the result cache on or off. Every entry of an LLVM
    runtime that is built and pure holds a module that prints identically to
    its node's actions run on a clone of the pristine program; an unbuilt entry
    holds nothing to check."""
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
        for entry in list(runtime.sessions.values()):
            if entry.session is not None and entry.pure:
                assert print_module(entry.session.module) == reference(entry.uri, entry.node.actions())

    return check
