"""An unbuilt fork: what ``fork -> step -> close`` does instead of copying a
module, and every way out of it.

With the result cache on or off, the fork of an LLVM session that is still a
pure action prefix starts unbuilt at its parent's prefix and remembers the
parent as its donor. A step the cache cannot answer while the donor stands
where the fork does runs on the donor's own module under an undo journal and
is rolled back; anything else builds the fork, from a copy of the donor when
that leads to the fork's prefix and from the pristine program when it does
not. Whatever happens, what the client sees is what it would see had the fork
been copied on the spot.
"""

import contextlib
import functools
import sys
import threading

import numpy as np
import pytest

import repro
from repro.core.service.connection import ServiceConnection
from repro.core.service.proto import ForkSessionRequest, StartSessionRequest, StepRequest
from repro.core.wrappers import ForkOnStep
from repro.errors import ServiceError
from repro.llvm.ir.printer import print_module
from repro.llvm.ir.types import I64
from repro.llvm.ir.values import Constant
from repro.llvm.passes.registry import ACTION_SPACE_PASSES, PASS_REGISTRY, FunctionPass, run_pass

new_session_id = ServiceConnection.new_session_id

BENCHMARK = "cbench-v1/crc32"
STEP_SHAPE = dict(
    benchmark=BENCHMARK, observation_space="Autophase", reward_space="IrInstructionCount"
)
NAMES = ["Autophase", "IrInstructionCount"]
MEM2REG, SROA, DCE, INSTCOMBINE, SIMPLIFYCFG, GVN, SCCP, EARLY_CSE = (
    ACTION_SPACE_PASSES.index(name)
    for name in ("mem2reg", "sroa", "dce", "instcombine", "simplifycfg", "gvn", "sccp", "early-cse")
)


def _record(env, action):
    observation, reward, done, info = env.step(action)
    return np.asarray(observation).tolist(), reward, done, info["action_had_no_effect"]


@functools.lru_cache(maxsize=None)
def _reference(actions):
    """The step records of ``actions`` from a reset, result cache off."""
    with repro.make("llvm-v0", result_cache=False, **STEP_SHAPE) as env:
        env.reset()
        return [_record(env, action) for action in actions]


def _runtime(deployment, env):
    """The runtime behind ``env`` where this process holds it; ``None``
    behind a gateway."""
    if deployment.kind == "gateway":
        return None
    return env.service.runtime if deployment.server is None else deployment.server.runtime


# -- every tier ------------------------------------------------------------------


@pytest.mark.parametrize("prefix", [(), (MEM2REG,), (SROA, INSTCOMBINE, SIMPLIFYCFG)])
def test_two_forks_and_their_parent_stepping_at_once_equal_a_serial_run(
    deployment, check_sessions_current, prefix
):
    """Pool workers are forks of one env and step while it does. Whoever gets
    to the parent's lock first, each sees its own branch and nothing else."""
    branches = [
        (DCE, GVN, MEM2REG, SCCP),
        (INSTCOMBINE, MEM2REG, EARLY_CSE, DCE),
        (SIMPLIFYCFG, SROA, GVN, INSTCOMBINE),
    ]
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        if prefix:
            env.multistep(prefix)
        forks = [env.fork(), env.fork()]
        envs = [env, *forks]
        records = [None] * len(envs)
        barrier = threading.Barrier(len(envs))

        def walk(index):
            barrier.wait(timeout=30)
            records[index] = [_record(envs[index], action) for action in branches[index]]

        threads = [threading.Thread(target=walk, args=(index,)) for index in range(len(envs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            for branch, record in zip(branches, records):
                assert record == _reference(prefix + branch)[len(prefix):]
            runtime = _runtime(deployment, env)
            if runtime is not None:
                check_sessions_current(runtime)
        finally:
            for fork in forks:
                fork.close()


def test_undo_after_the_parent_moved_on(deployment):
    """Every fork on a ``ForkOnStep`` stack was left behind by its donor at
    once, and ``undo()`` ends the donor: the fork builds by replay."""
    env = ForkOnStep(deployment(**STEP_SHAPE))
    try:
        env.reset()
        for action in (MEM2REG, INSTCOMBINE, DCE):
            env.step(action)
        env.undo()
        env.undo()
        assert env.actions == [MEM2REG]
        # The way it came (a cache hit, where there is a cache), then another.
        walked = (MEM2REG, INSTCOMBINE, GVN, SIMPLIFYCFG)
        assert [_record(env, action) for action in walked[1:]] == _reference(walked)[1:]
        env.undo()
        assert _record(env, SCCP) == _reference(walked[:-1] + (SCCP,))[-1]
    finally:
        env.close()


def test_a_fork_outlives_its_parent(deployment):
    walked = (SROA, INSTCOMBINE, MEM2REG, DCE)
    env = deployment(**STEP_SHAPE)
    try:
        env.reset()
        env.multistep(walked[:2])
        fork = env.fork()
    finally:
        env.close()
    with fork:
        assert [_record(fork, action) for action in walked[2:]] == _reference(walked)[2:]


def test_a_fork_that_goes_on_is_built_from_its_donor(deployment):
    walked = (MEM2REG, GVN, INSTCOMBINE, SIMPLIFYCFG)
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        env.step(walked[0])
        with env.fork() as fork:
            assert [_record(fork, action) for action in walked[1:]] == _reference(walked)[1:]
            # The parent was only borrowed.
            assert _record(env, DCE) == _reference((MEM2REG, DCE))[-1]


# -- in this process, where the runtime shows ---------------------------------------


@pytest.fixture(params=[None, False], ids=["cache", "nocache"])
def env(request):
    """An in-process env with the result cache on, and with it off: a fork
    borrows its donor the same way in both."""
    with repro.make("llvm-v0", result_cache=request.param, **STEP_SHAPE) as env:
        yield env


def _step(runtime, session_id, *actions, names=NAMES):
    return runtime.step(
        StepRequest(session_id=session_id, actions=list(actions), observation_space_names=names)
    )


def _plain(reply):
    autophase, count = reply.observations
    return np.asarray(autophase).tolist(), count, reply.action_had_no_effect


def test_first_step_borrows_second_step_copies_the_donor_and_replays_the_suffix(
    env, copies, pass_runs, check_sessions_current
):
    runtime = env.service.runtime
    env.reset()
    env.step(MEM2REG)
    assert copies == ["pristine"]
    parent = runtime.sessions[env._session_id].session
    with env.fork() as fork:
        entry = runtime.sessions[fork._session_id]
        del pass_runs[:]
        fork.step(GVN)
        assert pass_runs == ["gvn"] and copies == ["pristine"]
        assert entry.session is None
        assert entry.node.actions() == (MEM2REG, GVN)
        assert entry.donor is runtime.sessions[env._session_id]
        check_sessions_current(runtime)
        fork.step(INSTCOMBINE)
        # A copy of the donor at (mem2reg,), gvn replayed onto it, then the step.
        assert pass_runs == ["gvn", "gvn", "instcombine"] and copies == ["pristine", "fork"]
        built = entry.session
        assert built is not None and built is not parent and built.module is not parent.module
        assert (entry.donor, entry.lazy_fork) == (None, None)
        check_sessions_current(runtime)


def test_a_fork_follows_its_donor_down_the_same_way(env, copies, pass_runs):
    """A search commits one of its candidates: a fork that tried it first
    finds the donor where it is itself, and borrows again."""
    runtime = env.service.runtime
    env.reset()
    with env.fork() as fork:
        fork.step(MEM2REG)
        env.step(MEM2REG)
        del pass_runs[:]
        fork.step(GVN)
        assert pass_runs == ["gvn"] and copies == ["pristine"]
        assert runtime.sessions[fork._session_id].session is None


def test_observations_alone_are_borrowed_too(env, copies):
    env.reset()
    env.step(MEM2REG)
    with env.fork() as fork:
        assert fork.observation["IrSha1"] == env.observation["IrSha1"]
        assert env.service.runtime.sessions[fork._session_id].session is None
    assert copies == ["pristine"]


def test_a_candidates_entries_above_the_restored_version_are_dropped(env):
    """The donor stands at version v. A candidate whose pass changes some
    functions reads Autophase there, keying their entries v+1; the parent then
    commits a different pass that changes them too, and so stamps them v+1
    as well. Its read must be a fresh replay's, not the candidate's entries.
    What the candidate computed about functions its pass left alone stays."""
    runtime = env.service.runtime
    env.reset()
    env.step(MEM2REG)
    donor = runtime.sessions[env._session_id].session
    version = donor.module.version
    with env.fork() as fork:
        fork.step(INSTCOMBINE, observation_spaces=["Autophase", "InstCount"])
        assert runtime.sessions[fork._session_id].session is None
    kept, functions = dict(donor._function_memo["InstCount"]), len(donor.module.functions)
    assert _record(env, GVN) == _reference((MEM2REG, GVN))[-1]
    assert 0 < len(kept) < functions
    assert all(key[0] <= version for key, _ in kept.values())


def _stores(runtime):
    """How many entries the result cache has stored; ``None`` without one."""
    return None if runtime.result_cache is None else runtime.result_cache.stores


def _started(runtime, *prefix):
    session_id = runtime.start_session(
        StartSessionRequest(session_id=new_session_id(), benchmark_uri=f"benchmark://{BENCHMARK}", observation_space_names=NAMES)
    ).session_id
    for action in prefix:
        _step(runtime, session_id, action)
    return session_id


def test_a_fork_never_borrows_the_session_that_replaced_its_donor(env):
    """A fork holds its donor's entry, not its id: once a start under the
    donor's id replaced it, even with the same program at the same prefix,
    the fork's first step builds the fork instead of borrowing."""
    runtime = env.service.runtime
    parent_id = _started(runtime)
    fork_id = runtime.fork_session(
        ForkSessionRequest(session_id=parent_id, fork_id=new_session_id())
    ).session_id
    runtime.start_session(StartSessionRequest(
        session_id=parent_id, benchmark_uri=f"benchmark://{BENCHMARK}",
        observation_space_names=NAMES,
    ))
    entry = runtime.sessions[fork_id]
    assert entry.node is runtime.sessions[parent_id].node
    reply = _step(runtime, fork_id, INSTCOMBINE)
    assert entry.session is not None
    expected = _reference((INSTCOMBINE,))[-1]
    assert _plain(reply)[0] == expected[0] and _plain(reply)[2] == expected[3]


def test_a_pass_that_raises_on_the_donors_module_leaves_it_intact(env, monkeypatch):
    runtime = env.service.runtime  # Only for its runtime: CompilerEnv ends the episode on an error.
    parent_id = _started(runtime, MEM2REG)
    parent = runtime.sessions[parent_id].session
    fork_id = runtime.fork_session(ForkSessionRequest(session_id=parent_id, fork_id=new_session_id())).session_id
    entry = runtime.sessions[fork_id]
    before = print_module(parent.module), parent.module.version, dict(parent._obs_memo)
    memos = parent._obs_memo, parent._function_memo

    def crashing_run_pass(module, name):
        assert module is parent.module
        changed = run_pass(module, name)
        assert changed and print_module(module) != before[0]
        raise RuntimeError("crashed after rewriting the module")

    with monkeypatch.context() as patch:
        patch.setattr("repro.llvm.service.run_pass", crashing_run_pass)
        with pytest.raises(RuntimeError, match="after rewriting"):
            _step(runtime, fork_id, INSTCOMBINE)
    assert (print_module(parent.module), parent.module.version, parent._obs_memo) == before
    assert (parent._obs_memo, parent._function_memo) == memos
    assert parent._obs_memo is memos[0] and parent._function_memo is memos[1]
    assert entry.session is None
    assert not entry.pure and entry.node.actions() == (MEM2REG,)
    assert runtime.sessions[parent_id].pure
    # The next call builds the fork for real, and stores nothing.
    stores = _stores(runtime)
    reply = _step(runtime, fork_id, INSTCOMBINE)
    assert entry.session not in (None, parent)
    assert _stores(runtime) == stores
    expected = _reference((MEM2REG, INSTCOMBINE))[-1]
    assert _plain(reply)[0] == expected[0] and _plain(reply)[2] == expected[3]
    # And the parent goes on as if nothing had happened.
    assert _plain(_step(runtime, parent_id, GVN))[0] == _reference((MEM2REG, GVN))[-1][0]


def test_a_miscompile_caught_by_verify_ir_on_the_donors_module_is_rolled_back(env, monkeypatch):
    runtime = env.service.runtime
    parent_id = _started(runtime, MEM2REG)
    parent = runtime.sessions[parent_id].session
    # Behind the runtime's back, so that only the donor verifies.
    parent.verify_ir = True
    fork_id = runtime.fork_session(ForkSessionRequest(session_id=parent_id, fork_id=new_session_id())).session_id
    before = print_module(parent.module)

    def mistype_an_operand(function):
        for inst in function.instructions():
            if inst.is_binary:
                inst.set_operand(1, Constant(I64, 1))
                return True
        return False

    monkeypatch.setitem(PASS_REGISTRY, "dce", FunctionPass(mistype_an_operand))
    with pytest.raises(ServiceError, match="-dce produced invalid IR"):
        _step(runtime, fork_id, DCE)
    assert print_module(parent.module) == before
    assert runtime.sessions[fork_id].session is None and not runtime.sessions[fork_id].pure
    assert _plain(_step(runtime, parent_id, GVN))[0] == _reference((MEM2REG, GVN))[-1][0]


def test_fork_of_an_impure_parent_is_a_copy(env, copies):
    runtime = env.service.runtime
    env.reset()
    env.step(MEM2REG)
    env.service.handle_session_parameter(
        env._session_id, "llvm.set_runtimes_per_observation_count", "2"
    )
    with env.fork() as fork:
        assert copies == ["pristine", "fork"]
        entry = runtime.sessions[fork._session_id]
        assert entry.session is not None and entry.session._runtimes_per_observation == 2
        assert (entry.pure, entry.donor, entry.lazy_fork) == (False, None, None)
        assert _record(fork, GVN)[0] == _reference((MEM2REG, GVN))[-1][0]


def test_an_impure_donor_is_not_borrowed_from(env, copies):
    runtime = env.service.runtime
    env.reset()
    env.step(MEM2REG)
    with env.fork() as fork:
        # The baseline pipeline rewrites the parent's module behind its prefix.
        env.service.handle_session_parameter(
            env._session_id, "llvm.apply_baseline_pipeline", "-Oz"
        )
        record = _record(fork, GVN)
        assert copies == ["pristine", "pristine"]
        assert runtime.sessions[fork._session_id].session is not None
        assert record[0] == _reference((MEM2REG, GVN))[-1][0]


# -- the parent's random stream ---------------------------------------------------


def _noise(read, count=2):
    return [read(space) for _ in range(count) for space in ("Runtime", "Buildtime")]


def _reader(session):
    """Observations of a backend session, read by space name."""
    specs = {spec.id: spec for spec in session.observation_spaces}
    return lambda space: session.get_observation(specs[space])


@pytest.mark.parametrize("build", ["never", "at once", "late"])
def test_parents_runtime_stream_does_not_depend_on_whether_its_forks_are_built(build):
    """``LlvmCompilationSession.fork`` seeds the fork's noise generator with a
    draw from its parent's. The draw is made when the fork is asked for: with
    the result cache on or off, the parent's stream, and the fork's, are those
    of a fork copied on the spot by the backend whenever the fork is built,
    and if it never is."""

    def streams(result_cache, build, copied=False):
        with repro.make("llvm-v0", result_cache=result_cache, **STEP_SHAPE) as env, \
                contextlib.ExitStack() as forks_open:
            env.reset()
            env.step(MEM2REG)
            parent = _noise(env.observation.__getitem__)
            if copied:
                session = env.service.runtime.sessions[env._session_id].session
                first, second = (_reader(session.fork()) for _ in range(2))
            else:
                first, second = (
                    forks_open.enter_context(env.fork()).observation.__getitem__ for _ in range(2)
                )
            forks = []
            if build == "at once":
                forks += _noise(first)
            parent += _noise(env.observation.__getitem__)
            env.step(GVN)
            parent += _noise(env.observation.__getitem__)
            if build == "late":
                forks += _noise(first)
            if build != "never":
                forks += _noise(second)
            return parent, forks

    copied_parent, copied_forks = streams(False, build, copied=True)
    for result_cache in (None, False):
        parent, forks = streams(result_cache, build)
        assert parent == copied_parent == streams(False, "never", copied=True)[0]
        assert forks == copied_forks


# -- the backend hook on its own -----------------------------------------------------


def test_speculate_shows_the_forks_state_and_puts_the_parents_back():
    with repro.make("llvm-v0", result_cache=False, **STEP_SHAPE) as env:
        env.reset()
        env.step(MEM2REG)
        session = env.service.runtime.sessions[env._session_id].session
        spec = next(s for s in session.observation_spaces if s.id == "Autophase")
        session.get_observation(spec)
        memo = {space: dict(entries) for space, entries in session._function_memo.items()}
        before = print_module(session.module), session.module.version
        copied = session.fork()
        copied.apply_action(INSTCOMBINE)
        with session.lazy_fork().speculate() as borrowed:
            assert borrowed is session
            borrowed.apply_action(INSTCOMBINE)
            assert print_module(session.module) == print_module(copied.module) != before[0]
            assert session.module.version == copied.module.version
            assert (session.get_observation(spec) == copied.get_observation(spec)).all()
        assert (print_module(session.module), session.module.version) == before
        assert session._function_memo == memo


def test_a_backend_without_the_hook_forks_by_copying():
    with repro.make("loop_tool-v0", observation_space="flops", reward_space="flops") as env:
        env.reset()
        runtime = env.service.runtime
        assert runtime.sessions[env._session_id].session.lazy_fork() is None
        with env.fork() as fork:
            assert runtime.sessions[fork._session_id].session is not None
