"""Tests for the two-layer result cache.

Layer 1 is the session-incremental observation memo keyed on the module
version counter; layer 2 is the daemon-wide (benchmark, action-prefix)
store shared across sessions. The acceptance criteria covered here:

- (Cached and uncached rollouts are bit-identical in every deployment:
  ``tests/test_conformance.py``.)
- A session is unbuilt (nothing but its prefix) or built and current (its
  module is the prefix run on the pristine program): a lookahead candidate
  runs exactly one pass and copies no module, fork() builds a cache-served
  parent once and starts unbuilt at its warm prefix, a failed build leaves the
  session unbuilt. (What an unbuilt fork does next: ``tests/test_lazy_fork.py``.)
- A step that fails midway takes its session out of the cache protocol, so it
  cannot store results under a key its module no longer matches.
- The LRU store evicts to its byte budget, oldest entries first.
- Every registered pass honors the version-counter contract the layer-1
  memo keys on (``changed`` return value <=> exactly one version bump), and
  per-function stamps are drawn from that one counter.
"""

import numpy as np
import pytest

import repro
from repro.core.service.connection import ServiceConnection
from repro.core.service.proto import StartSessionRequest, StepRequest
from repro.core.service.runtime.result_cache import ResultCache
from repro.core.service.runtime.server import make_env_server
from repro.core.service.transport import SocketTransport
from repro.errors import ServiceError
from repro.llvm.datasets.generators import generate_module
from repro.llvm.ir.function import Function
from repro.llvm.ir.instructions import Instruction
from repro.llvm.ir.printer import print_module
from repro.llvm.ir.values import Constant
from repro.llvm.passes.registry import ACTION_SPACE_PASSES, PASS_REGISTRY, ModulePass, run_pass
from repro.llvm.passes.validate import LINT_EXCLUDED_PASSES
from repro.llvm.service import LlvmCompilationSession

BENCHMARK = "cbench-v1/crc32"
SEQUENCES = [
    [0, 11, 3, 7, 1],
    [23, 5, 0, 11, 2],
]


def _make_env(**kwargs):
    return repro.make(
        "llvm-v0",
        benchmark=BENCHMARK,
        observation_space="Autophase",
        reward_space="IrInstructionCount",
        **kwargs,
    )


def _step_record(env, action):
    observation, reward, done, info = env.step(action)
    return np.asarray(observation).tolist(), reward, done, info["action_had_no_effect"]


def _trace(env, actions):
    """One episode's full observable record, in plain comparable types."""
    observation = env.reset()
    trace = [np.asarray(observation).tolist()]
    for action in actions:
        trace.append(_step_record(env, action))
        if trace[-1][2]:
            break
    return trace


def _uncached_trace(actions):
    env = _make_env(result_cache=False)
    try:
        return _trace(env, actions)
    finally:
        env.close()


class TestSessionIsUnbuiltOrCurrent:
    """A session under the cache protocol is unbuilt (``sessions[id] is None``,
    nothing but a prefix) or built and current (its module is the prefix run
    on the pristine program). Nothing is ever owed to a built session."""

    # Depth 4, width 3; each level commits one of its own candidates, so every
    # commit is a result-cache hit on a built parent.
    LEVELS = [((0, 11, 3), 11), ((7, 1, 23), 7), ((5, 2, 42), 42), ((11, 30, 8), 8)]
    NEXT_LEVEL = (3, 19, 27)

    @staticmethod
    def _try(env, action):
        fork = env.fork()
        try:
            fork.step(action)
        finally:
            fork.close()

    def test_lookahead_runs_one_pass_per_candidate_and_per_commit(
        self, pass_runs, copies, check_sessions_current
    ):
        env = _make_env()
        try:
            runtime = env.service.runtime
            env.reset()
            assert copies == ["pristine"]
            for candidates, commit in self.LEVELS:
                for action in candidates:
                    self._try(env, action)
                hits = runtime.result_cache.hits
                env.step(commit)
                assert runtime.result_cache.hits == hits + 1
                check_sessions_current(runtime)
            assert len(pass_runs) == 4 * 3 + 4
            # A candidate ran on its parent's module and was taken back.
            assert copies == ["pristine"]

            # Re-walking the commits is served without a session...
            del pass_runs[:]
            env.reset()
            for _, commit in self.LEVELS:
                env.step(commit)
            assert pass_runs == []
            assert runtime.sessions[env._session_id] is None
            # ...and the next level builds it once, from the one copy of the
            # pristine program: 4 passes of prefix, then one per candidate.
            for action in self.NEXT_LEVEL:
                self._try(env, action)
                check_sessions_current(runtime)
            assert len(pass_runs) == 4 + 3
            assert copies == ["pristine", "pristine"]
        finally:
            env.close()

    def test_fork_of_cache_served_session_builds_the_parent_once(
        self, monkeypatch, check_sessions_current
    ):
        prefix, extra = SEQUENCES[0], 42
        reference = _uncached_trace(prefix + [extra])

        built_from_pristine = []
        construct = LlvmCompilationSession.__init__

        def counting_init(session, *args, **kwargs):
            built_from_pristine.append(session)
            construct(session, *args, **kwargs)

        monkeypatch.setattr(LlvmCompilationSession, "__init__", counting_init)
        env = _make_env()
        try:
            runtime = env.service.runtime
            _trace(env, prefix)  # cold: populates the cache
            _trace(env, prefix)  # warm: the session is never built
            assert runtime.sessions[env._session_id] is None
            del built_from_pristine[:]
            forks = [env.fork()]
            try:
                # The fork built its parent, which holds the prefix run on the
                # pristine program, and itself starts unbuilt at that prefix.
                parent = runtime.sessions[env._session_id]
                assert built_from_pristine == [parent]
                assert runtime.sessions[forks[0]._session_id] is None
                check_sessions_current(runtime)
                # A second fork finds the parent built.
                forks.append(env.fork())
                assert built_from_pristine == [parent]
                assert runtime.sessions[env._session_id] is parent
                before = print_module(parent.module)
                for fork in forks:
                    state = runtime._cache_states[fork._session_id]
                    assert (state.donor, state.prefix) == (env._session_id, tuple(prefix))
                    assert _step_record(fork, extra) == reference[-1]
                    # Answered from the parent's module, or from the cache.
                    assert runtime.sessions[fork._session_id] is None
                assert built_from_pristine == [parent]
                assert print_module(parent.module) == before
                check_sessions_current(runtime)
            finally:
                for fork in forks:
                    fork.close()
        finally:
            env.close()

    def test_failed_build_leaves_the_session_unbuilt_and_the_next_step_builds_again(
        self, monkeypatch, check_sessions_current
    ):
        prefix, extra = SEQUENCES[0], 42
        reference = _uncached_trace(prefix + [extra])

        env = _make_env()  # Only for its runtime: CompilerEnv would end the episode on the error.
        try:
            runtime = env.service.runtime
            names = ["Autophase", "IrInstructionCount"]

            def walk():
                session_id = runtime.start_session(StartSessionRequest(
                    benchmark_uri=f"benchmark://{BENCHMARK}", observation_space_names=names,
                )).session_id
                for action in prefix:
                    runtime.step(StepRequest(
                        session_id=session_id, actions=[action], observation_space_names=names,
                    ))
                return session_id

            walk()  # cold: populates the cache
            session_id = walk()
            assert runtime.sessions[session_id] is None
            miss = StepRequest(session_id=session_id, actions=[extra], observation_space_names=names)

            def broken_run_pass(module, name):
                if name == ACTION_SPACE_PASSES[prefix[2]]:
                    raise RuntimeError("pass crashed during replay")
                return run_pass(module, name)

            with monkeypatch.context() as patch:
                patch.setattr("repro.llvm.service.run_pass", broken_run_pass)
                with pytest.raises(RuntimeError, match="during replay"):
                    runtime.step(miss)
            state = runtime._cache_states[session_id]
            assert runtime.sessions[session_id] is None
            assert not state.cacheable and state.prefix == tuple(prefix)
            stores = runtime.result_cache.stores
            # The session builds again, runs the step, and stores nothing.
            reply = runtime.step(miss)
            assert runtime.sessions[session_id] is not None
            assert runtime.result_cache.stores == stores
            autophase, count = (event.value() for event in reply.observations)
            assert np.asarray(autophase).tolist() == reference[-1][0]
            assert reply.action_had_no_effect == reference[-1][3]
            check_sessions_current(runtime)
        finally:
            env.close()


class TestFailedStepLeavesTheCacheProtocol:
    def test_step_that_raises_midway_cannot_poison_other_sessions(self):
        """A step that raises after applying an action leaves the module ahead
        of the session's prefix. Nothing that session computes afterwards may
        be stored under a prefix key, where every other session would read it."""
        uri, names = "benchmark://cbench-v1/qsort", ["IrInstructionCount"]
        mem2reg, dce = (ACTION_SPACE_PASSES.index(name) for name in ("mem2reg", "dce"))

        def start(connection):
            return connection.start_session(
                StartSessionRequest(benchmark_uri=uri, observation_space_names=names)
            ).session_id

        def step(connection, session_id, actions):
            reply = connection.step(StepRequest(
                session_id=session_id, actions=actions, observation_space_names=names,
            ))
            return reply.observations[0].value()

        uncached = repro.make("llvm-v0", benchmark="cbench-v1/qsort", result_cache=False)
        try:
            uncached.reset()
            uncached.step(dce)
            expected = uncached.observation["IrInstructionCount"]
        finally:
            uncached.close()

        server = make_env_server("llvm-v0").start()
        try:
            with ServiceConnection(SocketTransport(server.url)) as a, \
                    ServiceConnection(SocketTransport(server.url)) as b:
                session_a = start(a)
                with pytest.raises(ServiceError):
                    step(a, session_a, [mem2reg, 99999])
                step(a, session_a, [dce])  # mem2reg + dce, but the prefix says dce
                assert step(b, start(b), [dce]) == expected
                assert not server.runtime._cache_states[session_a].cacheable
        finally:
            server.shutdown()


class TestLruEviction:
    def test_evicts_oldest_to_byte_budget(self):
        cache = ResultCache(max_size_in_bytes=2000)
        payload = {"obs": b"x" * 200}
        for i in range(20):
            cache.store_step("b://x", tuple(range(i + 1)), 1, False, False, payload)
        assert cache.evictions > 0
        assert cache.size_in_bytes <= 2000
        # Oldest prefixes are gone, the newest survives.
        assert cache.lookup_step("b://x", (0,), 1, ["obs"]) is None
        assert cache.lookup_step("b://x", tuple(range(20)), 1, ["obs"]) is not None

    def test_oversized_entry_still_kept_alone(self):
        cache = ResultCache(max_size_in_bytes=64)
        cache.put_observation("b://x", (), "obs", b"y" * 500)
        assert cache.get_observation("b://x", (), "obs") == b"y" * 500
        assert cache.size == 1

    def test_disabled_and_coerced_budgets(self):
        assert ResultCache.coerce(False) is None
        assert ResultCache.coerce(0) is None
        assert ResultCache.coerce(1 << 20).max_size_in_bytes == 1 << 20
        default = ResultCache.coerce(None)
        assert default is not None
        shared = ResultCache()
        assert ResultCache.coerce(shared) is shared


class TestVersionCounterContract:
    def test_every_registered_pass_bumps_version_iff_changed(self):
        """The layer-1 memo keys on (space, module.version): a pass that
        mutates IR while reporting changed=False would serve stale
        observations, so the contract is audited for every registered pass."""
        module = generate_module(seed=7, size_scale=5)
        for name in sorted(set(PASS_REGISTRY) - LINT_EXCLUDED_PASSES):
            clone = module.clone()
            ir_before = print_module(clone)
            version_before = clone.version
            changed = run_pass(clone, name)
            expected = version_before + (1 if changed else 0)
            assert clone.version == expected, (
                f"{name}: changed={changed} but version went "
                f"{version_before} -> {clone.version}"
            )
            if not changed:
                assert print_module(clone) == ir_before, (
                    f"{name}: changed=False but the printed IR differs"
                )

    def test_noop_steps_leave_version_and_memo_untouched(self):
        env = _make_env(result_cache=False)
        try:
            env.reset()
            session = env.service.runtime.sessions[env._session_id]
            version = session.module.version

            def stamps():
                return {name: f.stamp for name, f in session.module.functions.items()}

            pristine = stamps()
            # A mutating pass bumps the version and invalidates the memo; the
            # functions it changed, and only those, carry the new version.
            mem2reg = env.action_space.names.index("mem2reg")
            _, _, _, info = env.step(mem2reg)
            assert not info["action_had_no_effect"]
            assert session.module.version == version + 1
            promoted = stamps()
            moved = {name for name in promoted if promoted[name] != pristine[name]}
            assert moved and all(promoted[name] == version + 1 for name in moved)
            # Re-running the same pass is a fixpoint no-op: the version (and
            # with it every memoized observation) stays put, and so does
            # every stamp.
            count = env.observation["IrInstructionCount"]
            _, _, _, info = env.step(mem2reg)
            assert info["action_had_no_effect"]
            assert session.module.version == version + 1
            assert stamps() == promoted
            assert env.observation["IrInstructionCount"] == count
        finally:
            env.close()

    def test_a_bump_that_names_no_functions_dirties_them_all(self):
        module = generate_module(seed=7, size_scale=5)
        some = list(module.functions.values())[:2]
        assert module.bump_version(some) == 1
        assert {f.stamp for f in module.functions.values()} == {0, 1}
        assert module.bump_version() == 2
        assert {f.stamp for f in module.functions.values()} == {2}


class TestStampSafety:
    """Stamps come from the module's one monotonic version, so nothing that
    happens between two observation reads can bring a memoised
    ``(function name, stamp)`` back with different IR behind it."""

    SPACES = ["Autophase", "InstCount", "Liveness", "ReachingDefs", "DomTreeDepth"]

    @staticmethod
    def _victim(module):
        """A function the episode's first step already changed once — where a
        per-function change counter would be back at 1 after the re-creation."""
        return next(
            f for f in module.defined_functions()
            if f.name != "main" and f.stamp == module.version
        )

    @classmethod
    def _delete(cls, module, touched=None):
        del module.functions[cls._victim(module).name]
        return True

    @staticmethod
    def _recreate_for(victim):
        def recreate(module, touched=None):
            function = Function(
                victim.name,
                return_type=victim.return_type,
                arg_types=[arg.type for arg in victim.args],
                arg_names=[arg.name for arg in victim.args],
            )
            returned = [] if victim.return_type.is_void else [Constant(victim.return_type, 0)]
            function.add_block("entry").append(Instruction("ret", returned))
            module.add_function(function)
            if touched is not None:
                touched.add(function)
            return True

        return recreate

    @pytest.mark.parametrize("wrap", [ModulePass, lambda run: run], ids=["module-pass", "plain"])
    def test_function_recreated_under_its_name_inside_one_multistep(self, monkeypatch, wrap):
        def observe(env):
            return {space: np.asarray(env.observation[space]).tolist() for space in self.SPACES}

        warm, fresh = _make_env(result_cache=False), _make_env(result_cache=False)
        try:
            mem2reg = warm.action_space.names.index("mem2reg")
            for env in (warm, fresh):
                env.reset()
                env.step(mem2reg)
            victim = self._victim(warm.service.runtime.sessions[warm._session_id].module)
            monkeypatch.setitem(PASS_REGISTRY, "instnamer", wrap(self._delete))
            monkeypatch.setitem(PASS_REGISTRY, "irce", wrap(self._recreate_for(victim)))
            actions = [warm.action_space.names.index(name) for name in ("instnamer", "irce")]

            pristine = observe(warm)  # Memoises every function, the victim included.
            warm.multistep(actions)
            fresh.multistep(actions)
            assert observe(warm) == observe(fresh) != pristine
        finally:
            warm.close()
            fresh.close()
