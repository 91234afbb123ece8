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

import gc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.service.connection import ServiceConnection
from repro.core.service.proto import StartSessionRequest, StepRequest
from repro.core.service.runtime.result_cache import (
    PrefixNode,
    PrefixTrie,
    ResultCache,
    _ChildLink,
    _unlink,
)
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

new_session_id = ServiceConnection.new_session_id

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
    """A pure session is unbuilt (``sessions[id].session is None``, nothing
    but a prefix) or built and current (its module is the prefix run on the
    pristine program). Nothing is ever owed to a built session."""

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
            assert runtime.sessions[env._session_id].session is None
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
            assert runtime.sessions[env._session_id].session is None
            del built_from_pristine[:]
            forks = [env.fork()]
            try:
                # The fork built its parent, which holds the prefix run on the
                # pristine program, and itself starts unbuilt at that prefix.
                parent = runtime.sessions[env._session_id].session
                assert built_from_pristine == [parent]
                assert runtime.sessions[forks[0]._session_id].session is None
                check_sessions_current(runtime)
                # A second fork finds the parent built.
                forks.append(env.fork())
                assert built_from_pristine == [parent]
                assert runtime.sessions[env._session_id].session is parent
                before = print_module(parent.module)
                for fork in forks:
                    entry = runtime.sessions[fork._session_id]
                    donor = runtime.sessions[env._session_id]
                    assert entry.donor is donor and entry.node.actions() == tuple(prefix)
                    assert _step_record(fork, extra) == reference[-1]
                    # Answered from the parent's module, or from the cache.
                    assert entry.session is None
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
                    session_id=new_session_id(), benchmark_uri=f"benchmark://{BENCHMARK}", observation_space_names=names,
                )).session_id
                for action in prefix:
                    runtime.step(StepRequest(
                        session_id=session_id, actions=[action], observation_space_names=names,
                    ))
                return session_id

            walk()  # cold: populates the cache
            session_id = walk()
            entry = runtime.sessions[session_id]
            assert entry.session is None
            miss = StepRequest(session_id=session_id, actions=[extra], observation_space_names=names)

            def broken_run_pass(module, name):
                if name == ACTION_SPACE_PASSES[prefix[2]]:
                    raise RuntimeError("pass crashed during replay")
                return run_pass(module, name)

            with monkeypatch.context() as patch:
                patch.setattr("repro.llvm.service.run_pass", broken_run_pass)
                with pytest.raises(RuntimeError, match="during replay"):
                    runtime.step(miss)
            assert entry.session is None
            assert not entry.pure and entry.node.actions() == tuple(prefix)
            stores = runtime.result_cache.stores
            # The session builds again, runs the step, and stores nothing.
            reply = runtime.step(miss)
            assert entry.session is not None
            assert runtime.result_cache.stores == stores
            autophase, count = reply.observations
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
                StartSessionRequest(session_id=new_session_id(), benchmark_uri=uri, observation_space_names=names)
            ).session_id

        def step(connection, session_id, actions):
            reply = connection.step(StepRequest(
                session_id=session_id, actions=actions, observation_space_names=names,
            ))
            return reply.observations[0]

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
                assert not server.runtime.sessions[session_a].pure
        finally:
            server.shutdown()


class TestLruEviction:
    def test_evicts_oldest_to_byte_budget(self):
        cache = ResultCache(max_size_in_bytes=2000)
        root = cache.prefixes.root("b://x")
        payload = {"obs": b"x" * 200}
        for i in range(20):
            cache.store_step(cache.prefixes.walk(root, range(i + 1)), 1, False, False, payload)
        assert cache.evictions > 0
        assert cache.size_in_bytes <= 2000
        # Oldest prefixes are gone, the newest survives.
        assert cache.lookup_step(cache.prefixes.walk(root, (0,)), 1, ["obs"]) is None
        assert cache.lookup_step(cache.prefixes.walk(root, range(20)), 1, ["obs"]) is not None

    def test_oversized_entry_still_kept_alone(self):
        cache = ResultCache(max_size_in_bytes=64)
        root = cache.prefixes.root("b://x")
        cache.put_observation(root, "obs", b"y" * 500)
        assert cache.get_observation(root, "obs") == b"y" * 500
        assert cache.size == 1

    def test_a_list_of_vectors_is_charged_for_every_vector(self):
        # Inst2vec's payload: one 200-D float32 embedding per instruction.
        embeddings = [np.ones(200, dtype=np.float32) for _ in range(300)]
        text = ["%x = add i32 %y, %z"] * 300
        cache = ResultCache()
        root = cache.prefixes.root("b://x")
        cache.put_observation(root, "Inst2vec", embeddings)
        assert cache.size_in_bytes >= sum(vector.nbytes for vector in embeddings)
        before = cache.size_in_bytes
        cache.put_observation(root, "Inst2vecPreprocessedText", text)
        assert cache.size_in_bytes - before >= sum(map(len, text))
        # A budget that holds one such payload evicts the other.
        small = ResultCache(max_size_in_bytes=400_000)
        small.put_observation(small.prefixes.walk(root, (1,)), "Inst2vec", embeddings)
        small.put_observation(small.prefixes.walk(root, (2,)), "Inst2vec", embeddings)
        assert small.evictions == 1 and small.size == 1
        assert small.size_in_bytes <= small.max_size_in_bytes

    def test_one_record_per_node_holds_flags_by_step_length_and_payloads_by_space(self):
        cache = ResultCache()
        root = cache.prefixes.root("b://x")
        node = cache.prefixes.walk(root, (3, 4))
        cache.store_step(node, 2, False, True, {"a": 1})
        cache.store_step(node, 1, True, False, {"b": np.arange(4)})
        assert cache.size == 1
        two, one = (cache.lookup_step(node, n, ["a", "b"]) for n in (2, 1))
        assert (two.end_of_session, two.action_had_no_effect) == (False, True)
        assert (one.end_of_session, one.action_had_no_effect) == (True, False)
        assert two.observations["a"] == 1 and one.observations["b"].tolist() == [0, 1, 2, 3]
        # A step length never stored, or a space never stored, is a miss.
        assert cache.lookup_step(node, 3, ["a"]) is None
        assert cache.lookup_step(node, 1, ["c"]) is None
        assert (cache.hits, cache.misses, cache.stores) == (2, 2, 2)

    def test_disabled_and_coerced_budgets(self):
        assert ResultCache.coerce(False) is None
        assert ResultCache.coerce(0) is None
        assert ResultCache.coerce(1 << 20).max_size_in_bytes == 1 << 20
        default = ResultCache.coerce(None)
        assert default is not None
        shared = ResultCache()
        assert ResultCache.coerce(shared) is shared


class TestPrefixTrie:
    """A prefix is an interned node: equal prefixes are one object, and a
    node lives only while a session, a cache record or a descendant holds it."""

    @staticmethod
    def _chain(nodes):
        """Every node on the way from a root to any of ``nodes``."""
        chain = {}
        for node in nodes:
            while node is not None and id(node) not in chain:
                chain[id(node)] = node
                node = node.parent
        return chain

    @staticmethod
    def _live_nodes(root):
        """The ids of every live node that descends from ``root``."""
        gc.collect()
        live = set()
        for node in gc.get_objects():
            if isinstance(node, PrefixNode) and node.ancestor(0) is root:
                live.add(id(node))
        return live

    def test_equal_prefixes_are_one_node_and_a_node_knows_its_actions(self):
        trie = PrefixTrie()
        root = trie.root("b://x")
        node = trie.walk(root, (3, 1, 4))
        assert trie.walk(trie.walk(root, (3,)), (1, 4)) is node
        assert trie.root("b://x") is root and trie.root("b://y") is not root
        assert (node.depth, node.actions(), node.actions(since=1)) == (3, (3, 1, 4), (1, 4))
        assert node.ancestor(1) is trie.walk(root, (3,)) and node.ancestor(4) is None

    def test_unlinking_a_dead_child_never_drops_a_live_one(self):
        # A child's link is removed by whichever thread drops the child, and
        # a walk on another thread may intern a new child under the same
        # action first. A link without a callback stands for one whose
        # callback has not run yet.
        trie = PrefixTrie()
        root = trie.root("b://x")
        doomed = PrefixNode(root, 5)
        dead_link = _ChildLink(doomed)
        dead_link.parent, dead_link.action = root, 5
        root.children[5] = dead_link
        del doomed
        assert dead_link() is None
        live = trie.walk(root, (5,))
        assert root.children[5] is not dead_link
        _unlink(dead_link)
        assert trie.walk(root, (5,)) is live
        # A dead link is removed, and a missing one is no error.
        root.children[5] = dead_link
        _unlink(dead_link)
        assert 5 not in root.children
        _unlink(dead_link)

    def test_a_node_dies_with_its_last_session_and_record(self):
        cache = ResultCache()
        env = _make_env(result_cache=cache)
        try:
            env.reset()
            for action in range(50):
                env.step(action % 7)
            node = env.service.runtime.sessions[env._session_id].node
            assert node.depth == 50 and cache.size == 51
            deepest = weakref.ref(node)
            del node
        finally:
            env.close()
        # The cache's records still hold the whole episode.
        assert deepest() is not None and len(cache.prefixes._roots) == 1
        cache.clear()
        assert deepest() is None
        assert len(cache.prefixes._roots) == 0

    def test_live_nodes_are_the_records_and_the_sessions_chains_under_a_tiny_budget(self):
        cache = ResultCache(max_size_in_bytes=4000)
        env = _make_env(result_cache=cache)
        forks = []
        try:
            runtime = env.service.runtime
            root = cache.prefixes.root(f"benchmark://{BENCHMARK}")
            for episode in range(3):
                env.reset()
                for depth, action in enumerate(SEQUENCES[episode % 2] * 4):
                    env.step(action)
                    if depth % 5 == 0:
                        forks.append(env.fork())
                        forks[-1].step((action + 1) % 7)
                    held = [entry.node for entry in runtime.sessions.values()]
                    assert cache.evictions == 0 or cache.size_in_bytes <= 4000
                    assert self._live_nodes(root) == set(self._chain(held + list(cache._records)))
                for fork in forks:
                    fork.close()
                forks.clear()
            assert cache.evictions > 0
        finally:
            for fork in forks:
                fork.close()
            env.close()

    def test_runtimes_sharing_a_cache_share_nodes_and_hit_each_others_steps(self):
        cache = ResultCache()
        first, second = _make_env(result_cache=cache), _make_env(result_cache=cache)
        try:
            assert first.service.runtime is not second.service.runtime
            assert first.service.runtime.prefixes is second.service.runtime.prefixes
            expected = _trace(first, SEQUENCES[0])
            hits = cache.hits
            assert _trace(second, SEQUENCES[0]) == expected
            # The reset's two observations and every step, all from the cache.
            assert cache.hits == hits + 2 + len(SEQUENCES[0])
            nodes = [env.service.runtime.sessions[env._session_id].node
                     for env in (first, second)]
            assert nodes[0] is nodes[1]
            assert nodes[0].actions() == tuple(SEQUENCES[0])
        finally:
            first.close()
            second.close()


class TestEvictionMidEpisode:
    """A budget that holds a few records evicts in the middle of every
    episode: what the client sees stays what an uncached environment shows,
    and every built session stays current."""

    ACTIONS = st.sampled_from([0, 3, 11, 23])
    OPERATIONS = st.one_of(
        st.tuples(st.just("step"), ACTIONS),
        st.tuples(st.just("multistep"), st.lists(ACTIONS, min_size=2, max_size=3)),
        st.tuples(st.just("fork-and-step"), ACTIONS),
        st.tuples(st.just("reset"), st.none()),
    )

    @staticmethod
    def _run(program, check, **kwargs):
        env = _make_env(**kwargs)
        try:
            trace = [np.asarray(env.reset()).tolist()]
            for operation, argument in program:
                if operation == "step":
                    trace.append(_step_record(env, argument))
                elif operation == "multistep":
                    observation, reward, done, info = env.multistep(argument)
                    trace.append((np.asarray(observation).tolist(), reward, done,
                                  info["action_had_no_effect"]))
                elif operation == "fork-and-step":
                    with env.fork() as fork:
                        trace.append(_step_record(fork, argument))
                        check(env.service.runtime)
                else:
                    trace.append(np.asarray(env.reset()).tolist())
                check(env.service.runtime)
            return trace
        finally:
            env.close()

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(programs=st.lists(st.lists(OPERATIONS, min_size=1, max_size=12), min_size=1, max_size=3))
    def test_cached_traces_equal_uncached_under_a_budget_that_evicts(
        self, check_sessions_current, programs
    ):
        cache = ResultCache(max_size_in_bytes=3000)
        for program in programs:
            expected = self._run(program, lambda runtime: None, result_cache=False)
            assert self._run(program, check_sessions_current, result_cache=cache) == expected


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
            session = env.service.runtime.sessions[env._session_id].session
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
            victim = self._victim(warm.service.runtime.sessions[warm._session_id].session.module)
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
