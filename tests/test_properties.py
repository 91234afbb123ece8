"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.compiler_env_state import CompilerEnvState, CompilerEnvStateReader, CompilerEnvStateWriter
from repro.core.datasets.uri import BenchmarkUri
from repro.core.service.runtime.result_cache import ResultCache
from repro.core.spaces import Commandline, CommandlineFlag, Discrete, NamedDiscrete, Permutation, Scalar
from repro.gcc.compiler import SimulatedGcc
from repro.gcc.spec import GccSpec
from repro.llvm.datasets.generators import generate_module
from repro.llvm.interpreter import run_module
from repro.llvm.ir.parser import parse_module
from repro.llvm.ir.printer import print_module
from repro.llvm.ir.verifier import verify_module
from repro.llvm.datasets.suites import make_llvm_datasets
from repro.llvm.passes.registry import (
    ACTION_SPACE_PASSES,
    OZ_PIPELINE,
    PASS_REGISTRY,
    StampingPass,
    run_pass,
    run_pipeline,
)
from repro.loop_tool.cost import gp100_flops
from repro.loop_tool.ir import LoopTree
from repro.util.statistics import geometric_mean, percentile

_SETTINGS = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestSpaceProperties:
    @_SETTINGS
    @given(n=st.integers(min_value=1, max_value=500), seed=st.integers(0, 2**32 - 1))
    def test_discrete_samples_are_members(self, n, seed):
        space = Discrete(n)
        space.seed(seed)
        assert space.contains(space.sample())

    @_SETTINGS
    @given(
        names=st.lists(st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1, max_size=20, unique=True),
        seed=st.integers(0, 1000),
    )
    def test_named_discrete_string_round_trip(self, names, seed):
        space = NamedDiscrete(names)
        space.seed(seed)
        actions = [space.sample() for _ in range(5)]
        assert space.from_string(space.to_string(actions)) == actions

    @_SETTINGS
    @given(n=st.integers(min_value=1, max_value=50), seed=st.integers(0, 1000))
    def test_permutation_samples_are_permutations(self, n, seed):
        space = Permutation(n)
        space.seed(seed)
        assert space.contains(space.sample())

    @_SETTINGS
    @given(
        lo=st.integers(min_value=-100, max_value=0),
        hi=st.integers(min_value=1, max_value=100),
        seed=st.integers(0, 1000),
    )
    def test_scalar_samples_within_bounds(self, lo, hi, seed):
        space = Scalar(min=lo, max=hi, dtype=int)
        space.seed(seed)
        assert space.contains(space.sample())

    @_SETTINGS
    @given(
        flags=st.lists(st.text(alphabet="abcdefg", min_size=1, max_size=8), min_size=1, max_size=15, unique=True),
        seed=st.integers(0, 1000),
    )
    def test_commandline_round_trip(self, flags, seed):
        space = Commandline([CommandlineFlag(name, f"-{name}", "") for name in flags])
        space.seed(seed)
        actions = [space.sample() for _ in range(4)]
        assert space.from_commandline(space.to_commandline(actions)) == actions


class TestUriProperties:
    @_SETTINGS
    @given(
        dataset=st.text(alphabet="abcdefghij-", min_size=1, max_size=12).filter(lambda s: s.strip("-")),
        path=st.text(alphabet="abcdefghij0123456789/", min_size=0, max_size=20),
    )
    def test_uri_canonicalization_is_idempotent(self, dataset, path):
        uri = f"benchmark://{dataset}/{path}" if path else f"benchmark://{dataset}"
        canonical = BenchmarkUri.canonicalize(uri)
        assert BenchmarkUri.canonicalize(canonical) == canonical


class TestStateProperties:
    @_SETTINGS
    @given(
        benchmark=st.text(alphabet="abc/:-0123456789", min_size=1, max_size=30),
        reward=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=32)),
        walltime=st.floats(min_value=0, max_value=1e6),
    )
    def test_state_csv_round_trip(self, benchmark, reward, walltime):
        import io

        state = CompilerEnvState(benchmark=benchmark, commandline="-dce -gvn", walltime=walltime, reward=reward)
        buffer = io.StringIO()
        CompilerEnvStateWriter(buffer).write_state(state)
        buffer.seek(0)
        (read,) = list(CompilerEnvStateReader(buffer))
        assert read == state


class TestStatisticsProperties:
    @_SETTINGS
    @given(values=st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=30))
    def test_geomean_between_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9

    @_SETTINGS
    @given(values=st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
    def test_percentile_bounds(self, values):
        assert percentile(values, 0) == pytest.approx(min(values))
        assert percentile(values, 100) == pytest.approx(max(values))
        assert min(values) <= percentile(values, 50) <= max(values)


class TestIrProperties:
    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_generated_modules_always_verify(self, seed):
        module = generate_module(seed, size_scale=3)
        assert verify_module(module, raise_on_error=False) == []

    @_SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_print_parse_round_trip_preserves_instruction_count(self, seed):
        module = generate_module(seed, size_scale=3)
        reparsed = parse_module(print_module(module))
        assert reparsed.instruction_count == module.instruction_count
        assert print_module(reparsed) == print_module(module)

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        passes=st.lists(st.sampled_from(sorted(ACTION_SPACE_PASSES)), min_size=1, max_size=8),
    )
    def test_passes_preserve_semantics_and_validity(self, seed, passes):
        """The central correctness invariant: any sequence of pass actions
        leaves the module verifiable and observationally equivalent."""
        module = generate_module(seed, size_scale=3)
        expected = run_module(module, max_steps=500_000)
        for name in passes:
            run_pass(module, name)
            assert verify_module(module, raise_on_error=False) == []
        assert run_module(module, max_steps=500_000) == expected

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        passes=st.lists(st.sampled_from(sorted(ACTION_SPACE_PASSES)), min_size=1, max_size=6),
    )
    def test_passes_never_increase_code_size_beyond_bound(self, seed, passes):
        """Passes may grow code (reg2mem, lowerswitch, inlining) but only by a
        bounded factor — there is no runaway growth."""
        module = generate_module(seed, size_scale=3)
        original = module.instruction_count
        for name in passes:
            run_pass(module, name)
        assert module.instruction_count <= original * 6 + 50


class TestCloneProperties:
    """``Module.clone()`` over generator seeds and every builtin dataset; the
    structural contract itself is conftest's ``check_clone``."""

    @_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        size_scale=st.integers(min_value=1, max_value=6),
        runnable=st.booleans(),
    )
    def test_clone_of_generated_module_is_exact_and_independent(
        self, check_clone, seed, size_scale, runnable
    ):
        module = generate_module(seed, size_scale=size_scale, runnable=runnable)
        clone = module.clone()
        assert verify_module(clone, raise_on_error=False) == []
        check_clone(module, clone)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        passes=st.lists(st.sampled_from(sorted(ACTION_SPACE_PASSES)), max_size=6),
        optimise_clone=st.booleans(),
    )
    def test_either_side_optimises_without_disturbing_the_other(
        self, check_clone, seed, passes, optimise_clone
    ):
        """Clone mid-episode (after arbitrary passes), run -Oz on one side: the
        other side's IR does not move, and then optimises to the same IR."""
        source = generate_module(seed, size_scale=3)
        for name in passes:
            run_pass(source, name)
        clone = source.clone()
        check_clone(source, clone)
        before = print_module(source)
        first, second = (clone, source) if optimise_clone else (source, clone)
        run_pipeline(first, OZ_PIPELINE)
        assert print_module(second) == before
        run_pipeline(second, OZ_PIPELINE)
        assert print_module(second) == print_module(first)
        assert second.version == first.version

    @pytest.mark.parametrize("dataset", [d.name for d in make_llvm_datasets()])
    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_clone_of_every_builtin_dataset(self, check_clone, dataset, data):
        dataset = make_llvm_datasets()[dataset]
        index = data.draw(st.integers(min_value=0, max_value=min(len(dataset) or 2**32, 50) - 1))
        uri = next(uri for i, uri in enumerate(dataset.benchmark_uris()) if i == index)
        module = dataset.benchmark(uri).program
        clone = module.clone()
        assert verify_module(clone, raise_on_error=False) == []
        check_clone(module, clone)


class TestIncrementalObservationProperties:
    """The session recomputes per-function features only for functions whose
    stamp moved. Whatever the episode did and whenever it looked, that must
    read the same as a session that computes everything from scratch — also
    when, before each step, the root tries lookahead candidates that run on
    its own module and leave their entries in its memos."""

    SPACES = ["Autophase", "InstCount", "Liveness", "ReachingDefs", "DomTreeDepth"]
    # The passes that can change a module (the rest of the action space never fires).
    PASSES = [name for name in ACTION_SPACE_PASSES if isinstance(PASS_REGISTRY[name], StampingPass)]
    CANDIDATES = st.lists(
        st.tuples(st.sampled_from(PASSES), st.sets(st.sampled_from(SPACES), min_size=1)),
        min_size=1,
        max_size=3,
    )

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        benchmark=st.sampled_from(["cbench-v1/crc32", "cbench-v1/qsort", "cbench-v1/dijkstra"]),
        steps=st.lists(
            st.tuples(st.sampled_from(PASSES), st.sets(st.sampled_from(SPACES)), CANDIDATES),
            min_size=1,
            max_size=10,
        ),
        data=st.data(),
    )
    def test_incremental_session_and_its_fork_equal_a_fresh_replay(self, benchmark, steps, data):
        def observe(env):
            return {space: np.asarray(env.observation[space]).tolist() for space in self.SPACES}

        fork_at = data.draw(st.integers(min_value=0, max_value=len(steps) - 1))
        envs = [repro.make("llvm-v0", benchmark=benchmark, result_cache=False)]
        try:
            envs[0].reset()
            names = envs[0].action_space.names
            actions = [names.index(name) for name, _, _ in steps]
            for index, (action, (_, reads, candidates)) in enumerate(zip(actions, steps)):
                for candidate, candidate_reads in candidates:
                    with envs[0].fork() as lookahead:
                        lookahead.step(
                            names.index(candidate), observation_spaces=sorted(candidate_reads)
                        )
                if index == fork_at:
                    envs.append(envs[0].fork())
                for env in envs:
                    env.step(action)
                    for space in reads:
                        env.observation[space]
            fresh = repro.make("llvm-v0", benchmark=benchmark, result_cache=False)
            envs.append(fresh)
            fresh.reset()
            fresh.multistep(actions)
            expected = observe(fresh)
            assert observe(envs[0]) == expected
            assert observe(envs[1]) == expected
        finally:
            for env in envs:
                env.close()


class TestResultCacheSessionStateProperties:
    """Under the result cache a session is unbuilt or built and current. Whatever
    an episode does — steps, forks, resets, in whichever order the shared cache
    turns them into hits and misses — the client sees what an uncached
    environment shows, and every built session's module is its prefix run on
    the pristine program."""

    # Few actions, so that prefixes recur within a program and across programs.
    ACTIONS = st.sampled_from(
        [ACTION_SPACE_PASSES.index(name) for name in ("mem2reg", "gvn", "simplifycfg")]
    )
    OPERATIONS = st.one_of(
        st.tuples(st.just("step"), ACTIONS),
        st.tuples(st.just("multistep"), st.lists(ACTIONS, min_size=2, max_size=3)),
        st.tuples(st.just("fork-and-switch"), st.none()),
        st.tuples(st.just("close-fork"), st.none()),
        st.tuples(st.just("reset"), st.none()),
    )
    # A search's move, which independent draws would almost never line up: try
    # an action on a fork, then commit it on the parent (a hit on a built session).
    LOOKAHEAD = ACTIONS.map(lambda action: [
        ("fork-and-switch", None), ("step", action), ("close-fork", None), ("step", action),
    ])

    @classmethod
    def _programs(cls, **kwargs):
        fragments = st.one_of(cls.OPERATIONS.map(lambda operation: [operation]), cls.LOOKAHEAD)
        return st.lists(fragments, **kwargs).map(lambda lists: sum(lists, []))

    @staticmethod
    def _run(program, check, **kwargs):
        """The episode's trace; ``check(runtime)`` runs after every operation."""
        envs = [repro.make(
            "llvm-v0", benchmark="cbench-v1/crc32", observation_space="Autophase",
            reward_space="IrInstructionCount", **kwargs,
        )]
        try:
            trace = [np.asarray(envs[0].reset()).tolist()]
            for operation, argument in program:
                env = envs[-1]
                if operation == "step":
                    observation, *rest = env.step(argument)
                    trace.append((np.asarray(observation).tolist(), *rest))
                elif operation == "multistep":
                    observation, *rest = env.multistep(argument)
                    trace.append((np.asarray(observation).tolist(), *rest))
                elif operation == "fork-and-switch":
                    envs.append(env.fork())
                elif operation == "close-fork":
                    if len(envs) > 1:
                        envs.pop().close()
                else:
                    trace.append(np.asarray(env.reset()).tolist())
                check(envs[0].service.runtime)
            return trace
        finally:
            for env in reversed(envs):
                env.close()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_cached_episodes_equal_uncached_and_built_sessions_are_current(
        self, check_sessions_current, data
    ):
        warmup = data.draw(self._programs(max_size=6))
        program = data.draw(self._programs(min_size=1, max_size=10))
        expected = self._run(program, lambda runtime: None, result_cache=False)
        # One cache throughout. After the warm-up the program's steps are some
        # hits, some misses; the second time round they are all hits, and only
        # forks build sessions. Either way the same operations meet unbuilt
        # and built sessions.
        cache = ResultCache()
        self._run(warmup, check_sessions_current, result_cache=cache)
        for _ in range(2):
            assert self._run(program, check_sessions_current, result_cache=cache) == expected
        assert cache.hits > 0


class TestGccProperties:
    SPEC = GccSpec("11.2.0")
    GCC = SimulatedGcc(SPEC)

    @_SETTINGS
    @given(data=st.data())
    def test_asm_size_is_deterministic_and_bounded(self, data):
        choices = [
            data.draw(st.integers(min_value=0, max_value=min(len(option) - 1, 30)))
            for option in self.SPEC.options
        ]
        size_a = self.GCC.asm_size("chstone/aes", choices)
        size_b = self.GCC.asm_size("chstone/aes", choices)
        assert size_a == size_b
        base = self.GCC.base_size("chstone/aes")
        assert 0.3 * base <= size_a <= 1.6 * base

    @_SETTINGS
    @given(data=st.data())
    def test_commandline_only_lists_non_default_choices(self, data):
        choices = self.SPEC.default_choices()
        index = data.draw(st.integers(min_value=0, max_value=len(choices) - 1))
        choices[index] = data.draw(st.integers(min_value=1, max_value=min(len(self.SPEC.options[index]) - 1, 10)))
        commandline = self.SPEC.choices_to_commandline(choices)
        assert len(commandline.split()) == 1


class TestLoopToolProperties:
    @_SETTINGS
    @given(
        n_exp=st.integers(min_value=10, max_value=24),
        splits=st.lists(st.integers(min_value=2, max_value=64), min_size=0, max_size=3),
        thread_outer=st.booleans(),
    )
    def test_schedule_always_covers_problem_and_flops_positive(self, n_exp, splits, thread_outer):
        tree = LoopTree(n=2**n_exp)
        for factor in splits:
            tree.split(0, factor=factor)
        if thread_outer:
            tree.toggle_threaded(0)
        assert tree.total_iterations >= tree.n
        assert gp100_flops(tree, noise=0) > 0
