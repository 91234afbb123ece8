"""Tests for the environment wrapper suite."""

import numpy as np
import pytest

import repro
from repro.core.wrappers import (
    CommandlineWithTerminalAction,
    CompilerEnvWrapper,
    ConcatActionsHistogram,
    ConstrainedCommandline,
    CounterWrapper,
    CycleOverBenchmarks,
    CycleOverBenchmarksIterator,
    ForkOnStep,
    IterateOverBenchmarks,
    ObservationWrapper,
    RandomOrderBenchmarks,
    RewardWrapper,
    TimeLimit,
)
from repro.errors import SessionNotFound


@pytest.fixture()
def env():
    env = repro.make(
        "llvm-v0",
        benchmark="cbench-v1/crc32",
        observation_space="Autophase",
        reward_space="IrInstructionCount",
    )
    yield env
    env.close()


class TestBaseWrapper:
    def test_attribute_forwarding(self, env):
        wrapped = CompilerEnvWrapper(env)
        wrapped.reset()
        assert wrapped.observation["IrInstructionCount"] > 0
        assert wrapped.action_space.n == 124
        assert wrapped.unwrapped is env

    def test_step_forwarding(self, env):
        wrapped = CompilerEnvWrapper(env)
        wrapped.reset()
        observation, reward, done, info = wrapped.step(0)
        assert observation is not None
        assert not done

    def test_benchmark_passthrough(self, env):
        wrapped = CompilerEnvWrapper(env)
        wrapped.benchmark = "benchmark://cbench-v1/sha"
        assert str(wrapped.benchmark.uri) == "benchmark://cbench-v1/sha"

    def test_a_wrapper_that_defines_multistep_is_refused(self):
        """A pool steps a wrapped worker through its hooks, never through its
        ``multistep``, so an override would be skipped there."""
        with pytest.raises(TypeError, match=r"map_actions\(\) and finish_step\(\)"):

            class Overrides(TimeLimit):
                def multistep(self, actions, observation_spaces=None, reward_spaces=None):
                    return super().multistep(actions, observation_spaces, reward_spaces)

    def test_a_step_outside_an_episode_runs_no_hook(self, env):
        wrapped = ForkOnStep(CounterWrapper(env))
        with pytest.raises(SessionNotFound, match="before reset"):
            wrapped.step(0)
        assert wrapped.stack == [] and wrapped.counters["step"] == 0


class TestObservationRewardWrappers:
    def test_observation_wrapper(self, env):
        class Doubler(ObservationWrapper):
            def convert_observation(self, observation):
                return observation * 2 if observation is not None else None

        wrapped = Doubler(env)
        base = env.reset()
        wrapped_observation = wrapped.reset()
        assert (np.asarray(wrapped_observation) == 2 * np.asarray(base)).all()

    def test_reward_wrapper(self, env):
        class Negate(RewardWrapper):
            def convert_reward(self, reward):
                return -reward if reward is not None else reward

        wrapped = Negate(env)
        wrapped.reset()
        _, reward, _, _ = wrapped.step(wrapped.action_space["dce"])
        _, raw_reward, _, _ = env.step(env.action_space["dce"])
        assert reward <= 0 or raw_reward == 0


class TestTimeLimit:
    def test_episode_ends_at_limit(self, env):
        wrapped = TimeLimit(env, max_episode_steps=3)
        wrapped.reset()
        done_flags = [wrapped.step(0)[2] for _ in range(3)]
        assert done_flags == [False, False, True]

    def test_truncated_flag(self, env):
        wrapped = TimeLimit(env, max_episode_steps=1)
        wrapped.reset()
        _, _, done, info = wrapped.step(0)
        assert done
        assert info["TimeLimit.truncated"]

    def test_reset_restarts_counter(self, env):
        wrapped = TimeLimit(env, max_episode_steps=2)
        wrapped.reset()
        wrapped.step(0)
        wrapped.reset()
        _, _, done, _ = wrapped.step(0)
        assert not done

    def test_invalid_limit(self, env):
        with pytest.raises(ValueError):
            TimeLimit(env, max_episode_steps=0)


class TestBenchmarkIterators:
    def test_iterate_over_benchmarks(self, env):
        benchmarks = ["benchmark://cbench-v1/crc32", "benchmark://cbench-v1/qsort"]
        wrapped = IterateOverBenchmarks(env, benchmarks)
        wrapped.reset()
        assert str(wrapped.benchmark.uri) == benchmarks[0]
        wrapped.reset()
        assert str(wrapped.benchmark.uri) == benchmarks[1]
        with pytest.raises(StopIteration):
            wrapped.reset()

    def test_cycle_over_benchmarks(self, env):
        benchmarks = ["benchmark://cbench-v1/crc32", "benchmark://cbench-v1/qsort"]
        wrapped = CycleOverBenchmarks(env, benchmarks)
        seen = []
        for _ in range(4):
            wrapped.reset()
            seen.append(str(wrapped.benchmark.uri))
        assert seen == benchmarks * 2

    def test_cycle_over_benchmarks_iterator(self, env):
        wrapped = CycleOverBenchmarksIterator(
            env, lambda: iter(["benchmark://cbench-v1/crc32", "benchmark://cbench-v1/sha"])
        )
        seen = []
        for _ in range(3):  # One more reset than the iterator length: it must recycle.
            wrapped.reset()
            seen.append(str(wrapped.benchmark.uri))
        assert seen[0] == seen[2] == "benchmark://cbench-v1/crc32"

    def test_random_order_benchmarks(self, env):
        benchmarks = [f"benchmark://cbench-v1/{name}" for name in ("crc32", "qsort", "sha")]
        wrapped = RandomOrderBenchmarks(env, benchmarks, rng=np.random.default_rng(0))
        for _ in range(3):
            wrapped.reset()
            assert str(wrapped.benchmark.uri) in benchmarks


class TestCommandlineWrappers:
    def test_constrained_commandline_maps_actions(self, env):
        wrapped = ConstrainedCommandline(env, flags=["-mem2reg", "-dce", "-simplifycfg"])
        assert wrapped.action_space.n == 3
        wrapped.reset()
        wrapped.step(0)  # -mem2reg in the constrained space.
        assert env.actions == [env.action_space["mem2reg"]]

    def test_constrained_commandline_unknown_flag(self, env):
        with pytest.raises(LookupError):
            ConstrainedCommandline(env, flags=["-not-a-pass"])

    def test_terminal_action_ends_episode(self, env):
        wrapped = CommandlineWithTerminalAction(env)
        wrapped.reset()
        assert wrapped.action_space.n == 125
        _, _, done, _ = wrapped.step(wrapped.action_space.n - 1)
        assert done

    def test_a_lone_terminal_action_is_a_zero_action_step_that_ends(self, env):
        """It answers like ``env.multistep([])``: one observation and one
        reward per requested space, then ``done``."""
        wrapped = CommandlineWithTerminalAction(env)
        wrapped.reset()
        terminal = wrapped.action_space.n - 1
        spaces = dict(observation_spaces=["IrInstructionCount"], reward_spaces=["IrInstructionCount"])
        count = env.observation["IrInstructionCount"]
        observation, reward, done, info = wrapped.multistep([terminal], **spaces)
        assert (observation, reward, done) == ([count], [0.0], True)
        assert info["action_had_no_effect"]
        assert env.multistep([], **spaces)[:2] == (observation, reward)
        # With the default spaces, the observation is the Autophase vector.
        observation, reward, done, _ = wrapped.step(terminal)
        assert np.asarray(observation).shape == (56,) and reward == 0.0 and done
        assert env.actions == []

    def test_non_terminal_actions_still_work(self, env):
        wrapped = CommandlineWithTerminalAction(env)
        wrapped.reset()
        _, _, done, _ = wrapped.step(0)
        assert not done


class TestObservationAugmentation:
    def test_concat_actions_histogram_shape(self, env):
        wrapped = ConcatActionsHistogram(env)
        observation = wrapped.reset()
        assert observation.shape == (56 + 124,)
        assert wrapped.observation_space.shape == (56 + 124,)

    def test_histogram_counts_actions(self, env):
        wrapped = ConcatActionsHistogram(env)
        wrapped.reset()
        observation, _, _, _ = wrapped.step(3)
        observation, _, _, _ = wrapped.step(3)
        assert observation[56 + 3] == 2

    def test_histogram_normalization(self, env):
        wrapped = ConcatActionsHistogram(env, norm_to_episode_len=10)
        wrapped.reset()
        observation, _, _, _ = wrapped.step(5)
        assert observation[56 + 5] == pytest.approx(0.1)

    def test_counter_wrapper(self, env):
        wrapped = CounterWrapper(env)
        wrapped.reset()
        wrapped.step(0)
        wrapped.multistep([1, 2])
        assert wrapped.counters == {"reset": 1, "step": 2, "actions": 3}


class TestForkOnStep:
    def test_undo_restores_previous_state(self, env):
        wrapped = ForkOnStep(env)
        wrapped.reset()
        before = wrapped.observation["IrSha1"]
        wrapped.step(wrapped.action_space["mem2reg"])
        wrapped.undo()
        assert wrapped.observation["IrSha1"] == before

    def test_undo_with_empty_stack_raises(self, env):
        wrapped = ForkOnStep(env)
        wrapped.reset()
        with pytest.raises(IndexError, match="empty ForkOnStep stack"):
            wrapped.undo()
        # The environment is still usable after the failed undo.
        assert wrapped.observation["IrInstructionCount"] > 0


class TestComposition:
    def test_paper_listing2_composition(self, env):
        """The wrapper composition from Listing 2: TimeLimit + CycleOverBenchmarks."""
        wrapped = TimeLimit(env, max_episode_steps=45)
        dataset = env.datasets["benchmark://npb-v0"]
        import itertools

        wrapped = CycleOverBenchmarks(wrapped, itertools.islice(dataset.benchmarks(), 2))
        wrapped.reset()
        assert "npb" in str(wrapped.benchmark.uri)

    def test_rl_composition(self, env):
        from repro.rl.trainer import make_rl_environment

        wrapped = make_rl_environment(env)
        observation = wrapped.reset()
        assert observation.shape == (56 + 42,)
        _, _, done, _ = wrapped.step(0)
        assert not done
