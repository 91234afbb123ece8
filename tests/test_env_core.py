"""Integration tests of the CompilerEnv Gym interface (on the LLVM backend)."""

import gc
import weakref

import numpy as np
import pytest

import repro
from repro.errors import SessionNotFound


class TestMake:
    def test_registered_environments(self):
        assert "llvm-v0" in repro.COMPILER_GYM_ENVS
        assert "gcc-v0" in repro.COMPILER_GYM_ENVS
        assert "loop_tool-v0" in repro.COMPILER_GYM_ENVS

    def test_unknown_environment_raises(self):
        with pytest.raises(LookupError):
            repro.make("not-an-env-v0")

    def test_make_with_kwargs(self):
        env = repro.make("llvm-v0", benchmark="cbench-v1/crc32")
        try:
            assert str(env.benchmark.uri) == "benchmark://cbench-v1/crc32"
        finally:
            env.close()


class TestEpisodeLifecycle:
    def test_reset_returns_observation(self, llvm_env):
        observation = llvm_env.reset()
        assert observation is not None
        assert observation.shape == (56,)

    def test_step_before_reset_raises(self, fresh_llvm_env):
        with pytest.raises(SessionNotFound):
            fresh_llvm_env.step(0)

    def test_step_returns_quadruple(self, llvm_env):
        llvm_env.reset()
        observation, reward, done, info = llvm_env.step(0)
        assert observation.shape == (56,)
        assert isinstance(reward, float)
        assert isinstance(done, bool)
        assert "action_had_no_effect" in info

    def test_actions_are_recorded(self, llvm_env):
        llvm_env.reset()
        llvm_env.step(1)
        llvm_env.step(2)
        assert llvm_env.actions == [1, 2]

    def test_episode_reward_accumulates_step_rewards(self, llvm_env):
        llvm_env.reset()
        total = 0.0
        for action in range(5):
            _, reward, _, _ = llvm_env.step(action)
            total += reward
        assert llvm_env.episode_reward == pytest.approx(total)

    def test_reset_clears_episode_state(self, llvm_env):
        llvm_env.reset()
        llvm_env.step(0)
        llvm_env.reset()
        assert llvm_env.actions == []
        assert llvm_env.episode_reward == 0

    def test_in_episode_property(self, fresh_llvm_env):
        assert not fresh_llvm_env.in_episode
        fresh_llvm_env.reset()
        assert fresh_llvm_env.in_episode

    def test_benchmark_change_takes_effect_on_reset(self, fresh_llvm_env):
        fresh_llvm_env.reset()
        fresh_llvm_env.benchmark = "benchmark://cbench-v1/sha"
        # The property reports the pending benchmark immediately...
        assert str(fresh_llvm_env.benchmark.uri) == "benchmark://cbench-v1/sha"
        fresh_llvm_env.reset()
        assert str(fresh_llvm_env.benchmark.uri) == "benchmark://cbench-v1/sha"

    def test_dataset_benchmarks_are_retained_only_by_the_bounded_cache(self, fresh_llvm_env):
        """A long run over a program generator must not grow without bound:
        the env registers only Benchmark objects the user handed it, and what
        the service retains is the byte-bounded, evicting BenchmarkCache."""
        env = fresh_llvm_env
        env.observation_space = "IrInstructionCount"
        cache = env.service.transport._runtime.benchmark_cache
        first = None
        for seed in range(50):
            assert env.reset(benchmark=f"generator://csmith-v0/{seed}") > 0
            if first is None:
                first = weakref.ref(env.benchmark)
                # Room for about three programs of this size.
                cache.max_size_in_bytes = 3 * cache.size_in_bytes
        assert env._custom_benchmarks == {}
        assert cache.size_in_bytes <= cache.max_size_in_bytes
        assert cache.size < 10 and cache.evictions > 40
        gc.collect()
        assert first() is None

        mine = env.make_benchmark(env.ir, uri="benchmark://user-v0/mine")
        env.reset(benchmark=mine)
        assert env._custom_benchmarks == {"benchmark://user-v0/mine": mine}


class TestMultistep:
    def test_multistep_applies_all_actions(self, llvm_env):
        llvm_env.reset()
        llvm_env.multistep([1, 2, 3])
        assert llvm_env.actions == [1, 2, 3]

    def test_batched_equals_sequential_instruction_count(self, fresh_llvm_env):
        env = fresh_llvm_env
        actions = [env.action_space["mem2reg"], env.action_space["instcombine"], env.action_space["dce"]]
        env.reset()
        for action in actions:
            env.step(action)
        sequential = env.observation["IrInstructionCount"]
        env.reset()
        env.multistep(actions)
        batched = env.observation["IrInstructionCount"]
        assert sequential == batched

    def test_explicit_observation_spaces(self, llvm_env):
        llvm_env.reset()
        observations, rewards, done, _ = llvm_env.multistep(
            [0], observation_spaces=["IrInstructionCount", "Autophase"], reward_spaces=[]
        )
        assert len(observations) == 2
        assert isinstance(observations[0], int)
        assert observations[1].shape == (56,)
        assert rewards == []
        assert not done

    def test_explicit_reward_spaces(self, llvm_env):
        llvm_env.reset()
        _, rewards, _, _ = llvm_env.step(
            llvm_env.action_space["dce"], reward_spaces=["IrInstructionCount", "IrInstructionCountOz"]
        )
        assert len(rewards) == 2


class TestObservationView:
    def test_lazy_observation_access(self, llvm_env):
        llvm_env.reset()
        count = llvm_env.observation["IrInstructionCount"]
        assert count > 0
        text = llvm_env.observation["Ir"]
        assert "define" in text

    def test_observation_space_selection(self, fresh_llvm_env):
        fresh_llvm_env.observation_space = "InstCount"
        observation = fresh_llvm_env.reset()
        assert observation.shape == (70,)
        fresh_llvm_env.observation_space = None
        assert fresh_llvm_env.reset() is None

    def test_derived_observation_space(self, llvm_env):
        llvm_env.reset()
        llvm_env.observation.add_derived_space(
            id="InstCountNorm",
            base_id="InstCount",
            space=llvm_env.observation.spaces["InstCount"].space,
            translate=lambda value: np.asarray(value) / max(1, int(value[0])),
        )
        derived = llvm_env.observation["InstCountNorm"]
        assert derived[0] == pytest.approx(1.0)


class TestRewardView:
    def test_named_reward_access(self, llvm_env):
        llvm_env.reset()
        value = llvm_env.reward["IrInstructionCount"]
        assert isinstance(value, float)

    def test_reward_space_selection_sets_range(self, fresh_llvm_env):
        fresh_llvm_env.reward_space = "IrInstructionCountOz"
        assert fresh_llvm_env.reward_space.name == "IrInstructionCountOz"
        fresh_llvm_env.reward_space = None
        assert fresh_llvm_env.reward_space is None

    def test_oz_scaled_episode_reward_reaches_one_with_oz_pipeline(self, fresh_llvm_env):
        env = fresh_llvm_env
        env.reward_space = "IrInstructionCountOz"
        env.reset()
        from repro.llvm.passes.registry import OZ_PIPELINE

        actions = [env.action_space[name] for name in OZ_PIPELINE]
        env.multistep(actions)
        # Applying the -Oz pipeline as actions achieves the -Oz baseline, so
        # the scaled cumulative reward is 1.0.
        assert env.episode_reward == pytest.approx(1.0, abs=0.05)


class TestFork:
    def test_fork_preserves_state(self, llvm_env):
        llvm_env.reset()
        llvm_env.step(llvm_env.action_space["mem2reg"])
        fork = llvm_env.fork()
        try:
            assert fork.actions == llvm_env.actions
            assert fork.observation["IrInstructionCount"] == llvm_env.observation["IrInstructionCount"]
        finally:
            fork.close()

    def test_fork_is_independent(self, llvm_env):
        llvm_env.reset()
        fork = llvm_env.fork()
        try:
            fork.step(fork.action_space["mem2reg"])
            fork.step(fork.action_space["dce"])
            assert fork.observation["IrInstructionCount"] <= llvm_env.observation["IrInstructionCount"]
            assert llvm_env.actions == []
        finally:
            fork.close()

    def test_fork_reward_state_not_shared(self, fresh_llvm_env):
        env = fresh_llvm_env
        env.reset()
        fork = env.fork()
        try:
            _, fork_reward, _, _ = fork.step(fork.action_space["mem2reg"])
            _, env_reward, _, _ = env.step(env.action_space["mem2reg"])
            assert env_reward == pytest.approx(fork_reward)
        finally:
            fork.close()


class TestStateSerialization:
    def test_state_round_trip(self, llvm_env):
        llvm_env.reset()
        llvm_env.step(llvm_env.action_space["mem2reg"])
        state = llvm_env.state
        assert state.benchmark == "benchmark://cbench-v1/qsort"
        assert "-mem2reg" in state.commandline
        assert state.reward == llvm_env.episode_reward

    def test_apply_replays_state(self, fresh_llvm_env, llvm_env):
        llvm_env.reset()
        llvm_env.multistep([llvm_env.action_space["mem2reg"], llvm_env.action_space["simplifycfg"]])
        state = llvm_env.state
        fresh_llvm_env.apply(state)
        assert fresh_llvm_env.commandline() == state.commandline
        assert fresh_llvm_env.observation["IrSha1"] == llvm_env.observation["IrSha1"]

    def test_commandline_round_trip(self, llvm_env):
        llvm_env.reset()
        llvm_env.multistep([0, 5, 10])
        commandline = llvm_env.commandline()
        assert llvm_env._actions_from_string(commandline) == [0, 5, 10]


class TestCompilerSpecifics:
    def test_compiler_version(self, llvm_env):
        assert "llvm" in llvm_env.compiler_version.lower()

    def test_render_ansi(self, llvm_env):
        llvm_env.reset()
        text = llvm_env.render(mode="ansi")
        assert isinstance(text, str)

    def test_action_space_contains_124_passes(self, llvm_env):
        assert llvm_env.action_space.n == 124
