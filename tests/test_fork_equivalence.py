"""Fork-equivalence property tests.

The vectorized environment pool is populated with ``fork()``, so the whole
subsystem rests on one property: *a forked environment replays to the same
observation/reward trajectory as its parent*. These tests assert that
property for the raw environment and for every wrapper in
``repro.core.wrappers`` (ForkOnStep, TimeLimit, the Commandline wrappers,
the Observation wrappers, and the DatasetsIterators wrappers).
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.spaces.reward import Reward
from repro.core.wrappers import (
    CommandlineWithTerminalAction,
    ConcatActionsHistogram,
    ConstrainedCommandline,
    CounterWrapper,
    CycleOverBenchmarks,
    ForkOnStep,
    IterateOverBenchmarks,
    RandomOrderBenchmarks,
    TimeLimit,
)

BENCHMARK = "cbench-v1/crc32"
CONSTRAINED_FLAGS = ["-mem2reg", "-dce", "-gvn", "-instcombine", "-simplifycfg"]


def _make_env():
    return repro.make(
        "llvm-v0",
        benchmark=BENCHMARK,
        observation_space="Autophase",
        reward_space="IrInstructionCount",
    )


class HistoryReward(Reward):
    """Code-size delta that also keeps every count it has seen in a list — the
    kind of mutable reward state a fork must never share with its parent."""

    def __init__(self, name):
        super().__init__(name, observation_spaces=["IrInstructionCount"], deterministic=True)
        self.history = []

    def reset(self, benchmark, observation_view):
        self.history = [observation_view["IrInstructionCount"]]

    def update(self, actions, observations, observation_view):
        self.history.append(observations[0])
        return float(self.history[-2] - self.history[-1])


def _replay(env, actions):
    """Step an action sequence, returning the (observation, reward, done) trace."""
    trace = []
    for action in actions:
        observation, reward, done, _ = env.step(action)
        trace.append((np.asarray(observation, dtype=np.float64), reward, done))
        if done:
            break
    return trace


def _assert_same_trace(parent_trace, fork_trace):
    assert len(parent_trace) == len(fork_trace)
    for (p_obs, p_rew, p_done), (f_obs, f_rew, f_done) in zip(parent_trace, fork_trace):
        np.testing.assert_array_equal(p_obs, f_obs)
        assert p_rew == f_rew
        assert p_done == f_done


def _assert_fork_replays_like_parent(env, fork, replay_actions):
    """The core property: identical replay traces, starting from identical state."""
    fork_trace = _replay(fork, replay_actions)
    parent_trace = _replay(env, replay_actions)
    _assert_same_trace(parent_trace, fork_trace)


class TestRawEnvForkEquivalence:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_fork_replays_parent_trajectory(self, data):
        prefix = data.draw(
            st.lists(st.integers(min_value=0, max_value=123), min_size=0, max_size=6)
        )
        replay = data.draw(
            st.lists(st.integers(min_value=0, max_value=123), min_size=1, max_size=6)
        )
        env = _make_env()
        try:
            env.reset()
            if prefix:
                env.multistep(prefix)
            fork = env.fork()
            try:
                assert fork.actions == env.actions
                assert fork.episode_reward == env.episode_reward
                _assert_fork_replays_like_parent(env, fork, replay)
            finally:
                fork.close()
        finally:
            env.close()

    def test_fork_is_independent_of_parent(self):
        env = _make_env()
        try:
            env.reset()
            fork = env.fork()
            try:
                env.multistep([0, 1, 2])
                # Stepping the parent must not move the fork.
                assert fork.actions == []
                before = fork.observation["IrSha1"]
                env.multistep([3])
                assert fork.observation["IrSha1"] == before
            finally:
                fork.close()
        finally:
            env.close()


    def test_fork_never_shares_mutable_reward_state(self):
        """Reward spaces are copied per fork — the episode's live ones at fork
        time, the rest when the fork first reads them — and never shared."""
        env = _make_env()
        env.reward_space = HistoryReward("Live")
        env.reward.add_space(HistoryReward("Idle"))
        forks = []
        try:
            env.reset()
            env.multistep([env.action_space["mem2reg"], env.action_space["dce"]])
            live = env.reward.spaces["Live"]
            # reset() primes the selected reward: [initial, initial, after].
            assert len(live.history) == 3 and live.history[0] > live.history[-1]

            fork = env.fork()
            forks.append(fork)
            # Forking copies the spaces the episode has live and nothing else.
            assert set(fork.reward.spaces.maps[0]) == {"Live"}
            assert list(fork.reward.spaces) == list(env.reward.spaces)
            for name, space in env.reward.spaces.items():
                assert fork.reward.spaces[name] is not space
            fork_live = fork.reward_space
            assert fork_live is fork.reward.spaces["Live"]
            assert fork_live.history == live.history and fork_live.history is not live.history

            # The live space continues from the parent's state, on its own list.
            snapshot = list(live.history)
            _assert_fork_replays_like_parent(env, fork, [env.action_space["instcombine"]])
            assert len(live.history) == len(fork_live.history) == 4
            env.step(env.action_space["gvn"])
            assert len(fork_live.history) == 4 and fork_live.history[:3] == snapshot

            # A space nobody had read at fork time: the parent reading it (and
            # filling its list) leaves nothing behind in the fork's copy, which
            # is reset against the fork's own state before its first update.
            assert env.reward["Idle"] == 0.0 and env.reward["Idle"] == 0.0
            assert len(env.reward.spaces["Idle"].history) == 3
            assert fork.reward["Idle"] == 0.0
            idle = fork.reward.spaces["Idle"]
            assert idle.history == [fork.observation["IrInstructionCount"]] * 2
            assert len(env.reward.spaces["Idle"].history) == 3

            # A fork of the fork copies from the fork, not from the root.
            grandchild = fork.fork()
            forks.append(grandchild)
            assert set(grandchild.reward.spaces.maps[0]) == {"Live", "Idle"}
            assert grandchild.reward.spaces["Idle"].history == idle.history
            assert grandchild.reward.spaces["Idle"] is not idle
            assert grandchild.reward_space.history == fork_live.history
            grandchild.step(env.action_space["gvn"])
            assert len(fork_live.history) == 4 and len(idle.history) == 2
        finally:
            for fork in forks:
                fork.close()
            env.close()

    def test_a_forked_delta_reward_continues_from_the_parents_previous_value(self):
        """The stock reward carries one float and, since a space makes its
        random generator when first sampled, nothing else worth copying."""
        env = _make_env()
        try:
            env.reset()
            env.step(env.action_space["mem2reg"])
            reward = env.reward_space
            assert reward.previous_value == env.observation["IrInstructionCount"]
            with env.fork() as fork:
                forked = fork.reward_space
                assert forked is not reward and forked is fork.reward.spaces[reward.name]
                assert forked.previous_value == reward.previous_value
                assert vars(forked) == vars(reward) and forked._rng is None
                before = reward.previous_value
                _, delta, _, _ = fork.step(env.action_space["dce"])
                assert delta == before - forked.previous_value > 0
                assert reward.previous_value == before
                # Sampling is still there for whoever asks, per space.
                forked.seed(7)
                reward.seed(7)
                assert forked.sample() == reward.sample()
                assert forked.rng is not reward.rng
        finally:
            env.close()


class TestForkOnStep:
    def test_undo_restores_parent_trajectory(self):
        env = _make_env()
        wrapped = ForkOnStep(env)
        try:
            wrapped.reset()
            shas = [wrapped.observation["IrSha1"]]
            actions = [wrapped.action_space["mem2reg"], wrapped.action_space["gvn"]]
            for action in actions:
                wrapped.step(action)
                shas.append(wrapped.observation["IrSha1"])
            # Unwind the whole episode; each undo must restore the recorded state.
            for expected in reversed(shas[:-1]):
                wrapped.undo()
                assert wrapped.observation["IrSha1"] == expected
        finally:
            wrapped.close()

    def test_undo_on_empty_stack_fails_cleanly(self):
        env = _make_env()
        wrapped = ForkOnStep(env)
        try:
            wrapped.reset()
            with pytest.raises(IndexError, match="empty ForkOnStep stack"):
                wrapped.undo()
            # The failure must not corrupt the wrapper: stepping still works.
            _, _, done, _ = wrapped.step(0)
            assert not done
            assert len(wrapped.stack) == 1
        finally:
            wrapped.close()


class TestTimeLimitForkEquivalence:
    def test_fork_preserves_step_budget(self):
        env = TimeLimit(_make_env(), max_episode_steps=5)
        try:
            env.reset()
            env.step(0)
            env.step(1)
            fork = env.fork()
            try:
                assert fork._elapsed_steps == env._elapsed_steps
                _assert_fork_replays_like_parent(env, fork, [2, 3, 4, 5])
            finally:
                fork.close()
        finally:
            env.close()


class TestCommandlineForkEquivalence:
    def test_constrained_commandline_fork(self):
        env = ConstrainedCommandline(_make_env(), flags=CONSTRAINED_FLAGS)
        try:
            env.reset()
            env.step(0)
            fork = env.fork()
            try:
                assert fork.action_space.n == len(CONSTRAINED_FLAGS)
                _assert_fork_replays_like_parent(env, fork, [1, 2, 3, 0])
            finally:
                fork.close()
        finally:
            env.close()

    def test_terminal_action_fork(self):
        env = CommandlineWithTerminalAction(_make_env())
        terminal = env.action_space.n - 1
        try:
            env.reset()
            env.step(0)
            fork = env.fork()
            try:
                assert fork.action_space.n == env.action_space.n
                _assert_fork_replays_like_parent(env, fork, [1, terminal])
            finally:
                fork.close()
        finally:
            env.close()


class TestObservationForkEquivalence:
    def test_concat_actions_histogram_fork(self):
        env = ConcatActionsHistogram(_make_env(), norm_to_episode_len=10)
        try:
            env.reset()
            env.step(3)
            env.step(3)
            fork = env.fork()
            try:
                # The histogram of past actions must carry over to the fork …
                np.testing.assert_array_equal(fork._histogram, env._histogram)
                # … and diverge independently afterwards.
                _assert_fork_replays_like_parent(env, fork, [3, 5, 7])
            finally:
                fork.close()
        finally:
            env.close()

    def test_counter_wrapper_fork(self):
        env = CounterWrapper(_make_env())
        try:
            env.reset()
            env.step(0)
            fork = env.fork()
            try:
                assert fork.counters == env.counters
                fork.step(1)
                assert fork.counters["step"] == env.counters["step"] + 1
            finally:
                fork.close()
        finally:
            env.close()


class TestDatasetsIteratorsForkEquivalence:
    def test_cycle_over_benchmarks_fork_shares_iterator(self):
        env = CycleOverBenchmarks(
            _make_env(),
            benchmarks=[f"benchmark://{BENCHMARK}", "benchmark://cbench-v1/sha"],
            fork_shares_iterator=True,
        )
        try:
            env.reset()
            env.step(0)
            fork = env.fork()
            try:
                _assert_fork_replays_like_parent(env, fork, [1, 2])
                # The benchmark iterator is shared: successive resets on the
                # parent and the fork interleave through the cycle.
                uri_a = str(env.reset() is not None and env.benchmark.uri)
                uri_b = str(fork.reset() is not None and fork.benchmark.uri)
                assert uri_a != uri_b
            finally:
                fork.close()
        finally:
            env.close()

    def test_iterate_over_benchmarks_requires_opt_in(self):
        env = IterateOverBenchmarks(_make_env(), benchmarks=[f"benchmark://{BENCHMARK}"])
        try:
            env.reset()
            with pytest.raises(TypeError, match="fork_shares_iterator"):
                env.fork()
        finally:
            env.close()

    def test_random_order_benchmarks_fork(self):
        env = RandomOrderBenchmarks(
            _make_env(),
            benchmarks=[f"benchmark://{BENCHMARK}"],
            rng=np.random.default_rng(0),
        )
        try:
            env.reset()
            env.step(0)
            fork = env.fork()
            try:
                assert fork.benchmark_list == env.benchmark_list
                # Generators are not thread-safe, so the fork must not share
                # the parent's rng instance (workers may reset concurrently).
                assert fork.rng is not env.rng
                _assert_fork_replays_like_parent(env, fork, [1, 2])
            finally:
                fork.close()
        finally:
            env.close()


class TestCloseIdempotence:
    """Regression tests: close()/__del__ are idempotent and exception-safe."""

    def test_double_close(self):
        env = _make_env()
        env.reset()
        env.close()
        env.close()

    def test_del_after_close(self):
        env = _make_env()
        env.reset()
        env.close()
        env.__del__()

    def test_del_on_unclosed_env(self):
        env = _make_env()
        env.reset()
        env.__del__()

    def test_close_unreset_env(self):
        env = _make_env()
        env.close()
        env.close()

    def test_close_forked_worker_after_parent(self):
        """Any close order between a parent and its forks is safe."""
        env = _make_env()
        env.reset()
        fork = env.fork()
        env.close()
        fork.close()
        fork.close()
        env.close()

    def test_close_on_partially_constructed_env(self):
        env = _make_env().__class__.__new__(_make_env().__class__)
        # No attributes at all: close() must still be a no-op.
        env.close()


class TestMultistepEdgeCases:
    """Regression tests for multistep() corner cases."""

    def test_empty_action_list(self):
        env = _make_env()
        try:
            env.reset()
            observation, reward, done, info = env.multistep([])
            assert observation.shape == (56,)
            assert reward == 0.0
            assert not done
            assert env.actions == []
        finally:
            env.close()

    def test_mixed_explicit_observation_and_reward_spaces(self):
        env = _make_env()
        try:
            env.reset()
            observation, reward, done, _ = env.multistep(
                [0, 1],
                observation_spaces=["IrInstructionCount", "Autophase"],
                reward_spaces=["IrInstructionCount", "IrInstructionCountOz"],
            )
            assert isinstance(observation, list) and len(observation) == 2
            assert int(observation[0]) > 0
            assert np.asarray(observation[1]).shape == (56,)
            assert isinstance(reward, list) and len(reward) == 2
        finally:
            env.close()

    def test_explicit_observation_spaces_only(self):
        env = _make_env()
        try:
            env.reset()
            observation, reward, done, _ = env.multistep(
                [0], observation_spaces=["IrSha1"]
            )
            assert isinstance(observation, list) and len(observation) == 1
            # The default reward space still applies when only observations
            # are explicit.
            assert isinstance(reward, float)
        finally:
            env.close()

    def test_explicit_reward_spaces_only(self):
        env = _make_env()
        try:
            env.reset()
            observation, reward, done, _ = env.multistep(
                [0], reward_spaces=["IrInstructionCount"]
            )
            assert isinstance(reward, list) and len(reward) == 1
            assert np.asarray(observation).shape == (56,)
        finally:
            env.close()
