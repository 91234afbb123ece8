"""Observation-transforming wrappers."""

from typing import Optional

import numpy as np

from repro.core.spaces.box import Box
from repro.core.wrappers.core import CompilerEnvWrapper, ObservationWrapper


class ConcatActionsHistogram(ObservationWrapper):
    """Concatenates a histogram of the agent's previous actions onto the
    observation vector.

    This reproduces the observation representation used by Autophase and by
    the paper's RL experiments (Section VII-G and Fig. 9): the numeric feature
    vector is extended with one entry per action counting (optionally
    normalized) how many times that action has been taken this episode.
    """

    def __init__(self, env, norm_to_episode_len: int = 0):
        super().__init__(env)
        self.norm_to_episode_len = norm_to_episode_len
        self._histogram: Optional[np.ndarray] = None

    @property
    def observation_space(self):
        base = self.env.observation_space
        n_actions = self.env.action_space.n
        if base is None or not isinstance(base, Box):
            return base
        low = np.concatenate([base.low, np.zeros(n_actions, dtype=base.dtype)])
        high_fill = self.norm_to_episode_len if self.norm_to_episode_len else np.iinfo(np.int64).max
        high = np.concatenate(
            [base.high, np.full(n_actions, high_fill, dtype=base.dtype)]
        )
        return Box(
            low=low, high=high, shape=(base.shape[0] + n_actions,), dtype=base.dtype,
            name=f"{base.name}+ActionHistogram" if base.name else "ActionHistogram",
        )

    @observation_space.setter
    def observation_space(self, space):
        self.env.observation_space = space

    def reset(self, *args, **kwargs):
        self._histogram = np.zeros(self.env.action_space.n, dtype=np.float64)
        return super().reset(*args, **kwargs)

    def finish_step(self, actions, result):
        if self._histogram is None:
            self._histogram = np.zeros(self.env.action_space.n, dtype=np.float64)
        for action in actions:
            if isinstance(action, (int, np.integer)) and 0 <= int(action) < len(self._histogram):
                self._histogram[int(action)] += 1
        return super().finish_step(actions, result)

    def convert_observation(self, observation):
        if observation is None:
            return observation
        histogram = self._histogram
        if self.norm_to_episode_len:
            histogram = histogram / self.norm_to_episode_len
        observation = np.asarray(observation, dtype=np.float64)
        return np.concatenate([observation, histogram])

    def fork(self):
        forked = ConcatActionsHistogram(self.env.fork(), norm_to_episode_len=self.norm_to_episode_len)
        forked._histogram = None if self._histogram is None else self._histogram.copy()
        return forked


class CounterWrapper(CompilerEnvWrapper):
    """Counts environment operations: resets, steps, and total actions.

    Used by the computational-efficiency benchmarks and useful for debugging
    agent behaviour.
    """

    def __init__(self, env):
        super().__init__(env)
        self.counters = {"reset": 0, "step": 0, "actions": 0}

    def reset(self, *args, **kwargs):
        self.counters["reset"] += 1
        return self.env.reset(*args, **kwargs)

    def map_actions(self, actions):
        self.counters["step"] += 1
        self.counters["actions"] += len(actions)
        return actions

    def fork(self):
        forked = CounterWrapper(self.env.fork())
        forked.counters = dict(self.counters)
        return forked
