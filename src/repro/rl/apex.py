"""Ape-X style DQN: Q-learning with prioritized experience replay.

The learning machinery — epsilon-greedy exploration, a prioritized replay
buffer with importance-sampling corrections, a periodically synced target
network, and n-step returns (n=1 here) — follows the original Ape-X. One
agent instance plays both roles: its vectorized rollout workers feed the one
replay buffer, the single-process analogue of Ape-X's actor fleet. It trains
in one process (:func:`~repro.rl.trainer.train_agent_vec`); distributed
training is IMPALA's (:mod:`repro.rl.distributed`).
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.rl.policies import FeatureScaler, LinearValueFunction
from repro.rl.replay_buffer import PrioritizedReplayBuffer


class ApexDQNAgent:
    """Prioritized-replay DQN with linear Q functions."""

    name = "apex"

    def __init__(
        self,
        obs_dim: int,
        num_actions: int,
        learning_rate: float = 0.01,
        gamma: float = 0.99,
        epsilon_start: float = 1.0,
        epsilon_end: float = 0.05,
        epsilon_decay_steps: int = 5_000,
        batch_size: int = 32,
        target_sync_interval: int = 250,
        seed: int = 0,
    ):
        self.q = LinearValueFunction(obs_dim, num_actions, learning_rate, seed)
        self.target_q = LinearValueFunction(obs_dim, num_actions, learning_rate, seed)
        self._sync_target()
        self.scaler = FeatureScaler(obs_dim)
        self.replay = PrioritizedReplayBuffer(seed=seed)
        self.num_actions = num_actions
        self.gamma = gamma
        self.epsilon_start = epsilon_start
        self.epsilon_end = epsilon_end
        self.epsilon_decay_steps = epsilon_decay_steps
        self.batch_size = batch_size
        self.target_sync_interval = target_sync_interval
        self.rng = np.random.default_rng(seed)
        self.total_steps = 0
        self._last_features: Optional[np.ndarray] = None
        # Per-worker state for vectorized rollouts (see act_batch/observe_batch).
        self._last_batch: List[Optional[tuple]] = []

    def _sync_target(self) -> None:
        self.target_q.weights = self.q.weights.copy()
        self.target_q.bias = self.q.bias.copy()

    @property
    def epsilon(self) -> float:
        fraction = min(1.0, self.total_steps / self.epsilon_decay_steps)
        return self.epsilon_start + fraction * (self.epsilon_end - self.epsilon_start)

    def _select_action(self, features: np.ndarray, greedy: bool) -> int:
        if not greedy and self.rng.random() < self.epsilon:
            return int(self.rng.integers(self.num_actions))
        return int(np.argmax(self.q(features)))

    def act(self, observation, greedy: bool = False) -> int:
        features = self.scaler(observation, update=not greedy)
        self._last_features = features
        return self._select_action(features, greedy)

    def _store(
        self, features: np.ndarray, action: int, reward: float, next_features: np.ndarray, done: bool
    ) -> None:
        transition = (features, action, float(reward), next_features, bool(done))
        # New transitions get maximum priority so they are replayed at least once.
        self.replay.add(transition, priority=self.replay.max_priority)
        self.total_steps += 1
        self._learn()
        if self.total_steps % self.target_sync_interval == 0:
            self._sync_target()

    def observe(self, observation, action: int, reward: float, done: bool) -> None:
        next_features = self.scaler(observation, update=False)
        self._store(self._last_features, action, reward, next_features, done)

    def end_episode(self) -> None:
        """DQN learns online from the replay buffer; nothing to flush."""

    # -- vectorized rollout API -------------------------------------------

    def act_batch(self, observations: Sequence, greedy: bool = False) -> List[Optional[int]]:
        """Select one epsilon-greedy action per rollout worker.

        A ``None`` observation marks a worker whose episode has already
        finished; its slot returns ``None`` and is skipped by
        :meth:`observe_batch`.
        """
        batch: List[Optional[tuple]] = []
        actions: List[Optional[int]] = []
        for observation in observations:
            if observation is None:
                batch.append(None)
                actions.append(None)
                continue
            features = self.scaler(observation, update=not greedy)
            action = self._select_action(features, greedy)
            batch.append((features, action))
            actions.append(action)
        self._last_batch = batch
        return actions

    def observe_batch(
        self,
        rewards: Sequence[Optional[float]],
        dones: Sequence[bool],
        observations: Optional[Sequence] = None,
    ) -> None:
        """Store one transition per worker from the preceding :meth:`act_batch`.

        ``observations`` carries the post-step observation of each worker —
        the bootstrap state s' of the stored transition — and is therefore
        *required* (unlike for the on-policy agents, which ignore it). All
        workers share the one prioritized replay buffer and learner, the
        single-process analogue of Ape-X's actor fleet feeding a central
        replay.
        """
        if observations is None:
            raise ValueError(
                f"{type(self).__name__} requires the post-step observation "
                "batch to bootstrap its TD targets; without it every target "
                "would silently bootstrap from the pre-step state"
            )
        for last, reward, done, observation in zip(
            self._last_batch, rewards, dones, observations
        ):
            if last is None:
                continue
            features, action = last
            next_features = (
                features if observation is None else self.scaler(observation, update=False)
            )
            self._store(features, action, float(reward or 0.0), next_features, bool(done))
        self._last_batch = []

    def end_episode_batch(self) -> None:
        """DQN learns online from the replay buffer; nothing to flush."""
        self._last_batch = []

    def _learn(self) -> None:
        if len(self.replay) < self.batch_size:
            return
        batch, indices, weights = self.replay.sample(self.batch_size)
        new_priorities = np.zeros(len(batch))
        for i, (features, action, reward, next_features, done) in enumerate(batch):
            target = reward
            if not done:
                target += self.gamma * float(np.max(self.target_q(next_features)))
            td_error = target - float(self.q(features)[action])
            # Importance-sampling weighted update.
            scaled_target = float(self.q(features)[action]) + weights[i] * td_error
            self.q.update(features, scaled_target, output_index=action)
            new_priorities[i] = abs(td_error)
        self.replay.update_priorities(indices, new_priorities)
