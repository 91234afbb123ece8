"""Environment wrapper that logs state transitions to the database."""

from typing import List

from repro.core.wrappers.core import CompilerEnvWrapper
from repro.state_transition_dataset.database import StateTransitionDatabase


class StateTransitionLoggingWrapper(CompilerEnvWrapper):
    """Populates the ``Steps`` and ``Observations`` tables on every step.

    The upstream implementation writes asynchronously from a worker thread;
    this implementation batches writes and commits at episode boundaries,
    which gives the same amortized behaviour in a single process.
    """

    def __init__(self, env, database: StateTransitionDatabase, store_ir: bool = True):
        super().__init__(env)
        self.database = database
        self.store_ir = store_ir
        self._episode_rewards: List[float] = []

    def _state_id(self) -> str:
        return self.env.observation["IrSha1"]

    def _record_state(self, rewards: List[float], end_of_episode: bool = False) -> str:
        state_id = self._state_id()
        observation = self.env.observation
        self.database.add_step(
            benchmark_uri=str(self.env.benchmark.uri),
            actions=list(self.env.actions),
            state_id=state_id,
            rewards=rewards,
            end_of_episode=end_of_episode,
        )
        self.database.add_observation(
            state_id=state_id,
            ir=observation["Ir"] if self.store_ir else None,
            instcounts=list(observation["InstCount"]),
            autophase=list(observation["Autophase"]),
            instruction_count=int(observation["IrInstructionCount"]),
        )
        return state_id

    def reset(self, *args, **kwargs):
        result = self.env.reset(*args, **kwargs)
        self._episode_rewards = []
        self._record_state(rewards=[])
        self.database.commit()
        return result

    def finish_step(self, actions, result):
        observation, reward, done, info = result
        scalar_reward = reward if isinstance(reward, (int, float)) else 0.0
        self._episode_rewards.append(float(scalar_reward or 0.0))
        self._record_state(rewards=self._episode_rewards, end_of_episode=done)
        if done:
            self.database.commit()
        return observation, reward, done, info

    def close(self):
        self.database.commit()
        return self.env.close()
