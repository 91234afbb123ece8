"""Episode step limit wrapper."""

from typing import Optional

from repro.core.wrappers.core import CompilerEnvWrapper


class TimeLimit(CompilerEnvWrapper):
    """Ends the episode after a maximum number of steps.

    The LLVM phase-ordering environment has no natural terminal state, so RL
    experiments (and the paper's RLlib examples) impose a fixed episode length
    with this wrapper — e.g. 45 steps in the Autophase replication.
    """

    def __init__(self, env, max_episode_steps: Optional[int] = None):
        super().__init__(env)
        if max_episode_steps is not None and max_episode_steps < 1:
            raise ValueError(f"max_episode_steps must be positive: {max_episode_steps}")
        self.max_episode_steps = max_episode_steps
        self._elapsed_steps = 0

    def reset(self, *args, **kwargs):
        self._elapsed_steps = 0
        return self.env.reset(*args, **kwargs)

    def finish_step(self, actions, result):
        observation, reward, done, info = result
        self._elapsed_steps += len(actions)
        if self.max_episode_steps is not None and self._elapsed_steps >= self.max_episode_steps:
            info["TimeLimit.truncated"] = not done
            done = True
        return observation, reward, done, info

    def fork(self):
        forked = TimeLimit(self.env.fork(), max_episode_steps=self.max_episode_steps)
        forked._elapsed_steps = self._elapsed_steps
        return forked
