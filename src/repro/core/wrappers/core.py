"""Base wrapper classes.

A wrapper mutates the MDP formulation of a wrapped environment while exposing
the same :class:`CompilerEnv` interface, so wrappers can be freely composed.

A wrapper transforms a step through two hooks: :meth:`~CompilerEnvWrapper.map_actions`
before the step is sent and :meth:`~CompilerEnvWrapper.finish_step` after its
outcome is read. A vectorized pool runs the same hooks around the one
``step_sessions`` call that steps all of its workers, so a wrapper may not
define ``multistep`` itself.
"""

from typing import Any, Callable, List, Tuple


class CompilerEnvWrapper:
    """Wraps a :class:`CompilerEnv` (or another wrapper) transparently.

    Attribute access that the wrapper does not intercept is forwarded to the
    wrapped environment, so user code and other wrappers see the full
    CompilerEnv API. A step is the wrapped env's step with
    :meth:`map_actions` applied to its actions and :meth:`finish_step` to its
    result; both are the identity here.
    """

    def __init__(self, env):
        self.env = env

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "multistep" in vars(cls):
            raise TypeError(
                f"{cls.__name__} defines multistep(): a wrapper transforms a step through "
                "map_actions() and finish_step(), which a pool's batched step also runs"
            )

    # -- the step hooks -----------------------------------------------------

    def map_actions(self, actions: List[Any]) -> List[Any]:
        """The actions the wrapped env applies for ``actions``. Runs before the
        step is sent."""
        return actions

    def finish_step(self, actions: List[Any], result: Tuple) -> Tuple:
        """The ``(observation, reward, done, info)`` this wrapper returns for a
        step of ``actions`` (as this wrapper received them) whose wrapped env
        returned ``result``."""
        return result

    # -- the wrapped API ----------------------------------------------------

    def reset(self, *args, **kwargs):
        return self.env.reset(*args, **kwargs)

    def step(self, action, observation_spaces=None, reward_spaces=None):
        return self.multistep([action], observation_spaces, reward_spaces)

    def multistep(self, actions, observation_spaces=None, reward_spaces=None):
        """Apply a batch of actions in a single service call, as
        :meth:`CompilerEnv.multistep` does, through this wrapper's hooks."""
        self._check_in_episode()
        request, context = self._prepare_multistep(actions, observation_spaces, reward_spaces)
        return self._finish_multistep(context, lambda: self.service.step(request))

    def _check_in_episode(self) -> None:
        self.env._check_in_episode()

    def _prepare_multistep(self, actions, observation_spaces=None, reward_spaces=None):
        actions = list(actions)
        request, context = self.env._prepare_multistep(
            self.map_actions(actions), observation_spaces, reward_spaces
        )
        return request, (actions, context)

    def _finish_multistep(self, context: Tuple, fetch: Callable[[], Any]) -> Tuple:
        actions, inner = context
        return self.finish_step(actions, self.env._finish_multistep(inner, fetch))

    def fork(self):
        return type(self)(self.env.fork()) if type(self) is CompilerEnvWrapper else self.env.fork()

    def close(self):
        return self.env.close()

    def render(self, mode: str = "human"):
        return self.env.render(mode)

    # -- pass-through properties ---------------------------------------------

    @property
    def unwrapped(self):
        return getattr(self.env, "unwrapped", self.env)

    @property
    def observation_space(self):
        return self.env.observation_space

    @observation_space.setter
    def observation_space(self, space):
        self.env.observation_space = space

    @property
    def reward_space(self):
        return self.env.reward_space

    @reward_space.setter
    def reward_space(self, space):
        self.env.reward_space = space

    @property
    def action_space(self):
        return self.env.action_space

    @action_space.setter
    def action_space(self, space):
        self.env.action_space = space

    @property
    def benchmark(self):
        return self.env.benchmark

    @benchmark.setter
    def benchmark(self, benchmark):
        self.env.benchmark = benchmark

    def __getattr__(self, name: str) -> Any:
        if name == "env":
            raise AttributeError(name)
        return getattr(self.env, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.env!r})"


class ObservationWrapper(CompilerEnvWrapper):
    """Transforms observations through :meth:`convert_observation`."""

    def convert_observation(self, observation):
        raise NotImplementedError

    def reset(self, *args, **kwargs):
        observation = self.env.reset(*args, **kwargs)
        return self.convert_observation(observation)

    def finish_step(self, actions, result):
        observation, reward, done, info = result
        return self.convert_observation(observation), reward, done, info


class RewardWrapper(CompilerEnvWrapper):
    """Transforms rewards through :meth:`convert_reward`."""

    def convert_reward(self, reward):
        raise NotImplementedError

    def finish_step(self, actions, result):
        observation, reward, done, info = result
        return observation, self.convert_reward(reward), done, info


class ActionWrapper(CompilerEnvWrapper):
    """Transforms actions through :meth:`action` before applying them. An
    action may map to a list of actions."""

    def action(self, action):
        raise NotImplementedError

    def reverse_action(self, action):
        raise NotImplementedError

    def map_actions(self, actions):
        converted: List[Any] = []
        for action in actions:
            mapped = self.action(action)
            if isinstance(mapped, (list, tuple)):
                converted.extend(mapped)
            else:
                converted.append(mapped)
        return converted
