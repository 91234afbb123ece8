"""Reward spaces.

A :class:`Reward` is a scalar space plus the bookkeeping the environment needs
to convert raw compiler metrics into per-step reward signals: whether the
signal is deterministic, platform dependent, and how to update it after each
action.
"""

from typing import List, Optional

from repro.core.spaces.scalar import Scalar


class Reward(Scalar):
    """Base class for reward spaces.

    Subclasses override :meth:`reset` and :meth:`update`. ``update`` is called
    after every environment step with the actions applied and the observations
    that the reward depends on, and returns the reward value for the step.
    A subclass whose :meth:`reset` reads its observation view names what it
    reads in ``reset_observation_spaces``: the environment fetches those, with
    the ``observation_spaces``, in the one call that starts an episode.
    """

    def __init__(
        self,
        name: str,
        observation_spaces: Optional[List[str]] = None,
        default_value: float = 0,
        min: Optional[float] = None,  # noqa: A002
        max: Optional[float] = None,  # noqa: A002
        default_negates_returns: bool = False,
        success_threshold: Optional[float] = None,
        deterministic: bool = False,
        platform_dependent: bool = True,
    ):
        super().__init__(min=min, max=max, dtype=float, name=name)
        self.observation_spaces = list(observation_spaces or [])
        self.reset_observation_spaces: List[str] = []
        self.default_value = default_value
        self.default_negates_returns = default_negates_returns
        self.success_threshold = success_threshold
        self.deterministic = deterministic
        self.platform_dependent = platform_dependent

    @property
    def id(self) -> str:
        """The name by which this reward space is selected."""
        return self.name

    def reset(self, benchmark: str, observation_view) -> None:
        """Called on ``env.reset()`` so the reward can capture its baseline."""
        del benchmark, observation_view  # Unused by the base class.

    def update(self, actions, observations, observation_view) -> float:
        """Compute the reward resulting from the most recent step."""
        raise NotImplementedError

    def reward_on_error(self, episode_reward: float) -> float:
        """Reward to return when the service fails mid-episode."""
        if self.default_negates_returns:
            return self.default_value - episode_reward
        return self.default_value

    @property
    def range(self):
        return (
            self.min if self.min is not None else float("-inf"),
            self.max if self.max is not None else float("inf"),
        )

    def __repr__(self) -> str:
        return f"Reward({self.name})"


class DefaultRewardFromObservation(Reward):
    """A reward defined as the decrease in a scalar observation value.

    This is how the code-size and binary-size rewards work: the reward for a
    step is ``previous_value - new_value`` of the underlying observation, so
    positive rewards correspond to smaller programs.
    """

    def __init__(self, observation_name: str, **kwargs):
        kwargs.setdefault("observation_spaces", [observation_name])
        super().__init__(name=kwargs.pop("name", observation_name), **kwargs)
        self.observation_name = observation_name
        self.previous_value: Optional[float] = None

    def reset(self, benchmark: str, observation_view) -> None:
        del benchmark
        self.previous_value = None

    def update(self, actions, observations, observation_view) -> float:
        del actions, observation_view
        value = float(observations[0])
        if self.previous_value is None:
            self.previous_value = value
            return 0.0
        reward = self.previous_value - value
        self.previous_value = value
        return reward
