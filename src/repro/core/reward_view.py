"""Lazy, per-space access to environment rewards."""

import copy
from collections import ChainMap
from typing import Any, Dict, List, Mapping

from repro.core.observation_view import ObservationView
from repro.core.spaces.reward import Reward


class _ForkedSpaces(ChainMap):
    """The reward spaces of a forked view: its own over the parent's, where a
    parent's space is deep copied into ``own`` the first time this view reads
    it.

    A fork uses the one or two spaces its episode reads, not the dozen that are
    registered. A space is only ever handed out as a private copy, so parent
    and fork never share a mutable reward object; names, lengths and membership
    come from both maps without copying anything.
    """

    def __init__(self, parent: Mapping):
        super().__init__({}, parent)

    def __getitem__(self, name: str) -> Reward:
        own, parent = self.maps
        reward = own.get(name)
        if reward is None:
            # setdefault: when a fork of this fork reads through here from
            # another thread, both must end up holding the same copy.
            reward = own.setdefault(name, copy.deepcopy(parent[name]))
        return reward


class _Fetched:
    """An observation view over values already fetched: a space is
    translated from its raw value, as ``ObservationView`` translates a reply,
    or read from ``view`` if it was not fetched."""

    def __init__(self, view: ObservationView, raw_values: Dict[str, Any]):
        self.view, self.raw_values = view, raw_values

    def __getitem__(self, space: str) -> Any:
        raw_id = self.view.raw_space_id(space)
        if raw_id not in self.raw_values:
            return self.view[space]
        return self.view.spaces[space].translate(self.raw_values[raw_id])


class RewardView:
    """Provides named access to an environment's reward spaces.

    ``env.reward["IrInstructionCountOz"]`` computes the named reward for the
    current state by fetching whatever observations that reward space depends
    on, without requiring the reward space to have been selected up front.
    """

    def __init__(self, rewards: List[Reward], observation_view: ObservationView):
        self.spaces: Dict[str, Reward] = {reward.name: reward for reward in rewards}
        self.observation = observation_view
        self._reset_spaces: set = set()
        self._benchmark: str = ""

    def reset(self, benchmark: str) -> None:
        """Reset all reward spaces for a new episode."""
        self._benchmark = benchmark
        self._reset_spaces.clear()

    def _ensure_reset(self, reward: Reward, observation=None) -> None:
        if reward.name not in self._reset_spaces:
            reward.reset(self._benchmark, observation or self.observation)
            self._reset_spaces.add(reward.name)

    def __getitem__(self, space: str) -> float:
        return self._evaluate(self.spaces[space], self.observation)

    def prime(self, space: str, raw_values: Dict[str, Any]) -> float:
        """``self[space]``, answered from ``raw_values``: the raw observations
        of the current state by backend space, as the reply that started the
        episode carried them. A space missing there is fetched as usual."""
        return self._evaluate(self.spaces[space], _Fetched(self.observation, raw_values))

    def _evaluate(self, reward: Reward, observation) -> float:
        self._ensure_reset(reward, observation)
        observations = [observation[obs] for obs in reward.observation_spaces]
        return reward.update([], observations, observation)

    def add_space(self, reward: Reward) -> None:
        """Register a new reward space (used by wrapper classes)."""
        self.spaces[reward.name] = reward

    def fork(self, observation_view: ObservationView) -> "RewardView":
        """The view of a forked environment, mid-episode like this one.

        Spaces this episode has already reset carry state the fork must
        continue from (e.g. the previous metric value), so they are copied
        now. Any other space is reset by whichever view reads it before its
        first update, so its copy can wait until the fork reads it.
        """
        forked = RewardView([], observation_view)
        forked.spaces = _ForkedSpaces(self.spaces)
        forked._benchmark = self._benchmark
        forked._reset_spaces = set(self._reset_spaces)
        for name in self._reset_spaces:
            forked.spaces[name]
        return forked

    def __repr__(self) -> str:
        return f"RewardView[{', '.join(sorted(self.spaces))}]"
