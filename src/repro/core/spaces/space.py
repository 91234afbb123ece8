"""Base class for all spaces."""

import random
from typing import Any, Optional


class Space:
    """Abstract base class for observation, action, and reward spaces.

    Mirrors the ``gym.Space`` API: a space knows how to :meth:`sample` a
    random member, test :meth:`contains` membership, and be seeded for
    reproducible sampling. Every space has a ``name`` so that environments can
    expose several spaces and let the user select between them by name.
    """

    def __init__(self, name: Optional[str] = None):
        self.name = name
        self._rng: Optional[random.Random] = None

    @property
    def rng(self) -> random.Random:
        """The space's random number generator, made when first asked for:
        most spaces (every reward space an environment carries, and copies
        with each fork) are never sampled."""
        if self._rng is None:
            self._rng = random.Random()
        return self._rng

    def seed(self, seed: Optional[int] = None) -> None:
        """Seed the space's random number generator."""
        self.rng.seed(seed)

    def sample(self) -> Any:
        """Return a uniformly random member of the space."""
        raise NotImplementedError

    def contains(self, value: Any) -> bool:
        """Return whether ``value`` is a member of the space."""
        raise NotImplementedError

    def __contains__(self, value: Any) -> bool:
        return self.contains(value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
