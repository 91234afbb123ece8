"""Observation space specifications.

An :class:`ObservationSpaceSpec` describes one of the observation spaces an
environment exposes: its name, value space, determinism/platform properties,
default value on error, and a translation function from the raw service
observation message to the user-facing value.
"""

import pickle
from typing import Any, Callable, Optional

from repro.core.spaces.space import Space


def _identity(value: Any) -> Any:
    """Default translation: the raw service value is the user-facing value.

    A module-level function (not a lambda) so that specs pickle: the socket
    transport ships ``GetSpacesReply`` messages — spec objects included —
    across process boundaries.
    """
    return value


class ObservationSpaceSpec:
    """Specification of a single named observation space."""

    def __init__(
        self,
        id: str,  # noqa: A002 - match upstream API
        index: int,
        space: Space,
        translate: Optional[Callable[[Any], Any]] = None,
        to_string: Optional[Callable[[Any], str]] = None,
        deterministic: bool = True,
        platform_dependent: bool = False,
        default_value: Any = None,
    ):
        self.id = id
        self.index = index
        self.space = space
        self.deterministic = deterministic
        self.platform_dependent = platform_dependent
        self.default_value = default_value
        self._translate = translate or _identity
        self._to_string = to_string or str

    def __getstate__(self) -> dict:
        """Pickle support for the remote service transports.

        Custom ``translate``/``to_string`` callables that cannot cross a
        process boundary (lambdas, closures) degrade to the defaults on the
        far side; the environments shipped with this package only install
        such callables on *derived* spaces, which are constructed client-side
        and never serialized.
        """
        state = dict(self.__dict__)
        for attr, default in (("_translate", _identity), ("_to_string", str)):
            try:
                pickle.dumps(state[attr])
            except Exception:  # noqa: BLE001 - unpicklable callable
                state[attr] = default
        return state

    def translate(self, value: Any) -> Any:
        """Convert a raw service observation into the user-facing value."""
        return self._translate(value)

    def to_string(self, value: Any) -> str:
        """Render an observation value for display."""
        return self._to_string(value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObservationSpaceSpec):
            return NotImplemented
        return self.id == other.id and self.space == other.space

    def __hash__(self) -> int:
        return hash(self.id)

    def __repr__(self) -> str:
        return f"ObservationSpaceSpec({self.id})"
