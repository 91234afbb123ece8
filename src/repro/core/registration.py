"""Environment registry: ``register()`` and ``make()``.

Mirrors ``gym.envs.registration`` but is self-contained. Environment IDs such
as ``llvm-v0``, ``llvm-autophase-ic-v0`` or ``gcc-v0`` map to an environment
class plus default constructor arguments.
"""

import importlib
from typing import Any, Callable, Dict, List, Union


class EnvSpec:
    """Registration record for a single environment ID."""

    def __init__(self, id: str, entry_point: Union[str, Callable], kwargs: Dict[str, Any]):  # noqa: A002
        self.id = id
        self.entry_point = entry_point
        self.kwargs = dict(kwargs)

    def make(self, **kwargs):
        entry_point = self.entry_point
        if isinstance(entry_point, str):
            module_name, _, attr = entry_point.partition(":")
            module = importlib.import_module(module_name)
            entry_point = getattr(module, attr)
        merged = dict(self.kwargs)
        merged.update(kwargs)
        env = entry_point(**merged)
        # Stamp the construction recipe onto the environment, mirroring
        # gym's env.spec.
        try:
            env.spec = EnvSpec(id=self.id, entry_point=self.entry_point, kwargs=merged)
        except Exception:  # noqa: BLE001 - entry points may return odd objects
            pass
        return env

    def __repr__(self) -> str:
        return f"EnvSpec({self.id})"


_REGISTRY: Dict[str, EnvSpec] = {}


def register(id: str, entry_point: Union[str, Callable], kwargs: Dict[str, Any] = None) -> None:  # noqa: A002
    """Register an environment constructor under an environment ID."""
    _REGISTRY[id] = EnvSpec(id=id, entry_point=entry_point, kwargs=kwargs or {})


def registered_env_ids() -> List[str]:
    """Return the sorted list of registered environment IDs."""
    return sorted(_REGISTRY)


def make(id: str, **kwargs):  # noqa: A002
    """Construct a registered environment.

    >>> env = make("llvm-v0", benchmark="cbench-v1/qsort")

    Pass ``service_url="tcp://host:port"`` (or ``unix:///path``) to attach
    the environment to a running compiler service daemon (started with
    ``repro-compilergym serve``) instead of hosting the service in-process:

    >>> env = make("llvm-v0", service_url="tcp://127.0.0.1:5499")

    The URL is stamped into ``env.spec`` with the rest of the construction
    recipe.
    """
    if id not in _REGISTRY:
        raise LookupError(
            f"Unknown environment: {id!r}. Registered environments: {registered_env_ids()}"
        )
    return _REGISTRY[id].make(**kwargs)
