"""The CompilationSession integration interface.

Adding a new compiler to the framework requires implementing only this
interface: declare the action and observation spaces, then implement
``apply_action`` and ``get_observation``. Everything else — the Gym API,
benchmark management, fault tolerance, caching, forking — is provided by the
shared runtime.
"""

from typing import ContextManager, List, Optional, Tuple

from repro.core.datasets.benchmark import Benchmark
from repro.core.spaces.observation import ObservationSpaceSpec
from repro.core.spaces.space import Space


class CompilationSession:
    """A single incremental compilation in progress.

    Class attributes:
        compiler_version: Human-readable version string of the compiler.
        action_spaces: The action spaces this compiler exposes.
        observation_spaces: The observation spaces this compiler exposes.

    Attributes:
        verify_ir: Check the program after every action and fail the action
            if it is invalid (a debug mode, set by the runtime when the
            session is made, and carried into forks). A backend without a
            verifier ignores it.
    """

    compiler_version: str = ""
    action_spaces: List[Space] = []
    observation_spaces: List[ObservationSpaceSpec] = []
    verify_ir: bool = False

    def __init__(self, working_dir: str, action_space: Space, benchmark: Benchmark):
        self.working_dir = working_dir
        self.action_space = action_space
        self.benchmark = benchmark

    def apply_action(self, action) -> Tuple[bool, Optional[Space], bool]:
        """Apply an action to the current compilation state.

        Returns a tuple ``(end_of_session, new_action_space,
        action_had_no_effect)``.
        """
        raise NotImplementedError

    def get_observation(self, observation_space: ObservationSpaceSpec):
        """Compute an observation of the current compilation state."""
        raise NotImplementedError

    def fork(self) -> "CompilationSession":
        """Create an independent deep copy of this session.

        The default implementation raises; backends that support efficient
        forking (all three in this package do) override it.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support fork()")

    def lazy_fork(self) -> Optional["LazyFork"]:
        """Optional: a fork of this session that has copied nothing yet.

        The default says "unsupported" (``None``) and the runtime falls back
        on :meth:`fork`. A backend whose state can run an action and take it
        back for less than a copy costs returns a :class:`LazyFork`: the
        runtime then answers the fork's first step from this session's state
        and makes a real copy only for a fork that goes on, with or without a
        result cache. It asks only while this session's state is still a
        pure action prefix.
        """
        return None

    def handle_session_parameter(self, key: str, value: str) -> Optional[str]:
        """Handle an arbitrary session parameter (backend-specific knobs)."""
        del key, value
        return None

    def close(self) -> None:
        """Release any resources held by the session."""


class LazyFork:
    """What :meth:`CompilationSession.lazy_fork` returns: the moment of a
    fork, taken when the fork was asked for. Whatever a fork draws from its
    parent at that moment (a random seed, say) is drawn by the constructor, so
    the parent is the same afterwards whether or not a copy is ever made.
    """

    __slots__ = ()

    def speculate(self) -> ContextManager[CompilationSession]:
        """A context in which the *parent* session stands in for the fork.

        The caller guarantees that the parent is still in the state it was
        forked in and that nobody else touches it meanwhile. Actions applied
        and observations computed inside see the state the fork would be in;
        on exit, however the block ends, the parent is back exactly where it
        was. Its caches may keep what the block computed about state the
        parent still has, and nothing else.
        """
        raise NotImplementedError

    def build(self, onto: Optional[CompilationSession] = None) -> CompilationSession:
        """The fork as a session of its own.

        With no argument, a copy of the parent *as it is now*: the caller
        knows which state that is, and replays on the copy whatever the fork
        is ahead of it by. When the parent is gone or has gone another way
        the caller passes ``onto``, a fresh session of the same benchmark; it
        is handed what was drawn at the fork, and returned.
        """
        raise NotImplementedError
