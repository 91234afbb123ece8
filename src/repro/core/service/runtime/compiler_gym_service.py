"""The shared compiler service runtime.

Maps implementations of :class:`CompilationSession` to the request/reply
message API consumed by the frontend. One runtime instance manages many
concurrent sessions, identified by integer session IDs, and owns the
benchmark cache that gives amortized O(1) environment initialization.
"""

import contextlib
import os
import re
import shutil
import tempfile
import threading
from typing import Callable, Dict, Optional, Tuple, Type

from repro.core.datasets.benchmark import Benchmark
from repro.core.service.compilation_session import CompilationSession, LazyFork
from repro.core.service.proto import (
    ActionSpaceMessage,
    EndSessionReply,
    EndSessionRequest,
    Event,
    ForkSessionReply,
    ForkSessionRequest,
    GetSpacesReply,
    ObservationSpaceMessage,
    StartSessionReply,
    StartSessionRequest,
    StepReply,
    StepRequest,
)
from repro.core.service.runtime.benchmark_cache import BenchmarkCache
from repro.core.service.runtime.result_cache import ResultCache
from repro.errors import ServiceError, SessionNotFound


def _copy_value(value):
    """Defensive copy for cached payloads handed to in-process callers."""
    if hasattr(value, "nbytes") and hasattr(value, "copy"):  # numpy arrays
        return value.copy()
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


class _SessionCacheState:
    """Result-cache bookkeeping for one session.

    ``prefix`` is the canonical action prefix acknowledged to the client.
    A session is in one of two states: *unbuilt* (``sessions[id] is None``
    and ``uri``, ``action_space`` and ``prefix`` are all there is, as after a
    reset served from the cache) or *built* (a real session whose module is
    exactly ``prefix`` applied to the pristine program).
    A session goes permanently uncacheable (``cacheable=False``) when its
    state diverges from a pure action prefix (session parameters, dynamic
    action spaces, any error while applying actions).

    An unbuilt session that began as a fork of a cacheable session whose
    backend has a :meth:`CompilationSession.lazy_fork` also remembers its
    ``donor`` (that session's id) and the ``lazy_fork`` it gave. While the
    donor stands where the fork does, the fork's steps are answered from the
    donor's own state; when the fork has to be built, it is a copy of the
    donor if that still leads to the fork's prefix. A donor that was ended or
    went another way is simply not used. Once built, a session forgets both.

    ``lock`` exists from the first time a session is forked, lazily or not,
    and serialises everything that reads or writes its backend state: its own
    steps and parameters, a fork's step answered from it, a copy taken of it.
    Nothing is called while holding it that takes a lock of the server's.
    """

    __slots__ = ("uri", "action_space", "prefix", "cacheable", "lock", "donor", "lazy_fork")

    def __init__(self, uri: str, action_space=None):
        self.uri = uri
        self.action_space = action_space
        self.prefix: tuple = ()
        self.cacheable = True
        self.lock: Optional[threading.Lock] = None
        self.donor: Optional[int] = None
        self.lazy_fork: Optional[LazyFork] = None

    def forked(self) -> "_SessionCacheState":
        child = _SessionCacheState(self.uri, self.action_space)
        child.prefix = self.prefix
        child.cacheable = self.cacheable
        return child


_UNLOCKED = contextlib.nullcontext()


def _lock_of(state: Optional[_SessionCacheState]):
    """The lock of a session that has been forked; otherwise nothing to hold."""
    return _UNLOCKED if state is None or state.lock is None else state.lock


_WORKING_DIR_PREFIX = "repro-compiler-service-"
_WORKING_DIR_PID = re.compile(re.escape(_WORKING_DIR_PREFIX) + r"(\d+)-")


def _pid_exists(pid: int) -> bool:
    """Only ``ProcessLookupError`` means gone: ``PermissionError`` is a live
    process of another user's."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (OSError, OverflowError):
        return True
    return True


def _remove_orphaned_working_dirs(parent: str) -> None:
    """Remove the runtime working dirs in ``parent`` whose process is gone.

    A runtime names its own dir ``repro-compiler-service-<pid>-…`` and removes
    it at shutdown, which a killed process never reaches. Dirs named any
    other way are left alone.
    """
    try:
        entries = list(os.scandir(parent))
    except OSError:
        return
    for entry in entries:
        match = _WORKING_DIR_PID.match(entry.name)
        if match and entry.is_dir(follow_symlinks=False) and not _pid_exists(int(match.group(1))):
            shutil.rmtree(entry.path, ignore_errors=True)


class CompilerGymServiceRuntime:
    """In-process implementation of the compiler service.

    Args:
        session_type: The :class:`CompilationSession` subclass to instantiate
            for each new session.
        benchmark_resolver: Callable mapping a benchmark URI to a
            :class:`Benchmark`. Results are stored in the benchmark cache.
        result_cache: Daemon-wide (benchmark, action-prefix) memoization,
            shared across all sessions of this runtime. ``None`` (default)
            enables a default-sized cache; ``False``/``0`` disables; an int
            sets the byte budget; a :class:`ResultCache` is used as-is.
    """

    def __init__(
        self,
        session_type: Type[CompilationSession],
        benchmark_resolver: Callable[[str], Benchmark],
        working_dir: Optional[str] = None,
        result_cache=None,
    ):
        self.session_type = session_type
        self.benchmark_resolver = benchmark_resolver
        # A directory the runtime made is the runtime's to remove at shutdown,
        # and is named after its pid so a later runtime can remove it if the
        # process is killed before it does.
        self._owns_working_dir = working_dir is None
        if working_dir is None:
            parent = tempfile.gettempdir()
            _remove_orphaned_working_dirs(parent)
            working_dir = tempfile.mkdtemp(
                prefix=f"{_WORKING_DIR_PREFIX}{os.getpid()}-", dir=parent
            )
        self.working_dir = working_dir
        self.benchmark_cache = BenchmarkCache()
        self.result_cache: Optional[ResultCache] = ResultCache.coerce(result_cache)
        # ``None`` marks an unbuilt session: everything it was asked so far
        # was served from the result cache and no real session exists yet.
        self.sessions: Dict[int, Optional[CompilationSession]] = {}
        self._cache_states: Dict[int, _SessionCacheState] = {}
        self._next_session_id = 0
        self._lock = threading.Lock()
        self.closed = False
        # Operation counters, exposed for the efficiency benchmarks.
        self.stats = {"start_session": 0, "step": 0, "fork_session": 0, "end_session": 0}

    # -- space discovery -------------------------------------------------

    def get_spaces(self) -> GetSpacesReply:
        return GetSpacesReply(
            action_spaces=[
                ActionSpaceMessage(name=space.name or f"space-{i}", space=space)
                for i, space in enumerate(self.session_type.action_spaces)
            ],
            observation_spaces=[
                ObservationSpaceMessage(
                    name=spec.id,
                    space=spec.space,
                    deterministic=spec.deterministic,
                    platform_dependent=spec.platform_dependent,
                    default_observation=spec.default_value,
                )
                for spec in self.session_type.observation_spaces
            ],
        )

    def _observation_spec(self, name: str):
        for spec in self.session_type.observation_spaces:
            if spec.id == name:
                return spec
        raise ServiceError(f"Unknown observation space: {name!r}")

    def _resolve_benchmark(self, uri: str) -> Benchmark:
        benchmark = self.benchmark_cache.get(uri)
        if benchmark is None:
            benchmark = self.benchmark_resolver(uri)
            self.benchmark_cache[uri] = benchmark
        return benchmark

    def _session(self, session_id: int) -> Optional[CompilationSession]:
        if session_id not in self.sessions:
            raise SessionNotFound(f"Session not found: {session_id}")
        return self.sessions[session_id]

    def _new_session(self, action_space, benchmark: Benchmark) -> CompilationSession:
        return self.session_type(
            working_dir=self.working_dir, action_space=action_space, benchmark=benchmark
        )

    def _donor_state(self, state: _SessionCacheState) -> Optional[_SessionCacheState]:
        """The cache state of the session an unbuilt fork may borrow from, if
        the runtime still holds that session. Where it stands is the caller's
        to check, under its ``lock``."""
        if state.lazy_fork is None or self.sessions.get(state.donor) is None:
            return None
        return self._cache_states.get(state.donor)

    def _copy_of_donor(self, state: _SessionCacheState) -> Tuple[Optional[CompilationSession], int]:
        """A copy of the fork's donor and the length of the prefix it stands
        at, if that prefix leads to the fork's; otherwise ``(None, 0)``."""
        donor_state = self._donor_state(state)
        if donor_state is not None:
            with donor_state.lock:
                stands_at = donor_state.prefix
                if donor_state.cacheable and state.prefix[: len(stands_at)] == stands_at:
                    return state.lazy_fork.build(), len(stands_at)
        return None, 0

    def _built_session(self, session_id: int) -> CompilationSession:
        """The session, built first if it is unbuilt: a copy of its donor, or
        failing that of the pristine program, with the rest of ``prefix``
        replayed onto it.

        The session is published only after the replay succeeded, so a failed
        build leaves it unbuilt (and out of the cache protocol) and the next
        step builds again.
        """
        session = self._session(session_id)
        if session is None:
            state = self._cache_states[session_id]
            session, replayed = self._copy_of_donor(state)
            if session is None:
                session = self._new_session(state.action_space, self._resolve_benchmark(state.uri))
                if state.lazy_fork is not None:
                    session = state.lazy_fork.build(onto=session)
            self._execute_step(session, state, state.prefix[replayed:], ())
            self.sessions[session_id] = session
            state.donor = state.lazy_fork = None
        return session

    def _step_on_donor(
        self, state: _SessionCacheState, actions, observation_space_names
    ) -> Optional[StepReply]:
        """Answer an unbuilt fork's step from its donor's state, which is put
        back afterwards; ``None`` if the donor is not where the fork is.

        An error leaves the donor intact all the same, and the fork
        uncacheable: its next call builds it for real.
        """
        donor_state = self._donor_state(state)
        if donor_state is None:
            return None
        with donor_state.lock:
            if not donor_state.cacheable or donor_state.prefix != state.prefix:
                return None
            with state.lazy_fork.speculate() as session:
                return self._execute_step(session, state, actions, observation_space_names)

    # -- session lifecycle ------------------------------------------------

    def start_session(self, request: StartSessionRequest) -> StartSessionReply:
        if self.closed:
            raise ServiceError("Service is closed")
        self.stats["start_session"] += 1
        # Resolve eagerly (amortized O(1) via the benchmark cache) so an
        # unknown benchmark URI still fails at reset, not at the first miss.
        benchmark = self._resolve_benchmark(request.benchmark_uri)
        action_space = self.session_type.action_spaces[request.action_space]
        state = (
            _SessionCacheState(str(request.benchmark_uri), action_space)
            if self.result_cache is not None
            else None
        )
        # With the result cache on, session construction (which clones the
        # benchmark's module) is deferred: if every reset observation comes
        # from the cache, the session stays unbuilt until a step misses.
        session: Optional[CompilationSession] = None

        def ensure_session() -> CompilationSession:
            nonlocal session
            if session is None:
                session = self._new_session(action_space, benchmark)
            return session

        if state is None:
            ensure_session()
        observations = []
        for name in request.observation_space_names:
            spec = self._observation_spec(name)
            if state is not None and spec.deterministic:
                value = self.result_cache.get_observation(state.uri, (), name)
                if value is None:
                    value = ensure_session().get_observation(spec)
                    # Store a private copy: the returned object is handed to
                    # (possibly in-process) callers who may mutate it.
                    self.result_cache.put_observation(
                        state.uri, (), name, _copy_value(value)
                    )
                else:
                    value = _copy_value(value)
            else:
                value = ensure_session().get_observation(spec)
            observations.append(Event.from_value(value))
        with self._lock:
            session_id = self._next_session_id
            self._next_session_id += 1
            self.sessions[session_id] = session
            if state is not None:
                self._cache_states[session_id] = state
        return StartSessionReply(session_id=session_id, observations=observations)

    def _execute_step(
        self, session: CompilationSession, state: Optional[_SessionCacheState],
        actions, observation_space_names,
    ) -> StepReply:
        """Apply ``actions`` to a built session, then read the observations."""
        end_of_session = False
        action_had_no_effect = True
        new_action_space = None
        try:
            for action in actions:
                end, new_space, no_effect = session.apply_action(action)
                action_had_no_effect = action_had_no_effect and no_effect
                if new_space is not None:
                    new_action_space = ActionSpaceMessage(
                        name=new_space.name or "", space=new_space
                    )
                    session.action_space = new_space
                if end:
                    end_of_session = True
                    break
            observations = [
                Event.from_value(session.get_observation(self._observation_spec(name)))
                for name in observation_space_names
            ]
        except Exception:
            # The module may be ahead of ``prefix`` now: nothing this session
            # computes from here on may be stored under a prefix key.
            if state is not None:
                state.cacheable = False
            raise
        return StepReply(
            end_of_session=end_of_session,
            action_had_no_effect=action_had_no_effect,
            new_action_space=new_action_space,
            observations=observations,
        )

    def step(self, request: StepRequest) -> StepReply:
        self.stats["step"] += 1
        state = self._cache_states.get(request.session_id)
        if state is None or state.lock is None:
            return self._step(request, state)
        with state.lock:
            return self._step(request, state)

    def _step(self, request: StepRequest, state: Optional[_SessionCacheState]) -> StepReply:
        names = request.observation_space_names
        if state is None or not state.cacheable:
            # Unbuilt here means an earlier build failed: build again so the
            # error (or the session) is not lost.
            session = self._built_session(request.session_id)
            return self._execute_step(session, state, request.actions, names)

        specs = [self._observation_spec(name) for name in names]
        deterministic = all(spec.deterministic for spec in specs)
        actions = tuple(int(action) for action in request.actions)
        candidate = state.prefix + actions

        reply = None
        if deterministic:
            entry = self.result_cache.lookup_step(state.uri, candidate, len(actions), names)
            if entry is not None:
                # An unbuilt session only advances its prefix; a built one
                # runs the step's passes to stay current. Both answer from
                # the cache entry.
                session = self._session(request.session_id)
                if session is not None:
                    self._execute_step(session, state, request.actions, ())
                state.prefix = candidate
                return StepReply(
                    end_of_session=entry.end_of_session,
                    action_had_no_effect=entry.action_had_no_effect,
                    new_action_space=None,
                    observations=[
                        Event.from_value(_copy_value(entry.observations[name]))
                        for name in names
                    ],
                )
            if self._session(request.session_id) is None:
                # A fork's first step (a search's candidate): no copy is made.
                reply = self._step_on_donor(state, request.actions, names)

        if reply is None:
            session = self._built_session(request.session_id)
            reply = self._execute_step(session, state, request.actions, names)
        if reply.new_action_space is not None:
            # A dynamic action-space change breaks prefix canonicality.
            state.cacheable = False
            return reply
        state.prefix = candidate
        # Populate the cache for the next session to walk this prefix. The
        # flags are deterministic; only deterministic payloads are stored,
        # each as a private copy so callers mutating the reply cannot
        # corrupt the cached entry.
        cacheable_observations = {
            name: _copy_value(observation.value())
            for name, spec, observation in zip(names, specs, reply.observations)
            if spec.deterministic
        }
        self.result_cache.store_step(
            state.uri,
            candidate,
            len(actions),
            reply.end_of_session,
            reply.action_had_no_effect,
            cacheable_observations,
        )
        return reply

    def fork_session(self, request: ForkSessionRequest) -> ForkSessionReply:
        self.stats["fork_session"] += 1
        parent_state = self._cache_states.get(request.session_id)
        # A fork is of a current parent: a cache-served parent is built here,
        # once. Where the backend can, the fork of a cacheable parent starts
        # unbuilt at the parent's prefix and borrows the parent's state for
        # as long as that will do; any other fork is a copy made now.
        parent = self._built_session(request.session_id)
        forked = state = None
        if parent_state is not None:
            state = parent_state.forked()
            with self._lock:
                if parent_state.lock is None:
                    parent_state.lock = threading.Lock()
        with _lock_of(parent_state):
            lazy_fork = parent.lazy_fork() if state is not None and state.cacheable else None
            if lazy_fork is None:
                forked = parent.fork()
            else:
                state.donor, state.lazy_fork = request.session_id, lazy_fork
        with self._lock:
            session_id = self._next_session_id
            self._next_session_id += 1
            self.sessions[session_id] = forked
            if state is not None:
                # The fork starts at the parent's prefix, so it inherits
                # every warm cache entry along it.
                self._cache_states[session_id] = state
        return ForkSessionReply(session_id=session_id)

    def end_session(self, request: EndSessionRequest) -> EndSessionReply:
        self.stats["end_session"] += 1
        session = self.sessions.pop(request.session_id, None)
        self._cache_states.pop(request.session_id, None)
        if session is not None:
            session.close()
        return EndSessionReply(remaining_sessions=len(self.sessions))

    def handle_session_parameter(self, session_id: int, key: str, value: str) -> Optional[str]:
        session = self._built_session(session_id)
        state = self._cache_states.get(session_id)
        with _lock_of(state):
            if state is not None:
                # Parameters may read or mutate backend state (e.g. baseline
                # pipelines): stop treating the session as a pure action prefix.
                state.cacheable = False
            return session.handle_session_parameter(key, value)

    def cache_stats(self) -> Dict[str, Optional[Dict[str, float]]]:
        """Stats for both cache layers owned by this runtime."""
        return {
            "benchmark_cache": {
                "hits": self.benchmark_cache.hits,
                "misses": self.benchmark_cache.misses,
                "evictions": self.benchmark_cache.evictions,
                "size": self.benchmark_cache.size,
                "size_in_bytes": self.benchmark_cache.size_in_bytes,
            },
            "result_cache": (
                self.result_cache.stats() if self.result_cache is not None else None
            ),
        }

    def shutdown(self) -> None:
        for session in self.sessions.values():
            if session is not None:
                session.close()
        self.sessions.clear()
        self.closed = True
        if self._owns_working_dir:
            shutil.rmtree(self.working_dir, ignore_errors=True)
