"""The shared compiler service runtime.

Maps implementations of :class:`CompilationSession` to the request/reply
message API consumed by the frontend. One runtime instance manages many
concurrent sessions in one table, keyed by integer session IDs, and owns the
benchmark cache that gives amortized O(1) environment initialization.

Each table entry tracks its session's action prefix, whether or not a result
cache is configured, so a session is built only when something needs its
state and a fork borrows its parent's state for as long as that will do. The
optional :class:`ResultCache` is a memo consulted beside the table: at reset
for observations, and before and after a step.

Every transport reaches the same methods, so what they decide holds for an
in-process caller and a daemon's clients alike. A session-scoped call names
its tenant (``owner``, ``None`` for in-process and anonymous callers) and is
refused on another tenant's session. The caller names each session it starts
or forks: a start or fork under an id the caller holds replaces that
session, and one under another tenant's id is refused. ``step_sessions``
steps a batch of sessions, one after another on the calling thread, and
reports each slot's outcome in the reply: one failing session never fails
its siblings.
"""

import os
import re
import shutil
import tempfile
import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.core.datasets.benchmark import Benchmark
from repro.core.service.compilation_session import CompilationSession, LazyFork
from repro.core.service.proto import (
    ActionSpaceMessage,
    EndSessionReply,
    EndSessionRequest,
    ForkSessionReply,
    ForkSessionRequest,
    GetSpacesReply,
    ObservationSpaceMessage,
    SessionStepResult,
    StartSessionReply,
    StartSessionRequest,
    StepReply,
    StepRequest,
    StepSessionsReply,
    StepSessionsRequest,
)
from repro.core.service.runtime.benchmark_cache import BenchmarkCache
from repro.core.service.runtime.result_cache import PrefixNode, PrefixTrie, ResultCache
from repro.errors import PermissionDeniedError, ServiceError, SessionNotFound


def _copy_value(value):
    """Defensive copy for cached payloads handed to in-process callers."""
    if hasattr(value, "nbytes") and hasattr(value, "copy"):  # numpy arrays
        return value.copy()
    if isinstance(value, list):
        return list(value)
    if isinstance(value, dict):
        return dict(value)
    return value


class _Session:
    """One entry of the runtime's session table.

    ``node`` is the interned :class:`PrefixNode` of the action prefix
    acknowledged to the client: ``node.actions()`` are the actions applied
    since reset, and two entries stand at the same prefix when their nodes are
    the same object. The entry holds its node, and with it the node's
    ancestors, alive. An entry is in one of two states: *unbuilt* (``session
    is None``, and ``uri``, ``action_space`` and ``node`` are all there is,
    as after a reset that needed no observation computed) or *built*
    (``session`` is a real session whose module is exactly ``node``'s actions
    applied to the pristine program). An entry stops being ``pure`` for good
    when its state diverges from an action prefix (session parameters,
    dynamic action spaces, any error while applying actions): from then on
    nothing it computes is stored in the result cache, and no fork borrows
    its state.

    ``verify_ir`` is the start's :attr:`StartSessionRequest.verify_ir`,
    inherited by forks and handed to every session built for the entry. It
    keeps the entry pure, so what it computes is cached and forks borrow its
    state; but its steps run every pass themselves (no step is answered from
    the result cache, where it may have been stored by a session that did not
    verify).

    An unbuilt entry that began as a fork of a pure session whose backend has
    a :meth:`CompilationSession.lazy_fork` also remembers its ``donor`` (that
    session's entry) and the ``lazy_fork`` it gave. While the donor stands
    where the fork does, the fork's steps are answered from the donor's own
    state; when the fork has to be built, it is a copy of the donor if the
    donor's node is still an ancestor of the fork's. A donor that was ended
    (which leaves it impure) or went another way is simply not used. Once
    built, an entry forgets both.

    ``lock`` serialises everything that reads or writes the entry's backend
    state: its build, its own steps and parameters, a fork's step answered
    from it, a copy taken of it, and its end. It is taken before the donor's
    lock, and nothing is called while holding it that takes a lock of the
    runtime's but the table's own, which is held for a lookup. A call that
    waited for it first checks that its id still maps to this entry: the
    session may have been ended, or replaced under the same id, meanwhile.
    A start or fork puts its entry in the table before it builds it, and
    holds the entry's lock until the build is done.

    ``owner`` is the tenant the session belongs to (a daemon client's auth
    token, inherited by forks; ``None`` for anonymous and in-process
    callers). Every call that looks the entry up names its tenant, and a
    call from another tenant is refused there. ``last_used`` is the
    ``time.monotonic()`` at which the session's last call finished, which is
    what an idle reaper reads.
    """

    __slots__ = ("session", "uri", "action_space", "node", "pure", "verify_ir", "lock", "donor",
                 "lazy_fork", "owner", "last_used")

    def __init__(
        self, uri: str, action_space, node: PrefixNode, pure: bool = True, owner=None,
        verify_ir: bool = False,
    ):
        self.session: Optional[CompilationSession] = None
        self.uri = uri
        self.action_space = action_space
        self.node = node
        self.pure = pure
        self.verify_ir = verify_ir
        self.lock = threading.Lock()
        self.donor: Optional[_Session] = None
        self.lazy_fork: Optional[LazyFork] = None
        self.owner = owner
        self.last_used = time.monotonic()


# Session ids are named by the caller: a non-negative int below this.
_SESSION_ID_LIMIT = 1 << 63

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
        self._observation_specs = {spec.id: spec for spec in session_type.observation_spaces}
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
        # Runtimes that share a cache share its prefixes, so that one's
        # steps are keyed on the nodes another's sessions walk.
        self.prefixes = (
            PrefixTrie() if self.result_cache is None else self.result_cache.prefixes
        )
        self.sessions: Dict[int, _Session] = {}
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
        spec = self._observation_specs.get(name)
        if spec is None:
            raise ServiceError(f"Unknown observation space: {name!r}")
        return spec

    def _resolve_benchmark(self, uri: str) -> Benchmark:
        benchmark = self.benchmark_cache.get(uri)
        if benchmark is None:
            benchmark = self.benchmark_resolver(uri)
            self.benchmark_cache[uri] = benchmark
        return benchmark

    def _entry(self, session_id: int, owner) -> _Session:
        """The session's entry, if ``owner`` is its tenant.

        An unknown id is :class:`SessionNotFound`, which is also what another
        tenant sees once the owner has ended the session: ownership does not
        outlive the session it protects.
        """
        entry = self.sessions.get(session_id)
        if entry is None:
            raise SessionNotFound(f"Session not found: {session_id}")
        if entry.owner != owner:
            raise PermissionDeniedError(f"Session {session_id} belongs to another tenant")
        return entry

    def _current(self, session_id: int, entry: _Session) -> None:
        """Check, after waiting for ``entry``'s lock, that ``session_id``
        still maps to it: not ended, nor replaced under the same id."""
        if self.sessions.get(session_id) is not entry:
            raise SessionNotFound(f"Session not found: {session_id}")

    def _build(self, session_id: int, entry: _Session, build: Callable[[], Any]) -> Any:
        """Put ``entry`` in the table under its tenant's ``session_id``, and
        return what ``build()`` returns, run under the entry's lock.

        An id outside ``[0, 2**63)`` or another tenant's is refused, and
        nothing changes. The tenant's own session under the id is ended
        first, even if the build fails. A later start, fork or end under the
        id waits for the build and wins over it: the build is then refused,
        and whoever took the entry out closes it. A build that fails takes
        its entry out again.
        """
        if type(session_id) is not int or not 0 <= session_id < _SESSION_ID_LIMIT:
            raise ServiceError(f"Session id must be an int in [0, 2**63), not {session_id!r}")
        with entry.lock:
            with self._lock:
                replaced = self.sessions.get(session_id)
                if replaced is not None and replaced.owner != entry.owner:
                    raise PermissionDeniedError(f"Session {session_id} belongs to another tenant")
                self.sessions[session_id] = entry
            if replaced is not None:
                self.stats["end_session"] += 1
                with replaced.lock:
                    self._close(replaced)
            try:
                built = build()
                self._current(session_id, entry)
                return built
            except BaseException:
                with self._lock:
                    if self.sessions.get(session_id) is entry:
                        del self.sessions[session_id]
                        self._close(entry)
                raise

    def _new_session(self, entry: _Session, benchmark: Benchmark) -> CompilationSession:
        session = self.session_type(
            working_dir=self.working_dir, action_space=entry.action_space, benchmark=benchmark
        )
        session.verify_ir = entry.verify_ir
        return session

    def _copy_of_donor(self, entry: _Session) -> Tuple[Optional[CompilationSession], int]:
        """A copy of the fork's donor and the depth of the node it stands at,
        if that node is an ancestor of the fork's; otherwise ``(None, 0)``."""
        donor = entry.donor
        if donor is not None:
            with donor.lock:
                stands_at = donor.node
                if donor.pure and entry.node.ancestor(stands_at.depth) is stands_at:
                    return entry.lazy_fork.build(), stands_at.depth
        return None, 0

    def _built_session(self, entry: _Session) -> CompilationSession:
        """The entry's session, built first if it is unbuilt: a copy of its
        donor, or failing that of the pristine program, with the rest of its
        node's actions replayed onto it. Called under the entry's ``lock``.

        The session is published only after the replay succeeded, so a failed
        build leaves the entry unbuilt (and no longer pure) and the next step
        builds again.
        """
        if entry.session is None:
            session, replayed = self._copy_of_donor(entry)
            if session is None:
                session = self._new_session(entry, self._resolve_benchmark(entry.uri))
                if entry.lazy_fork is not None:
                    session = entry.lazy_fork.build(onto=session)
            self._execute_step(session, entry, entry.node.actions(since=replayed), ())
            entry.session = session
            entry.donor = entry.lazy_fork = None
        return entry.session

    def _step_on_donor(self, entry: _Session, actions, specs) -> Optional[StepReply]:
        """Answer an unbuilt fork's step from its donor's state, which is put
        back afterwards, as :meth:`_execute_step` does; ``None`` if the donor
        is not where the fork is.

        An error leaves the donor intact all the same, and the fork impure:
        its next call builds it for real.
        """
        donor = entry.donor
        if donor is None:
            return None
        with donor.lock:
            if not donor.pure or donor.node is not entry.node:
                return None
            with entry.lazy_fork.speculate() as session:
                return self._execute_step(session, entry, actions, specs)

    # -- session lifecycle ------------------------------------------------

    def start_session(self, request: StartSessionRequest, owner=None) -> StartSessionReply:
        if self.closed:
            raise ServiceError("Service is closed")
        self.stats["start_session"] += 1
        uri = str(request.benchmark_uri)
        action_space = self.session_type.action_spaces[request.action_space]
        entry = _Session(uri, action_space, None, owner=owner, verify_ir=request.verify_ir)

        def build():
            # Resolve eagerly (amortized O(1) via the benchmark cache) so an
            # unknown benchmark URI still fails at reset, not at the first step.
            benchmark = self._resolve_benchmark(request.benchmark_uri)
            entry.node = self.prefixes.root(uri)
            # Session construction (which clones the benchmark's module) waits
            # for an observation the result cache cannot answer, a step or a fork.
            values = []
            for name in request.observation_space_names:
                spec = self._observation_spec(name)
                cache = self.result_cache if spec.deterministic else None
                value = None if cache is None else cache.get_observation(entry.node, name)
                if value is None:
                    if entry.session is None:
                        entry.session = self._new_session(entry, benchmark)
                    value = entry.session.get_observation(spec)
                    if cache is not None:
                        # Store a private copy: the returned object is handed to
                        # (possibly in-process) callers who may mutate it.
                        cache.put_observation(entry.node, name, _copy_value(value))
                else:
                    value = _copy_value(value)
                values.append(value)
            return values

        observations = self._build(request.session_id, entry, build)
        return StartSessionReply(session_id=request.session_id, observations=observations)

    def _execute_step(
        self, session: CompilationSession, entry: _Session, actions, specs
    ) -> StepReply:
        """Apply ``actions`` to a built session, then read the observations of
        ``specs`` into the reply."""
        end_of_session = False
        action_had_no_effect = True
        new_action_space = None
        try:
            for action in actions:
                end, new_space, no_effect = session.apply_action(action)
                # A backend's numpy bool would not fit the reply's bool field.
                action_had_no_effect = action_had_no_effect and bool(no_effect)
                if new_space is not None:
                    new_action_space = ActionSpaceMessage(
                        name=new_space.name or "", space=new_space
                    )
                    session.action_space = new_space
                if end:
                    end_of_session = True
                    break
            values = [session.get_observation(spec) for spec in specs]
        except Exception:
            # The module may be ahead of its node now: nothing this session
            # computes from here on may be stored under a prefix.
            entry.pure = False
            raise
        return StepReply(
            end_of_session=end_of_session,
            action_had_no_effect=action_had_no_effect,
            new_action_space=new_action_space,
            observations=values,
        )

    def step(self, request: StepRequest, owner=None) -> StepReply:
        self.stats["step"] += 1
        entry = self._entry(request.session_id, owner)
        with entry.lock:
            self._current(request.session_id, entry)
            try:
                return self._step(entry, request)
            finally:
                entry.last_used = time.monotonic()

    def _step(self, entry: _Session, request: StepRequest) -> StepReply:
        names = request.observation_space_names
        specs = [self._observation_spec(name) for name in names]
        if not entry.pure:
            # Unbuilt here means an earlier build failed: build again so the
            # error (or the session) is not lost.
            return self._execute_step(self._built_session(entry), entry, request.actions, specs)

        deterministic = all(spec.deterministic for spec in specs)
        candidate = self.prefixes.walk(entry.node, request.actions)
        num_actions = len(request.actions)

        reply = None
        if deterministic and self.result_cache is not None and not entry.verify_ir:
            hit = self.result_cache.lookup_step(candidate, num_actions, names)
            if hit is not None:
                # An unbuilt session only advances its prefix; a built one
                # runs the step's passes to stay current. Both answer from
                # the cache entry.
                if entry.session is not None:
                    self._execute_step(entry.session, entry, request.actions, ())
                entry.node = candidate
                return StepReply(
                    end_of_session=hit.end_of_session,
                    action_had_no_effect=hit.action_had_no_effect,
                    new_action_space=None,
                    observations=[_copy_value(hit.observations[name]) for name in names],
                )
        if deterministic and entry.session is None:
            # A fork's first step (a search's candidate): no copy is made.
            reply = self._step_on_donor(entry, request.actions, specs)

        if reply is None:
            reply = self._execute_step(self._built_session(entry), entry, request.actions, specs)
        if reply.new_action_space is not None:
            # A dynamic action-space change breaks prefix canonicality.
            entry.pure = False
            return reply
        entry.node = candidate
        if self.result_cache is not None:
            # Populate the cache for the next session to walk this prefix.
            # The flags are deterministic; only deterministic payloads are
            # stored, each as a private copy so callers mutating the reply
            # cannot corrupt the cached entry.
            self.result_cache.store_step(
                candidate,
                num_actions,
                reply.end_of_session,
                reply.action_had_no_effect,
                {
                    name: _copy_value(value)
                    for name, spec, value in zip(names, specs, reply.observations)
                    if spec.deterministic
                },
            )
        return reply

    def step_sessions(self, request: StepSessionsRequest, owner=None) -> StepSessionsReply:
        """Step each sub-request's session, in request order, on this thread.

        Each slot is a :meth:`step` of its own: it serialises on its session's
        lock and is checked against ``owner``. A slot's failure is reported in
        its :class:`SessionStepResult`, never raised, and so is its wall time,
        lock wait included, which lets a client account each session's load
        although the batch travelled as one call.
        """
        if not isinstance(request, StepSessionsRequest):
            raise ServiceError(
                f"step_sessions expects a StepSessionsRequest, got {type(request).__name__}"
            )
        results = []
        for sub in request.requests:
            started = time.monotonic()
            reply = error = None
            try:
                reply = self.step(sub, owner=owner)
            except Exception as failure:  # noqa: BLE001 - reported in its slot
                error = failure
            results.append(SessionStepResult(
                reply=reply, error=error, wall_time_s=time.monotonic() - started,
            ))
        return StepSessionsReply(results=results)

    def fork_session(self, request: ForkSessionRequest, owner=None) -> ForkSessionReply:
        self.stats["fork_session"] += 1
        parent = self._entry(request.session_id, owner)
        if request.fork_id == request.session_id:
            raise ServiceError(f"A fork cannot take its parent's id {request.session_id}")
        child = _Session(parent.uri, parent.action_space, None, True, owner, parent.verify_ir)
        # A fork is of a current parent: an unbuilt parent is built here,
        # once. Where the backend can, the fork of a pure parent starts
        # unbuilt at the parent's prefix (so it inherits every warm cache
        # entry along it) and borrows the parent's state for as long as that
        # will do; any other fork is a copy made now.
        def fork():
            with parent.lock:
                self._current(request.session_id, parent)
                try:
                    session = self._built_session(parent)
                    child.node, child.pure = parent.node, parent.pure
                    lazy_fork = session.lazy_fork() if parent.pure else None
                    if lazy_fork is None:
                        child.session = session.fork()
                    else:
                        child.donor, child.lazy_fork = parent, lazy_fork
                finally:
                    parent.last_used = time.monotonic()

        self._build(request.fork_id, child, fork)
        return ForkSessionReply(session_id=request.fork_id)

    def end_session(self, request: EndSessionRequest, owner=None) -> EndSessionReply:
        self.stats["end_session"] += 1
        # Ending an unknown session is a no-op; ending another tenant's is not.
        if request.session_id in self.sessions:
            self._entry(request.session_id, owner)
        # Out of the table at once, so a call already waiting on the entry's
        # lock finds the session ended; closed under the lock, so never in
        # the middle of a call.
        entry = self.sessions.pop(request.session_id, None)
        if entry is not None:
            with entry.lock:
                self._close(entry)
        return EndSessionReply(remaining_sessions=len(self.sessions))

    def end_idle_sessions(self, idle_seconds: float) -> int:
        """End every session whose last call finished more than
        ``idle_seconds`` ago, and return how many were ended.

        The idle time is checked again under each entry's lock, after any
        call in flight has finished and stamped ``last_used``, so a session
        is never ended while a call runs on it, nor just after a long one.
        """
        deadline = time.monotonic() - idle_seconds
        idle = [item for item in list(self.sessions.items()) if item[1].last_used < deadline]
        ended = 0
        for session_id, entry in idle:
            with entry.lock:
                # The id may have been taken by a replacement meanwhile.
                with self._lock:
                    if entry.last_used >= deadline or self.sessions.get(session_id) is not entry:
                        continue
                    del self.sessions[session_id]
                self._close(entry)
            ended += 1
        self.stats["end_session"] += ended
        return ended

    @staticmethod
    def _close(entry: _Session) -> None:
        """Release an entry taken out of the table. Called under its lock."""
        # A fork that looked its donor up before the end must not borrow it.
        entry.pure = False
        if entry.session is not None:
            entry.session.close()

    def handle_session_parameter(
        self, session_id: int, key: str, value: str, owner=None
    ) -> Optional[str]:
        entry = self._entry(session_id, owner)
        with entry.lock:
            self._current(session_id, entry)
            try:
                session = self._built_session(entry)
                # Parameters may read or mutate backend state (e.g. baseline
                # pipelines): stop treating the session as a pure action prefix.
                entry.pure = False
                return session.handle_session_parameter(key, value)
            finally:
                entry.last_used = time.monotonic()

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
        for entry in self.sessions.values():
            if entry.session is not None:
                entry.session.close()
        self.sessions.clear()
        self.closed = True
        if self._owns_working_dir:
            shutil.rmtree(self.working_dir, ignore_errors=True)
