"""The CompilerEnv Gym environment.

:class:`CompilerEnv` formulates a compiler optimization task as a Markov
Decision Process with the standard Gym ``reset``/``step`` interface, extended
with the compiler-specific features described in the paper: selectable and
lazily-computed observation and reward spaces, batched multi-action steps,
lightweight ``fork()`` deep copies, state serialization and replay validation,
and benchmark dataset management.
"""

import logging
import os
import time
from typing import Any, Callable, Iterable, List, Optional, Tuple, Type, Union

from repro.core.compiler_env_state import CompilerEnvState
from repro.core.datasets import Benchmark, Datasets
from repro.core.observation_view import ObservationView
from repro.core.registration import make, register, registered_env_ids  # noqa: F401 - re-export
from repro.core.reward_view import RewardView
from repro.core.service.compilation_session import CompilationSession
from repro.core.service.connection import ConnectionOpts, ServiceConnection
from repro.core.service.transport import InProcessTransport, ServiceTransport, SocketTransport
from repro.core.service.proto import (
    EndSessionRequest,
    ForkSessionRequest,
    StartSessionRequest,
    StepRequest,
)
from repro.core.service.runtime.compiler_gym_service import CompilerGymServiceRuntime
from repro.core.spaces.observation import ObservationSpaceSpec
from repro.core.spaces.reward import Reward
from repro.core.spaces.space import Space
from repro.errors import (
    BenchmarkInitError,
    ServiceError,
    ServiceIsDown,
    ServiceTransportError,
    SessionNotFound,
)

logger = logging.getLogger(__name__)


class CompilerEnv:
    """A compiler optimization task exposed through the Gym interface.

    Subclasses (``LlvmEnv``, ``GccEnv``, ``LoopToolEnv``) provide the
    compilation session type, the benchmark datasets, and the reward spaces;
    this class provides all the MDP mechanics.
    """

    metadata = {"render.modes": ["human", "ansi"]}

    def __init__(
        self,
        session_type: Type[CompilationSession],
        datasets: Datasets,
        rewards: Optional[List[Reward]] = None,
        benchmark: Optional[Union[str, Benchmark]] = None,
        observation_space: Optional[str] = None,
        reward_space: Optional[str] = None,
        action_space: Optional[str] = None,
        connection_opts: Optional[ConnectionOpts] = None,
        service_url: Optional[str] = None,
        service_token: Optional[str] = None,
        verify_ir: Optional[bool] = None,
        result_cache=None,
    ):
        self.session_type = session_type
        self.datasets = datasets
        self.connection_opts = connection_opts or ConnectionOpts()
        self.service_url = service_url
        self.service_token = service_token
        # Daemon-wide (benchmark, action-prefix) result memoization for the
        # in-process runtime: None enables a default-sized cache, False/0
        # disables, an int sets the byte budget, a ResultCache is shared
        # as-is. Remote daemons own their own cache (see `serve
        # --result-cache-mb`); the setting only applies when this env hosts
        # its runtime in-process.
        self.result_cache = result_cache
        # Verify-after-every-pass debug mode: the backend re-verifies the IR
        # after each applied action and fails the step on corruption. Off by
        # default (it adds a dominator-tree construction per function per
        # step); enable with make(..., verify_ir=True) or REPRO_VERIFY_IR=1.
        if verify_ir is None:
            verify_ir = os.environ.get("REPRO_VERIFY_IR", "") not in ("", "0", "false", "False")
        # A bool: it travels in StartSessionRequest.verify_ir, a bool field.
        self.verify_ir = bool(verify_ir)
        # Benchmark *objects* assigned by the user, by URI — and only those:
        # dataset URIs resolve through ``self.datasets`` and are retained by
        # the runtime's byte-bounded BenchmarkCache, not here. A remote daemon
        # resolves benchmarks from its own datasets and can never see these —
        # reset() fails fast on the combination instead of retrying an
        # unresolvable URI. _daemon_checked_uris memoizes the (successful)
        # probes so the reset hot path resolves each URI at most once.
        self._custom_benchmarks = {}
        self._daemon_checked_uris = set()

        self.service = ServiceConnection(self._make_transport(), opts=self.connection_opts)
        self._owns_service = True

        spaces = self.service.spaces
        self._action_space_name = action_space
        self.action_spaces: List[Space] = [msg.space for msg in spaces.action_spaces]
        self.action_space: Space = self._resolve_action_space(action_space)
        self.observation_space_specs: List[ObservationSpaceSpec] = [
            self._spec_from_message(i, msg) for i, msg in enumerate(spaces.observation_spaces)
        ]

        self.observation = ObservationView(self._raw_observations, self.observation_space_specs)
        self.reward = RewardView(rewards or [], self.observation)
        self.reward_range: Tuple[float, float] = (float("-inf"), float("inf"))

        # Episode state. The env names its session: every reset starts one
        # under this id, replacing what the service holds under it, so a
        # call lost in flight leaves nothing this env does not know to end.
        self._closed = False
        self._session_id: int = self.service.new_session_id()
        self._in_episode = False
        # Whether the service may hold a session under the id: a start or
        # fork under it may have reached the service, and none was ended since.
        self._held = False
        self._benchmark_in_use: Optional[Benchmark] = None
        self._next_benchmark: Optional[Benchmark] = None
        self.actions: List[Any] = []
        self.episode_reward: Optional[float] = None
        self.episode_start_time: float = time.time()
        self.reward_update_count = 0
        self.version = "1.0.0"

        self._observation_space_spec: Optional[ObservationSpaceSpec] = None
        self._reward_space: Optional[Reward] = None

        if benchmark is not None:
            self.benchmark = benchmark
        if observation_space is not None:
            self.observation_space = observation_space
        if reward_space is not None:
            self.reward_space = reward_space

    # -- construction helpers ---------------------------------------------

    def _make_transport(self) -> ServiceTransport:
        if self.service_url is None:
            return InProcessTransport(self._make_runtime())
        # Attach to a running compiler service daemon (`repro serve`) instead
        # of hosting a runtime in-process: sessions live on the daemon and
        # survive this client. The socket-level timeout must exceed the
        # connection's call deadline: a call that comes back between the two
        # is classified as a slow *success* (recorded, not retried) rather
        # than a transport failure — retrying an applied step() would
        # re-execute it on the daemon.
        deadline = self.connection_opts.rpc_call_max_seconds
        return SocketTransport(
            self.service_url,
            timeout=deadline + max(deadline, 5.0),
            auth_token=self.service_token,
        )

    def _make_runtime(self) -> CompilerGymServiceRuntime:
        return CompilerGymServiceRuntime(
            session_type=self.session_type,
            benchmark_resolver=self._resolve_benchmark,
            result_cache=self.result_cache,
        )

    def _resolve_benchmark(self, uri: str) -> Benchmark:
        if uri in self._custom_benchmarks:
            return self._custom_benchmarks[uri]
        return self.datasets.benchmark(uri)

    def _resolve_action_space(self, name: Optional[str]) -> Space:
        if name is None:
            return self.action_spaces[0]
        for space in self.action_spaces:
            if space.name == name:
                return space
        raise LookupError(f"Unknown action space: {name!r}")

    @staticmethod
    def _spec_from_message(index: int, msg) -> ObservationSpaceSpec:
        space = msg.space
        if isinstance(space, ObservationSpaceSpec):
            return space
        return ObservationSpaceSpec(
            id=msg.name,
            index=index,
            space=space,
            deterministic=msg.deterministic,
            platform_dependent=msg.platform_dependent,
            default_value=msg.default_observation,
        )

    # -- properties ---------------------------------------------------------

    @property
    def benchmark(self) -> Optional[Benchmark]:
        """The benchmark being optimized.

        Setting this property does not take effect until the next
        :meth:`reset` call, matching the upstream semantics.
        """
        return self._next_benchmark or self._benchmark_in_use

    @benchmark.setter
    def benchmark(self, benchmark: Union[str, Benchmark]) -> None:
        if isinstance(benchmark, Benchmark):
            self._custom_benchmarks[str(benchmark.uri)] = benchmark
            self._next_benchmark = benchmark
        else:
            self._next_benchmark = self.datasets.benchmark(str(benchmark))

    @property
    def observation_space_spec(self) -> Optional[ObservationSpaceSpec]:
        return self._observation_space_spec

    @property
    def observation_space(self) -> Optional[Space]:
        """The default observation space returned by :meth:`step`."""
        if self._observation_space_spec is None:
            return None
        return self._observation_space_spec.space

    @observation_space.setter
    def observation_space(self, space: Optional[Union[str, ObservationSpaceSpec]]) -> None:
        if space is None:
            self._observation_space_spec = None
        elif isinstance(space, ObservationSpaceSpec):
            self._observation_space_spec = space
        else:
            self._observation_space_spec = self.observation.spaces[space]

    @property
    def reward_space(self) -> Optional[Reward]:
        """The default reward space used by :meth:`step`."""
        return self._reward_space

    @reward_space.setter
    def reward_space(self, space: Optional[Union[str, Reward]]) -> None:
        if space is None:
            self._reward_space = None
            self.reward_range = (float("-inf"), float("inf"))
            return
        if isinstance(space, Reward):
            self.reward.add_space(space)
            self._reward_space = space
        else:
            self._reward_space = self.reward.spaces[space]
        self.reward_range = self._reward_space.range

    @property
    def in_episode(self) -> bool:
        """Whether a compilation session is active."""
        return self._in_episode

    @property
    def episode_walltime(self) -> float:
        return time.time() - self.episode_start_time

    @property
    def compiler_version(self) -> str:
        return self.session_type.compiler_version

    @property
    def state(self) -> CompilerEnvState:
        """The current environment state as a serializable record."""
        return CompilerEnvState(
            benchmark=str(self.benchmark.uri) if self.benchmark else "",
            commandline=self.action_space_to_string(self.actions),
            walltime=self.episode_walltime,
            reward=self.episode_reward,
        )

    def action_space_to_string(self, actions: Iterable[Any]) -> str:
        """Render a sequence of actions as a human-readable string."""
        actions = list(actions)
        to_commandline = getattr(self.action_space, "to_commandline", None)
        if to_commandline is not None:
            return to_commandline(actions)
        to_string = getattr(self.action_space, "to_string", None)
        if to_string is not None and actions:
            return to_string(actions)
        return " ".join(str(a) for a in actions)

    def commandline(self) -> str:
        """The command line equivalent to the current action sequence."""
        return self.action_space_to_string(self.actions)

    # -- benchmark observation plumbing ------------------------------------

    def _raw_observations(self, space_names: List[str]) -> List[Any]:
        """Fetch raw observations of the current state from the service."""
        if not self._in_episode:
            raise SessionNotFound("Cannot compute observations before reset()")
        reply = self.service.step(
            StepRequest(
                session_id=self._session_id, actions=[], observation_space_names=space_names
            )
        )
        return reply.observations

    # -- Gym API -------------------------------------------------------------

    def reset(
        self,
        benchmark: Optional[Union[str, Benchmark]] = None,
        action_space: Optional[str] = None,
        observation_space: Optional[Union[str, ObservationSpaceSpec]] = None,
        reward_space: Optional[Union[str, Reward]] = None,
    ) -> Optional[Any]:
        """Reset the environment, starting a new compilation session.

        Returns the initial observation if a default observation space is set.
        """
        if observation_space is not None:
            self.observation_space = observation_space
        if reward_space is not None:
            self.reward_space = reward_space
        if action_space is not None:
            self.action_space = self._resolve_action_space(action_space)
        if benchmark is not None:
            self.benchmark = benchmark

        # The episode is over: the start_session below replaces its session.
        self._in_episode = False

        if self._next_benchmark is not None:
            self._benchmark_in_use = self._next_benchmark
            self._next_benchmark = None
        if self._benchmark_in_use is None:
            self._benchmark_in_use = self.datasets.random_benchmark()

        # A remote daemon resolves benchmarks from its own datasets; a
        # user-supplied Benchmark object only exists in this process. Fail
        # fast with a clear error unless the URI is independently resolvable
        # — and when it is, warn: the daemon compiles *its* dataset entry,
        # not the local object. Probed once per URI, not per reset.
        if (
            self.service_url is not None
            and str(self._benchmark_in_use.uri) in self._custom_benchmarks
            and str(self._benchmark_in_use.uri) not in self._daemon_checked_uris
        ):
            uri = str(self._benchmark_in_use.uri)
            try:
                self.datasets.benchmark(uri)
            except Exception as error:  # noqa: BLE001 - translated below
                raise BenchmarkInitError(
                    f"Custom benchmark {uri} cannot be used over "
                    f"service_url={self.service_url!r}: benchmarks are "
                    "resolved by the daemon from its own datasets, which do "
                    "not contain this client-side Benchmark object. Use a "
                    "dataset URI, or host the service in-process"
                ) from error
            self._daemon_checked_uris.add(uri)
            logger.warning(
                "Benchmark %s was assigned as a client-side object but its "
                "URI also resolves from the datasets; the remote daemon will "
                "compile its own dataset entry, not the local object",
                uri,
            )

        # One round trip: the start replaces the old session, and answers the
        # observation space and everything the reward's reset and first
        # update read.
        names = []
        if self._observation_space_spec:
            names.append(self._observation_space_spec.id)
        if self._reward_space:
            names += self._reward_space.observation_spaces
            names += self._reward_space.reset_observation_spaces
        observation_names = list(
            dict.fromkeys(self.observation.raw_space_id(name) for name in names)
        )
        self._held = True
        try:
            reply = self.service.start_session(
                StartSessionRequest(
                    session_id=self._session_id,
                    benchmark_uri=str(self._benchmark_in_use.uri),
                    action_space=self.action_spaces.index(self.action_space),
                    observation_space_names=observation_names,
                    verify_ir=self.verify_ir,
                )
            )
        except LookupError as error:
            raise BenchmarkInitError(str(error)) from error

        self._closed = False
        self._in_episode = True
        self.actions = []
        self.episode_reward = 0 if self._reward_space else None
        self.episode_start_time = time.time()
        self.reward.reset(str(self._benchmark_in_use.uri))
        raw_values = dict(zip(observation_names, reply.observations))
        if self._reward_space:
            # Prime the reward baseline on the initial state.
            self.reward.prime(self._reward_space.name, raw_values)
        if self._observation_space_spec:
            return self._observation_space_spec.translate(raw_values[observation_names[0]])
        return None

    def step(
        self,
        action: Any,
        observation_spaces: Optional[List[Union[str, ObservationSpaceSpec]]] = None,
        reward_spaces: Optional[List[Union[str, Reward]]] = None,
    ) -> Tuple[Any, Any, bool, dict]:
        """Apply a single action. See :meth:`multistep` for the batched form."""
        return self.multistep(
            [action], observation_spaces=observation_spaces, reward_spaces=reward_spaces
        )

    def multistep(
        self,
        actions: Iterable[Any],
        observation_spaces: Optional[List[Union[str, ObservationSpaceSpec]]] = None,
        reward_spaces: Optional[List[Union[str, Reward]]] = None,
    ) -> Tuple[Any, Any, bool, dict]:
        """Apply a batch of actions in a single service call.

        Returns ``(observation, reward, done, info)``. When explicit
        ``observation_spaces``/``reward_spaces`` arguments are given, the
        observation and reward elements are lists with one entry per requested
        space; otherwise they use the environment's default spaces.

        A step is :meth:`_prepare_multistep` (build the request), a *fetch*
        of its outcome, and :meth:`_finish_multistep` (interpret the outcome).
        Here the fetch is one ``step`` RPC; a vectorized pool prepares many
        environments' requests, carries them all in one ``step_sessions`` RPC
        and hands each environment its own outcome to finish the same way.
        """
        request, context = self._prepare_multistep(
            actions, observation_spaces, reward_spaces
        )
        return self._finish_multistep(context, lambda: self.service.step(request))

    def _end_session(self) -> None:
        """End the episode, and the session the service may hold under this
        env's id: best effort, one try. Safe on an environment whose
        construction failed partway."""
        self._in_episode = False
        if getattr(self, "_held", False):
            self._held = False
            try:
                self.service.end_session(EndSessionRequest(session_id=self._session_id))
            except (ServiceError, SessionNotFound):
                pass

    def _prepare_multistep(
        self,
        actions: Iterable[Any],
        observation_spaces: Optional[List[Union[str, ObservationSpaceSpec]]] = None,
        reward_spaces: Optional[List[Union[str, Reward]]] = None,
    ) -> Tuple[StepRequest, dict]:
        """Build the service request (and client-side context) for one step."""
        if not self._in_episode:
            if self._closed:
                raise SessionNotFound(
                    "Cannot call step() on a closed environment: "
                    "the compilation session has ended"
                )
            raise SessionNotFound("Cannot call step() before reset()")
        actions = list(actions)

        explicit_observations = observation_spaces is not None
        explicit_rewards = reward_spaces is not None
        observation_specs = self._coerce_observation_spaces(observation_spaces)
        reward_space_objects = self._coerce_reward_spaces(reward_spaces)

        # Determine the full set of backend observations to request: the user
        # facing observation spaces plus everything the rewards depend on.
        request_names: List[str] = []
        for spec in observation_specs:
            name = self.observation.raw_space_id(spec.id)
            if name not in request_names:
                request_names.append(name)
        for reward in reward_space_objects:
            for name in reward.observation_spaces:
                if name not in request_names:
                    request_names.append(name)

        request = StepRequest(
            session_id=self._session_id,
            actions=actions,
            observation_space_names=request_names,
        )
        context = {
            "actions": actions,
            "explicit_observations": explicit_observations,
            "explicit_rewards": explicit_rewards,
            "observation_specs": observation_specs,
            "reward_space_objects": reward_space_objects,
            "request_names": request_names,
        }
        return request, context

    def _finish_multistep(
        self, context: dict, fetch: Callable[[], Any]
    ) -> Tuple[Any, Any, bool, dict]:
        """Fetch this step's reply and apply it to this environment's state.

        ``fetch`` returns the reply or raises what went wrong with it. This is
        the one place a step outcome is interpreted, however it travelled: a
        crashed, errored or unreachable backend terminates the episode with
        the reward space's error default rather than propagating an exception
        into user code (the fault-tolerance path); anything else ``fetch``
        raises is the caller's own mistake and propagates.
        """
        try:
            reply = fetch()
        except (ServiceError, SessionNotFound) as error:
            info = {
                "action_had_no_effect": False,
                "new_action_space": False,
                "error_details": str(error),
            }
            if isinstance(error, ServiceIsDown):
                # Graceful degradation: a gateway reported this session's
                # fleet member down while the rest of the fleet keeps serving.
                # Marked so collectors can tell an outage from an ordinary
                # compile failure.
                info["service_is_down"] = True
            observation = [spec.default_value for spec in context["observation_specs"]]
            rewards = [
                reward.reward_on_error(self.episode_reward or 0)
                for reward in context["reward_space_objects"]
            ]
            if isinstance(error, (ServiceTransportError, ServiceIsDown, SessionNotFound)):
                # The service may still hold a session under this env's id
                # (after a slow success it does): the next reset replaces
                # it, or close() ends it.
                self._in_episode = False
            else:
                # The service answered, so it is there to be told that this
                # episode is over: a session it is left holding is counted in
                # a gateway's placement for good.
                self._end_session()
            return (
                self._unpack(observation, context["explicit_observations"]),
                self._unpack(rewards, context["explicit_rewards"]),
                True,
                info,
            )

        actions = context["actions"]
        explicit_rewards = context["explicit_rewards"]
        reward_space_objects = context["reward_space_objects"]
        request_names = context["request_names"]
        info = {
            "action_had_no_effect": reply.action_had_no_effect,
            "new_action_space": False,
        }

        self.actions += actions
        done = reply.end_of_session
        if reply.new_action_space is not None:
            self.action_space = reply.new_action_space.space
            info["new_action_space"] = True

        raw_values = dict(zip(request_names, reply.observations))

        observation = [
            spec.translate(raw_values[self.observation.raw_space_id(spec.id)])
            for spec in context["observation_specs"]
        ]
        rewards = []
        for reward in reward_space_objects:
            self.reward._ensure_reset(reward)
            reward_observations = [raw_values[name] for name in reward.observation_spaces]
            value = reward.update(actions, reward_observations, self.observation)
            self.reward_update_count += 1
            rewards.append(value)

        if self._reward_space and not explicit_rewards and rewards:
            self.episode_reward = (self.episode_reward or 0) + rewards[0]
        elif self._reward_space and explicit_rewards:
            for reward, value in zip(reward_space_objects, rewards):
                if reward.name == self._reward_space.name:
                    self.episode_reward = (self.episode_reward or 0) + value

        return (
            self._unpack(observation, context["explicit_observations"]),
            self._unpack(rewards, context["explicit_rewards"]),
            done,
            info,
        )

    @staticmethod
    def _unpack(values: List[Any], explicit: bool) -> Any:
        if explicit:
            return values
        if not values:
            return None
        return values[0]

    def _coerce_observation_spaces(
        self, spaces: Optional[List[Union[str, ObservationSpaceSpec]]]
    ) -> List[ObservationSpaceSpec]:
        if spaces is None:
            return [self._observation_space_spec] if self._observation_space_spec else []
        return [
            space if isinstance(space, ObservationSpaceSpec) else self.observation.spaces[space]
            for space in spaces
        ]

    def _coerce_reward_spaces(self, spaces: Optional[List[Union[str, Reward]]]) -> List[Reward]:
        if spaces is None:
            return [self._reward_space] if self._reward_space else []
        return [
            space if isinstance(space, Reward) else self.reward.spaces[space] for space in spaces
        ]

    # -- compiler-specific API extensions -------------------------------------

    def fork(self) -> "CompilerEnv":
        """Create an independent deep copy of this environment.

        The fork shares the service connection (and therefore the benchmark
        cache) but has its own compilation session whose state is a copy of
        this environment's. Forking is much cheaper than replaying the action
        history, enabling efficient backtracking searches.
        """
        if not self._in_episode:
            self.reset()
        forked = type(self).__new__(type(self))
        forked.__dict__.update(
            {
                key: value
                for key, value in self.__dict__.items()
                if key not in ("actions", "_custom_benchmarks", "observation", "reward")
            }
        )
        forked._custom_benchmarks = dict(self._custom_benchmarks)
        forked._daemon_checked_uris = set(self._daemon_checked_uris)
        # Forks share the service connection; reference counting ensures the
        # connection stays alive until the last sharer is closed. The socket
        # transport multiplexes concurrent calls by request id, so forks
        # driven in parallel with their parent (pool workers) overlap their
        # RPCs on the shared connection too.
        forked._owns_service = True
        self.service.acquire()
        forked._session_id = self.service.new_session_id()
        try:
            self.service.fork_session(
                ForkSessionRequest(session_id=self._session_id, fork_id=forked._session_id)
            )
        except BaseException:
            # The fork may have reached the service: end it there.
            forked.close()
            raise
        forked.actions = list(self.actions)
        forked.episode_reward = self.episode_reward
        forked.episode_start_time = self.episode_start_time
        # Rebuild the observation/reward views so that lazy observation
        # fetches go through the forked session, and so that reward-space
        # internal state (e.g. the previous metric value) is not shared with
        # the parent environment.
        forked.observation = ObservationView(
            forked._raw_observations, self.observation_space_specs
        )
        forked.reward = self.reward.fork(forked.observation)
        if self._observation_space_spec is not None:
            forked._observation_space_spec = forked.observation.spaces[
                self._observation_space_spec.id
            ]
        if self._reward_space is not None:
            forked._reward_space = forked.reward.spaces[self._reward_space.name]
        return forked

    def apply(self, state: CompilerEnvState) -> None:
        """Replay a serialized state onto this environment."""
        if not self.in_episode or str(self.benchmark.uri) != state.benchmark:
            self.reset(benchmark=state.benchmark)
        actions = self._actions_from_string(state.commandline)
        if actions:
            self.multistep(actions)

    def _actions_from_string(self, commandline: str) -> List[int]:
        from_commandline = getattr(self.action_space, "from_commandline", None)
        if from_commandline is not None:
            return from_commandline(commandline)
        from_string = getattr(self.action_space, "from_string", None)
        if from_string is not None:
            return from_string(commandline)
        return [int(token) for token in commandline.split()]

    def validate(self, state: Optional[CompilerEnvState] = None) -> "ValidationResult":
        """Validate a state: replay it and check reward reproducibility and
        benchmark semantics."""
        from repro.core.validation import validate_state  # Deferred to avoid import cycle.

        return validate_state(self, state or self.state)

    def render(self, mode: str = "human") -> Optional[str]:
        """Render the current state using the default observation space."""
        if self._observation_space_spec is None:
            raise ValueError("Cannot render with no observation space selected")
        value = self.observation[self._observation_space_spec.id]
        text = self._observation_space_spec.to_string(value)
        if mode == "human":
            print(text)
            return None
        return text

    def close(self) -> None:
        """End the current session and, if owned, shut down the service.

        Closing is idempotent and exception-safe: calling it on an
        already-closed environment, or on an environment whose construction
        failed partway (e.g. from ``__del__``), is a no-op. Forked workers
        share the service via reference counting, so any close order is safe.
        """
        self._closed = True
        self._end_session()
        if getattr(self, "_owns_service", False):
            self._owns_service = False
            service = getattr(self, "service", None)
            if service is not None:
                try:
                    service.release()
                except ServiceError:
                    pass

    def __enter__(self) -> "CompilerEnv":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter shutdown
            pass

    def __repr__(self) -> str:
        benchmark = str(self.benchmark.uri) if self.benchmark else None
        return f"{type(self).__name__}(benchmark={benchmark})"
