"""A vectorized pool of compiler environments.

:class:`VecCompilerEnv` drives N compilation sessions through a single
batched ``reset``/``step``/``multistep`` interface, the standard substrate
for parallel policy rollout and parallel autotuning in gym-style systems.

The pool *forks* the root environment N−1 times, so service startup,
benchmark initialization, and the service's benchmark cache are paid once and
shared by every worker — the cheap session cloning that the source paper's
environments-as-a-service architecture is built around. The pool keeps the
workers it was built with until it is closed.

A pool of unwrapped workers steps as one ``step_sessions`` call on the
connection they share, in-process or over a socket. A pool with a wrapped
worker steps its workers one by one, in a loop (``"serial"``) or on a thread
pool of its own (``"thread"``). For several cores or crash isolation per
worker, point ``service_url`` at a ``repro-compilergym gateway --daemons N``
fleet.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.datasets import Benchmark
from repro.errors import SessionNotFound

logger = logging.getLogger(__name__)

#: How a pool runs the per-worker calls of one batch: one after another in the
#: calling thread, or on a thread pool it owns.
BACKENDS = ("serial", "thread")

# Placeholder result returned for workers whose slot in a batched step was
# ``None`` (i.e. masked out, typically because their episode already ended).
SKIPPED_STEP = (None, None, True, {"skipped": True})


def check_backend(backend: str) -> str:
    """Return ``backend`` if it is one of :data:`BACKENDS`, else raise ``ValueError``."""
    if backend not in BACKENDS:
        raise ValueError(
            f"Unknown execution backend {backend!r}: expected one of {BACKENDS}"
        )
    return backend


def close_quietly(closable) -> None:
    """Best-effort ``close()`` for cleanup paths that must not mask the
    original error (or raise during teardown of the remaining resources)."""
    try:
        closable.close()
    except Exception:  # noqa: BLE001 - cleanup must not raise
        pass


class VecCompilerEnv:
    """A pool of environments with a batched Gym-style interface.

    Args:
        env: The root environment. The pool takes ownership: it becomes
            worker 0 and is forked to populate the rest of the pool. Closing
            the pool closes every worker.
        n: The number of workers (must be >= 1), fixed for the pool's life.
        backend: ``"serial"`` (default) runs a batch's per-worker calls one
            after another in the calling thread; ``"thread"`` runs them on a
            ``ThreadPoolExecutor(max_workers=n)`` the pool owns, so round
            trips to a daemon overlap.
        worker_wrapper: Optional callable applied to every worker (including
            the root) after forking, e.g. to impose a ``TimeLimit``. The
            wrapper must preserve the ``CompilerEnv`` interface.
        auto_reset: When True, a worker whose episode ends is reset *within
            the same batched step*: its slot returns the new episode's
            initial observation, ``done=True``, and the final observation of
            the finished episode under ``info["terminal_observation"]`` —
            the standard VecEnv contract for continuous rollout collection.
    """

    def __init__(
        self,
        env,
        n: int,
        backend: str = "serial",
        worker_wrapper: Optional[Callable[[Any], Any]] = None,
        auto_reset: bool = False,
    ):
        if n < 1:
            raise ValueError(f"VecCompilerEnv requires n >= 1, got {n}")
        self.backend = check_backend(backend)
        self.auto_reset = auto_reset
        self.closed = False
        self.workers: List[Any] = []
        self._executor: Optional[ThreadPoolExecutor] = None
        workers: List[Any] = [env]
        wrapped: List[Any] = []
        try:
            for _ in range(n - 1):
                workers.append(env.fork())
            if worker_wrapper is not None:
                for worker in workers:
                    wrapped.append(worker_wrapper(worker))
                workers = wrapped
        except Exception:
            # Construction failed partway. Close every fork through its
            # wrapper when one was applied (a wrapper may hold resources of
            # its own); the raw fork otherwise. The root (index 0) stays
            # open: the caller still owns it.
            for index in range(1, len(workers)):
                close_quietly(wrapped[index] if index < len(wrapped) else workers[index])
            raise
        self.workers = workers
        if backend == "thread":
            self._executor = ThreadPoolExecutor(
                max_workers=n, thread_name_prefix="vec-env-worker"
            )

    # -- pool introspection -------------------------------------------------

    @property
    def num_envs(self) -> int:
        return len(self.workers)

    def __len__(self) -> int:
        return len(self.workers)

    def __getitem__(self, index: int):
        return self.workers[index]

    def __iter__(self):
        return iter(self.workers)

    @property
    def action_space(self):
        """The action space shared by all workers (delegates to worker 0)."""
        return self.workers[0].action_space

    @property
    def observation_space(self):
        return self.workers[0].observation_space

    @property
    def reward_space(self):
        return self.workers[0].reward_space

    @property
    def benchmark(self):
        return self.workers[0].benchmark

    @property
    def episode_rewards(self) -> List[Optional[float]]:
        """The cumulative episode reward of each worker."""
        return [getattr(worker, "episode_reward", None) for worker in self.workers]

    def connection_stats(self) -> Dict[str, Dict[str, float]]:
        """The service-call accounting of the pool's one connection: every
        worker is a fork of the root and shares its ``service``."""
        return self.workers[0].service.stats_summary()

    # -- batched Gym API ----------------------------------------------------

    def _check_open(self, operation: str) -> None:
        if self.closed:
            raise SessionNotFound(
                f"Cannot call {operation}() on a closed VecCompilerEnv"
            )

    def _run(self, fn: Callable[[Any], Any], items: Sequence[Any]) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        The first exception in input order propagates to the caller. A lone
        item runs on the calling thread: there is nothing to overlap it with.
        """
        if self._executor is None or len(items) == 1:
            return [fn(item) for item in items]
        futures = [self._executor.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def _check_batch(self, name: str, batch: Sequence[Any]) -> None:
        if len(batch) != self.num_envs:
            raise ValueError(
                f"{name} must have one entry per worker: "
                f"got {len(batch)}, expected {self.num_envs}"
            )

    def reset(
        self,
        benchmarks: Union[None, str, Sequence[Any]] = None,
        **kwargs,
    ) -> List[Any]:
        """Reset every worker, returning the batch of initial observations.

        ``benchmarks`` may be a single benchmark (applied to all workers) or
        a per-worker sequence; ``None`` keeps each worker's current benchmark.
        Extra keyword arguments are forwarded to every worker's ``reset()``.
        """
        self._check_open("reset")
        if benchmarks is None or isinstance(benchmarks, (str, Benchmark)):
            per_worker = [benchmarks] * self.num_envs
        else:
            per_worker = list(benchmarks)
            self._check_batch("benchmarks", per_worker)

        def reset_one(pair):
            worker, benchmark = pair
            if benchmark is None:
                return worker.reset(**kwargs)
            return worker.reset(benchmark=benchmark, **kwargs)

        return self._run(reset_one, list(zip(self.workers, per_worker)))

    def reset_worker(self, index: int, benchmark=None, **kwargs) -> Any:
        """Reset a single worker, returning its initial observation.

        A batch of one, so it runs on the calling thread. Used by rollout
        collectors to re-assign one worker's benchmark mid-run without
        touching the rest of the pool.
        """
        self._check_open("reset_worker")
        worker = self.workers[index]

        def reset_one(target):
            if benchmark is None:
                return target.reset(**kwargs)
            return target.reset(benchmark=benchmark, **kwargs)

        return self._run(reset_one, [worker])[0]

    def step(
        self,
        actions: Sequence[Any],
        observation_spaces: Optional[List[Any]] = None,
        reward_spaces: Optional[List[Any]] = None,
    ) -> Tuple[List[Any], List[Any], List[bool], List[dict]]:
        """Apply one action per worker. See :meth:`multistep`."""
        self._check_open("step")
        self._check_batch("actions", actions)
        return self.multistep(
            [None if action is None else [action] for action in actions],
            observation_spaces=observation_spaces,
            reward_spaces=reward_spaces,
        )

    def multistep(
        self,
        action_lists: Sequence[Optional[Iterable[Any]]],
        observation_spaces: Optional[List[Any]] = None,
        reward_spaces: Optional[List[Any]] = None,
    ) -> Tuple[List[Any], List[Any], List[bool], List[dict]]:
        """Apply a list of actions to each worker in one batched operation.

        Returns ``(observations, rewards, dones, infos)``, each a list with
        one entry per worker. A ``None`` entry in ``action_lists`` masks the
        corresponding worker out of the batch (its slot receives the
        :data:`SKIPPED_STEP` placeholder with ``done=True``), which is how
        rollout collectors handle workers whose episodes ended early when
        ``auto_reset`` is off. With ``auto_reset`` on, a worker that reports
        ``done`` is reset inside the same batched call: its observation slot
        holds the new episode's initial observation and the terminal
        observation is preserved in ``info["terminal_observation"]``.

        When no stepped worker is wrapped, the whole pool step is a single
        ``step_sessions`` call, which the runtime answers slot by slot: one
        worker's failure ends only its own episode. Otherwise each worker's
        step is its own service call, run in a loop or on the pool's thread
        pool.
        """
        self._check_open("multistep")
        self._check_batch("action_lists", action_lists)
        action_lists = list(action_lists)

        results = self._batched_multistep(
            action_lists, observation_spaces, reward_spaces
        )
        if results is None:
            results = self._fanout_multistep(
                action_lists, observation_spaces, reward_spaces
            )
        observations = [result[0] for result in results]
        rewards = [result[1] for result in results]
        dones = [result[2] for result in results]
        infos = [result[3] for result in results]
        return observations, rewards, dones, infos

    def _fanout_multistep(
        self,
        action_lists: Sequence[Optional[Iterable[Any]]],
        observation_spaces: Optional[List[Any]],
        reward_spaces: Optional[List[Any]],
    ) -> List[Tuple[Any, Any, bool, dict]]:
        """One service call per worker."""
        auto_reset = self.auto_reset

        def step_one(pair):
            worker, actions = pair
            if actions is None:
                return SKIPPED_STEP
            result = worker.multistep(
                list(actions),
                observation_spaces=observation_spaces,
                reward_spaces=reward_spaces,
            )
            if result[2] and auto_reset:
                result = self._auto_reset_worker(worker, result, observation_spaces)
            return result

        return self._run(step_one, list(zip(self.workers, action_lists)))

    def _batched_multistep(
        self,
        action_lists: Sequence[Optional[Iterable[Any]]],
        observation_spaces: Optional[List[Any]],
        reward_spaces: Optional[List[Any]],
    ) -> Optional[List[Tuple[Any, Any, bool, dict]]]:
        """The whole pool step as one ``step_sessions`` call.

        Returns ``None`` when the pool does not qualify — no worker to step,
        a worker whose ``multistep`` is wrapped or overridden, or a worker
        outside an episode (the per-worker path owns that error) — in which
        case the caller falls back to :meth:`_fanout_multistep`.
        """
        from repro.core.env import CompilerEnv

        actionable = [
            (index, worker, actions)
            for index, (worker, actions) in enumerate(zip(self.workers, action_lists))
            if actions is not None
        ]
        if not actionable:
            return None
        for _, worker, _ in actionable:
            # An exact-method check: any wrapper/override (TimeLimit, test
            # doubles) opts the pool out of batching, because only the
            # unmodified CompilerEnv.multistep splits into the prepare/finish
            # phases the batch path re-composes.
            if getattr(type(worker), "multistep", None) is not CompilerEnv.multistep:
                return None
            if not worker.in_episode:
                return None
        # Every worker is a fork of the root and shares its connection.
        connection = self.workers[0].service

        prepared = []
        requests = []
        for index, worker, actions in actionable:
            request, context = worker._prepare_multistep(
                list(actions), observation_spaces, reward_spaces
            )
            prepared.append((index, worker, context))
            requests.append(request)

        try:
            fetches = [outcome.unwrap for outcome in connection.step_sessions(requests)]
        except Exception as batch_error:  # noqa: BLE001 - read by each worker below
            # The batch RPC itself failed (transport loss, daemon death): that
            # is the outcome of every sub-step it carried.
            def fetch_failed(error=batch_error):
                raise error

            fetches = [fetch_failed] * len(prepared)

        # Each worker reads its own outcome exactly as it reads a lone step's.
        # What it does not map to an ended episode (a caller error, say an
        # unknown observation space) is raised once every sibling's result has
        # been applied, so the pool's sessions and clients stay in step.
        results: List[Tuple[Any, Any, bool, dict]] = [SKIPPED_STEP] * self.num_envs
        unmapped = None
        for (index, worker, context), fetch in zip(prepared, fetches):
            try:
                results[index] = worker._finish_multistep(context, fetch)
            except Exception as error:  # noqa: BLE001 - re-raised below
                if unmapped is None:
                    unmapped = error
        if unmapped is not None:
            raise unmapped

        if self.auto_reset:
            reset_indices = [index for index, _, _ in prepared if results[index][2]]
            if reset_indices:
                def reset_one(index):
                    return self._auto_reset_worker(
                        self.workers[index], results[index], observation_spaces
                    )

                for index, result in zip(
                    reset_indices, self._run(reset_one, reset_indices)
                ):
                    results[index] = result
        return results

    def _auto_reset_worker(
        self, worker, result: Tuple[Any, Any, bool, dict], observation_spaces
    ) -> Tuple[Any, Any, bool, dict]:
        """Reset a finished worker in-place per the auto-reset contract."""
        observation, reward, done, info = result
        info = dict(info)
        info["terminal_observation"] = observation
        observation = worker.reset()
        if observation_spaces is not None:
            # The caller asked for explicit spaces; the new episode's initial
            # observation must be expressed in those, not the worker's
            # default space. When the request is exactly the default space,
            # reset() already produced it — skip the re-fetch round trip.
            requested = [getattr(space, "id", space) for space in observation_spaces]
            default = worker.observation_space_spec
            if default is not None and requested == [default.id]:
                observation = [observation]
            else:
                observation = [worker.observation[name] for name in requested]
        return observation, reward, done, info

    def observations(self, spaces: Union[str, Sequence[str]]) -> List[Any]:
        """Batched observation fetch across all workers.

        With a single space name, returns one observation per worker. With a
        sequence of names, returns a list per worker, one entry per requested
        space. Under ``backend="thread"`` the workers' fetches overlap, which
        matters for the expensive spaces (e.g. Programl) on a daemon.
        """
        self._check_open("observations")
        single = isinstance(spaces, str)
        names = [spaces] if single else list(spaces)

        def observe_one(worker):
            values = [worker.observation[name] for name in names]
            return values[0] if single else values

        return self._run(observe_one, self.workers)

    # -- lifecycle ----------------------------------------------------------

    @staticmethod
    def _aggregate_errors(operation: str, errors: List[Exception]) -> Exception:
        """Combine multiple worker errors: raise the first, carry the rest.

        The suppressed errors are logged and attached to the primary
        exception as ``suppressed_errors`` so multi-worker teardown failures
        stay diagnosable.
        """
        primary = errors[0]
        if len(errors) > 1:
            logger.warning(
                "VecCompilerEnv.%s(): %d additional worker error(s) suppressed "
                "behind %r: %s",
                operation,
                len(errors) - 1,
                primary,
                "; ".join(repr(error) for error in errors[1:]),
            )
        try:
            primary.suppressed_errors = tuple(errors[1:])
        except Exception:  # noqa: BLE001 - exotic exceptions may refuse attributes
            pass
        return primary

    def close(self) -> None:
        """Close every worker and the pool's thread pool. Idempotent.

        Every worker is closed even if some fail; the first failure is
        re-raised afterwards with the remaining ones logged and attached as
        ``suppressed_errors``.
        """
        if self.closed:
            return
        self.closed = True
        errors: List[Exception] = []
        for worker in self.workers:
            try:
                worker.close()
            except Exception as error:  # noqa: BLE001 - close all before raising
                errors.append(error)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if errors:
            raise self._aggregate_errors("close", errors)

    def __enter__(self) -> "VecCompilerEnv":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter shutdown
            pass

    def __repr__(self) -> str:
        return (
            f"VecCompilerEnv(n={self.num_envs}, backend={self.backend}, "
            f"worker={self.workers[0]!r})"
        )


def make_vec_env(
    env_id: Optional[str] = None,
    n: int = 1,
    backend: str = "serial",
    env=None,
    worker_wrapper: Optional[Callable[[Any], Any]] = None,
    auto_reset: bool = False,
    **make_kwargs,
) -> VecCompilerEnv:
    """Construct a :class:`VecCompilerEnv` from an environment ID or instance.

    >>> vec = make_vec_env("llvm-v0", n=4, backend="thread",
    ...                    benchmark="cbench-v1/qsort",
    ...                    reward_space="IrInstructionCount")
    """
    if (env_id is None) == (env is None):
        raise ValueError("Provide exactly one of env_id or env")
    owns_root = env is None
    if owns_root:
        from repro.core.registration import make

        env = make(env_id, **make_kwargs)
    elif make_kwargs:
        raise ValueError("make_kwargs are only valid with env_id")
    try:
        return VecCompilerEnv(
            env,
            n=n,
            backend=backend,
            worker_wrapper=worker_wrapper,
            auto_reset=auto_reset,
        )
    except Exception:
        # Pool construction failed. A caller-provided env remains the
        # caller's to close, but an env we constructed from env_id here
        # would leak its service if we didn't release it before re-raising.
        if owns_root:
            close_quietly(env)
        raise
