"""Process-pool execution backend for :class:`VecCompilerEnv`.

The serial and thread backends drive in-process sessions, which the GIL caps
for compute-bound workloads: however many threads issue service calls, at most
one is *computing* at a time. :class:`ProcessPoolBackend` gives every worker a
private compiler service daemon instead — the ``repro-compilergym serve``
daemon, in a child process on a unix socket — so batched steps compute
concurrently and a compiler crash takes down one worker.

Workers are ordinary daemon-attached environments, rebuilt client-side from a
:class:`WorkerSpec`: the root's ``repro.make`` recipe (``env.spec``), its
benchmark and spaces, the action history to replay, and the pool's
``worker_wrapper``. Only service RPCs cross the process boundary.
"""

import itertools
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.env import CompilerEnv
from repro.core.service.runtime.server import SpawnedDaemon
from repro.core.vector.backends import ThreadPoolBackend, close_quietly


def _make_socket_dir() -> str:
    """A fresh directory only this user can enter (``mkdtemp``: mode 0700)."""
    base = tempfile.gettempdir()
    if len(os.fsencode(base)) > 70:
        # AF_UNIX paths are capped near 100 bytes, "/repro-vec-XXXXXXXX/NNN.sock"
        # takes 27 of them: a deep TMPDIR (job scratch, say) cannot hold sockets.
        base = "/tmp"
    return tempfile.mkdtemp(prefix="repro-vec-", dir=base)


@dataclass(frozen=True)
class WorkerSpec:
    """A recipe for rebuilding one pool worker on another service."""

    env_id: str
    make_kwargs: Dict[str, Any] = field(default_factory=dict)
    actions: Optional[List[Any]] = None
    worker_wrapper: Optional[Callable[[Any], Any]] = None

    @classmethod
    def from_env(cls, env, worker_wrapper: Optional[Callable[[Any], Any]] = None) -> "WorkerSpec":
        """Derive a spec from a live environment: one made by :func:`repro.make`
        (so it carries a ``spec``) and unwrapped — ``worker_wrapper`` is how
        workers get their wrappers."""
        from repro.core.wrappers.core import CompilerEnvWrapper

        if isinstance(env, CompilerEnvWrapper):
            raise ValueError(
                "The process backend needs the raw root environment; apply "
                "wrappers through worker_wrapper instead"
            )
        env_spec = getattr(env, "spec", None)
        if env_spec is None:
            raise ValueError(
                "The process backend can only rebuild environments created by repro.make() "
                "(or make_vec_env(env_id=...)): the root environment has no .spec record"
            )
        benchmark, space, reward = env.benchmark, env.observation_space_spec, env.reward_space
        if benchmark is not None and str(benchmark.uri) not in env._custom_benchmarks:
            # Dataset benchmarks travel by URI. A user-built object stays an object,
            # so the rebuilt env's reset() fails fast: its daemon cannot resolve it.
            benchmark = str(benchmark.uri)
        return cls(
            env_id=env_spec.id,
            # The recipe the env was made from, brought up to its present state.
            make_kwargs=dict(
                env_spec.kwargs,
                benchmark=benchmark,
                observation_space=space.id if space else None,
                reward_space=reward.name if reward else None,
            ),
            actions=list(env.actions) if env.in_episode else None,
            worker_wrapper=worker_wrapper,
        )

    def build(self):
        """Construct the worker: replay the action history on a fresh
        unwrapped environment, then apply the wrapper (its state starts fresh,
        as it does on the ``fork()``-populated backends)."""
        from repro.core.registration import make

        env = make(self.env_id, **self.make_kwargs)
        try:
            if self.actions is not None:
                env.reset()
                if self.actions:
                    env.multistep(self.actions)
            return env if self.worker_wrapper is None else self.worker_wrapper(env)
        except Exception:
            env.close()
            raise


class ProcessPoolBackend(ThreadPoolBackend):
    """Gives every pool worker a private daemon in its own child process.

    The inherited thread pool only *dispatches* here: its threads wait on socket
    replies (releasing the GIL) while the daemons compute. The daemons listen in
    a directory only this user can enter, made on first use, removed with the last.
    """

    name = "process"
    _thread_name_prefix = "vec-env-dispatch"

    def __init__(self, max_workers: Optional[int] = None):
        # None keeps the executor's CPU-based default sizing, so a directly
        # constructed instance still drives a whole pool concurrently.
        super().__init__(max_workers=max_workers)
        # Every live daemon this backend started.
        self._daemons: List[SpawnedDaemon] = []
        self._socket_dir: Optional[str] = None
        self._socket_ids = itertools.count()

    def _spawn_workers(self, spec: WorkerSpec, n: int) -> List[Any]:
        """Start ``n`` more private daemons — all of them before waiting for
        any, so they come up side by side — and attach ``spec``'s worker to
        each. All or nothing: on failure every one of them is stopped."""
        self._socket_dir = self._socket_dir or _make_socket_dir()
        client_only = CompilerEnv.CLIENT_KWARGS
        runtime_kwargs = {k: v for k, v in spec.make_kwargs.items() if k not in client_only}
        daemons: List[SpawnedDaemon] = []
        workers: List[Any] = []
        try:
            for _ in range(n):
                daemon = SpawnedDaemon(
                    spec.env_id,
                    unix_path=os.path.join(self._socket_dir, f"{next(self._socket_ids)}.sock"),
                    session_timeout=None,
                    **runtime_kwargs,
                )
                daemons.append(daemon)
                self._daemons.append(daemon)
            for daemon in daemons:
                attached = dict(spec.make_kwargs, service_url=daemon.url)
                workers.append(replace(spec, make_kwargs=attached).build())
        except Exception:
            for worker in workers:
                close_quietly(worker)
            self._stop(daemons)
            raise
        return workers

    def _daemon_of(self, worker) -> Optional[SpawnedDaemon]:
        """The private daemon ``worker`` is attached to, if it is one of ours."""
        url = getattr(worker, "service_url", None)
        return next((daemon for daemon in self._daemons if daemon.url == url), None)

    def _stop(self, daemons: Iterable[SpawnedDaemon]) -> None:
        for daemon in list(daemons):
            daemon.stop()
            self._daemons.remove(daemon)
        if not self._daemons and self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)
            self._socket_dir = None

    def populate(self, env, n: int, worker_wrapper: Optional[Callable[[Any], Any]]) -> List[Any]:
        """Spawn ``n`` private daemons and attach one worker to each.

        On success the root is closed: its recipe and session state live on in
        the workers. On failure it is left open for the caller, and every daemon
        started here is stopped. A root attached to a daemon (``service_url``)
        is fork-populated like the thread backend instead: that daemon already
        *is* the out-of-process compute, so the workers become sessions on it.
        """
        if getattr(env, "service_url", None):
            return super().populate(env, n, worker_wrapper)
        workers = self._spawn_workers(WorkerSpec.from_env(env, worker_wrapper), n)
        env.close()
        return workers

    def retire_worker(self, worker) -> None:
        daemon = self._daemon_of(worker)
        try:
            worker.close()
        finally:
            self._stop([daemon] if daemon is not None else [])

    def close(self) -> None:
        self._stop(self._daemons)
        super().close()
