"""Execution backends for :class:`VecCompilerEnv`.

A backend decides *how* the per-worker service calls of one batched operation
are executed, and *how* the worker pool is populated:

* :class:`SerialBackend` runs batches one after another in the calling thread
  (deterministic ordering, easiest to debug).
* :class:`ThreadPoolBackend` dispatches batches on a ``concurrent.futures``
  thread pool so that the service round-trips of independent sessions overlap
  — the client-side analogue of the paper's environments-as-a-service
  throughput scaling (Fig. 6).
* :class:`~repro.core.vector.process.ProcessPoolBackend` (``"process"``)
  gives every worker a private compiler service daemon in its own child
  process, sidestepping the GIL for compute-bound sessions.

Serial and thread backends populate the pool by ``fork()``-ing the root
environment in-process; the process backend spawns one daemon per worker and
attaches an ordinary daemon-backed environment to each.
"""

from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Union


def close_quietly(closable) -> None:
    """Best-effort ``close()`` for cleanup paths that must not mask the
    original error (or raise during teardown of the remaining resources)."""
    try:
        closable.close()
    except Exception:  # noqa: BLE001 - cleanup must not raise
        pass


class ExecutionBackend:
    """Strategy interface for executing a batch of independent thunks."""

    name = "backend"

    def run(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item, returning results in input order.

        The first exception raised by any call propagates to the caller.
        """
        raise NotImplementedError

    def populate(self, env, n: int, worker_wrapper: Optional[Callable[[Any], Any]]) -> List[Any]:
        """Build the pool's ``n`` workers from the root environment.

        The default (in-process) strategy forks the root ``n - 1`` times and
        applies ``worker_wrapper`` to every worker, root included. On failure
        every fork created so far — wrapped or not — is closed before the
        error propagates; the root itself is left open for the caller.
        """
        workers: List[Any] = [env]
        wrapped: List[Any] = []
        try:
            for _ in range(n - 1):
                workers.append(env.fork())
            if worker_wrapper is not None:
                for worker in workers:
                    wrapped.append(worker_wrapper(worker))
                workers = wrapped
            return workers
        except Exception:
            # Construction failed partway. Close every fork through its
            # wrapper when one was applied (a wrapper may hold resources of
            # its own); the raw fork otherwise. The root (index 0) stays
            # open: the caller still owns it.
            for index in range(1, len(workers)):
                close_quietly(wrapped[index] if index < len(wrapped) else workers[index])
            raise

    def retire_worker(self, worker) -> None:
        """Close one worker of a closing pool."""
        worker.close()

    def close(self) -> None:
        """Release any resources held by the backend."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Executes the batch sequentially in the calling thread.

    Useful for debugging and as the reference implementation that the
    fork/thread/process equivalence tests compare against.
    """

    name = "serial"

    def run(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        return [fn(item) for item in items]


class ThreadPoolBackend(ExecutionBackend):
    """Executes the batch on a shared ``ThreadPoolExecutor``.

    Worker sessions are independent, so their service calls can be issued
    concurrently: against a daemon the round trips overlap on the shared
    socket. In-process there is nothing to wait for, and a thread hand-off
    per step costs more than serial stepping (README, "when to use which
    backend").
    """

    name = "thread"
    _thread_name_prefix = "vec-env-worker"

    def __init__(self, max_workers: Optional[int] = None):
        self._executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix=self._thread_name_prefix
        )
        self._closed = False

    # Fork-populated workers of a daemon-attached root share the root's
    # socket. That is now what we want: the socket transport multiplexes
    # concurrent RPCs by request id, so this backend's batches overlap on
    # the one connection (and batched stepping collapses them into a single
    # round trip) — no per-fork connection re-homing needed.

    def run(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        if self._closed:
            raise RuntimeError(
                f"Cannot run a batch on a closed {type(self).__name__}"
            )
        futures = [self._executor.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._executor.shutdown(wait=True)


def resolve_backend(
    backend: Union[str, ExecutionBackend, None], num_workers: int
) -> ExecutionBackend:
    """Coerce a backend specifier (``"serial"``, ``"thread"``, ``"process"``,
    an instance, or ``None`` for the serial default) to an
    :class:`ExecutionBackend`."""
    if backend is None:
        return SerialBackend()
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "serial":
        return SerialBackend()
    if backend == "thread":
        return ThreadPoolBackend(max_workers=max(1, num_workers))
    if backend == "process":
        from repro.core.vector.process import ProcessPoolBackend

        return ProcessPoolBackend(max_workers=max(1, num_workers))
    raise ValueError(f"Unknown execution backend: {backend!r}")
