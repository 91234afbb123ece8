"""Vectorized environment pools.

This subpackage provides :class:`VecCompilerEnv`, a fixed-size pool of
compilation sessions driven through a batched ``reset``/``step``/``multistep``
interface with optional auto-reset rollout semantics. Pools execute through a
pluggable backend: ``"serial"`` and ``"thread"`` populate via ``fork()`` and
run in-process, while ``"process"`` gives every worker a private compiler
service daemon in its own child process (an ordinary daemon-attached
environment rebuilt from a :class:`WorkerSpec`) to sidestep the GIL for
compute-bound sessions.
"""

from repro.core.vector.backends import (
    ExecutionBackend,
    SerialBackend,
    ThreadPoolBackend,
    resolve_backend,
)
from repro.core.vector.process import ProcessPoolBackend, WorkerSpec
from repro.core.vector.vec_env import SKIPPED_STEP, VecCompilerEnv, make_vec_env

__all__ = [
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SKIPPED_STEP",
    "SerialBackend",
    "ThreadPoolBackend",
    "VecCompilerEnv",
    "WorkerSpec",
    "make_vec_env",
    "resolve_backend",
]
