"""Vectorized environment pools.

This subpackage provides :class:`VecCompilerEnv`, a fixed-size pool of
compilation sessions driven through a batched ``reset``/``step``/``multistep``
interface with optional auto-reset rollout semantics. A pool forks its root
environment and steps its workers in a loop (``"serial"``) or on a thread pool
of its own (``"thread"``).
"""

from repro.core.vector.vec_env import (
    BACKENDS,
    SKIPPED_STEP,
    VecCompilerEnv,
    check_backend,
    make_vec_env,
)

__all__ = [
    "BACKENDS",
    "SKIPPED_STEP",
    "VecCompilerEnv",
    "check_backend",
    "make_vec_env",
]
