"""The LLVM CompilationSession: incremental phase ordering over the simulated IR.

This is the backend half of the LLVM environment. A session holds a working
copy of the benchmark's module; each ``apply_action`` runs one optimization
pass *incrementally* on the already-optimized module (the design that gives
CompilerGym its step-time advantage over recompile-from-scratch baselines, see
Table II), and ``get_observation`` computes any of the environment's
observation spaces from the current module.
"""

import contextlib
import hashlib
import random
import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.datasets.benchmark import Benchmark
from repro.core.service.compilation_session import CompilationSession, LazyFork
from repro.core.spaces import Box, Commandline, CommandlineFlag, ObservationSpaceSpec, Scalar, SequenceSpace
from repro.core.spaces.space import Space
from repro.llvm.analysis.autophase import AUTOPHASE_DIMS, autophase_function_features
from repro.llvm.analysis.inst2vec import inst2vec_embeddings, inst2vec_preprocess
from repro.llvm.analysis.instcount import (
    INSTCOUNT_DIMS,
    INSTCOUNT_MAX_FEATURE_INDICES,
    combine_function_features,
    instcount_function_features,
    instcount_module_features,
)
from repro.llvm.analysis.programl import programl_graph
from repro.llvm.analysis.summaries import (
    LIVENESS_DIMS,
    LIVENESS_MAX_FEATURE_INDICES,
    REACHINGDEFS_DIMS,
    REACHINGDEFS_MAX_FEATURE_INDICES,
    function_domtree_depth,
    liveness_function_features,
    reachingdefs_function_features,
)
from repro.llvm.cost.binary_size import object_text_size_bytes
from repro.llvm.cost.code_size import ir_instruction_count
from repro.llvm.cost.runtime import measure_runtime
from repro.llvm.ir.journal import Journal
from repro.llvm.ir.module import Module
from repro.llvm.ir.printer import print_module
from repro.errors import ServiceError
from repro.llvm.ir.verifier import verify_module
from repro.llvm.passes.registry import (
    ACTION_SPACE_PASSES,
    O3_PIPELINE,
    OZ_PIPELINE,
    run_pass,
    run_pipeline,
)

_PASS_DESCRIPTIONS = {name: f"Run the -{name} optimization pass" for name in ACTION_SPACE_PASSES}

# Baseline pipelines are computed once per benchmark and published onto the
# shared benchmark object. The lock serializes concurrent sessions landing on
# an un-baselined benchmark (one daemon can step many sessions in parallel);
# without it two sessions would duplicate the multi-pipeline work and one
# could read a torn, partially-populated dict.
_BASELINES_LOCK = threading.Lock()


def _copy_observation(value):
    """Defensive copy for cached observation values with mutable types.

    Cached hits hand the same stored object to every caller (including
    in-process clients that never cross a serialization boundary), so mutable
    containers must not be shared with user code.
    """
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, list):
        return list(value)
    return value


def _make_action_space() -> Commandline:
    return Commandline(
        [
            CommandlineFlag(name=name, flag=f"-{name}", description=_PASS_DESCRIPTIONS[name])
            for name in ACTION_SPACE_PASSES
        ],
        name="PhaseOrdering",
    )


def _make_observation_spaces() -> List[ObservationSpaceSpec]:
    int64_max = np.iinfo(np.int64).max
    specs = [
        ObservationSpaceSpec(
            "Ir", 0, SequenceSpace(size_range=(0, None), dtype=str, name="Ir"),
            deterministic=True, platform_dependent=False, default_value="",
        ),
        ObservationSpaceSpec(
            "IrSha1", 1, SequenceSpace(size_range=(40, 40), dtype=str, name="IrSha1"),
            deterministic=True, platform_dependent=False, default_value="",
        ),
        ObservationSpaceSpec(
            "IrInstructionCount", 2, Scalar(min=0, max=None, dtype=int, name="IrInstructionCount"),
            deterministic=True, platform_dependent=False, default_value=0,
        ),
        ObservationSpaceSpec(
            "IrInstructionCountO0", 3, Scalar(min=0, max=None, dtype=int, name="IrInstructionCountO0"),
            deterministic=True, platform_dependent=False, default_value=0,
        ),
        ObservationSpaceSpec(
            "IrInstructionCountO3", 4, Scalar(min=0, max=None, dtype=int, name="IrInstructionCountO3"),
            deterministic=True, platform_dependent=False, default_value=0,
        ),
        ObservationSpaceSpec(
            "IrInstructionCountOz", 5, Scalar(min=0, max=None, dtype=int, name="IrInstructionCountOz"),
            deterministic=True, platform_dependent=False, default_value=0,
        ),
        ObservationSpaceSpec(
            "InstCount", 6,
            Box(low=0, high=int64_max, shape=(INSTCOUNT_DIMS,), dtype=np.int64, name="InstCount"),
            deterministic=True, platform_dependent=False,
            default_value=np.zeros(INSTCOUNT_DIMS, dtype=np.int64),
        ),
        ObservationSpaceSpec(
            "Autophase", 7,
            Box(low=0, high=int64_max, shape=(AUTOPHASE_DIMS,), dtype=np.int64, name="Autophase"),
            deterministic=True, platform_dependent=False,
            default_value=np.zeros(AUTOPHASE_DIMS, dtype=np.int64),
        ),
        ObservationSpaceSpec(
            "Inst2vec", 8, SequenceSpace(size_range=(0, None), dtype=float, name="Inst2vec"),
            deterministic=True, platform_dependent=False, default_value=[],
        ),
        ObservationSpaceSpec(
            "Inst2vecPreprocessedText", 9,
            SequenceSpace(size_range=(0, None), dtype=str, name="Inst2vecPreprocessedText"),
            deterministic=True, platform_dependent=False, default_value=[],
        ),
        ObservationSpaceSpec(
            "Programl", 10, SequenceSpace(size_range=(0, None), dtype=bytes, name="Programl"),
            deterministic=True, platform_dependent=False, default_value=None,
        ),
        ObservationSpaceSpec(
            "ObjectTextSizeBytes", 11,
            Scalar(min=0, max=None, dtype=int, name="ObjectTextSizeBytes"),
            deterministic=True, platform_dependent=True, default_value=0,
        ),
        ObservationSpaceSpec(
            "ObjectTextSizeO0", 12, Scalar(min=0, max=None, dtype=int, name="ObjectTextSizeO0"),
            deterministic=True, platform_dependent=True, default_value=0,
        ),
        ObservationSpaceSpec(
            "ObjectTextSizeO3", 13, Scalar(min=0, max=None, dtype=int, name="ObjectTextSizeO3"),
            deterministic=True, platform_dependent=True, default_value=0,
        ),
        ObservationSpaceSpec(
            "ObjectTextSizeOz", 14, Scalar(min=0, max=None, dtype=int, name="ObjectTextSizeOz"),
            deterministic=True, platform_dependent=True, default_value=0,
        ),
        ObservationSpaceSpec(
            "Runtime", 15, Scalar(min=0, max=None, dtype=float, name="Runtime"),
            deterministic=False, platform_dependent=True, default_value=0.0,
        ),
        ObservationSpaceSpec(
            "Buildtime", 16, Scalar(min=0, max=None, dtype=float, name="Buildtime"),
            deterministic=False, platform_dependent=True, default_value=0.0,
        ),
        ObservationSpaceSpec(
            "Liveness", 17,
            Box(low=0, high=int64_max, shape=(LIVENESS_DIMS,), dtype=np.int64, name="Liveness"),
            deterministic=True, platform_dependent=False,
            default_value=np.zeros(LIVENESS_DIMS, dtype=np.int64),
        ),
        ObservationSpaceSpec(
            "DomTreeDepth", 18, Scalar(min=0, max=None, dtype=int, name="DomTreeDepth"),
            deterministic=True, platform_dependent=False, default_value=0,
        ),
        ObservationSpaceSpec(
            "ReachingDefs", 19,
            Box(low=0, high=int64_max, shape=(REACHINGDEFS_DIMS,), dtype=np.int64, name="ReachingDefs"),
            deterministic=True, platform_dependent=False,
            default_value=np.zeros(REACHINGDEFS_DIMS, dtype=np.int64),
        ),
    ]
    return specs


class LlvmCompilationSession(CompilationSession):
    """Phase ordering over a working copy of the benchmark module."""

    compiler_version = "repro-llvm 14.0.0 (simulated)"
    action_spaces: List[Space] = [_make_action_space()]
    observation_spaces: List[ObservationSpaceSpec] = _make_observation_spaces()

    def __init__(self, working_dir: str, action_space: Space, benchmark: Benchmark):
        super().__init__(working_dir, action_space, benchmark)
        if not isinstance(benchmark.program, Module):
            raise ValueError(
                f"LLVM benchmarks must carry an IR module, got {type(benchmark.program).__name__}"
            )
        # The session works on its own copy; the cached benchmark stays pristine.
        self.module: Module = benchmark.program.clone()
        self._runtime_rng = random.Random(0xC0FFEE)
        self._runtimes_per_observation = 1
        # Session-incremental observation cache: memoizes deterministic
        # observations per (space_id, module.version), so a no-op step serves
        # every observation with zero recompute. Invalidation is the version
        # counter bumped by run_pass on change.
        self._obs_memo: Dict[str, Tuple[int, Any]] = {}
        # Per-function feature memo for the summable feature spaces: maps
        # space_id -> {function name -> (key, feature value)}, where the key
        # leads with the function's ``stamp`` (the module version at which the
        # pass manager last saw it change), so a pass that touched one
        # function only recomputes that function.
        self._function_memo: Dict[str, Dict[str, Tuple[tuple, Any]]] = {}

    # -- baselines --------------------------------------------------------------

    def _baselines(self) -> Dict[str, int]:
        """O0/Oz/O3 metric baselines, computed once per benchmark and cached on
        the benchmark object (shared across sessions via the benchmark cache).

        The computed dict is published atomically (assignment, not in-place
        update) under a lock, so concurrent sessions either see the complete
        baselines or compute-and-wait — never a torn partial dict.
        """
        cache = self.benchmark.dynamic_config.get("_baselines")
        if cache:
            return cache
        with _BASELINES_LOCK:
            cache = self.benchmark.dynamic_config.get("_baselines")
            if cache:
                return cache
            unoptimized = self.benchmark.program
            oz = self.benchmark.program.clone()
            run_pipeline(oz, OZ_PIPELINE)
            o3 = self.benchmark.program.clone()
            run_pipeline(o3, O3_PIPELINE)
            computed = {
                "IrInstructionCountO0": ir_instruction_count(unoptimized),
                "IrInstructionCountOz": ir_instruction_count(oz),
                "IrInstructionCountO3": ir_instruction_count(o3),
                "ObjectTextSizeO0": object_text_size_bytes(unoptimized),
                "ObjectTextSizeOz": object_text_size_bytes(oz),
                "ObjectTextSizeO3": object_text_size_bytes(o3),
            }
            self.benchmark.dynamic_config["_baselines"] = computed
            return computed

    # -- CompilationSession interface ---------------------------------------------

    def apply_action(self, action) -> Tuple[bool, Optional[Space], bool]:
        index = int(action)
        if not 0 <= index < len(ACTION_SPACE_PASSES):
            raise ValueError(f"Action out of range: {index}")
        pass_name = self.action_space.names[index] if hasattr(self.action_space, "names") else ACTION_SPACE_PASSES[index]
        changed = run_pass(self.module, pass_name)
        if self.verify_ir:
            errors = verify_module(self.module, raise_on_error=False)
            if errors:
                # ServiceError reaches the client as it is, over every
                # transport, and ends only this episode.
                detail = "; ".join(errors[:10])
                raise ServiceError(f"-{pass_name} produced invalid IR: {detail}")
        return False, None, not changed

    def get_observation(self, observation_space: ObservationSpaceSpec):
        space_id = observation_space.id
        if not observation_space.deterministic:
            # Runtime/Buildtime draw from the session RNG; memoizing them
            # would change the observation semantics.
            return self._compute_observation(space_id)
        version = self.module.version
        memo = self._obs_memo.get(space_id)
        if memo is not None and memo[0] == version:
            return _copy_observation(memo[1])
        value = self._compute_observation(space_id)
        self._obs_memo[space_id] = (version, value)
        return _copy_observation(value)

    # -- incremental per-function features ---------------------------------------

    def _module_signature(self) -> int:
        """Hash of the module's (function name, is_declaration) set.

        InstCount's call features depend on whether the *callee* is declared,
        so per-function vectors are additionally keyed on this signature.
        """
        return hash(
            tuple(
                sorted(
                    (name, function.is_declaration)
                    for name, function in self.module.functions.items()
                )
            )
        )

    def _per_function_values(self, space_id: str, compute, extra_key: tuple = ()) -> List[Any]:
        """Per-function feature values, recomputing only changed functions."""
        functions = self.module.functions
        memo = self._function_memo.setdefault(space_id, {})
        for name in [name for name in memo if name not in functions]:
            del memo[name]
        values = []
        for name, function in functions.items():
            key = (function.stamp,) + extra_key
            entry = memo.get(name)
            if entry is None or entry[0] != key:
                entry = (key, compute(function))
                memo[name] = entry
            values.append(entry[1])
        return values

    def _compute_observation(self, space_id: str):
        if space_id == "Ir":
            return print_module(self.module)
        if space_id == "IrSha1":
            return hashlib.sha1(print_module(self.module).encode("utf-8")).hexdigest()
        if space_id == "IrInstructionCount":
            return ir_instruction_count(self.module)
        if space_id in ("IrInstructionCountO0", "IrInstructionCountO3", "IrInstructionCountOz"):
            return self._baselines()[space_id]
        if space_id == "InstCount":
            signature = self._module_signature()
            vectors = self._per_function_values(
                space_id,
                lambda function: instcount_function_features(function, self.module),
                extra_key=(signature,),
            )
            return combine_function_features(
                vectors,
                INSTCOUNT_DIMS,
                INSTCOUNT_MAX_FEATURE_INDICES,
                extra=instcount_module_features(self.module),
            )
        if space_id == "Autophase":
            vectors = self._per_function_values(space_id, autophase_function_features)
            return combine_function_features(vectors, AUTOPHASE_DIMS)
        if space_id == "Inst2vec":
            return inst2vec_embeddings(self.module)
        if space_id == "Inst2vecPreprocessedText":
            return inst2vec_preprocess(self.module)
        if space_id == "Programl":
            return programl_graph(self.module)
        if space_id == "ObjectTextSizeBytes":
            return object_text_size_bytes(self.module)
        if space_id in ("ObjectTextSizeO0", "ObjectTextSizeO3", "ObjectTextSizeOz"):
            return self._baselines()[space_id]
        if space_id == "Runtime":
            measurements = [
                measure_runtime(self.module, rng=self._runtime_rng)
                for _ in range(self._runtimes_per_observation)
            ]
            return measurements[0] if len(measurements) == 1 else measurements
        if space_id == "Buildtime":
            # Build time scales with module size, with measurement noise.
            base = 1e-5 * max(1, self.module.instruction_count)
            return base * max(0.5, self._runtime_rng.gauss(1.0, 0.1))
        if space_id == "Liveness":
            vectors = self._per_function_values(space_id, liveness_function_features)
            return combine_function_features(
                vectors, LIVENESS_DIMS, LIVENESS_MAX_FEATURE_INDICES
            )
        if space_id == "DomTreeDepth":
            depths = self._per_function_values(space_id, function_domtree_depth)
            return max((int(depth) for depth in depths), default=0)
        if space_id == "ReachingDefs":
            vectors = self._per_function_values(space_id, reachingdefs_function_features)
            return combine_function_features(
                vectors, REACHINGDEFS_DIMS, REACHINGDEFS_MAX_FEATURE_INDICES
            )
        raise LookupError(f"Unknown observation space: {space_id!r}")

    def _memo_copies(self) -> Tuple[dict, dict]:
        """Private copies of the two observation memos. The inner dicts are
        copied (they are mutated in place); cached values never are."""
        return dict(self._obs_memo), {
            space: dict(entries) for space, entries in self._function_memo.items()
        }

    def fork(self) -> "LlvmCompilationSession":
        return self.lazy_fork().build()

    def lazy_fork(self) -> "_LazyLlvmFork":
        return _LazyLlvmFork(self)

    def handle_session_parameter(self, key: str, value: str) -> Optional[str]:
        if key == "llvm.set_runtimes_per_observation_count":
            self._runtimes_per_observation = max(1, int(value))
            return value
        if key == "llvm.get_runtimes_per_observation_count":
            return str(self._runtimes_per_observation)
        if key == "llvm.get_verify_ir":
            return "1" if self.verify_ir else "0"
        if key == "llvm.apply_baseline_pipeline":
            pipeline = OZ_PIPELINE if value == "-Oz" else O3_PIPELINE
            run_pipeline(self.module, pipeline)
            return value
        return None


class _LazyLlvmFork(LazyFork):
    """A fork of an LLVM session from which no module has been copied yet."""

    __slots__ = ("parent", "seed")

    def __init__(self, parent: LlvmCompilationSession):
        self.parent = parent
        # Drawn now: the parent's Runtime/Buildtime stream must not depend on
        # whether, or when, this fork is built.
        self.seed = parent._runtime_rng.random()

    @contextlib.contextmanager
    def speculate(self):
        """Run the fork's step on the parent's own module under an undo
        journal. The step gets the memo copies a real fork would. On rollback
        the parent keeps what they gained at or below the restored version:
        text changed inside the speculation is stamped above it, so such an
        entry describes text the parent still has. Entries above it describe
        the step's own changes and are dropped, so a later pass of the
        parent's that reuses their version never meets them."""
        parent = self.parent
        journal = Journal(parent.module)
        obs_memo, function_memo = parent._obs_memo, parent._function_memo
        try:
            parent._obs_memo, parent._function_memo = parent._memo_copies()
            yield parent
        finally:
            journal.rollback()
            version = parent.module.version
            obs_memo.update(
                (space, memo) for space, memo in parent._obs_memo.items() if memo[0] == version
            )
            for space, entries in parent._function_memo.items():
                kept = function_memo.setdefault(space, {})
                kept.update(
                    (name, entry) for name, entry in entries.items() if entry[0][0] <= version
                )
            parent._obs_memo, parent._function_memo = obs_memo, function_memo

    def build(self, onto: Optional[LlvmCompilationSession] = None) -> LlvmCompilationSession:
        parent = self.parent
        forked = onto
        if forked is None:
            forked = LlvmCompilationSession.__new__(LlvmCompilationSession)
            CompilationSession.__init__(
                forked, parent.working_dir, parent.action_space, parent.benchmark
            )
            forked.module = parent.module.clone()
            forked._runtimes_per_observation = parent._runtimes_per_observation
            forked.verify_ir = parent.verify_ir
            # The clone describes identical IR at the same version, so the
            # fork inherits the parent's warm observation caches.
            forked._obs_memo, forked._function_memo = parent._memo_copies()
        forked._runtime_rng = random.Random(self.seed)
        return forked
