"""The GCC CompilationSession: command-line flag tuning over the simulated GCC.

Two interchangeable action spaces are exposed, as in the paper:

1. ``Categorical`` (default): a flat list of discrete actions. Options with
   fewer than ten choices get one direct-set action per choice; options with
   larger cardinalities get eight actions that add or subtract 1, 10, 100, or
   1000 from the current choice index.
2. ``Choices``: an action is a full configuration — a list of integers, one
   choice index per option.
"""

import hashlib
import json
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.datasets.benchmark import Benchmark
from repro.core.service.compilation_session import CompilationSession
from repro.core.spaces import NamedDiscrete, ObservationSpaceSpec, Scalar, SequenceSpace
from repro.core.spaces.space import Space
from repro.gcc.compiler import SimulatedGcc
from repro.gcc.spec import GccSpec

# Threshold below which an option gets direct-set actions; above it, the
# option is manipulated by +-1/10/100/1000 deltas.
DIRECT_SET_THRESHOLD = 10
DELTA_ACTIONS = [1, 10, 100, 1000, -1, -10, -100, -1000]


class GccChoicesSpace(Space):
    """The space of full configuration vectors (one integer per option)."""

    def __init__(self, spec: GccSpec, name: str = "Choices"):
        super().__init__(name=name)
        self.spec = spec

    def sample(self) -> List[int]:
        return [self.rng.randrange(len(option)) for option in self.spec.options]

    def contains(self, value) -> bool:
        if not hasattr(value, "__len__") or len(value) != len(self.spec.options):
            return False
        try:
            return all(0 <= int(v) < len(option) for v, option in zip(value, self.spec.options))
        except (TypeError, ValueError):
            return False

    def __repr__(self) -> str:
        return f"GccChoicesSpace(n_options={len(self.spec.options)})"

    # The spec is a function of the GCC version, so a pickle carries the
    # version and the far side rebuilds it: a frame then names no option class.
    def __getstate__(self) -> dict:
        return {**self.__dict__, "spec": self.spec.gcc_version}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, spec=GccSpec(state["spec"]))


def _build_categorical_actions(spec: GccSpec) -> Tuple[NamedDiscrete, List[Callable]]:
    """Build the flat categorical action space and the per-action appliers.

    Each applier is a function ``(choices) -> None`` mutating the choice
    vector in place.
    """
    names: List[str] = []
    appliers: List[Callable[[List[int]], None]] = []
    for option_index, option in enumerate(spec.options):
        cardinality = len(option)
        if cardinality < DIRECT_SET_THRESHOLD:
            for choice in range(cardinality):
                label = option[choice] or f"{option.name}=<default>"
                names.append(f"set {label}")

                def apply(choices, index=option_index, value=choice):
                    choices[index] = value

                appliers.append(apply)
        else:
            for delta in DELTA_ACTIONS:
                names.append(f"{option.name} {'+' if delta > 0 else ''}{delta}")

                def apply(choices, index=option_index, step=delta, limit=cardinality):
                    choices[index] = min(max(choices[index] + step, 0), limit - 1)

                appliers.append(apply)
    return NamedDiscrete(names, name="Categorical"), appliers


def make_gcc_session_type(gcc_version: str = "11.2.0"):
    """Create a GCC compilation-session class bound to one compiler version.

    The paper selects the compiler by a string specifier (a docker image name
    or local path); here the specifier selects the version of the simulated
    option space.
    """
    spec = GccSpec(gcc_version)
    categorical_space, appliers = _build_categorical_actions(spec)
    choices_space = GccChoicesSpace(spec)

    observation_spaces = [
        ObservationSpaceSpec(
            "source", 0, SequenceSpace(size_range=(0, None), dtype=str, name="source"),
            deterministic=True, platform_dependent=False, default_value="",
        ),
        ObservationSpaceSpec(
            "rtl", 1, SequenceSpace(size_range=(0, None), dtype=str, name="rtl"),
            deterministic=True, platform_dependent=True, default_value="",
        ),
        ObservationSpaceSpec(
            "asm", 2, SequenceSpace(size_range=(0, None), dtype=str, name="asm"),
            deterministic=True, platform_dependent=True, default_value="",
        ),
        ObservationSpaceSpec(
            "asm_size", 3, Scalar(min=0, max=None, dtype=int, name="asm_size"),
            deterministic=True, platform_dependent=True, default_value=0,
        ),
        ObservationSpaceSpec(
            "asm_hash", 4, SequenceSpace(size_range=(40, 40), dtype=str, name="asm_hash"),
            deterministic=True, platform_dependent=True, default_value="",
        ),
        ObservationSpaceSpec(
            "obj_size", 5, Scalar(min=0, max=None, dtype=int, name="obj_size"),
            deterministic=True, platform_dependent=True, default_value=0,
        ),
        ObservationSpaceSpec(
            "instruction_counts", 6,
            SequenceSpace(size_range=(0, None), dtype=str, name="instruction_counts"),
            deterministic=True, platform_dependent=True, default_value="{}",
        ),
        ObservationSpaceSpec(
            "choices", 7, SequenceSpace(size_range=(0, None), dtype=int, name="choices"),
            deterministic=True, platform_dependent=False, default_value=[],
        ),
        ObservationSpaceSpec(
            "command_line", 8, SequenceSpace(size_range=(0, None), dtype=str, name="command_line"),
            deterministic=True, platform_dependent=False, default_value="",
        ),
    ]

    class GccCompilationSession(CompilationSession):
        """Flag tuning for one benchmark against the simulated GCC."""

        def __init__(self, working_dir: str, action_space: Space, benchmark: Benchmark):
            super().__init__(working_dir, action_space, benchmark)
            payload = benchmark.program or {}
            self.benchmark_id = payload.get("benchmark_id", str(benchmark.uri))
            self.gcc = SimulatedGcc(spec)
            self.choices: List[int] = spec.default_choices()
            self._appliers = appliers

        def apply_action(self, action) -> Tuple[bool, Optional[Space], bool]:
            before = list(self.choices)
            if self.action_space is choices_space or isinstance(action, (list, tuple)):
                values = list(action)
                if len(values) != len(spec.options):
                    raise ValueError(
                        f"Choices action must have {len(spec.options)} entries, got {len(values)}"
                    )
                self.choices = [
                    min(max(int(value), 0), len(option) - 1)
                    for value, option in zip(values, spec.options)
                ]
            else:
                index = int(action)
                if not 0 <= index < len(self._appliers):
                    raise ValueError(f"Action out of range: {index}")
                self._appliers[index](self.choices)
            return False, None, self.choices == before

        def get_observation(self, observation_space: ObservationSpaceSpec):
            space_id = observation_space.id
            if space_id == "source":
                return f"/* {self.benchmark_id} (synthetic source placeholder) */"
            if space_id == "rtl":
                return self.gcc.rtl_text(self.benchmark_id, self.choices)
            if space_id == "asm":
                return self.gcc.asm_text(self.benchmark_id, self.choices)
            if space_id == "asm_size":
                return self.gcc.asm_size(self.benchmark_id, self.choices)
            if space_id == "asm_hash":
                return hashlib.sha1(
                    self.gcc.asm_text(self.benchmark_id, self.choices).encode("utf-8")
                ).hexdigest()
            if space_id == "obj_size":
                return self.gcc.obj_size(self.benchmark_id, self.choices)
            if space_id == "instruction_counts":
                return json.dumps(self.gcc.instruction_counts(self.benchmark_id, self.choices))
            if space_id == "choices":
                return list(self.choices)
            if space_id == "command_line":
                return spec.choices_to_commandline(self.choices)
            raise LookupError(f"Unknown observation space: {space_id!r}")

        def fork(self) -> "GccCompilationSession":
            forked = GccCompilationSession(self.working_dir, self.action_space, self.benchmark)
            forked.choices = list(self.choices)
            return forked

        def handle_session_parameter(self, key: str, value: str) -> Optional[str]:
            if key == "gcc.get_version":
                return gcc_version
            if key == "gcc.set_choices":
                self.choices = [int(v) for v in value.split(",")]
                return value
            if key == "gcc.get_choices":
                return ",".join(str(v) for v in self.choices)
            return None

    # Class bodies cannot see enclosing-function locals, so the class-level
    # metadata is attached after the definition.
    GccCompilationSession.compiler_version = f"repro-gcc {gcc_version} (simulated)"
    GccCompilationSession.action_spaces = [categorical_space, choices_space]
    GccCompilationSession.observation_spaces = list(observation_spaces)
    GccCompilationSession.gcc_spec = spec
    GccCompilationSession.__name__ = f"GccCompilationSession_{gcc_version.replace('.', '_')}"
    return GccCompilationSession


# The default session type (GCC 11.2.0), matching the paper's experiments.
GccCompilationSession = make_gcc_session_type("11.2.0")
