"""The GCC flag-tuning environment."""

from typing import List, Optional, Union

from repro.core.datasets import Benchmark, Datasets
from repro.core.env import CompilerEnv
from repro.core.service.connection import ConnectionOpts
from repro.core.spaces.reward import Reward
from repro.gcc.datasets import make_gcc_datasets
from repro.gcc.service import make_gcc_session_type
from repro.llvm.rewards import DeltaReward

DEFAULT_BENCHMARK = "benchmark://chstone-v0/adpcm"


def make_gcc_rewards() -> List[Reward]:
    """The two deterministic reward signals of the GCC environment: the change
    in assembly size and in object-code size."""
    return [
        DeltaReward("asm_size", "asm_size", deterministic=True, platform_dependent=True),
        DeltaReward("obj_size", "obj_size", deterministic=True, platform_dependent=True),
    ]


class GccEnv(CompilerEnv):
    """Command-line flag tuning against the simulated GCC.

    The compiler version is selected with the ``gcc_bin`` string specifier
    (e.g. ``"docker:gcc:11.2.0"`` or ``"gcc-5"``), as in the paper; only the
    version suffix matters for the simulated option space.
    """

    def __init__(
        self,
        benchmark: Optional[Union[str, Benchmark]] = None,
        observation_space: Optional[str] = None,
        reward_space: Optional[str] = None,
        gcc_bin: str = "docker:gcc:11.2.0",
        datasets: Optional[Datasets] = None,
        connection_opts: Optional[ConnectionOpts] = None,
        **kwargs,
    ):
        self.gcc_bin = gcc_bin
        version = self._version_from_specifier(gcc_bin)
        super().__init__(
            session_type=make_gcc_session_type(version),
            datasets=datasets or make_gcc_datasets(),
            rewards=make_gcc_rewards(),
            benchmark=benchmark or DEFAULT_BENCHMARK,
            observation_space=observation_space,
            reward_space=reward_space,
            connection_opts=connection_opts,
            **kwargs,
        )

    @staticmethod
    def _version_from_specifier(specifier: str) -> str:
        """Extract a GCC version from a path or docker image specifier."""
        tail = specifier.rsplit(":", 1)[-1]
        tail = tail.replace("gcc-", "").replace("gcc", "")
        digits = "".join(ch for ch in tail if ch.isdigit() or ch == ".").strip(".")
        return digits or "11.2.0"

    # -- GCC-specific helpers -----------------------------------------------------

    @property
    def gcc_spec(self):
        """The option-space specification of the selected compiler version."""
        return self.session_type.gcc_spec

    @property
    def choices(self) -> List[int]:
        """The current configuration (one choice index per option)."""
        return self.observation["choices"]

    @choices.setter
    def choices(self, choices: List[int]) -> None:
        if not self.in_episode:
            self.reset()
        self.service.handle_session_parameter(
            self._session_id, "gcc.set_choices", ",".join(str(int(v)) for v in choices)
        )

    @property
    def command_line(self) -> str:
        """The GCC command line for the current configuration."""
        return self.observation["command_line"]

    @property
    def asm_size(self) -> int:
        return self.observation["asm_size"]

    @property
    def obj_size(self) -> int:
        return self.observation["obj_size"]


def make_gcc_env(**kwargs) -> GccEnv:
    """Entry point used by the environment registry."""
    return GccEnv(**kwargs)
