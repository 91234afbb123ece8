"""The LLVM phase-ordering environment."""

from typing import Optional, Union

from repro.core.datasets import Benchmark, Datasets
from repro.core.env import CompilerEnv
from repro.core.service.connection import ConnectionOpts
from repro.llvm.datasets.suites import make_llvm_datasets
from repro.llvm.rewards import make_llvm_rewards
from repro.llvm.service import LlvmCompilationSession

# The default benchmark used when none is specified, as in upstream.
DEFAULT_BENCHMARK = "benchmark://cbench-v1/qsort"


class LlvmEnv(CompilerEnv):
    """Phase ordering over the simulated LLVM IR.

    Observation spaces: Ir, IrSha1, IrInstructionCount(+O0/O3/Oz), InstCount,
    Autophase, Inst2vec(+PreprocessedText), Programl, ObjectTextSizeBytes
    (+O0/O3/Oz), Runtime, Buildtime.

    Reward spaces: IrInstructionCount(+Norm/O3/Oz), ObjectTextSizeBytes
    (+Norm/O3/Oz), Runtime.

    Action space: a Commandline space of 124 optimization passes. Episodes
    have no terminal state.
    """

    def __init__(
        self,
        benchmark: Optional[Union[str, Benchmark]] = None,
        observation_space: Optional[str] = None,
        reward_space: Optional[str] = None,
        datasets: Optional[Datasets] = None,
        connection_opts: Optional[ConnectionOpts] = None,
        **kwargs,
    ):
        super().__init__(
            session_type=LlvmCompilationSession,
            datasets=datasets or make_llvm_datasets(),
            rewards=make_llvm_rewards(),
            benchmark=benchmark or DEFAULT_BENCHMARK,
            observation_space=observation_space,
            reward_space=reward_space,
            connection_opts=connection_opts,
            **kwargs,
        )

    # -- LLVM-specific helpers --------------------------------------------------

    @property
    def ir(self) -> str:
        """The textual IR of the current program state."""
        return self.observation["Ir"]

    @property
    def ir_sha1(self) -> str:
        """SHA1 digest of the current program state."""
        return self.observation["IrSha1"]

    def write_ir(self, path: str) -> str:
        """Write the current program state to a text file."""
        with open(path, "w") as f:
            f.write(self.ir)
        return path

    def write_bitcode(self, path: str) -> str:
        """Write the current program state to a 'bitcode' file.

        The simulated compiler has no binary bitcode serialization; the file
        contains the textual IR, which :meth:`make_benchmark` accepts back.
        """
        return self.write_ir(path)

    def make_benchmark(self, ir: str, uri: str = "benchmark://user-v0/custom") -> Benchmark:
        """Create a benchmark from user-supplied IR text (or a path to it)."""
        from repro.llvm.ir.parser import parse_module

        text = ir
        try:
            with open(ir) as f:  # Allow passing a filesystem path.
                text = f.read()
        except (OSError, ValueError):
            pass
        module = parse_module(text)
        return Benchmark(uri=uri, program=module)

    @property
    def runtime_observation_count(self) -> int:
        """Number of runtime measurements returned by the Runtime observation."""
        if not self.in_episode:
            return 1
        value = self.service.handle_session_parameter(
            self._session_id, "llvm.get_runtimes_per_observation_count", ""
        )
        return int(value) if value else 1

    @runtime_observation_count.setter
    def runtime_observation_count(self, count: int) -> None:
        if not self.in_episode:
            self.reset()
        self.service.handle_session_parameter(
            self._session_id, "llvm.set_runtimes_per_observation_count", str(count)
        )

    def apply_baseline_pipeline(self, pipeline: str = "-Oz") -> None:
        """Apply the -Oz or -O3 reference pipeline to the current state."""
        if not self.in_episode:
            self.reset()
        self.service.handle_session_parameter(
            self._session_id, "llvm.apply_baseline_pipeline", pipeline
        )


def make_llvm_env(**kwargs) -> LlvmEnv:
    """Entry point used by the environment registry."""
    return LlvmEnv(**kwargs)
