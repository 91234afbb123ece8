"""The LLVM benchmark suites (Table I of the paper).

Each suite is reproduced as a dataset whose benchmarks are generated
deterministically from the benchmark URI, with a per-suite size profile so
that, e.g., cBench programs span a wide range of module sizes (the source of
the step-time spread in Fig. 6) while csmith programs are uniform
medium-sized translation units.
"""

import hashlib
from typing import Dict, Iterator, List, NamedTuple, Optional

import numpy as np

from repro.core.datasets import Benchmark, Dataset, Datasets
from repro.core.datasets.uri import BenchmarkUri
from repro.errors import BenchmarkInitError, ValidationError
from repro.llvm.datasets.generators import generate_module, llvm_stress_module

# The 23 cBench programs, as named in cbench-v1.
CBENCH_PROGRAMS: Dict[str, int] = {
    # name -> size profile (relative module size scale).
    "adpcm": 6,
    "bitcount": 3,
    "blowfish": 14,
    "bzip2": 40,
    "crc32": 2,
    "dijkstra": 5,
    "ghostscript": 120,
    "gsm": 22,
    "ispell": 30,
    "jpeg-c": 48,
    "jpeg-d": 44,
    "lame": 56,
    "patricia": 4,
    "qsort": 3,
    "rijndael": 16,
    "sha": 5,
    "stringsearch": 3,
    "stringsearch2": 3,
    "susan": 26,
    "tiff2bw": 34,
    "tiff2rgba": 36,
    "tiffdither": 33,
    "tiffmedian": 35,
}

# The 12 CHStone high-level-synthesis programs.
CHSTONE_PROGRAMS: Dict[str, int] = {
    "adpcm": 10,
    "aes": 14,
    "blowfish": 13,
    "dfadd": 8,
    "dfdiv": 9,
    "dfmul": 7,
    "dfsin": 12,
    "gsm": 11,
    "jpeg": 28,
    "mips": 9,
    "motion": 6,
    "sha": 6,
}


class DatasetSpec(NamedTuple):
    """Static description of one suite."""

    name: str
    benchmark_count: int
    description: str
    license: str
    size_scale_range: tuple
    num_functions_range: tuple
    runnable: bool = False
    named_programs: Optional[Dict[str, int]] = None
    sort_order: int = 0


# Benchmark counts follow Table I (CompilerGym column).
DATASET_SPECS: List[DatasetSpec] = [
    DatasetSpec(
        "benchmark://anghabench-v1", 1_041_333,
        "Compile-only C/C++ functions extracted from GitHub (AnghaBench)",
        "Unknown", (2, 8), (1, 3),
    ),
    DatasetSpec(
        "benchmark://blas-v0", 300,
        "Basic Linear Algebra Subprograms routines", "BSD 3-Clause", (4, 12), (1, 3),
    ),
    DatasetSpec(
        "benchmark://cbench-v1", 23,
        "Runnable C benchmarks (cBench)", "BSD 3-Clause", (2, 120), (2, 6),
        runnable=True, named_programs=CBENCH_PROGRAMS, sort_order=-1,
    ),
    DatasetSpec(
        "benchmark://chstone-v0", 12,
        "Benchmarks for C-based high-level synthesis (CHStone)", "Mixed", (6, 28), (2, 5),
        named_programs=CHSTONE_PROGRAMS,
    ),
    DatasetSpec(
        "benchmark://clgen-v0", 996,
        "Synthetically generated OpenCL kernels (CLgen)", "GPL v3", (2, 6), (1, 2),
    ),
    DatasetSpec(
        "benchmark://github-v0", 49_738,
        "C/C++ objects mined from GitHub", "Mixed", (3, 20), (1, 5),
    ),
    DatasetSpec(
        "benchmark://linux-v0", 13_894,
        "Compile-only object files from the Linux kernel", "GPL v2", (4, 24), (2, 6),
    ),
    DatasetSpec(
        "benchmark://mibench-v1", 40,
        "Embedded benchmark suite (MiBench)", "BSD", (4, 30), (2, 5),
    ),
    DatasetSpec(
        "benchmark://npb-v0", 122,
        "NAS Parallel Benchmarks", "NASA Open Source", (8, 36), (2, 6),
    ),
    DatasetSpec(
        "benchmark://opencv-v0", 442,
        "Object files from OpenCV", "Apache 2.0", (6, 30), (2, 6),
    ),
    DatasetSpec(
        "benchmark://poj104-v1", 49_816,
        "Student programming-contest solutions (POJ-104)", "Unknown", (2, 10), (1, 3),
    ),
    DatasetSpec(
        "benchmark://tensorflow-v0", 1_985,
        "Object files from TensorFlow", "Apache 2.0", (6, 32), (2, 6),
    ),
]


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")


def _make_differential_testing_callback(benchmark: Benchmark):
    """Build a semantics-validation callback: differential testing against the
    interpreter output of the benchmark's unoptimized module.

    The reference is ``benchmark.program`` itself — the pristine module nobody
    mutates — read when validation runs, so attaching the callback generates
    nothing.
    """

    def callback(env):
        from repro.llvm.interpreter import ExecutionError, run_module
        from repro.llvm.ir.parser import parse_module

        errors = []
        try:
            expected = run_module(benchmark.program, max_steps=500_000)
        except ExecutionError as error:
            return [ValidationError(type="Reference execution failed", data={"error": str(error)})]
        try:
            optimized_ir = env.observation["Ir"]
            optimized = parse_module(optimized_ir)
            actual = run_module(optimized, max_steps=500_000)
        except ExecutionError as error:
            return [ValidationError(type="Optimized program crashed", data={"error": str(error)})]
        except Exception as error:  # noqa: BLE001 - malformed IR is a validation failure
            return [ValidationError(type="Optimized program is malformed", data={"error": str(error)})]
        if actual != expected:
            errors.append(
                ValidationError(
                    type="Differential test failed: output mismatch",
                    data={
                        "expected_return": expected.return_value,
                        "actual_return": actual.return_value,
                    },
                )
            )
        return errors

    return callback


class LlvmSyntheticDataset(Dataset):
    """A finite suite whose benchmarks are generated from their URI."""

    def __init__(self, spec: DatasetSpec):
        super().__init__(
            name=spec.name,
            description=spec.description,
            license=spec.license,
            benchmark_count=spec.benchmark_count,
            sort_order=spec.sort_order,
            validatable="Yes" if spec.runnable else "No",
        )
        self.spec = spec

    def benchmark_uris(self) -> Iterator[str]:
        if self.spec.named_programs:
            for program in sorted(self.spec.named_programs):
                yield f"{self.name}/{program}"
        else:
            for index in range(self.spec.benchmark_count):
                yield f"{self.name}/{index}"

    def _profile(self, path: str) -> tuple:
        """Per-benchmark generator parameters derived from the URI."""
        digest = _stable_hash(f"{self.name}/{path}")
        lo, hi = self.spec.size_scale_range
        flo, fhi = self.spec.num_functions_range
        if self.spec.named_programs and path in self.spec.named_programs:
            size_scale = self.spec.named_programs[path]
        else:
            size_scale = lo + digest % max(1, hi - lo + 1)
        num_functions = flo + (digest >> 16) % max(1, fhi - flo + 1)
        return digest, size_scale, num_functions

    def benchmark_from_parsed_uri(self, uri: BenchmarkUri) -> Benchmark:
        path = uri.path
        if not path:
            raise BenchmarkInitError(f"No benchmark specified: {uri}")
        if self.spec.named_programs:
            if path not in self.spec.named_programs:
                raise LookupError(f"Unknown benchmark: {uri}")
        else:
            if not path.isdigit() or not 0 <= int(path) < self.spec.benchmark_count:
                raise LookupError(f"Unknown benchmark: {uri}")
        seed, size_scale, num_functions = self._profile(path)
        runnable = self.spec.runnable
        name = f"{self._uri.dataset}/{path}"
        # The URI is validated above; the program is generated on first read.
        # ``generate_module`` is looked up at call time, so instrumentation
        # that rebinds this module's name counts the call.
        benchmark = Benchmark.from_program_factory(
            str(uri),
            lambda: generate_module(
                seed=seed,
                size_scale=size_scale,
                num_functions=num_functions,
                num_helpers=2 + seed % 3,
                runnable=runnable,
                name=name,
            ),
        )
        if runnable:
            benchmark.dynamic_config["runnable"] = True
            benchmark.add_validation_callback(_make_differential_testing_callback(benchmark))
        return benchmark

    def _random_benchmark(self, random_state: np.random.Generator) -> Benchmark:
        if self.spec.named_programs:
            names = sorted(self.spec.named_programs)
            choice = names[int(random_state.integers(len(names)))]
        else:
            choice = str(int(random_state.integers(self.spec.benchmark_count)))
        return self.benchmark(f"{self.name}/{choice}")


class LlvmGeneratorDataset(Dataset):
    """An unbounded program-generator dataset (csmith, llvm-stress).

    Benchmarks are addressed by 32-bit seed: ``generator://csmith-v0/42``.
    """

    def __init__(self, name: str, description: str, generator: str):
        super().__init__(
            name=name,
            description=description,
            license="NCSA" if "llvm" in name else "BSD",
            benchmark_count=0,
            validatable="Yes" if generator == "csmith" else "No",
        )
        self.generator = generator
        self.seed_max = 2**32

    def benchmark_uris(self) -> Iterator[str]:
        for seed in range(self.seed_max):
            yield f"{self.name}/{seed}"

    def benchmark_from_parsed_uri(self, uri: BenchmarkUri) -> Benchmark:
        if not uri.path.isdigit():
            raise LookupError(f"Generator benchmarks are addressed by integer seed: {uri}")
        seed = int(uri.path)
        if not 0 <= seed < self.seed_max:
            raise LookupError(f"Seed out of range: {seed}")
        if self.generator == "csmith":
            benchmark = Benchmark.from_program_factory(
                str(uri),
                lambda: generate_module(
                    seed=seed,
                    size_scale=5 + seed % 8,
                    num_functions=2 + seed % 3,
                    num_helpers=2,
                    runnable=True,
                    name=f"csmith/{seed}",
                ),
            )
            benchmark.dynamic_config["runnable"] = True
            benchmark.add_validation_callback(_make_differential_testing_callback(benchmark))
            return benchmark
        return Benchmark.from_program_factory(
            str(uri),
            lambda: llvm_stress_module(seed=seed, num_instructions=80 + seed % 120),
        )

    def _random_benchmark(self, random_state: np.random.Generator) -> Benchmark:
        return self.benchmark(f"{self.name}/{int(random_state.integers(self.seed_max))}")


def make_llvm_datasets() -> Datasets:
    """Construct the full dataset inventory of the LLVM environment."""
    datasets = Datasets()
    for spec in DATASET_SPECS:
        datasets.add(LlvmSyntheticDataset(spec))
    datasets.add(
        LlvmGeneratorDataset(
            "generator://csmith-v0",
            "Random runnable C programs (Csmith-style generator, 32-bit seed space)",
            generator="csmith",
        )
    )
    datasets.add(
        LlvmGeneratorDataset(
            "generator://llvm-stress-v0",
            "Random structurally-valid IR (llvm-stress-style generator, 32-bit seed space)",
            generator="llvm-stress",
        )
    )
    return datasets
