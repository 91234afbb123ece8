"""Tests for the LLVM benchmark generators and dataset suites."""

import itertools
import sys
import threading

import pytest

import repro
from repro.core.datasets import Benchmark
from repro.core.service.runtime.server import make_env_server
from repro.errors import BenchmarkInitError
from repro.llvm.datasets import generators
from repro.llvm.datasets.generators import generate_module, llvm_stress_module
from repro.llvm.datasets.suites import (
    CBENCH_PROGRAMS,
    CHSTONE_PROGRAMS,
    DATASET_SPECS,
    make_llvm_datasets,
)
from repro.llvm.ir.printer import print_module
from repro.llvm.ir.verifier import verify_module


class TestGenerators:
    def test_determinism(self):
        a = generate_module(123, size_scale=5)
        b = generate_module(123, size_scale=5)
        assert print_module(a) == print_module(b)

    def test_different_seeds_differ(self):
        assert print_module(generate_module(1)) != print_module(generate_module(2))

    def test_size_scale_controls_size(self):
        small = generate_module(9, size_scale=2)
        large = generate_module(9, size_scale=20)
        assert large.instruction_count > small.instruction_count * 2

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_modules_verify(self, seed):
        assert verify_module(generate_module(seed), raise_on_error=False) == []

    def test_modules_contain_optimization_opportunities(self):
        from repro.llvm.passes.registry import OZ_PIPELINE, run_pipeline

        module = generate_module(42, size_scale=8)
        before = module.instruction_count
        run_pipeline(module, OZ_PIPELINE)
        # The generator plants enough redundancy that -Oz removes >25%.
        assert module.instruction_count < before * 0.75

    def test_llvm_stress_determinism_and_validity(self):
        a = llvm_stress_module(7)
        b = llvm_stress_module(7)
        assert print_module(a) == print_module(b)
        assert verify_module(a, raise_on_error=False) == []


class TestDatasetInventory:
    def test_table1_dataset_names_present(self):
        datasets = make_llvm_datasets()
        names = {d.name for d in datasets}
        expected = {
            "benchmark://anghabench-v1", "benchmark://blas-v0", "benchmark://cbench-v1",
            "benchmark://chstone-v0", "benchmark://clgen-v0", "benchmark://github-v0",
            "benchmark://linux-v0", "benchmark://mibench-v1", "benchmark://npb-v0",
            "benchmark://opencv-v0", "benchmark://poj104-v1", "benchmark://tensorflow-v0",
            "generator://csmith-v0", "generator://llvm-stress-v0",
        }
        assert expected <= names

    def test_table1_benchmark_counts(self):
        datasets = make_llvm_datasets()
        counts = {
            "benchmark://anghabench-v1": 1_041_333,
            "benchmark://blas-v0": 300,
            "benchmark://cbench-v1": 23,
            "benchmark://chstone-v0": 12,
            "benchmark://clgen-v0": 996,
            "benchmark://github-v0": 49_738,
            "benchmark://linux-v0": 13_894,
            "benchmark://mibench-v1": 40,
            "benchmark://npb-v0": 122,
            "benchmark://opencv-v0": 442,
            "benchmark://poj104-v1": 49_816,
            "benchmark://tensorflow-v0": 1_985,
        }
        for name, count in counts.items():
            assert datasets[name].size == count

    def test_total_excluding_generators_matches_table1(self):
        datasets = make_llvm_datasets()
        total = sum(d.size for d in datasets if d.protocol == "benchmark")
        # The CompilerGym column of Table I sums to 1,158,701 benchmarks (the
        # prose quotes 1,145,499, which excludes a couple of suites); this
        # reproduction matches the per-dataset counts exactly.
        assert total == 1_158_701

    def test_generators_are_unbounded(self):
        datasets = make_llvm_datasets()
        assert datasets["generator://csmith-v0"].size == 0
        assert datasets["generator://llvm-stress-v0"].size == 0

    def test_cbench_program_names(self):
        datasets = make_llvm_datasets()
        uris = list(datasets["benchmark://cbench-v1"].benchmark_uris())
        assert len(uris) == 23
        assert "benchmark://cbench-v1/qsort" in uris
        assert "benchmark://cbench-v1/ghostscript" in uris
        assert set(CBENCH_PROGRAMS) == {uri.rsplit("/", 1)[-1] for uri in uris}

    def test_chstone_program_names(self):
        assert len(CHSTONE_PROGRAMS) == 12

    def test_benchmark_generation_by_uri_is_deterministic(self):
        datasets = make_llvm_datasets()
        a = datasets.benchmark("benchmark://npb-v0/5")
        b = datasets.benchmark("benchmark://npb-v0/5")
        assert print_module(a.program) == print_module(b.program)

    def test_cbench_size_spread(self):
        # Figure 6's step-time spread comes from the wide range of cBench
        # program sizes; check the generated programs reproduce it.
        datasets = make_llvm_datasets()
        crc32 = datasets.benchmark("benchmark://cbench-v1/crc32").program.instruction_count
        ghostscript = datasets.benchmark("benchmark://cbench-v1/ghostscript").program.instruction_count
        assert ghostscript > crc32 * 10

    def test_out_of_range_benchmark_rejected(self):
        datasets = make_llvm_datasets()
        with pytest.raises(LookupError):
            datasets.benchmark("benchmark://cbench-v1/not-a-benchmark")
        with pytest.raises(LookupError):
            datasets.benchmark("benchmark://npb-v0/99999")

    def test_csmith_generator_benchmarks(self):
        datasets = make_llvm_datasets()
        benchmark = datasets.benchmark("generator://csmith-v0/17")
        assert benchmark.program.instruction_count > 0
        assert benchmark.is_validatable()

    def test_lazy_iteration_over_large_dataset(self):
        datasets = make_llvm_datasets()
        uris = list(itertools.islice(datasets["benchmark://anghabench-v1"].benchmark_uris(), 10))
        assert len(uris) == 10

    def test_cbench_benchmarks_are_validatable(self):
        datasets = make_llvm_datasets()
        assert datasets.benchmark("benchmark://cbench-v1/qsort").is_validatable()
        assert not datasets.benchmark("benchmark://npb-v0/0").is_validatable()


@pytest.fixture()
def generations(monkeypatch):
    """The thread of every ``generate_module``/``llvm_stress_module`` call made
    while the test runs, counted at every binding site: ``from m import f``
    copies the binding, so patching the defining module alone would miss the
    datasets' calls (the pitfall ``bench/trace.py`` documents)."""
    calls = []
    for name in ("generate_module", "llvm_stress_module"):
        original = vars(generators)[name]

        def counted(*args, _original=original, **kwargs):
            calls.append(threading.current_thread())
            return _original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for bound, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, bound, counted)
    return calls


LAZY_URIS = [
    "benchmark://cbench-v1/crc32",
    "benchmark://npb-v0/5",
    "generator://csmith-v0/17",
    "generator://llvm-stress-v0/9",
]


class TestLazyPrograms:
    @pytest.mark.parametrize("uri", LAZY_URIS)
    def test_resolving_generates_nothing_and_first_read_generates_once(self, generations, uri):
        datasets = make_llvm_datasets()
        benchmark = datasets.benchmark(uri)
        assert datasets[uri].benchmark(uri) == benchmark
        assert str(benchmark.uri) == uri
        benchmark.is_validatable(), benchmark.dynamic_config, repr(benchmark), hash(benchmark)
        assert generations == []
        program = benchmark.program
        assert len(generations) == 1 and program.instruction_count > 0
        assert benchmark.program is program and len(generations) == 1
        # A second resolve is a second benchmark: sharing one pristine module
        # per URI is the service's BenchmarkCache's job, not the dataset's.
        assert datasets.benchmark(uri).program is not program

    def test_selecting_a_benchmark_on_an_env_generates_nothing(self, generations):
        with repro.make("llvm-v0") as env:
            for uri in LAZY_URIS:
                env.benchmark = uri
                assert str(env.benchmark.uri) == uri
            assert generations == []
            # reset() does generate: the in-process service reads the program.
            env.reset(benchmark=LAZY_URIS[0])
            env.reset(benchmark=LAZY_URIS[0])
            assert len(generations) == 1

    def test_racing_first_reads_generate_once(self, generations):
        benchmark = make_llvm_datasets().benchmark("benchmark://cbench-v1/susan")
        barrier = threading.Barrier(8)
        programs = []

        def read():
            barrier.wait(timeout=30)
            programs.append(benchmark.program)

        threads = [threading.Thread(target=read) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(programs) == 8 and all(program is programs[0] for program in programs)
        assert len(generations) == 1

    @pytest.mark.parametrize(
        "uri, error",
        [
            ("benchmark://cbench-v1/not-a-benchmark", LookupError),
            ("benchmark://npb-v0/99999", LookupError),
            ("benchmark://npb-v0/x", LookupError),
            ("generator://csmith-v0/abc", LookupError),
            ("generator://csmith-v0/4294967296", LookupError),
            ("generator://llvm-stress-v0/-1", LookupError),
            ("benchmark://nope-v0/1", LookupError),
            ("benchmark://cbench-v1", BenchmarkInitError),
        ],
    )
    def test_unknown_uris_still_fail_when_resolved(self, llvm_env, uri, error):
        """Laziness defers generation, not validation: same call, same type."""
        with pytest.raises(error):
            make_llvm_datasets().benchmark(uri)
        in_use = llvm_env.benchmark
        with pytest.raises(error):
            llvm_env.benchmark = uri
        assert llvm_env.benchmark is in_use

    def test_explicit_and_dict_programs_are_untouched(self, generations, gcc_env, loop_tool_env):
        module = generate_module(seed=1, size_scale=2)
        del generations[:]
        benchmark = Benchmark("benchmark://user-v0/mine", program=module)
        assert benchmark.program is module
        benchmark.program = b"bytes"
        assert benchmark.program == b"bytes"
        assert Benchmark("benchmark://user-v0/none").program is None
        assert Benchmark.from_file_contents("benchmark://user-v0/f", b"abc").program == b"abc"
        assert gcc_env.datasets.benchmark("benchmark://chstone-v0/adpcm").program == {
            "benchmark_id": "chstone/adpcm"
        }
        assert set(loop_tool_env.benchmark.program) == {"size"}
        assert generations == []

    def test_daemon_client_generates_nothing(self, generations):
        """Over a daemon the client only names the benchmark: the one
        generation happens on a server thread, none on the caller's."""
        server = make_env_server("llvm-v0").start()
        try:
            with repro.make("llvm-v0", service_url=server.url) as env:
                env.observation_space = "IrInstructionCount"
                for _ in range(3):
                    assert env.reset(benchmark="cbench-v1/qsort") > 0
                assert env.step(0)[0] > 0
        finally:
            server.shutdown()
        assert len(generations) == 1
        assert generations[0] is not threading.current_thread()
