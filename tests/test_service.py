"""Unit tests for the service runtime: benchmark cache, session management,
fault tolerance."""

import os
import subprocess
import sys
import tempfile

import pytest

import repro
from repro.core.datasets import Benchmark
from repro.core.service import (
    CompilationSession,
    CompilerGymServiceRuntime,
    ConnectionOpts,
    ServiceConnection,
)
from repro.core.service.proto import (
    EndSessionRequest,
    ForkSessionRequest,
    StartSessionRequest,
    StepRequest,
)
from repro.core.service.runtime.benchmark_cache import BenchmarkCache
from repro.core.service.transport import InProcessTransport
from repro.core.spaces import NamedDiscrete, ObservationSpaceSpec, Scalar
from repro.errors import ServiceError, SessionNotFound


class _CounterSession(CompilationSession):
    """A trivial compiler: the state is a counter, actions add their index."""

    compiler_version = "counter 1.0"
    action_spaces = [NamedDiscrete(["add0", "add1", "add2"], name="counter")]
    observation_spaces = [
        ObservationSpaceSpec("value", 0, Scalar(min=0, max=None, dtype=int), default_value=0),
        ObservationSpaceSpec("crash", 1, Scalar(min=0, max=None, dtype=int), default_value=0),
    ]

    def __init__(self, working_dir, action_space, benchmark):
        super().__init__(working_dir, action_space, benchmark)
        self.value = int(benchmark.program or 0)

    def apply_action(self, action):
        action = int(action)
        if action == 2:
            raise RuntimeError("simulated compiler crash")
        self.value += action
        return False, None, action == 0

    def get_observation(self, observation_space):
        if observation_space.id == "crash":
            raise RuntimeError("simulated observation crash")
        return self.value

    def fork(self):
        forked = _CounterSession(self.working_dir, self.action_space, self.benchmark)
        forked.value = self.value
        return forked


def _resolver(uri: str) -> Benchmark:
    return Benchmark(uri, program=int(uri.rsplit("/", 1)[-1]))


def _runtime() -> CompilerGymServiceRuntime:
    return CompilerGymServiceRuntime(session_type=_CounterSession, benchmark_resolver=_resolver)


class TestBenchmarkCache:
    def test_hit_and_miss_counters(self):
        cache = BenchmarkCache()
        benchmark = Benchmark("benchmark://t-v0/1", program=b"x" * 100)
        assert cache.get("benchmark://t-v0/1") is None
        cache["benchmark://t-v0/1"] = benchmark
        assert cache["benchmark://t-v0/1"] is benchmark
        assert cache.misses == 1
        assert cache.hits == 1

    def test_eviction_respects_max_size(self):
        cache = BenchmarkCache(max_size_in_bytes=250)
        for i in range(5):
            cache[f"benchmark://t-v0/{i}"] = Benchmark(f"benchmark://t-v0/{i}", program=b"x" * 100)
        assert cache.size_in_bytes <= 250 or cache.size == 1
        assert cache.evictions >= 3
        # The most recently inserted entry always survives.
        assert "benchmark://t-v0/4" in cache

    def test_lru_order(self):
        cache = BenchmarkCache(max_size_in_bytes=250)
        cache["a"] = Benchmark("benchmark://t-v0/a", program=b"x" * 100)
        cache["b"] = Benchmark("benchmark://t-v0/b", program=b"x" * 100)
        _ = cache["a"]  # Touch a so that b is the LRU entry.
        cache["c"] = Benchmark("benchmark://t-v0/c", program=b"x" * 100)
        assert "a" in cache
        assert "b" not in cache


class TestRuntime:
    def test_get_spaces(self):
        spaces = _runtime().get_spaces()
        assert [s.name for s in spaces.action_spaces] == ["counter"]
        assert [s.name for s in spaces.observation_spaces] == ["value", "crash"]

    def test_start_session_and_observation(self):
        runtime = _runtime()
        reply = runtime.start_session(
            StartSessionRequest(benchmark_uri="benchmark://t-v0/5", observation_space_names=["value"])
        )
        assert reply.observations[0].value() == 5

    def test_step_applies_actions_in_batch(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))
        reply = runtime.step(
            StepRequest(session_id=session.session_id, actions=[1, 1, 1], observation_space_names=["value"])
        )
        assert reply.observations[0].value() == 3
        assert not reply.action_had_no_effect

    def test_action_had_no_effect(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))
        reply = runtime.step(StepRequest(session_id=session.session_id, actions=[0]))
        assert reply.action_had_no_effect

    def test_fork_session_is_independent(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))
        runtime.step(StepRequest(session_id=session.session_id, actions=[1]))
        fork = runtime.fork_session(ForkSessionRequest(session_id=session.session_id))
        runtime.step(StepRequest(session_id=session.session_id, actions=[1]))
        original = runtime.step(
            StepRequest(session_id=session.session_id, actions=[], observation_space_names=["value"])
        )
        forked = runtime.step(
            StepRequest(session_id=fork.session_id, actions=[], observation_space_names=["value"])
        )
        assert original.observations[0].value() == 2
        assert forked.observations[0].value() == 1

    def test_end_session(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))
        reply = runtime.end_session(EndSessionRequest(session_id=session.session_id))
        assert reply.remaining_sessions == 0
        with pytest.raises(SessionNotFound):
            runtime.step(StepRequest(session_id=session.session_id, actions=[]))

    def test_benchmark_cache_amortizes_resolution(self):
        runtime = _runtime()
        for _ in range(3):
            runtime.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/9"))
        assert runtime.benchmark_cache.hits == 2
        assert runtime.benchmark_cache.misses >= 1

    def test_unknown_observation_space(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))
        with pytest.raises(ServiceError):
            runtime.step(
                StepRequest(session_id=session.session_id, actions=[], observation_space_names=["nope"])
            )


class TestRuntimeWorkingDirectory:
    """A runtime removes the working directory it made, and only that one."""

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def test_make_reset_close_leaves_nothing_behind(self, temp_root):
        env = repro.make("llvm-v0", benchmark="cbench-v1/crc32")
        env.reset()
        assert os.listdir(temp_root) == [os.path.basename(env.service.runtime.working_dir)]
        env.close()
        assert os.listdir(temp_root) == []

    def test_caller_supplied_directory_is_never_removed(self, tmp_path):
        runtime = CompilerGymServiceRuntime(
            session_type=_CounterSession, benchmark_resolver=_resolver, working_dir=str(tmp_path)
        )
        runtime.shutdown()
        assert runtime.working_dir == str(tmp_path) and tmp_path.is_dir()

    def test_a_new_runtime_removes_the_directories_of_dead_ones(self, temp_root):
        """A killed process never removes its directory; the next runtime
        made on the machine does, and leaves the living and strangers be."""
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # Reaped: its pid names no process now.
        dead = temp_root / f"repro-compiler-service-{child.pid}-x1"
        live = temp_root / f"repro-compiler-service-{os.getpid()}-x2"
        strangers = [
            temp_root / "repro-compiler-service-x3", temp_root / f"other-tool-{child.pid}-x4"
        ]
        for directory in [dead, live, *strangers]:
            directory.mkdir()
            (directory / "module.ll").write_text("")
        runtime = _runtime()
        made = os.path.basename(runtime.working_dir)
        assert made.startswith(f"repro-compiler-service-{os.getpid()}-")
        kept = [made, live.name] + [directory.name for directory in strangers]
        assert sorted(os.listdir(temp_root)) == sorted(kept)
        runtime.shutdown()
        assert not os.path.exists(runtime.working_dir)


class TestServiceConnection:
    def test_startup_records_spaces(self):
        connection = ServiceConnection(InProcessTransport(_runtime()))
        assert [s.name for s in connection.spaces.action_spaces] == ["counter"]
        connection.close()

    def test_call_statistics(self):
        connection = ServiceConnection(InProcessTransport(_runtime()))
        session = connection.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))
        connection.step(StepRequest(session_id=session.session_id, actions=[1]))
        assert connection.stats["start_session"].calls == 1
        assert connection.stats["step"].calls == 1
        connection.close()

    def test_crash_triggers_restart_and_retry(self):
        connection = ServiceConnection(
            InProcessTransport(_runtime()), ConnectionOpts(rpc_max_retries=3, retry_wait_seconds=0.001)
        )
        session = connection.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))
        # Action 2 always raises inside the backend. That is the session's
        # error, not a crash: nothing is restarted or retried, and the
        # session steps on.
        with pytest.raises(ServiceError, match="RuntimeError: simulated compiler crash"):
            connection.step(StepRequest(session_id=session.session_id, actions=[2]))
        assert connection.stats["step"].retries == 0
        reply = connection.step(StepRequest(
            session_id=session.session_id, actions=[1], observation_space_names=["value"]
        ))
        assert reply.observations[0].value() == 1
        connection.close()

    def test_closed_connection_rejects_calls(self):
        connection = ServiceConnection(InProcessTransport(_runtime()))
        connection.close()
        from repro.errors import ServiceIsClosed

        with pytest.raises(ServiceIsClosed):
            connection.start_session(StartSessionRequest(benchmark_uri="benchmark://t-v0/0"))

    def test_context_manager(self):
        with ServiceConnection(InProcessTransport(_runtime())) as connection:
            assert not connection.closed
        assert connection.closed
