"""Unit tests for the service runtime: benchmark cache, session management,
fault tolerance."""

import os
import subprocess
import sys
import tempfile
import threading
import time

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

new_session_id = ServiceConnection.new_session_id


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
            StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/5", observation_space_names=["value"])
        )
        assert reply.observations[0] == 5

    def test_step_applies_actions_in_batch(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))
        reply = runtime.step(
            StepRequest(session_id=session.session_id, actions=[1, 1, 1], observation_space_names=["value"])
        )
        assert reply.observations[0] == 3
        assert not reply.action_had_no_effect

    def test_action_had_no_effect(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))
        reply = runtime.step(StepRequest(session_id=session.session_id, actions=[0]))
        assert reply.action_had_no_effect

    def test_fork_session_is_independent(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))
        runtime.step(StepRequest(session_id=session.session_id, actions=[1]))
        fork = runtime.fork_session(ForkSessionRequest(session_id=session.session_id, fork_id=new_session_id()))
        runtime.step(StepRequest(session_id=session.session_id, actions=[1]))
        original = runtime.step(
            StepRequest(session_id=session.session_id, actions=[], observation_space_names=["value"])
        )
        forked = runtime.step(
            StepRequest(session_id=fork.session_id, actions=[], observation_space_names=["value"])
        )
        assert original.observations[0] == 2
        assert forked.observations[0] == 1

    def test_end_session(self):
        runtime = _runtime()
        session = runtime.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))
        reply = runtime.end_session(EndSessionRequest(session_id=session.session_id))
        assert reply.remaining_sessions == 0
        with pytest.raises(SessionNotFound):
            runtime.step(StepRequest(session_id=session.session_id, actions=[]))

    def test_benchmark_cache_amortizes_resolution(self):
        runtime = _runtime()
        for _ in range(3):
            runtime.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/9"))
        assert runtime.benchmark_cache.hits == 2
        assert runtime.benchmark_cache.misses >= 1

    def test_unknown_observation_space(self):
        runtime = _runtime()
        with pytest.raises(ServiceError, match="Unknown observation space: 'nope'"):
            runtime.start_session(
                StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0", observation_space_names=["nope"])
            )
        session = runtime.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))
        with pytest.raises(ServiceError, match="Unknown observation space: 'nope'"):
            runtime.step(
                StepRequest(session_id=session.session_id, actions=[1], observation_space_names=["nope"])
            )
        # The request was refused whole: its action was not applied.
        reply = runtime.step(
            StepRequest(session_id=session.session_id, actions=[], observation_space_names=["value"])
        )
        assert reply.observations[0] == 0


class _GatedLock:
    """A session lock that holds the calls of one thread at its door until
    ``opened`` is set: ``waiting`` is set once that thread has asked."""

    def __init__(self, thread_name: str):
        self._lock = threading.Lock()
        self._thread_name = thread_name
        self.waiting, self.opened = threading.Event(), threading.Event()

    def __enter__(self):
        if threading.current_thread().name == self._thread_name:
            self.waiting.set()
            assert self.opened.wait(10)
        self._lock.acquire()

    def __exit__(self, *exc_info):
        self._lock.release()


class TestSessionIdReuse:
    """A start under an id the caller holds replaces that session, so ids are
    reused: a call that waited for an entry's lock must find its id still
    mapping to that entry, not merely to an entry."""

    def _replace_while_held(self, runtime, call):
        """Run ``call`` on another thread, hold it at session 7's lock, and
        replace session 7 meanwhile. Returns what ``call`` returned or
        raised, and the replaced entry."""
        old = runtime.sessions[7]
        old.lock = gate = _GatedLock("held")
        outcome = []

        def run():
            try:
                outcome.append(call())
            except Exception as error:  # noqa: BLE001 - the outcome under test
                outcome.append(error)

        thread = threading.Thread(target=run, name="held")
        thread.start()
        assert gate.waiting.wait(10)
        runtime.start_session(StartSessionRequest(
            session_id=7, benchmark_uri="benchmark://t-v0/5", observation_space_names=["value"]
        ))
        gate.opened.set()
        thread.join(10)
        assert not thread.is_alive()
        return outcome[0], old

    def _value(self, runtime):
        reply = runtime.step(StepRequest(session_id=7, observation_space_names=["value"]))
        return reply.observations[0]

    def test_a_step_that_waited_on_a_replaced_session_runs_nowhere(self):
        runtime = _runtime()
        runtime.start_session(StartSessionRequest(
            session_id=7, benchmark_uri="benchmark://t-v0/0", observation_space_names=["value"]
        ))
        outcome, old = self._replace_while_held(
            runtime, lambda: runtime.step(StepRequest(session_id=7, actions=[1]))
        )
        assert isinstance(outcome, SessionNotFound)
        assert old.session.value == 0 and not old.pure
        assert self._value(runtime) == 5

    def test_the_reaper_leaves_a_replacement_in_the_table(self):
        runtime = _runtime()
        runtime.start_session(StartSessionRequest(session_id=7, benchmark_uri="benchmark://t-v0/0"))
        runtime.sessions[7].last_used -= 100
        outcome, old = self._replace_while_held(runtime, lambda: runtime.end_idle_sessions(10))
        assert outcome == 0
        assert runtime.sessions[7] is not old and self._value(runtime) == 5

    def _overtake(self, runtime, call, gate):
        """Run ``call`` on a thread until it stops at ``gate``, start session
        7 (benchmark 5) on another thread meanwhile, and open the gate once
        that start holds the id. Returns what each of the two returned or
        raised."""
        outcomes = {}

        def run(name, call):
            try:
                outcomes[name] = call()
            except Exception as error:  # noqa: BLE001 - the outcome under test
                outcomes[name] = error

        threads = [
            threading.Thread(target=run, args=("held", call), name="held"),
            threading.Thread(target=run, name="start", args=("start", lambda: runtime.start_session(
                StartSessionRequest(
                    session_id=7, benchmark_uri="benchmark://t-v0/5",
                    observation_space_names=["value"],
                )
            ))),
        ]
        threads[0].start()
        assert gate.waiting.wait(10)
        threads[1].start()
        deadline = time.monotonic() + 10
        while getattr(runtime.sessions.get(7), "uri", None) != "benchmark://t-v0/5":
            assert time.monotonic() < deadline
            time.sleep(0.001)
        gate.opened.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        return outcomes["held"], outcomes["start"]

    def test_a_start_overtaken_by_a_later_start_under_its_id_is_refused(self):
        """Two starts under one id overlap: the one that took the id last
        wins whichever finishes last, and the other one is refused."""
        runtime = _runtime()
        gate = _GatedLock("held")
        resolve = runtime._resolve_benchmark

        def gated_resolve(uri):
            with gate:
                return resolve(uri)

        runtime._resolve_benchmark = gated_resolve
        held, start = self._overtake(runtime, lambda: runtime.start_session(StartSessionRequest(
            session_id=7, benchmark_uri="benchmark://t-v0/3", observation_space_names=["value"]
        )), gate)
        assert isinstance(held, SessionNotFound)
        assert start.observations == [5]
        assert list(runtime.sessions) == [7] and self._value(runtime) == 5

    def test_a_fork_overtaken_by_a_start_under_its_id_is_refused(self):
        runtime = _runtime()
        runtime.start_session(StartSessionRequest(session_id=8, benchmark_uri="benchmark://t-v0/1"))
        runtime.sessions[8].lock = gate = _GatedLock("held")
        held, start = self._overtake(
            runtime, lambda: runtime.fork_session(ForkSessionRequest(session_id=8, fork_id=7)), gate
        )
        assert isinstance(held, SessionNotFound)
        assert start.observations == [5]
        assert sorted(runtime.sessions) == [7, 8] and self._value(runtime) == 5

    def test_a_start_that_fails_leaves_its_id_free_and_the_replaced_session_ended(self):
        runtime = _runtime()
        runtime.start_session(StartSessionRequest(session_id=7, benchmark_uri="benchmark://t-v0/1"))
        old = runtime.sessions[7]
        with pytest.raises(ServiceError, match="Unknown observation space"):
            runtime.start_session(StartSessionRequest(
                session_id=7, benchmark_uri="benchmark://t-v0/2", observation_space_names=["nope"]
            ))
        assert runtime.sessions == {} and not old.pure

    def test_a_fork_cannot_take_its_parents_id(self):
        runtime = _runtime()
        runtime.start_session(StartSessionRequest(session_id=7, benchmark_uri="benchmark://t-v0/0"))
        entry = runtime.sessions[7]
        with pytest.raises(ServiceError, match="parent's id"):
            runtime.fork_session(ForkSessionRequest(session_id=7, fork_id=7))
        assert runtime.sessions == {7: entry}


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
        session = connection.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))
        connection.step(StepRequest(session_id=session.session_id, actions=[1]))
        assert connection.stats["start_session"].calls == 1
        assert connection.stats["step"].calls == 1
        connection.close()

    def test_crash_triggers_restart_and_retry(self):
        connection = ServiceConnection(
            InProcessTransport(_runtime()), ConnectionOpts(rpc_max_retries=3, retry_wait_seconds=0.001)
        )
        session = connection.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))
        # Action 2 always raises inside the backend. That is the session's
        # error, not a crash: nothing is restarted or retried, and the
        # session steps on.
        with pytest.raises(ServiceError, match="RuntimeError: simulated compiler crash"):
            connection.step(StepRequest(session_id=session.session_id, actions=[2]))
        assert connection.stats["step"].retries == 0
        reply = connection.step(StepRequest(
            session_id=session.session_id, actions=[1], observation_space_names=["value"]
        ))
        assert reply.observations[0] == 1
        connection.close()

    def test_closed_connection_rejects_calls(self):
        connection = ServiceConnection(InProcessTransport(_runtime()))
        connection.close()
        from repro.errors import ServiceIsClosed

        with pytest.raises(ServiceIsClosed):
            connection.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0"))

    def test_context_manager(self):
        with ServiceConnection(InProcessTransport(_runtime())) as connection:
            assert not connection.closed
        assert connection.closed
