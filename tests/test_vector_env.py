"""Tests for the vectorized environment pool (``repro.core.vector``)."""

import multiprocessing
import os
import random
import shutil
import signal
import tempfile
import time

import numpy as np
import pytest

import repro
from repro.core.vector import (
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    VecCompilerEnv,
    WorkerSpec,
    make_vec_env,
    resolve_backend,
)
from repro.core.wrappers import TimeLimit
from repro.errors import SessionNotFound

BENCHMARK = "cbench-v1/crc32"


def _make_root():
    return repro.make(
        "llvm-v0",
        benchmark=BENCHMARK,
        observation_space="Autophase",
        reward_space="IrInstructionCount",
    )


class _TimeLimitWrapper:
    """A worker_wrapper imposing a step budget on every worker."""

    def __init__(self, max_episode_steps: int):
        self.max_episode_steps = max_episode_steps

    def __call__(self, worker):
        return TimeLimit(worker, max_episode_steps=self.max_episode_steps)


@pytest.fixture(params=["serial", "thread"])
def vec_env(request):
    vec = VecCompilerEnv(_make_root(), n=4, backend=request.param)
    yield vec
    vec.close()


class TestConstruction:
    def test_invalid_pool_size(self):
        env = _make_root()
        try:
            with pytest.raises(ValueError, match="n >= 1"):
                VecCompilerEnv(env, n=0)
        finally:
            env.close()

    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="Unknown execution backend"):
            resolve_backend("fibers", 4)

    def test_make_vec_env_by_id(self):
        with make_vec_env(
            "llvm-v0", n=2, benchmark=BENCHMARK, reward_space="IrInstructionCount"
        ) as vec:
            assert vec.num_envs == 2
            assert str(vec.benchmark.uri) == f"benchmark://{BENCHMARK}"

    def test_make_vec_env_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            make_vec_env()

    def test_pool_introspection(self, vec_env):
        assert len(vec_env) == 4
        assert vec_env[0] is vec_env.workers[0]
        assert list(vec_env) == vec_env.workers
        assert vec_env.action_space.n == 124

    def test_failing_worker_wrapper_cleans_up(self):
        """A wrapper that raises mid-population must not leak forked sessions."""
        env = _make_root()
        calls = []

        def explode(worker):
            calls.append(worker)
            raise RuntimeError("wrapper failed")

        try:
            with pytest.raises(RuntimeError, match="wrapper failed"):
                VecCompilerEnv(env, n=3, backend="thread", worker_wrapper=explode)
            assert calls  # The wrapper did run before failing.
            # The root env is still the caller's to use and close.
            env.reset()
            env.step(0)
        finally:
            env.close()

    def test_wrapped_forks_closed_through_their_wrapper_on_failure(self):
        """Regression: when the wrapper fails partway, forks that were
        already wrapped must be closed *through the wrapper* (which may hold
        resources of its own), not just via the raw fork list."""

        class Recording:
            def __init__(self, worker):
                self.worker = worker
                self.close_calls = 0

            def close(self):
                self.close_calls += 1
                self.worker.close()

        env = _make_root()
        wrapped = []

        def wrap(worker):
            if len(wrapped) == 2:
                raise RuntimeError("wrapper failed late")
            wrapper = Recording(worker)
            wrapped.append(wrapper)
            return wrapper

        try:
            with pytest.raises(RuntimeError, match="wrapper failed late"):
                VecCompilerEnv(env, n=3, worker_wrapper=wrap)
            assert len(wrapped) == 2
            # The fork (index 1) was released through its wrapper; the root's
            # wrapper (index 0) is left open because the caller owns the root.
            assert wrapped[1].close_calls == 1
            assert wrapped[0].close_calls == 0
            env.reset()
            env.step(0)
        finally:
            env.close()

    def test_make_vec_env_closes_constructed_root_on_failure(self):
        """Regression: make_vec_env(env_id=...) must not leak the env it
        constructed when pool population fails."""
        captured = []

        def explode(worker):
            captured.append(worker)
            raise RuntimeError("wrapper failed")

        with pytest.raises(RuntimeError, match="wrapper failed"):
            make_vec_env(
                "llvm-v0",
                n=2,
                benchmark=BENCHMARK,
                reward_space="IrInstructionCount",
                worker_wrapper=explode,
            )
        # The wrapper saw the root first; make_vec_env owned it and must have
        # released it (and, with no forks left, its service) before re-raising.
        root = captured[0]
        assert root.service.closed

    def test_reset_broadcasts_benchmark_object(self):
        """A single Benchmark instance is applied to all workers, like a URI."""
        with VecCompilerEnv(_make_root(), n=2) as vec:
            benchmark = vec.workers[0].datasets.benchmark("benchmark://cbench-v1/sha")
            vec.reset(benchmarks=benchmark)
            assert all(
                str(worker.benchmark.uri) == "benchmark://cbench-v1/sha"
                for worker in vec.workers
            )


class TestBatchedApi:
    def test_reset_with_per_worker_benchmarks(self, vec_env):
        vec_env.reset(
            benchmarks=[BENCHMARK, "cbench-v1/sha", BENCHMARK, "cbench-v1/sha"]
        )
        uris = [str(worker.benchmark.uri) for worker in vec_env.workers]
        assert uris[1] == "benchmark://cbench-v1/sha"
        assert uris[0] == f"benchmark://{BENCHMARK}"

    def test_reset_benchmark_batch_size_mismatch(self, vec_env):
        with pytest.raises(ValueError, match="one entry per worker"):
            vec_env.reset(benchmarks=[BENCHMARK])

    def test_step_batch_size_mismatch(self, vec_env):
        vec_env.reset()
        with pytest.raises(ValueError, match="one entry per worker"):
            vec_env.step([0, 1])

    def test_masked_workers_are_skipped(self, vec_env):
        vec_env.reset()
        observations, rewards, dones, infos = vec_env.multistep([[1], None, [2], None])
        assert dones == [False, True, False, True]
        assert rewards[1] is None and observations[1] is None
        assert infos[1] == {"skipped": True}
        assert vec_env.workers[1].actions == []

    def test_batched_observations_single_space(self, vec_env):
        vec_env.reset()
        counts = vec_env.observations("IrInstructionCount")
        assert len(counts) == 4
        assert all(int(count) > 0 for count in counts)

    def test_batched_observations_multiple_spaces(self, vec_env):
        vec_env.reset()
        batches = vec_env.observations(["IrInstructionCount", "IrSha1"])
        assert len(batches) == 4
        for count, sha in batches:
            assert int(count) > 0
            assert isinstance(sha, str)

    def test_episode_rewards(self, vec_env):
        vec_env.reset()
        vec_env.multistep([[0, 1], [2], [], [3, 4, 5]])
        rewards = vec_env.episode_rewards
        assert len(rewards) == 4
        assert all(reward is not None for reward in rewards)


def _daemon_pids(vec):
    return [worker.service.transport.server_info()["pid"] for worker in vec.workers]


@pytest.fixture
def socket_dirs(monkeypatch):
    """Lists the process backends' socket directories alive right now.

    Temporary files are redirected to a fresh directory so the listing sees
    only this test's.
    """
    root = tempfile.mkdtemp(prefix="rv")
    monkeypatch.setattr(tempfile, "tempdir", root)
    yield lambda: [
        os.path.join(root, name) for name in os.listdir(root) if name.startswith("repro-vec-")
    ]
    shutil.rmtree(root)


def _assert_exited(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


class TestProcessBackend:
    """Process-pool specifics: one private daemon per worker, its lifetime,
    crash isolation, and construction-failure behaviour."""

    def test_every_worker_has_its_own_daemon_process(self):
        with VecCompilerEnv(_make_root(), n=3, backend="process") as vec:
            pids = _daemon_pids(vec)
            assert len(set(pids)) == 3
            assert os.getpid() not in pids
            assert set(pids) <= {child.pid for child in multiprocessing.active_children()}

    def test_close_stops_daemons_and_removes_socket_directory(self, socket_dirs):
        vec = VecCompilerEnv(_make_root(), n=2, backend="process")
        vec.reset()
        pids = _daemon_pids(vec)
        (socket_dir,) = socket_dirs()
        assert sorted(os.listdir(socket_dir)) == ["0.sock", "1.sock"]
        assert os.stat(socket_dir).st_mode & 0o777 == 0o700
        vec.close()
        _assert_exited(pids)
        assert socket_dirs() == []

    def test_sockets_fit_under_a_deep_tmpdir(self, monkeypatch, tmp_path):
        """AF_UNIX paths are capped near 100 bytes, and a TMPDIR (job scratch,
        a nested pytest tmp) can use them all up before the socket's name."""
        deep = tmp_path / ("d" * 60) / ("e" * 60)
        deep.mkdir(parents=True)
        monkeypatch.setattr(tempfile, "tempdir", str(deep))
        with VecCompilerEnv(_make_root(), n=2, backend="process") as vec:
            vec.reset()
            socket_dir = vec.backend._socket_dir
            assert os.path.dirname(socket_dir) == "/tmp"
            assert os.stat(socket_dir).st_mode & 0o777 == 0o700
            assert len(set(_daemon_pids(vec))) == 2
        assert not os.path.exists(socket_dir)

    def test_pool_on_a_caller_owned_backend_takes_its_daemons_with_it(self, socket_dirs):
        with ProcessPoolBackend() as backend:
            with VecCompilerEnv(_make_root(), n=2, backend=backend) as vec:
                pids = _daemon_pids(vec)
            _assert_exited(pids)
            assert socket_dirs() == []
            # The backend itself stays open for the caller's next pool.
            with VecCompilerEnv(_make_root(), n=1, backend=backend) as vec:
                vec.reset()

    def test_populate_failing_on_last_worker_leaves_nothing_behind(self, socket_dirs):
        started = []

        def fail_on_third(worker):
            started.append(worker.service.transport.server_info()["pid"])
            if len(started) == 3:
                raise RuntimeError("wrapper exploded")
            return worker

        env = _make_root()
        try:
            with pytest.raises(RuntimeError, match="wrapper exploded"):
                VecCompilerEnv(env, n=3, backend="process", worker_wrapper=fail_on_third)
            assert len(set(started)) == 3
            _assert_exited(started)
            assert socket_dirs() == []
            # The root remains the caller's to use and close.
            env.reset()
        finally:
            env.close()

    def test_killed_daemon_ends_only_its_own_slot(self, socket_dirs):
        with VecCompilerEnv(_make_root(), n=3, backend="process") as vec:
            vec.reset()
            victim = list(vec.backend._daemons)[1]
            assert victim.pid == _daemon_pids(vec)[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.process.join(timeout=10)
            _, _, dones, infos = vec.step([1, 2, 3])
            assert dones == [False, True, False]
            assert "error_details" in infos[1]
            assert "error_details" not in infos[0] and "error_details" not in infos[2]
            # The siblings' daemons never noticed.
            _, rewards, dones, _ = vec.step([4, None, 5])
            assert dones == [False, True, False]
            assert rewards[0] is not None and rewards[2] is not None
        assert socket_dirs() == []

    def test_user_built_benchmark_fails_fast_like_against_any_daemon(self):
        from repro.errors import BenchmarkInitError

        children_before = set(multiprocessing.active_children())
        env = _make_root()
        try:
            env.reset()
            env.benchmark = env.make_benchmark(
                env.observation["Ir"], uri="benchmark://user-v0/process-test"
            )
            # The root is mid-episode, so each worker replays it on attach.
            with pytest.raises(BenchmarkInitError, match="resolved by the daemon"):
                VecCompilerEnv(env, n=2, backend="process")
            assert set(multiprocessing.active_children()) <= children_before
        finally:
            env.close()

    def test_batched_observations_cross_process(self):
        with VecCompilerEnv(_make_root(), n=2, backend="process") as vec:
            vec.reset()
            counts = vec.observations("IrInstructionCount")
            assert len(counts) == 2
            assert all(int(count) > 0 for count in counts)

    def test_remote_attribute_access(self):
        with VecCompilerEnv(_make_root(), n=2, backend="process") as vec:
            vec.reset()
            vec.step([1, 2])
            assert [worker.actions for worker in vec.workers] == [[1], [2]]
            assert all(reward is not None for reward in vec.episode_rewards)
            assert vec.action_space.n == 124
            assert str(vec.benchmark.uri) == f"benchmark://{BENCHMARK}"

    def test_remote_errors_propagate(self):
        with VecCompilerEnv(_make_root(), n=1, backend="process") as vec:
            with pytest.raises(SessionNotFound, match="before reset"):
                vec.step([0])

    def test_connection_stats_aggregate_across_processes(self):
        with VecCompilerEnv(_make_root(), n=2, backend="process") as vec:
            vec.reset()
            vec.step([0, 1])
            stats = vec.connection_stats()
            # One connection and one session per daemon, one step call per worker.
            assert stats["get_spaces"]["calls"] == 2
            assert stats["start_session"]["calls"] == 2
            assert stats["step"]["calls"] >= 2
            assert stats["step"]["wall_time_s"] > 0

    def test_lambda_worker_wrapper_is_accepted(self):
        """Wrappers are applied client-side; nothing is pickled."""
        with VecCompilerEnv(
            _make_root(),
            n=2,
            backend="process",
            worker_wrapper=lambda worker: TimeLimit(worker, max_episode_steps=1),
        ) as vec:
            vec.reset()
            assert all(isinstance(worker, TimeLimit) for worker in vec.workers)
            _, _, dones, _ = vec.step([1, 2])
            assert dones == [True, True]

    def test_requires_env_constructed_by_make(self):
        env = _make_root()
        del env.spec  # Simulate an env constructed outside the registry.
        try:
            with pytest.raises(ValueError, match="no .spec"):
                VecCompilerEnv(env, n=2, backend="process")
            env.reset()
        finally:
            env.close()

    def test_rejects_wrapped_root(self):
        env = _make_root()
        wrapped = TimeLimit(env, max_episode_steps=5)
        try:
            with pytest.raises(ValueError, match="raw root environment"):
                VecCompilerEnv(wrapped, n=2, backend="process")
        finally:
            wrapped.close()

    def test_retire_worker_stops_only_that_workers_daemon(self, socket_dirs):
        backend = ProcessPoolBackend()
        try:
            first, second = backend.populate(_make_root(), 2, None)
            pids = [daemon.pid for daemon in backend._daemons]
            backend.retire_worker(second)
            _assert_exited(pids[1:])
            assert [daemon.pid for daemon in backend._daemons] == pids[:1]
            (socket_dir,) = socket_dirs()
            # The surviving worker's daemon still serves it.
            first.reset()
            _, reward, done, _ = first.step(1)
            assert reward is not None and not done
            # The socket directory goes with the last daemon, not the backend.
            backend.retire_worker(first)
            _assert_exited(pids[:1])
            assert backend._daemons == []
            assert not os.path.exists(socket_dir)
        finally:
            backend.close()

    def test_retire_worker_of_a_foreign_worker_only_closes_it(self):
        backend = ProcessPoolBackend()
        foreign = _make_root()
        try:
            (worker,) = backend.populate(_make_root(), 1, None)
            (daemon,) = backend._daemons
            foreign.reset()
            backend.retire_worker(foreign)
            with pytest.raises(SessionNotFound, match="closed environment"):
                foreign.step(0)
            assert backend._daemons == [daemon]
            worker.reset()
            _, reward, _, _ = worker.step(1)
            assert reward is not None
            worker.close()
        finally:
            foreign.close()
            backend.close()

    def test_directly_constructed_backend_keeps_default_dispatcher_sizing(self):
        """Regression: ProcessPoolBackend() must not pin the dispatcher to a
        single thread — that would serialize every daemon round trip."""
        backend = ProcessPoolBackend()
        try:
            assert backend._executor._max_workers > 1
        finally:
            backend.close()

    def test_worker_spec_roundtrip_replays_source_state(self):
        """The property the process backend rests on: a spec-rebuilt env
        continues from the same session state as its source."""
        env = _make_root()
        try:
            env.reset()
            env.multistep([0, 1, 2])
            spec = WorkerSpec.from_env(env)
            rebuilt = spec.build()
            try:
                assert rebuilt.actions == env.actions
                a, _, _, _ = env.step(3)
                b, _, _, _ = rebuilt.step(3)
                np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
            finally:
                rebuilt.close()
        finally:
            env.close()


class TestAutoReset:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_done_worker_resets_within_the_batched_step(self, backend):
        wrapper = _TimeLimitWrapper(max_episode_steps=2)
        env = _make_root()
        with VecCompilerEnv(
            env, n=2, backend=backend, worker_wrapper=wrapper, auto_reset=True
        ) as vec:
            initial = [np.asarray(o) for o in vec.reset()]
            _, _, dones, _ = vec.step([17, 28])
            assert dones == [False, False]
            observations, _, dones, infos = vec.step([3, 5])
            assert dones == [True, True]
            for i in range(2):
                # The terminal observation of the finished episode is
                # preserved, and the slot already holds the *new* episode's
                # initial observation.
                assert "terminal_observation" in infos[i]
                np.testing.assert_array_equal(np.asarray(observations[i]), initial[i])
                assert vec.workers[i].actions == []
            # The next step runs in the fresh episode without a manual reset.
            _, _, dones, infos = vec.step([17, 28])
            assert dones == [False, False]
            assert all("terminal_observation" not in info for info in infos)

    def test_auto_reset_respects_explicit_observation_spaces(self):
        """Regression: the reset slot of a finished worker must be re-fetched
        in the caller's explicit observation spaces, not the default space."""
        wrapper = _TimeLimitWrapper(max_episode_steps=1)
        with VecCompilerEnv(
            _make_root(), n=2, worker_wrapper=wrapper, auto_reset=True
        ) as vec:
            vec.reset()
            initial_count = int(vec.observations("IrInstructionCount")[0])
            observations, _, dones, infos = vec.step(
                [1, 2],
                observation_spaces=["IrInstructionCount"],
                reward_spaces=["IrInstructionCount"],
            )
            assert dones == [True, True]
            for observation, info in zip(observations, infos):
                assert isinstance(observation, list) and len(observation) == 1
                # The slot holds the *new* episode's initial state, in the
                # requested space.
                assert int(observation[0]) == initial_count
                assert "terminal_observation" in info

    def test_masked_slots_are_not_reset(self):
        wrapper = _TimeLimitWrapper(max_episode_steps=2)
        with VecCompilerEnv(
            _make_root(), n=2, worker_wrapper=wrapper, auto_reset=True
        ) as vec:
            vec.reset()
            observations, rewards, dones, infos = vec.multistep([None, [1]])
            assert dones == [True, False]
            assert infos[0] == {"skipped": True}
            assert observations[0] is None

    def test_auto_reset_off_keeps_terminal_state(self):
        wrapper = _TimeLimitWrapper(max_episode_steps=1)
        with VecCompilerEnv(_make_root(), n=2, worker_wrapper=wrapper) as vec:
            vec.reset()
            _, _, dones, infos = vec.step([1, 2])
            assert dones == [True, True]
            assert all("terminal_observation" not in info for info in infos)
            assert [worker.unwrapped.actions for worker in vec.workers] == [[1], [2]]


class TestResetWorker:
    def test_reset_worker_routes_through_the_backend(self):
        """Regression: single-worker benchmark re-resets used to call
        ``workers[i].reset()`` directly, bypassing the execution backend (a
        blocking out-of-protocol round trip under the process backend).
        ``reset_worker`` must dispatch through ``backend.run`` like every
        batched operation."""

        class RecordingBackend(SerialBackend):
            def __init__(self):
                self.batches = 0

            def run(self, fn, items):
                self.batches += 1
                return super().run(fn, items)

        backend = RecordingBackend()
        env = _make_root()
        with VecCompilerEnv(env, n=2, backend=backend) as vec:
            vec.reset()
            batches = backend.batches
            observation = vec.reset_worker(1, benchmark="cbench-v1/qsort")
            assert backend.batches == batches + 1
            assert observation is not None
            assert str(vec.workers[1].benchmark.uri) == "benchmark://cbench-v1/qsort"
            # The other worker is untouched.
            assert str(vec.workers[0].benchmark.uri) == f"benchmark://{BENCHMARK}"

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_reset_worker_matches_direct_reset(self, backend):
        with VecCompilerEnv(_make_root(), n=2, backend=backend) as vec:
            vec.reset()
            routed = np.asarray(vec.reset_worker(0, benchmark="cbench-v1/qsort"))
            direct = np.asarray(vec.workers[1].reset(benchmark="cbench-v1/qsort"))
            np.testing.assert_array_equal(routed, direct)

    def test_reset_worker_requires_open_pool(self):
        vec = VecCompilerEnv(_make_root(), n=1)
        vec.close()
        with pytest.raises(SessionNotFound, match="reset_worker"):
            vec.reset_worker(0)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_reset_worker_leaves_the_rest_of_the_pool_mid_episode(self, backend):
        with VecCompilerEnv(_make_root(), n=3, backend=backend) as vec:
            vec.reset()
            vec.step([1, 2, 3])
            vec.reset_worker(1)
            assert [worker.actions for worker in vec.workers] == [[1], [], [3]]
            vec.step([4, 5, 6])
            assert [worker.actions for worker in vec.workers] == [[1, 4], [5], [3, 6]]


def _wrapper_names(worker):
    """The class names of a worker's wrapper chain, outermost first."""
    names = []
    while worker is not None:
        names.append(type(worker).__name__)
        worker = worker.__dict__.get("env")
    return names


class TestFixedPool:
    """A pool keeps the ``n`` workers it was built with until it is closed;
    every worker is populated from the root at construction."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_pool_keeps_its_workers_across_episodes(self, backend):
        with VecCompilerEnv(
            _make_root(),
            n=2,
            backend=backend,
            worker_wrapper=_TimeLimitWrapper(max_episode_steps=2),
            auto_reset=True,
        ) as vec:
            workers = list(vec.workers)
            daemons = [daemon.pid for daemon in getattr(vec.backend, "_daemons", [])]
            vec.reset()
            ended = 0
            for _ in range(5):
                _, _, dones, _ = vec.step([1, 2])
                ended += sum(dones)
            # Two episodes ended per worker, each reset in place.
            assert ended == 4
            assert vec.num_envs == 2
            assert all(now is then for now, then in zip(vec.workers, workers))
            assert [daemon.pid for daemon in getattr(vec.backend, "_daemons", [])] == daemons

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_workers_at_reset_state_see_the_same_trajectory(self, backend):
        with VecCompilerEnv(_make_root(), n=3, backend=backend) as vec:
            vec.reset()
            observations, _, dones, _ = vec.step([7, 7, 7])
            for observation in observations[1:]:
                np.testing.assert_array_equal(
                    np.asarray(observation), np.asarray(observations[0])
                )
            assert not any(dones)

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_workers_start_from_the_roots_episode(self, backend):
        root = _make_root()
        root.reset()
        root.step(11)
        with VecCompilerEnv(root, n=2, backend=backend) as vec:
            assert [worker.actions for worker in vec.workers] == [[11], [11]]
            if backend == "process":
                # Each worker replayed the root's episode on its own daemon.
                assert len(set(_daemon_pids(vec))) == 2
            _, _, dones, _ = vec.step([3, 4])
            assert not any(dones)
            assert [worker.actions for worker in vec.workers] == [[11, 3], [11, 4]]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_wrapper_without_fork_override_wraps_every_worker(self, backend):
        from repro.core.wrappers import CompilerEnvWrapper

        class Tagging(CompilerEnvWrapper):  # No fork() override on purpose.
            pass

        with VecCompilerEnv(
            _make_root(), n=3, backend=backend, worker_wrapper=Tagging
        ) as vec:
            vec.reset()
            assert all(isinstance(worker, Tagging) for worker in vec.workers)
            observations, _, _, _ = vec.step([0, 0, 0])
            assert len(observations) == 3

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_composed_wrapper_is_applied_once_per_worker(self, backend):
        from repro.core.wrappers import CompilerEnvWrapper

        class Outer(CompilerEnvWrapper):  # No fork() override on purpose.
            pass

        def wrap(worker):
            return Outer(TimeLimit(worker, max_episode_steps=3))

        with VecCompilerEnv(_make_root(), n=2, backend=backend, worker_wrapper=wrap) as vec:
            vec.reset()
            base = type(vec.workers[0].unwrapped).__name__
            for worker in vec.workers:
                assert _wrapper_names(worker) == ["Outer", "TimeLimit", base]
            # One TimeLimit per worker: it fires after 3 steps, not 6.
            _, _, dones, _ = vec.multistep([[1, 2, 3], [1, 2, 3]])
            assert dones == [True, True]

    def test_close_retires_every_worker_through_the_backend(self):
        class Recording(SerialBackend):
            def __init__(self):
                self.retired = []

            def retire_worker(self, worker):
                self.retired.append(worker)
                super().retire_worker(worker)

        backend = Recording()
        vec = VecCompilerEnv(_make_root(), n=3, backend=backend)
        vec.reset()
        workers = list(vec.workers)
        vec.close()
        assert len(backend.retired) == 3
        assert all(retired is worker for retired, worker in zip(backend.retired, workers))
        for worker in workers:
            with pytest.raises(SessionNotFound, match="closed environment"):
                worker.step(0)

    def test_close_retires_the_rest_when_one_retire_fails(self):
        class FailsOnSecond(SerialBackend):
            def __init__(self):
                self.attempts = 0

            def retire_worker(self, worker):
                self.attempts += 1
                if self.attempts == 2:
                    raise RuntimeError("retire failed")
                super().retire_worker(worker)

        backend = FailsOnSecond()
        vec = VecCompilerEnv(_make_root(), n=3, backend=backend)
        vec.reset()
        first, second, third = vec.workers
        try:
            with pytest.raises(RuntimeError, match="retire failed"):
                vec.close()
            assert backend.attempts == 3
            for worker in (first, third):
                with pytest.raises(SessionNotFound, match="closed environment"):
                    worker.step(0)
            # The worker whose retirement failed was left as it was.
            _, reward, done, _ = second.step(0)
            assert reward is not None and not done
        finally:
            second.close()


class TestLifecycle:
    def test_close_is_idempotent(self):
        vec = VecCompilerEnv(_make_root(), n=2)
        vec.reset()
        vec.close()
        vec.close()

    def test_post_close_operations_raise(self):
        vec = VecCompilerEnv(_make_root(), n=2)
        vec.reset()
        vec.close()
        with pytest.raises(SessionNotFound, match="closed VecCompilerEnv"):
            vec.step([0, 1])
        with pytest.raises(SessionNotFound, match="closed VecCompilerEnv"):
            vec.reset()
        with pytest.raises(SessionNotFound, match="closed VecCompilerEnv"):
            vec.observations("IrInstructionCount")

    def test_del_on_unclosed_pool_does_not_raise(self):
        vec = VecCompilerEnv(_make_root(), n=2)
        vec.reset()
        vec.__del__()

    def test_worker_close_then_pool_close(self):
        """Closing a worker out-of-band must not break pool shutdown."""
        vec = VecCompilerEnv(_make_root(), n=3)
        vec.reset()
        vec.workers[1].close()
        vec.close()

    def test_close_aggregates_worker_errors(self, caplog):
        """Regression: every worker teardown error must stay diagnosable —
        the first is raised, the rest are logged and attached to it."""

        class FailingClose:
            def __init__(self, message):
                self.error = RuntimeError(message)

            def close(self):
                raise self.error

        vec = VecCompilerEnv(_make_root(), n=1)
        real_worker = vec.workers[0]
        first, second = FailingClose("boom-first"), FailingClose("boom-second")
        vec.workers = [first, second]
        try:
            with caplog.at_level("WARNING", logger="repro.core.vector.vec_env"):
                with pytest.raises(RuntimeError, match="boom-first") as excinfo:
                    vec.close()
            assert excinfo.value.suppressed_errors == (second.error,)
            assert any("boom-second" in record.getMessage() for record in caplog.records)
        finally:
            real_worker.close()

    def test_close_single_error_has_no_suppressed_list(self):
        class FailingClose:
            def close(self):
                raise RuntimeError("boom-only")

        vec = VecCompilerEnv(_make_root(), n=1)
        real_worker = vec.workers[0]
        vec.workers = [FailingClose()]
        try:
            with pytest.raises(RuntimeError, match="boom-only") as excinfo:
                vec.close()
            assert not getattr(excinfo.value, "suppressed_errors", ())
        finally:
            real_worker.close()

    def test_shared_backend_instance_is_not_closed(self):
        backend = ThreadPoolBackend(max_workers=2)
        try:
            vec = VecCompilerEnv(_make_root(), n=2, backend=backend)
            vec.reset()
            vec.close()
            assert backend.run(lambda x: x + 1, [1, 2]) == [2, 3]
        finally:
            backend.close()

    def test_closed_thread_backend_rejects_batches(self):
        backend = ThreadPoolBackend(max_workers=1)
        backend.close()
        with pytest.raises(RuntimeError, match="closed ThreadPoolBackend"):
            backend.run(lambda x: x, [1])


class TestSerialBackend:
    def test_runs_in_order(self):
        backend = SerialBackend()
        order = []

        def record(item):
            order.append(item)
            return item * 2

        assert backend.run(record, [1, 2, 3]) == [2, 4, 6]
        assert order == [1, 2, 3]


class TestBackendContract:
    @pytest.mark.parametrize("backend_cls", [SerialBackend, ThreadPoolBackend])
    def test_first_error_in_input_order_propagates(self, backend_cls):
        def fail_odd(item):
            if item % 2:
                raise ValueError(f"bad {item}")
            return item

        with backend_cls() as backend:
            with pytest.raises(ValueError, match="bad 1"):
                backend.run(fail_odd, [0, 1, 2, 3])
            assert backend.run(fail_odd, [0, 2]) == [0, 2]

    def test_thread_backend_returns_results_in_input_order(self):
        def finish_last_first(item):
            time.sleep(0.02 * (3 - item))
            return item * 10

        with ThreadPoolBackend(max_workers=3) as backend:
            assert backend.run(finish_last_first, [0, 1, 2]) == [0, 10, 20]

    def test_owned_backends_are_sized_to_the_pool(self):
        assert isinstance(resolve_backend(None, 4), SerialBackend)
        with resolve_backend("thread", 5) as thread:
            assert isinstance(thread, ThreadPoolBackend)
            assert thread._executor._max_workers == 5
        with resolve_backend("process", 3) as process:
            assert isinstance(process, ProcessPoolBackend)
            assert process._executor._max_workers == 3
        shared = SerialBackend()
        assert resolve_backend(shared, 4) is shared

    def test_a_thread_pool_smaller_than_the_pool_steps_every_worker(self):
        def trace(backend):
            with VecCompilerEnv(_make_root(), n=3, backend=backend) as vec:
                vec.reset()
                observations, _, _, _ = vec.step([1, 2, 3])
                observations += vec.step([4, 5, 6])[0]
                actions = [worker.actions for worker in vec.workers]
            return [np.asarray(o).tolist() for o in observations], actions

        with ThreadPoolBackend(max_workers=1) as narrow:
            assert trace(narrow) == trace("serial")


class TestAutotuningIntegration:
    def test_parallel_evaluate_matches_serial_evaluation(self):
        from repro.autotuning.base import Budget, EpisodeTuner

        rng = random.Random(7)
        sequences = [[rng.randrange(124) for _ in range(5)] for _ in range(3)]

        serial_rewards = []
        for sequence in sequences:
            env = _make_root()
            try:
                serial_rewards.append(
                    EpisodeTuner.evaluate_episode(env, sequence, Budget())
                )
            finally:
                env.close()

        budget = Budget()
        with VecCompilerEnv(_make_root(), n=4, backend="thread") as vec:
            rewards = EpisodeTuner.parallel_evaluate(vec, sequences, budget)
        assert rewards == serial_rewards
        assert budget.steps == sum(len(s) for s in sequences)

    def test_parallel_evaluate_rejects_oversized_batches(self):
        from repro.autotuning.base import Budget, EpisodeTuner

        with VecCompilerEnv(_make_root(), n=2) as vec:
            with pytest.raises(ValueError, match="pool of 2 workers"):
                EpisodeTuner.parallel_evaluate(vec, [[0], [1], [2]], Budget())

    @pytest.mark.parametrize("tuner_name", ["random", "hill", "genetic"])
    def test_searchers_use_vectorized_path(self, tuner_name):
        from repro.autotuning import RandomSearch
        from repro.autotuning.genetic import SequenceGeneticAlgorithm
        from repro.autotuning.hill_climbing import SequenceHillClimbing

        tuner = {
            "random": RandomSearch(seed=3, patience=4, max_episode_length=8),
            "hill": SequenceHillClimbing(seed=3, episode_length=6),
            "genetic": SequenceGeneticAlgorithm(seed=3, episode_length=6, population_size=4),
        }[tuner_name]
        with VecCompilerEnv(_make_root(), n=3, backend="thread") as vec:
            result = tuner.tune(vec, max_steps=48)
        assert result.benchmark == f"benchmark://{BENCHMARK}"
        assert result.episodes > 0
        assert result.steps >= 48
        assert result.best_reward > float("-inf")


class TestRlIntegration:
    def _agent(self, cls):
        from repro.rl.trainer import AUTOPHASE_ACTION_SUBSET, observation_dim

        num_actions = len(AUTOPHASE_ACTION_SUBSET)
        return cls(
            obs_dim=observation_dim("Autophase", True, num_actions),
            num_actions=num_actions,
            seed=0,
        )

    def _make_agent(self, name):
        from repro.rl import A2CAgent, ApexDQNAgent, ImpalaAgent, PPOAgent

        return self._agent(
            {"a2c": A2CAgent, "ppo": PPOAgent, "impala": ImpalaAgent, "apex": ApexDQNAgent}[
                name
            ]
        )

    @pytest.mark.parametrize("agent_cls_name", ["a2c", "ppo", "impala", "apex"])
    def test_vec_rollout_collection(self, agent_cls_name):
        from repro.rl.trainer import make_vec_rl_environment, run_vec_episode

        agent = self._make_agent(agent_cls_name)
        env = repro.make(
            "llvm-v0", benchmark=BENCHMARK, reward_space="IrInstructionCountNorm"
        )
        vec = make_vec_rl_environment(env, n=3, backend="thread", episode_length=5)
        try:
            rewards = run_vec_episode(vec, agent, benchmarks=[BENCHMARK] * 3, train=True)
            assert len(rewards) == 3
            # The TimeLimit wrapper bounds every worker to 5 steps.
            assert all(len(worker.unwrapped.actions) == 5 for worker in vec.workers)
        finally:
            vec.close()

    def test_train_agent_vec_records_requested_episodes(self):
        from repro.rl.a2c import A2CAgent
        from repro.rl.trainer import make_vec_rl_environment, train_agent_vec

        agent = self._agent(A2CAgent)
        env = repro.make(
            "llvm-v0", benchmark=BENCHMARK, reward_space="IrInstructionCountNorm"
        )
        vec = make_vec_rl_environment(env, n=2, backend="serial", episode_length=4)
        try:
            result = train_agent_vec(
                agent, vec, [BENCHMARK, "cbench-v1/sha"], episodes=5
            )
            assert len(result.episode_rewards) == 5
        finally:
            vec.close()

    @pytest.mark.parametrize("agent_cls_name", ["impala", "apex"])
    def test_auto_reset_rollouts_train_end_to_end(self, agent_cls_name):
        """IMPALA and Ape-X collect continuous auto-reset rollouts through
        train_agent_vec, like A2C/PPO."""
        from repro.rl.trainer import make_vec_rl_environment, train_agent_vec

        agent = self._make_agent(agent_cls_name)
        env = repro.make(
            "llvm-v0", benchmark=BENCHMARK, reward_space="IrInstructionCountNorm"
        )
        vec = make_vec_rl_environment(
            env, n=2, backend="serial", episode_length=4, auto_reset=True
        )
        try:
            result = train_agent_vec(agent, vec, [BENCHMARK], episodes=5)
            assert len(result.episode_rewards) == 5
            assert all(np.isfinite(result.episode_rewards))
        finally:
            vec.close()

    def test_auto_reset_rollouts_cycle_all_benchmarks(self):
        """Regression: with more benchmarks than workers, continuous rollouts
        must still rotate through the whole training list (like the lockstep
        path) instead of pinning each worker to its first assignment."""
        from repro.core.wrappers import CompilerEnvWrapper
        from repro.rl.ppo import PPOAgent
        from repro.rl.trainer import run_vec_rollouts

        seen = []

        class Recorder(CompilerEnvWrapper):
            def reset(self, *args, **kwargs):
                if kwargs.get("benchmark") is not None:
                    seen.append(str(kwargs["benchmark"]))
                return self.env.reset(*args, **kwargs)

        def wrap(worker):
            return Recorder(TimeLimit(worker, max_episode_steps=2))

        agent = PPOAgent(obs_dim=56, num_actions=124, seed=0)
        vec = VecCompilerEnv(_make_root(), n=1, worker_wrapper=wrap, auto_reset=True)
        try:
            rewards = run_vec_rollouts(
                vec, agent, episodes=3, benchmarks=[BENCHMARK, "cbench-v1/sha"]
            )
            assert len(rewards) >= 3
            assert seen[:3] == [BENCHMARK, "cbench-v1/sha", BENCHMARK]
        finally:
            vec.close()

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_rollouts_keep_the_pool_as_built(self, backend):
        from repro.rl.ppo import PPOAgent
        from repro.rl.trainer import make_vec_rl_environment, run_vec_rollouts

        agent = self._agent(PPOAgent)
        env = repro.make(
            "llvm-v0", benchmark=BENCHMARK, reward_space="IrInstructionCountNorm"
        )
        vec = make_vec_rl_environment(
            env, n=2, backend=backend, episode_length=2, auto_reset=True
        )
        try:
            workers = list(vec.workers)
            rewards = run_vec_rollouts(vec, agent, episodes=6, benchmarks=[BENCHMARK])
            assert len(rewards) >= 6
            assert vec.num_envs == 2
            assert all(now is then for now, then in zip(vec.workers, workers))
        finally:
            vec.close()

    def test_run_vec_rollouts_requires_auto_reset(self):
        from repro.rl.ppo import PPOAgent
        from repro.rl.trainer import make_vec_rl_environment, run_vec_rollouts

        agent = self._agent(PPOAgent)
        env = repro.make(
            "llvm-v0", benchmark=BENCHMARK, reward_space="IrInstructionCountNorm"
        )
        vec = make_vec_rl_environment(env, n=2, backend="serial", episode_length=3)
        try:
            with pytest.raises(ValueError, match="auto_reset"):
                run_vec_rollouts(vec, agent, episodes=2)
        finally:
            vec.close()

    def test_make_vec_rl_environment_closes_env_on_failure(self):
        from repro.rl.trainer import make_vec_rl_environment

        env = repro.make(
            "llvm-v0", benchmark=BENCHMARK, reward_space="IrInstructionCountNorm"
        )
        with pytest.raises(ValueError, match="Unknown execution backend"):
            make_vec_rl_environment(env, n=2, backend="bogus")
        assert env.service.closed

    def test_training_without_batch_api_raises(self):
        from repro.rl.trainer import make_vec_rl_environment, run_vec_episode

        class Greedy:
            def act(self, observation, greedy=False):
                return 0

        env = repro.make(
            "llvm-v0", benchmark=BENCHMARK, reward_space="IrInstructionCountNorm"
        )
        vec = make_vec_rl_environment(env, n=2, backend="serial", episode_length=3)
        try:
            with pytest.raises(ValueError, match="act_batch"):
                run_vec_episode(vec, Greedy(), train=True)
            # Greedy evaluation (no learning state) is fine.
            rewards = run_vec_episode(vec, Greedy(), train=False)
            assert len(rewards) == 2
        finally:
            vec.close()
