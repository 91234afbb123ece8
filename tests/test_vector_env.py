"""Tests for the vectorized environment pool (``repro.core.vector``)."""

import random
import threading
import time

import numpy as np
import pytest

import repro
from repro.core.vector import BACKENDS, VecCompilerEnv, make_vec_env
from repro.core.wrappers import CompilerEnvWrapper, TimeLimit
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


def _scripted_pool(backend, n, before_reset):
    """A pool whose worker ``i`` calls ``before_reset(i)`` on every reset and
    answers with ``i`` as its observation, without touching its session."""
    indices = iter(range(n))

    class Scripted(CompilerEnvWrapper):
        def __init__(self, env):
            super().__init__(env)
            self.index = next(indices)

        def reset(self, *args, **kwargs):
            before_reset(self.index)
            return self.index

    return VecCompilerEnv(_make_root(), n=n, backend=backend, worker_wrapper=Scripted)


@pytest.fixture(params=BACKENDS)
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

    @pytest.mark.parametrize(
        "backend", ["fibers", "process", None, object()], ids=["fibers", "process", "none", "instance"]
    )
    def test_unknown_backend(self, backend):
        env = _make_root()
        try:
            with pytest.raises(ValueError, match=r"expected one of \('serial', 'thread'\)"):
                VecCompilerEnv(env, n=2, backend=backend)
            # The root is still the caller's to use and close.
            env.reset()
            env.step(0)
        finally:
            env.close()

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_worker_outside_an_episode_fails_the_step_before_any_hook(self, backend):
        """The pool checks every stepped worker before a wrapper's hook runs
        on any of them, and raises what a lone step would."""
        from repro.core.wrappers import CounterWrapper

        with VecCompilerEnv(
            _make_root(), n=3, backend=backend, worker_wrapper=CounterWrapper
        ) as vec:
            vec.reset()
            vec.workers[2].unwrapped.close()
            with pytest.raises(SessionNotFound, match="closed environment"):
                vec.step([0, 1, 2])
            assert [worker.counters["step"] for worker in vec.workers] == [0, 0, 0]
            _, _, dones, _ = vec.multistep([[0], [1], None])
            assert dones == [False, False, True]
            assert [worker.counters["step"] for worker in vec.workers] == [1, 1, 0]

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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worker_errors_propagate(self, backend):
        with VecCompilerEnv(_make_root(), n=1, backend=backend) as vec:
            with pytest.raises(SessionNotFound, match="before reset"):
                vec.step([0])
            # The pool stays usable.
            vec.reset()
            _, rewards, dones, _ = vec.step([0])
            assert rewards[0] is not None and dones == [False]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_workers_bad_action_ends_only_its_own_episode(self, backend):
        """An in-process pool steps as one batch, so a generic exception in
        one worker's step is reported in its own slot: the runtime is not
        restarted under the sibling, which keeps stepping."""
        with VecCompilerEnv(_make_root(), n=2, backend=backend) as vec:
            vec.reset()
            _, _, dones, infos = vec.step([10_000, 3])
            assert dones == [True, False]
            assert "Action out of range: 10000" in infos[0]["error_details"]
            assert "error_details" not in infos[1]
            _, rewards, dones, infos = vec.step([None, 4])
            assert dones[1] is False and rewards[1] is not None
            assert "error_details" not in infos[1]
            assert vec[1].actions == [3, 4]
            assert not any(stats.retries for stats in vec.workers[0].service.stats.values())
            assert vec.connection_stats()["step_sessions"]["calls"] == 2

    def test_episode_rewards(self, vec_env):
        vec_env.reset()
        vec_env.multistep([[0, 1], [2], [], [3, 4, 5]])
        rewards = vec_env.episode_rewards
        assert len(rewards) == 4
        assert all(reward is not None for reward in rewards)


class TestAutoReset:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
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
    def test_reset_worker_runs_on_the_calling_thread(self):
        """``reset_worker`` is a batch of one: under ``backend="thread"`` it
        runs on the calling thread, with no hand-off to the pool's threads,
        and returns what a serial pool's does."""
        caller = threading.current_thread()
        threads = []

        class Recording(CompilerEnvWrapper):
            def reset(self, *args, **kwargs):
                threads.append(threading.current_thread())
                return self.env.reset(*args, **kwargs)

        with VecCompilerEnv(
            _make_root(), n=2, backend="thread", worker_wrapper=Recording
        ) as vec:
            vec.reset()
            assert caller not in threads
            observation = vec.reset_worker(1, benchmark="cbench-v1/qsort")
            assert len(threads) == 3 and threads[2] is caller
            assert str(vec.workers[1].benchmark.uri) == "benchmark://cbench-v1/qsort"
            # The other worker is untouched.
            assert str(vec.workers[0].benchmark.uri) == f"benchmark://{BENCHMARK}"
        with VecCompilerEnv(_make_root(), n=2, backend="serial") as serial:
            serial.reset()
            expected = serial.reset_worker(1, benchmark="cbench-v1/qsort")
        np.testing.assert_array_equal(np.asarray(observation), np.asarray(expected))

    def test_a_lone_item_raises_on_the_calling_thread(self):
        """Errors propagate from a batch of one as from any batch."""
        with VecCompilerEnv(_make_root(), n=2, backend="thread") as vec:
            vec.reset()
            with pytest.raises(LookupError):
                vec.reset_worker(1, benchmark="cbench-v1/not-a-benchmark")

    @pytest.mark.parametrize("backend", ["serial", "thread"])
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

    @pytest.mark.parametrize("backend", ["serial", "thread"])
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

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_pool_keeps_its_workers_across_episodes(self, backend):
        with VecCompilerEnv(
            _make_root(),
            n=2,
            backend=backend,
            worker_wrapper=_TimeLimitWrapper(max_episode_steps=2),
            auto_reset=True,
        ) as vec:
            workers = list(vec.workers)
            vec.reset()
            ended = 0
            for _ in range(5):
                _, _, dones, _ = vec.step([1, 2])
                ended += sum(dones)
            # Two episodes ended per worker, each reset in place.
            assert ended == 4
            assert vec.num_envs == 2
            assert all(now is then for now, then in zip(vec.workers, workers))

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_workers_at_reset_state_see_the_same_trajectory(self, backend):
        with VecCompilerEnv(_make_root(), n=3, backend=backend) as vec:
            vec.reset()
            observations, _, dones, _ = vec.step([7, 7, 7])
            for observation in observations[1:]:
                np.testing.assert_array_equal(
                    np.asarray(observation), np.asarray(observations[0])
                )
            assert not any(dones)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_workers_start_from_the_roots_episode(self, backend):
        root = _make_root()
        root.reset()
        root.step(11)
        with VecCompilerEnv(root, n=2, backend=backend) as vec:
            assert [worker.actions for worker in vec.workers] == [[11], [11]]
            _, _, dones, _ = vec.step([3, 4])
            assert not any(dones)
            assert [worker.actions for worker in vec.workers] == [[11, 3], [11, 4]]

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_wrapper_without_fork_override_wraps_every_worker(self, backend):
        class Tagging(CompilerEnvWrapper):  # No fork() override on purpose.
            pass

        with VecCompilerEnv(
            _make_root(), n=3, backend=backend, worker_wrapper=Tagging
        ) as vec:
            vec.reset()
            assert all(isinstance(worker, Tagging) for worker in vec.workers)
            observations, _, _, _ = vec.step([0, 0, 0])
            assert len(observations) == 3

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_composed_wrapper_is_applied_once_per_worker(self, backend):
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

    def test_close_closes_every_worker(self):
        vec = VecCompilerEnv(_make_root(), n=3)
        vec.reset()
        workers = list(vec.workers)
        vec.close()
        for worker in workers:
            with pytest.raises(SessionNotFound, match="closed environment"):
                worker.step(0)

    def test_close_closes_the_rest_when_one_close_fails(self):
        class FailsToClose(CompilerEnvWrapper):
            def close(self):
                raise RuntimeError("close failed")

        wrappers = iter([CompilerEnvWrapper, FailsToClose, CompilerEnvWrapper])
        vec = VecCompilerEnv(
            _make_root(), n=3, worker_wrapper=lambda worker: next(wrappers)(worker)
        )
        vec.reset()
        first, second, third = vec.workers
        try:
            with pytest.raises(RuntimeError, match="close failed"):
                vec.close()
            for worker in (first, third):
                with pytest.raises(SessionNotFound, match="closed environment"):
                    worker.step(0)
            # The worker whose close failed was left as it was.
            _, reward, done, _ = second.step(0)
            assert reward is not None and not done
        finally:
            second.env.close()


class TestLifecycle:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_close_is_idempotent(self, backend):
        vec = VecCompilerEnv(_make_root(), n=2, backend=backend)
        vec.reset()
        vec.close()
        vec.close()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_post_close_operations_raise(self, backend):
        vec = VecCompilerEnv(_make_root(), n=2, backend=backend)
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

    def test_close_shuts_the_thread_pool_down(self):
        before = set(threading.enumerate())
        vec = VecCompilerEnv(_make_root(), n=2, backend="thread")
        vec.reset()
        started = [
            thread for thread in threading.enumerate()
            if thread not in before and thread.name.startswith("vec-env-worker")
        ]
        assert started
        vec.close()
        assert not any(thread.is_alive() for thread in started)


class TestDispatch:
    """How a pool runs the per-worker calls of one batch (a reset's, here)."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_first_error_in_input_order_propagates(self, backend):
        failing = [True]

        def fail_odd(index):
            if index == 1:
                time.sleep(0.02)  # Under threads, worker 3 fails first.
            if failing[0] and index % 2:
                raise ValueError(f"bad {index}")

        with _scripted_pool(backend, 4, fail_odd) as vec:
            with pytest.raises(ValueError, match="bad 1"):
                vec.reset()
            # The pool stays usable.
            failing[0] = False
            assert vec.reset() == [0, 1, 2, 3]

    def test_serial_runs_in_input_order_on_the_calling_thread(self):
        calls = []
        with _scripted_pool(
            "serial", 3, lambda index: calls.append((index, threading.current_thread()))
        ) as vec:
            assert vec.reset() == [0, 1, 2]
        caller = threading.current_thread()
        assert calls == [(0, caller), (1, caller), (2, caller)]

    def test_thread_results_come_back_in_input_order(self):
        def finish_last_first(index):
            time.sleep(0.02 * (3 - index))

        with _scripted_pool("thread", 3, finish_last_first) as vec:
            assert vec.reset() == [0, 1, 2]

    def test_thread_pool_runs_every_worker_at_once(self):
        """A thread pool has a thread per worker: all calls of a batch are in
        flight together (with fewer threads the barrier would break)."""
        barrier = threading.Barrier(3, timeout=10)
        with _scripted_pool("thread", 3, lambda index: barrier.wait()) as vec:
            assert vec.reset() == [0, 1, 2]

    def test_thread_and_serial_pools_step_alike(self):
        """A reset on the thread pool and one on the calling thread start the
        same episodes, which then step alike."""

        def trace(backend):
            with VecCompilerEnv(_make_root(), n=3, backend=backend) as vec:
                observations = vec.reset([BENCHMARK, "cbench-v1/qsort", BENCHMARK])
                observations += vec.step([1, 2, 3])[0]
                observations += vec.step([4, 5, 6])[0]
                actions = [worker.actions for worker in vec.workers]
            return [np.asarray(o).tolist() for o in observations], actions

        assert trace("thread") == trace("serial")


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
            # The wrapped workers stepped together: one batch per pool step.
            calls = {name: stats["calls"] for name, stats in vec.connection_stats().items()}
            assert (calls["step_sessions"], calls["step"]) == (5, 15)
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
