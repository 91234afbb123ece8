"""One behavioural suite over the deployment matrix.

Every test takes the ``deployment`` fixture of ``conftest.py`` and so runs in
each cell of {in-process, one daemon, 2-daemon gateway} x {result cache on,
off}. What an environment does must not depend on the cell: traces are
compared bit for bit with a reference computed once, in-process, with the
result cache off.
"""

import functools
import random

import numpy as np
import pytest

import repro
from repro.core.datasets import Benchmark
from repro.core.service.proto import EndSessionRequest
from repro.core.vector import BACKENDS, VecCompilerEnv
from repro.core.wrappers import TimeLimit
from repro.errors import BenchmarkInitError, SessionNotFound
from tests.test_fork_equivalence import _assert_fork_replays_like_parent

STEP_SHAPE = dict(
    benchmark="cbench-v1/crc32", observation_space="Autophase", reward_space="IrInstructionCount"
)
EPISODES = (
    tuple(random.Random(7).sample(range(100), 12)),
    (0, 11, 3, 7, 1),
    (23, 5, 0, 11, 2),
)


def _plain(observation):
    return np.asarray(observation).tolist()


def _steps(actions):
    """A step per action, then the first two once more as one multistep."""
    return [[action] for action in actions] + [list(actions[:2])]


def _trace(env, actions):
    """One episode's full observable record, in plain comparable types."""
    trace = [_plain(env.reset())]
    for step in _steps(actions):
        observation, reward, done, info = env.multistep(step)
        trace.append((_plain(observation), reward, done, info["action_had_no_effect"]))
    return trace + [env.episode_reward, list(env.actions)]


@functools.lru_cache(maxsize=None)
def _reference(actions):
    with repro.make("llvm-v0", result_cache=False, **STEP_SHAPE) as env:
        return _trace(env, actions)


def test_traces_equal_the_reference_cold_and_warm(deployment):
    with deployment(**STEP_SHAPE) as env:
        for _ in ("cold", "warm"):
            for actions in EPISODES:
                assert _trace(env, actions) == _reference(actions)
        stats = deployment.result_cache_stats(env)
        verifying = env.verify_ir
    if not deployment.result_cache:
        assert stats is None
    elif not verifying:
        # (Verify-after-every-pass is a session parameter, and a session that
        # was handed one is no longer a pure action prefix: it is not cached.)
        assert stats["hits"] > 0
    if deployment.kind == "gateway":
        # Placement is least-loaded-first, so a second tenant lands on the
        # other daemon (and warms its cache): same traces from there.
        with deployment(**STEP_SHAPE) as first, deployment(**STEP_SHAPE) as second:
            first.reset()
            assert _trace(second, EPISODES[1]) == _reference(EPISODES[1])
            fleet = deployment.server.server_info()["daemons"]
            assert [daemon["sessions"] for daemon in fleet] == [1, 1]
            assert (deployment.result_cache_stats(second) or {"daemons": 2})["daemons"] == 2


def test_a_closed_loop_episode_is_served_in_place(deployment):
    """A client that waits for each reply before it sends again is served by
    the thread that read each request: nothing is handed to the pool."""
    if deployment.server is None:
        pytest.skip("no server in-process")
    before = deployment.server.server_info()
    with deployment(**STEP_SHAPE) as env:
        _trace(env, EPISODES[0])
    after = deployment.server.server_info()
    assert after["handed_off"] == before["handed_off"]
    assert after["served_in_place"] > before["served_in_place"] + len(EPISODES[0])


def test_spaces_and_initial_state_match_in_process(deployment):
    with repro.make("llvm-v0", **STEP_SHAPE) as local, deployment(**STEP_SHAPE) as env:
        assert sorted(env.observation.spaces) == sorted(local.observation.spaces)
        assert env.action_space.names == local.action_space.names
        local.reset()
        env.reset()
        for space in ("IrSha1", "IrInstructionCount"):
            assert env.observation[space] == local.observation[space]


def test_fork_replays_like_its_parent(deployment):
    actions = EPISODES[0]
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        env.multistep(actions[:4])
        with env.fork() as fork:
            assert fork.service is env.service  # One fork_session RPC, no new connection.
            assert fork.actions == env.actions
            assert fork.episode_reward == env.episode_reward
            _assert_fork_replays_like_parent(env, fork, actions[4:9])
        # Closing the fork released its reference, not the shared connection.
        _, _, done, info = env.step(actions[9])
        assert not done and "error_details" not in info


def _assert_pool_of_two_equals_two_envs(vec):
    first, second = EPISODES[1], EPISODES[2]
    traces = [[_plain(observation)] for observation in vec.reset()]
    for step in zip(_steps(first), _steps(second)):
        for trace, observation, reward, done, info in zip(traces, *vec.multistep(step)):
            trace.append((_plain(observation), reward, done, info["action_had_no_effect"]))
    for trace, worker, actions in zip(traces, vec.workers, (first, second)):
        assert trace + [worker.episode_reward, worker.actions] == _reference(actions)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "worker_wrapper",
    # A wrapped worker is stepped on its own, so over a socket this is the
    # per-worker path rather than one step_sessions batch. The episodes never
    # reach the budget.
    [None, functools.partial(TimeLimit, max_episode_steps=100)],
    ids=["unwrapped", "time-limit"],
)
def test_a_pool_of_two_equals_two_envs(deployment, backend, worker_wrapper):
    with VecCompilerEnv(
        deployment(**STEP_SHAPE), n=2, backend=backend, worker_wrapper=worker_wrapper
    ) as vec:
        # Forked from the root onto its connection, which multiplexes them.
        assert len({id(worker.service) for worker in vec.workers}) == 1
        _assert_pool_of_two_equals_two_envs(vec)


def test_a_forked_pool_asks_for_its_spaces_once(deployment):
    """Populating a pool is one connection: the root connects, fetches the
    spaces and opens a session; every other worker is a ``fork_session``."""
    with VecCompilerEnv(deployment(**STEP_SHAPE), n=3, backend="thread") as vec:
        calls = {method: stats["calls"] for method, stats in vec.connection_stats().items()}
        verifying = vec.workers[0].verify_ir
    expected = {"get_spaces": 1, "start_session": 1, "step": 1, "fork_session": 2}
    if verifying:
        # Verify-after-every-pass is a session parameter: the root is handed
        # it once, and the forks inherit it.
        expected["handle_session_parameter"] = 1
    assert calls == expected


def test_a_pool_that_fails_to_populate_leaves_only_the_roots_session(deployment):
    """A worker_wrapper that raises on the last worker: every fork's session
    is ended on the service, and the root is still the caller's to use."""
    wrapped = []

    def fail_on_third(worker):
        wrapped.append(worker)
        if len(wrapped) == 3:
            raise RuntimeError("wrapper exploded")
        return worker

    with deployment(**STEP_SHAPE) as env:
        env.reset()
        held = deployment.sessions(env)
        with pytest.raises(RuntimeError, match="wrapper exploded"):
            VecCompilerEnv(env, n=3, worker_wrapper=fail_on_third)
        assert len({id(worker) for worker in wrapped}) == 3
        assert deployment.sessions(env) == held
        assert _trace(env, EPISODES[1]) == _reference(EPISODES[1])


def _assert_ended_with_error_defaults(env, result, episode_reward):
    observation, reward, done, info = result
    assert done and "error_details" in info and "service_is_down" not in info
    assert not env.in_episode
    assert _plain(observation) == _plain(env.observation_space_spec.default_value)
    assert reward == env.reward_space.reward_on_error(episode_reward)


def test_a_failed_step_ends_the_episode_with_error_defaults(deployment):
    with deployment(**STEP_SHAPE) as env:
        held = deployment.sessions(env)
        env.reset()
        _, reward, _, _ = env.step(EPISODES[1][0])
        # An action outside the space makes the backend raise mid-step.
        _assert_ended_with_error_defaults(env, env.step(9999), reward)
        # The service was there to answer, so it is not left holding the
        # session (a gateway would count it in placement for good).
        assert deployment.sessions(env) == held
        # So does a session the service no longer has.
        env.reset()
        env.service.end_session(EndSessionRequest(session_id=env._session_id))
        result = env.step(EPISODES[1][0])
        assert "not found" in result[3]["error_details"].lower()
        _assert_ended_with_error_defaults(env, result, 0)
        # Either way only the episode is lost.
        assert _trace(env, EPISODES[1]) == _reference(EPISODES[1])


def test_caller_errors_are_raised(deployment):
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        # The benchmark setter validates URIs against the client's datasets; a
        # service that cannot resolve one anyway (its datasets are older, say)
        # is reached here by naming the benchmark behind the setter's back.
        env._next_benchmark = Benchmark("benchmark://cbench-v1/not-a-benchmark")
        with pytest.raises(BenchmarkInitError, match="not-a-benchmark"):
            env.reset()
        env.benchmark = STEP_SHAPE["benchmark"]
        assert _trace(env, EPISODES[2]) == _reference(EPISODES[2])
    with pytest.raises(SessionNotFound, match="closed"):
        env.step(0)
