"""One behavioural suite over the deployment matrix.

Every test takes the ``deployment`` fixture of ``conftest.py`` and so runs in
each cell of {in-process, one daemon, 2-daemon gateway} x {result cache on,
off}. What an environment does must not depend on the cell: traces are
compared bit for bit with a reference computed once, in-process, with the
result cache off.
"""

import contextlib
import dataclasses
import functools
import random
import time

import networkx as nx
import numpy as np
import pytest

import repro
from repro.core.datasets import Benchmark
from repro.core.service import ConnectionOpts
from repro.core.service.proto import EndSessionRequest, StartSessionRequest, StepRequest
from repro.core.vector import BACKENDS, VecCompilerEnv
from repro.core.wrappers import TimeLimit
from repro.errors import BenchmarkInitError, SessionNotFound
from tests.test_chaos import _wait_until
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
        # (A session that verifies after every pass runs every pass itself:
        # it reads no step from the result cache.)
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


def test_the_programl_graph_arrives_whole(deployment):
    """The one observation that is neither numbers nor text: a networkx
    graph travels as itself, and the connection serves on after it."""
    with repro.make("llvm-v0", **STEP_SHAPE) as local, deployment(**STEP_SHAPE) as env:
        for each in (local, env):
            each.reset()
            each.step(EPISODES[1][0])
        graph, expected = env.observation["Programl"], local.observation["Programl"]
        assert type(graph) is type(expected)
        assert nx.node_link_data(graph, edges="links") == nx.node_link_data(
            expected, edges="links"
        )
        _, _, done, info = env.step(EPISODES[1][1])
        assert not done and "error_details" not in info
        assert not any(stats.retries for stats in env.service.stats.values())


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
    # A wrapped worker is stepped on its own, so in every deployment this is
    # the per-worker path rather than one step_sessions batch. The episodes
    # never reach the budget.
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
    assert calls == {"get_spaces": 1, "start_session": 1, "fork_session": 2}


def _member_sessions(deployment, env):
    """The sessions each runtime behind ``env`` holds: one count in-process
    and on a daemon, one per member behind a gateway (not its routes)."""
    if deployment.kind != "gateway":
        return [deployment.sessions(env)]
    return [
        daemon.connection.transport.server_info()["active_sessions"]
        for daemon in deployment.server.live_daemons()
    ]


def _calls(env):
    return {method: stats.calls for method, stats in env.service.stats.items() if stats.calls}


@pytest.mark.parametrize("reward_space", ["IrInstructionCount", "IrInstructionCountOz"])
def test_a_reset_is_one_round_trip(deployment, reward_space):
    """A reset is one ``start_session``: it ends the session it replaces,
    answers the observation space and everything the reward reads to prime
    its baseline, and leaves the service holding only the new session."""
    with deployment(**dict(STEP_SHAPE, reward_space=reward_space)) as env:
        env.reset()
        held, members = deployment.sessions(env), _member_sessions(deployment, env)
        replaced = env._session_id
        env.service.stats.clear()
        observation = env.reset()
        assert _calls(env) == {"start_session": 1}
        assert deployment.sessions(env) == held
        assert sum(_member_sessions(deployment, env)) == sum(members)
        with pytest.raises(SessionNotFound):
            env.service.step(StepRequest(session_id=replaced))
        assert _plain(observation) == _reference(EPISODES[1])[0]

        # The reward was primed on the reply's values: a step's reward is
        # the scaled drop in the instruction count.
        count = env.observation["IrInstructionCount"]
        scale = 1.0
        if reward_space == "IrInstructionCountOz":
            scale = 1.0 / (
                env.observation["IrInstructionCountO0"] - env.observation["IrInstructionCountOz"]
            )
        _, reward, _, _ = env.step(EPISODES[1][1])
        assert reward == pytest.approx((count - env.observation["IrInstructionCount"]) * scale)

        # A reset the service refuses has still ended the old session.
        env.service.stats.clear()
        env._next_benchmark = Benchmark("benchmark://cbench-v1/not-a-benchmark")
        with pytest.raises(BenchmarkInitError):
            env.reset()
        attempts = [(name, stats.calls, stats.errors) for name, stats in env.service.stats.items()]
        assert attempts == [("start_session", 0, 1)]
        assert not env.in_episode
        assert deployment.sessions(env) == held - 1
        assert sum(_member_sessions(deployment, env)) == sum(members) - 1
        env.benchmark = STEP_SHAPE["benchmark"]
        env.reset()
        assert env._unended_session_id is None


def test_a_stale_or_foreign_session_to_end_is_skipped_in_one_round_trip(deployment):
    """``end_session_id`` is best effort: an id already ended, or another
    tenant's, neither fails the start nor ends anyone's session."""
    start = StartSessionRequest(benchmark_uri=f"benchmark://{STEP_SHAPE['benchmark']}")
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        stale = env._session_id
        env.reset()
        if deployment.server is None:
            # In-process there is one tenant: start another's on the runtime.
            other = contextlib.nullcontext()
            runtime = env.service.runtime
            foreign = runtime.start_session(start, owner="another-tenant").session_id
            foreign_step = functools.partial(
                runtime.step, StepRequest(session_id=foreign), owner="another-tenant"
            )
        else:
            other = deployment(**STEP_SHAPE, service_token="another-tenant")
            other.reset()
            foreign = other._session_id
            foreign_step = functools.partial(other.service.step, StepRequest(session_id=foreign))
        with other:
            held = deployment.sessions(env)
            for end_session_id in (stale, foreign, 10**9):
                reply = env.service.start_session(
                    dataclasses.replace(start, end_session_id=end_session_id)
                )
                assert deployment.sessions(env) == held + 1
                foreign_step()
                _, _, done, _ = env.step(EPISODES[1][0])
                assert not done
                env.service.end_session(EndSessionRequest(session_id=reply.session_id))


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


def test_a_forks_failed_step_ends_only_the_fork(deployment):
    """A lookahead candidate's bad action is its own error: the fork's
    episode ends naming the action, nothing restarts, and the root it was
    forked from steps on as if the fork had never been."""
    actions = EPISODES[1]
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        held = deployment.sessions(env)
        record = []

        def step_root(action):
            observation, reward, done, info = env.step(action)
            record.append((_plain(observation), reward, done, info["action_had_no_effect"]))

        step_root(actions[0])
        with env.fork() as fork:
            assert not fork.step(actions[2])[2]
            step_root(actions[1])
            _, _, done, info = fork.step(10_000)
            assert done and "Action out of range: 10000" in info["error_details"]
        assert not any(stats.retries for stats in env.service.stats.values())
        assert deployment.sessions(env) == held
        for action in actions[2:]:
            step_root(action)
        assert record == _reference(actions)[1:1 + len(actions)]


def test_an_error_the_service_answered_is_raised_once(deployment):
    """A session the service refuses to start (a dataset URI names no
    program) is the caller's error, however far away the service is: it is
    raised once, nothing is retried, and a session already on the connection
    steps on as if the refusal had never been."""
    actions = EPISODES[1]
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        record = []

        def step(action):
            observation, reward, done, info = env.step(action)
            record.append((_plain(observation), reward, done, info["action_had_no_effect"]))

        step(actions[0])
        with pytest.raises(BenchmarkInitError):
            env.service.start_session(StartSessionRequest(benchmark_uri="benchmark://cbench-v1"))
        stats = env.service.stats["start_session"]
        assert (stats.errors, stats.retries) == (1, 0)
        for action in actions[1:]:
            step(action)
        assert record == _reference(actions)[1:1 + len(actions)]


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


def test_a_fault_is_retried_once_or_ends_the_episode_at_its_prefix(deployment, fault):
    """The third step of an episode meets ``fault``. The service executes
    that step exactly as often as the fault lets it: once if the request
    went out whole, never if it did not. A retryable fault is retried once
    and the episode equals the reference; any other fault is not retried and
    ends the episode with error defaults at the two acknowledged steps. The
    service then replays the whole episode for a fresh client as if no fault
    had been: a step whose reply was lost (a cache hit, where the service
    caches, since the first client warmed it) poisons nothing."""
    # The third action changes the IR, so the state shows whether it ran.
    actions = EPISODES[2]
    reference = _reference(actions)
    with deployment(**STEP_SHAPE) as warm:
        warm.reset()
        warm.step(actions[0])
        warm.step(actions[1])
        # A second client makes the same calls: its next one is this step.
        faulted_call = sum(stats.calls for stats in warm.service.stats.values())
        _trace(warm, actions)
    opts = ConnectionOpts(rpc_call_max_seconds=fault.DEADLINE, retry_wait_seconds=0.001)
    with fault.injected(deployment, faulted_call) as injected, deployment(
        **STEP_SHAPE, connection_opts=opts
    ) as env:
        runtime = env.service.runtime
        record = [_plain(env.reset())]

        def step(action):
            result = env.step(action)
            observation, reward, done, info = result
            record.append((_plain(observation), reward, done, info["action_had_no_effect"]))
            return result

        step(actions[0])
        step(actions[1])
        episode_reward = env.episode_reward
        session_id = env._session_id
        executed = deployment.steps_executed(env) + fault.executions(deployment)
        result = step(actions[2])
        # A daemon may still be executing a request whose reply was lost; a
        # request cut short must stay unexecuted however long it is given.
        _wait_until(lambda: deployment.steps_executed(env) == executed)
        if deployment.server is not None:
            time.sleep(0.1)
            assert deployment.steps_executed(env) == executed
        if fault.server:
            assert injected.served > faulted_call
        else:
            assert [call for transport in injected for call in transport.injected] == [
                (faulted_call, fault.kind, "step")
            ]
        if fault.retryable:
            for action in actions[3:]:
                step(action)
            assert record == reference[:1 + len(actions)]
            assert env.service.stats["step"].retries == 1
        else:
            assert record[:3] == reference[:3]
            assert env.service.stats["step"].retries == 0
            _assert_ended_with_error_defaults(env, result, episode_reward)
            assert env.actions == list(actions[:2])
            # The service still holds the session the episode ended in, and
            # it carries the faulted step as often as the step was executed.
            request = StepRequest(session_id, actions=[], observation_space_names=["Autophase"])
            held = env.service.step(request)
            observation = reference[2 + fault.executions(deployment)][0]
            assert _plain(held.observations[0].value()) == observation
        assert env.service.runtime is runtime
    with deployment(**STEP_SHAPE) as fresh:
        assert _trace(fresh, actions) == reference
