"""One behavioural suite over the deployment matrix.

Every test takes the ``deployment`` fixture of ``conftest.py`` and so runs in
each cell of {in-process, one daemon, 2-daemon gateway} x {result cache on,
off}. What an environment does must not depend on the cell: traces are
compared bit for bit with a reference computed once, in-process, with the
result cache off.
"""

import contextlib
import functools
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait as futures_wait

import networkx as nx
import numpy as np
import pytest

import repro
from repro.core.datasets import Benchmark
from repro.core.service import ConnectionOpts, ServiceConnection
from repro.core.service.proto import (
    EndSessionRequest,
    ForkSessionRequest,
    StartSessionRequest,
    StepRequest,
)
from repro.core.vector import BACKENDS, VecCompilerEnv
from repro.core.wrappers import TimeLimit
from repro.errors import (
    BenchmarkInitError,
    PermissionDeniedError,
    ServiceError,
    ServiceTransportError,
    SessionNotFound,
)
from repro.testing.chaos import FaultEvent, FaultPlan, inject
from tests.test_chaos import _wait_until
from tests.test_fork_equivalence import _assert_fork_replays_like_parent

new_session_id = ServiceConnection.new_session_id

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
    # A wrapped worker steps in the pool's one step_sessions batch too, its
    # wrapper's hooks run around it. The episodes never reach the budget.
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
        # Every pool step went out as one batch; the "step" entry counts the
        # batches' sub-steps, one per worker.
        calls = {method: stats.calls for method, stats in vec.workers[0].service.stats.items()}
        pool_steps = len(list(zip(_steps(EPISODES[1]), _steps(EPISODES[2]))))
        assert calls["step_sessions"] == pool_steps
        assert calls["step"] == 2 * pool_steps


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
    """A reset is one ``start_session``: it replaces the session under the
    env's id, answers the observation space and everything the reward reads
    to prime its baseline, and leaves the service holding only the new
    session."""
    with deployment(**dict(STEP_SHAPE, reward_space=reward_space)) as env:
        env.reset()
        env.step(EPISODES[1][0])  # The session to replace is one action in.
        held, members = deployment.sessions(env), _member_sessions(deployment, env)
        env.service.stats.clear()
        observation = env.reset()
        assert _calls(env) == {"start_session": 1}
        assert deployment.sessions(env) == held
        assert sum(_member_sessions(deployment, env)) == sum(members)
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
        assert deployment.sessions(env) == held
        assert sum(_member_sessions(deployment, env)) == sum(members)


def _start_request(session_id):
    return StartSessionRequest(
        session_id=session_id, benchmark_uri=f"benchmark://{STEP_SHAPE['benchmark']}"
    )


def test_a_start_or_fork_under_another_tenants_id_is_refused(deployment):
    """A caller names its sessions, but never with another tenant's id: a
    start or fork under one is refused, and the session under it steps on."""
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        if deployment.server is None:
            # In-process there is one tenant: start another's on the runtime.
            other = contextlib.nullcontext()
            runtime = env.service.runtime
            foreign = new_session_id()
            runtime.start_session(_start_request(foreign), owner="another-tenant")
            foreign_step = functools.partial(runtime.step, owner="another-tenant")
        else:
            other = deployment(**STEP_SHAPE, service_token="another-tenant")
            other.reset()
            foreign = other._session_id
            foreign_step = other.service.step
        with other:
            held, members = deployment.sessions(env), _member_sessions(deployment, env)
            refused = [
                functools.partial(env.service.start_session, _start_request(foreign)),
                functools.partial(
                    env.service.fork_session,
                    ForkSessionRequest(session_id=env._session_id, fork_id=foreign),
                ),
            ]
            for call in refused:
                with pytest.raises(PermissionDeniedError, match="another tenant"):
                    call()
            assert deployment.sessions(env) == held
            assert _member_sessions(deployment, env) == members
            reply = foreign_step(StepRequest(
                session_id=foreign, actions=[EPISODES[1][0]],
                observation_space_names=["Autophase"],
            ))
            assert _plain(reply.observations[0]) == _reference(EPISODES[1])[1][0]
            _, _, done, _ = env.step(EPISODES[1][0])
            assert not done


@pytest.mark.parametrize("session_id", [-1, 2**63, True], ids=["negative", "2**63", "bool"])
def test_an_id_that_is_not_a_63_bit_int_is_refused_and_builds_nothing(deployment, session_id):
    with deployment(**STEP_SHAPE) as env:
        env.reset()
        held, members = deployment.sessions(env), _member_sessions(deployment, env)
        with pytest.raises(ServiceError, match="session_id must be int|Session id must be"):
            env.service.start_session(_start_request(session_id))
        with pytest.raises(ServiceError, match="fork_id must be int|Session id must be"):
            env.service.fork_session(
                ForkSessionRequest(session_id=env._session_id, fork_id=session_id)
            )
        assert deployment.sessions(env) == held
        assert _member_sessions(deployment, env) == members
        assert not any(stats.retries for stats in env.service.stats.values())
        _, _, done, _ = env.step(EPISODES[1][0])
        assert not done


@pytest.mark.parametrize("method", ["start_session", "fork_session"])
def test_a_lost_start_or_fork_reply_leaves_nothing_once_the_env_is_closed(deployment, method):
    """The reply to a reset's ``start_session`` or to a ``fork_session`` is
    lost after the service ran it. The env named that session, so it still
    knows what to end: a reset replaces a lost start's session, a failed
    fork ends its own, and once the env is closed the service holds what it
    held before."""
    with deployment(**STEP_SHAPE) as env:
        before = deployment.sessions(env), _member_sessions(deployment, env)
    # Calls: get_spaces, start_session, then the fork_session. The lost
    # reply is awaited first, so the service has run the call.
    event = FaultEvent(call_index=1, kind="cut_recv", method=method, param=1)
    with inject(FaultPlan(events=(event,))) as made:
        env = deployment(**STEP_SHAPE)
    with env:
        if method == "start_session":
            with pytest.raises(ServiceTransportError):
                env.reset()
        env.reset()
        if method == "fork_session":
            with pytest.raises(ServiceTransportError):
                env.fork()
        assert [call for transport in made for call in transport.injected] == [
            (1 + (method == "fork_session"), "cut_recv", method)
        ]
        # The env's one session, whatever the service ran.
        assert deployment.sessions(env) == before[0] + 1
        assert sum(_member_sessions(deployment, env)) == sum(before[1]) + 1
        assert _trace(env, EPISODES[1]) == _reference(EPISODES[1])
    assert (deployment.sessions(env), _member_sessions(deployment, env)) == before


def test_a_start_the_env_gave_up_on_never_overtakes_its_next_reset(deployment, monkeypatch):
    """A start under the env's id is still running in the service (the env
    gave up on its reply) when the env's next reset arrives. Whichever of
    the two would finish last, the env steps the session of its reset, and
    the service holds that one session."""
    stale_uri = "benchmark://cbench-v1/qsort"
    with deployment(**STEP_SHAPE) as env:
        before = deployment.sessions(env), _member_sessions(deployment, env)
    opened, held = threading.Event(), threading.Event()

    def hold(uri):
        if str(uri) == stale_uri:
            held.set()
            assert opened.wait(10)

    with deployment(**STEP_SHAPE) as env, ThreadPoolExecutor(max_workers=2) as pool:
        env.reset()
        # The stale start is held where the service takes it in: at its
        # benchmark in a runtime, before it goes to a member in a gateway.
        if deployment.kind == "gateway":
            for daemon in deployment.server.live_daemons():
                start = daemon.connection.start_session
                monkeypatch.setattr(daemon.connection, "start_session", (
                    lambda request, start=start: hold(request.benchmark_uri) or start(request)
                ))
            info = deployment.server.server_info
            requests_read = lambda: info()["served_in_place"] + info()["handed_off"]  # noqa: E731
        else:
            runtime = deployment.server.runtime if deployment.server else env.service.runtime
            resolve = runtime._resolve_benchmark
            monkeypatch.setattr(
                runtime, "_resolve_benchmark", lambda uri: hold(uri) or resolve(uri)
            )
        stale = pool.submit(env.service.start_session, StartSessionRequest(
            session_id=env._session_id, benchmark_uri=stale_uri,
            observation_space_names=["Autophase"],
        ))
        assert held.wait(10)
        if deployment.kind == "gateway":
            read = requests_read()
            reset = pool.submit(env.reset)
            _wait_until(lambda: requests_read() > read)
        else:
            reset = pool.submit(env.reset)
            _wait_until(lambda: getattr(
                runtime.sessions.get(env._session_id), "uri", None
            ) == f"benchmark://{STEP_SHAPE['benchmark']}" or reset.done())
        # Time for the reset to finish first, if the service would let it.
        futures_wait([reset], timeout=0.25)
        opened.set()
        reference = _reference(EPISODES[1])
        assert _plain(reset.result(10)) == reference[0]
        if deployment.kind == "gateway":
            # It was routed before the reset, which then replaced it.
            assert stale.result(10).session_id == env._session_id
        else:
            with pytest.raises(SessionNotFound):
                stale.result(10)
        observation, reward, done, _ = env.step(EPISODES[1][0])
        assert (_plain(observation), reward, done) == reference[1][:3]
        assert deployment.sessions(env) == before[0] + 1
        assert sum(_member_sessions(deployment, env)) == sum(before[1]) + 1
    assert (deployment.sessions(env), _member_sessions(deployment, env)) == before


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
            env.service.start_session(StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://cbench-v1"))
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
            assert _plain(held.observations[0]) == observation
        assert env.service.runtime is runtime
    with deployment(**STEP_SHAPE) as fresh:
        assert _trace(fresh, actions) == reference
