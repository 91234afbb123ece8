"""Tests for the chaos harness and the proactive health layer.

What each fault does to an episode, in every deployment, is
``test_conformance.py``'s fault axis. Here: a seeded :class:`FaultPlan` is
deterministic and reusable; :func:`inject` reaches only the environments made
while it is open; the seeded soak injects every fault it schedules;
production code never imports the harness; the pre-auth
``heartbeat`` RPC; full-jitter retry desynchronization; the
:class:`HealthMonitor` detecting a SIGKILLed daemon within two heartbeat
intervals with no client RPC in flight; and a live member's connection
failures shed per session.
"""

import ast
import os
import pathlib
import signal
import socket
import time
from types import SimpleNamespace

import pytest

import repro
from repro.core.service import ConnectionOpts, ServiceConnection
from repro.core.service.gateway import ServiceGateway
from repro.core.service.health import HealthMonitor
from repro.core.service.proto import StartSessionRequest, StepRequest
from repro.core.service.runtime.server import ServiceServer
from repro.core.service.transport import ServiceTransport, SocketTransport
from repro.core.service.wire import REPLY_OK, read_frame, write_frame
from repro.core.vector import VecCompilerEnv
from repro.errors import PermissionDeniedError, ServiceError, ServiceIsDown
from repro.testing import chaos
from repro.testing.chaos import (
    ChaosTransport,
    FaultEvent,
    FaultPlan,
    inject,
    soak_once,
    soak_plan,
)
from tests.test_service import _runtime

new_session_id = ServiceConnection.new_session_id

BENCHMARK = "cbench-v1/qsort"
ACTIONS = [0, 11, 3, 7, 1, 23, 5]


def _make_env(url, **kwargs):
    return repro.make(
        "llvm-v0",
        benchmark=BENCHMARK,
        reward_space="IrInstructionCount",
        service_url=url,
        **kwargs,
    )


def _warm_benchmark():
    """Start and end a session on the benchmark under the default deadline,
    so that a tight deadline set afterwards meets only warm calls: the
    first start in a process resolves and parses the benchmark."""
    with _make_env(None) as env:
        env.reset()


# -- the fault plan -----------------------------------------------------------


class TestFaultPlan:
    def test_same_seed_same_schedule(self):
        a = FaultPlan.generate(seed=17, calls=100, rate=0.2)
        b = FaultPlan.generate(seed=17, calls=100, rate=0.2)
        assert a.events == b.events
        assert a.signature() == b.signature()

    def test_different_seed_different_schedule(self):
        a = FaultPlan.generate(seed=17, calls=100, rate=0.2)
        b = FaultPlan.generate(seed=18, calls=100, rate=0.2)
        assert a.signature() != b.signature()

    def test_generation_does_not_touch_global_rng(self):
        import random

        random.seed(123)
        before = random.random()
        random.seed(123)
        FaultPlan.generate(seed=17, calls=100, rate=0.5)
        assert random.random() == before

    def test_plan_is_immutable_and_reusable(self):
        plan = FaultPlan(events=(FaultEvent(call_index=3, kind="delay"),))
        with pytest.raises(AttributeError):
            plan.events = ()
        # Consuming state lives in the transport: two transports driven by
        # the same plan each see the full schedule.
        first = ChaosTransport(_NeverCalledTransport(), plan)
        second = ChaosTransport(_NeverCalledTransport(), plan)
        assert first._pending == second._pending

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="Unknown fault kind"):
            FaultEvent(call_index=0, kind="bogus")


class _NeverCalledTransport(ServiceTransport):
    """A stub transport for tests that never reach a real call."""

    def call(self, method, *args):
        raise AssertionError("unexpected call")


# -- reaching environments ----------------------------------------------------


def test_inject_wraps_the_envs_made_while_it_is_open_and_no_other():
    plan = FaultPlan(events=())
    with inject(plan) as made:
        env = repro.make("llvm-v0")
    with env, repro.make("llvm-v0") as plain:
        assert made == [env.service.transport]
        assert made[0].plan is plan
        assert made[0].calls == 1  # get_spaces, in the constructor.
        assert not isinstance(plain.service.transport, ChaosTransport)


def test_the_session_of_a_slow_success_is_ended_by_the_next_reset_or_by_close():
    """A step that came back past its deadline ends the episode, but the
    service did run it and still holds its session: the next reset replaces
    that session in its one ``start_session``, and ``close()`` ends one that
    no reset came for."""
    _warm_benchmark()
    opts = ConnectionOpts(rpc_call_max_seconds=0.1, retry_wait_seconds=0.001)
    # Calls: get_spaces, start_session, step (faulted), start_session,
    # fork_session, the fork's step (faulted).
    plan = FaultPlan(events=tuple(
        FaultEvent(call_index=index, kind="delay", method="step", param=0.15)
        for index in (2, 5)
    ))
    with inject(plan):
        env = _make_env(None, connection_opts=opts)
    with env:
        runtime = env.service.runtime
        env.reset()
        _, _, done, info = env.step(ACTIONS[0])
        assert done and "deadline" in info["error_details"]
        assert not env.in_episode and len(runtime.sessions) == 1
        env.reset()
        assert len(runtime.sessions) == 1 and "end_session" not in env.service.stats
        fork = env.fork()
        _, _, done, _ = fork.step(ACTIONS[1])
        assert done and len(runtime.sessions) == 2
        fork.close()
        assert len(runtime.sessions) == 1
        _, _, done, _ = env.step(ACTIONS[1])
        assert not done


def test_a_start_that_came_back_late_leaves_no_session_behind():
    """A reset whose ``start_session`` came back past its deadline raises,
    but the service started the session (and ended the old one): the next
    reset replaces it, so the service holds one session, not two."""
    _warm_benchmark()
    opts = ConnectionOpts(rpc_call_max_seconds=0.1, retry_wait_seconds=0.001)
    # Calls: get_spaces, start_session, start_session (faulted).
    event = FaultEvent(call_index=2, kind="delay", method="start_session", param=0.15)
    with inject(FaultPlan(events=(event,))):
        env = _make_env(None, connection_opts=opts)
    with env:
        runtime = env.service.runtime
        env.reset()
        with pytest.raises(ServiceError, match="deadline"):
            env.reset()
        assert not env.in_episode and len(runtime.sessions) == 1
        env.reset()
        assert len(runtime.sessions) == 1


def test_production_code_never_imports_the_harness():
    src = pathlib.Path(repro.__file__).parent
    importers = []
    for path in src.rglob("*.py"):
        if path.relative_to(src).parts[0] == "testing":
            continue
        text = path.read_text()
        if "testing" not in text:
            continue
        for node in ast.walk(ast.parse(text)):
            names = []
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            if any(name == "repro.testing" or name.startswith("repro.testing.") for name in names):
                importers.append(str(path.relative_to(src)))
    assert importers == []


def test_injection_log_is_deterministic_across_transports():
    plan = FaultPlan.generate(seed=2, calls=12, rate=0.4, kinds=("refuse_connect",))
    assert plan.events, "seed 2 must schedule at least one event"
    logs = []
    for _ in range(2):
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            transport = ChaosTransport(SocketTransport(server.url, timeout=5.0), plan)
            connection = ServiceConnection(
                transport, ConnectionOpts(rpc_max_retries=4, retry_wait_seconds=0.001)
            )
            session = connection.start_session(
                StartSessionRequest(session_id=new_session_id(), benchmark_uri="benchmark://t-v0/0")
            )
            for action in (1, 3, 1, 4):
                connection.step(StepRequest(session_id=session.session_id, actions=[action]))
            logs.append(list(transport.injected))
            connection.close()
    assert logs[0] == logs[1]


def test_the_soak_injects_every_fault_it_schedules():
    """One seeded soak over a 2-daemon gateway: each scheduled fault fires at
    its own call index, so none falls past the soak's last call."""
    plan = soak_plan(seed=0)
    assert len({event.kind for event in plan.events}) >= 3
    traces, injected, _, left = soak_once(seed=0)
    assert any(traces) and left == 0
    assert [(index, kind) for index, kind, _ in injected] == [
        (event.call_index, event.kind) for event in plan.events
    ]


def test_soak_plan_is_seeded_and_fits_the_soak():
    """Same seed, same schedule; every event falls on a call the soak makes,
    and the one SIGKILL waits for the first step() at ``SOAK_KILL_CALL``."""
    for seed in range(3):
        plan = chaos.soak_plan(seed)
        assert plan.signature() == chaos.soak_plan(seed).signature()
        assert all(0 <= event.call_index < chaos.SOAK_CALLS for event in plan.events)
        kills = [event for event in plan.events if event.kind == "kill_daemon"]
        assert [(k.call_index, k.method) for k in kills] == [(chaos.SOAK_KILL_CALL, "step")]
    assert chaos.soak_plan(0).signature() != chaos.soak_plan(1).signature()


def _fake_soak_once(injected_per_run, digests, left=0):
    """A stand-in for :func:`soak_once` that replays canned run results."""
    def soak_once(seed, run_index=0):
        return [[0, 1]], injected_per_run(seed, run_index), digests[run_index], left
    return soak_once


def _scheduled(seed, run_index):
    return [(e.call_index, e.kind, e.method) for e in chaos.soak_plan(seed).events]


def test_soak_fails_unless_every_scheduled_fault_is_injected(monkeypatch, capsys):
    monkeypatch.setattr(
        chaos, "soak_once",
        _fake_soak_once(lambda seed, run: _scheduled(seed, run)[:-1], ["d0"]),
    )
    assert chaos.soak(0) == 1
    scheduled = len(chaos.soak_plan(0).events)
    assert f"{scheduled - 1} of {scheduled} scheduled fault(s) injected" in (
        capsys.readouterr().err
    )


def test_soak_fails_when_a_session_is_left_after_close(monkeypatch, capsys):
    monkeypatch.setattr(chaos, "soak_once", _fake_soak_once(_scheduled, ["d0"], left=1))
    assert chaos.soak(0) == 1
    assert "1 session(s) and route(s) left after close" in capsys.readouterr().err


def test_soak_fails_when_runs_disagree(monkeypatch, capsys):
    monkeypatch.setattr(chaos, "soak_once", _fake_soak_once(_scheduled, ["d0", "d1"]))
    assert chaos.soak(0, runs=2) == 1
    assert "NOT deterministic across 2 runs" in capsys.readouterr().err


def test_soak_passes_identical_runs(monkeypatch, capsys):
    monkeypatch.setattr(chaos, "soak_once", _fake_soak_once(_scheduled, ["d0", "d0"]))
    assert chaos.soak(0, runs=2) == 0
    captured = capsys.readouterr()
    assert "Deterministic: 2 run(s)" in captured.out
    assert captured.err == ""


def test_soak_command_takes_only_seed_and_runs(monkeypatch, capsys):
    """Everything but the seed and the repeat count is a module constant."""
    calls = []
    monkeypatch.setattr(chaos, "soak", lambda seed, runs: calls.append((seed, runs)) or 0)
    assert chaos.main(["soak", "--seed", "3", "--runs", "2"]) == 0
    assert calls == [(3, 2)]
    with pytest.raises(SystemExit) as exit_info:
        chaos.main(["soak", "--daemons", "3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --daemons" in capsys.readouterr().err
    assert calls == [(3, 2)]


def _wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    assert predicate()


# -- the heartbeat RPC --------------------------------------------------------


class TestHeartbeat:
    def test_heartbeat_returns_identity_and_uptime(self):
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            transport = SocketTransport(server.url, timeout=5.0)
            transport.connect()
            try:
                beat = transport.heartbeat()
                assert beat["pid"] == os.getpid()  # in-process daemon
                assert beat["uptime_s"] >= 0.0
                info = transport.server_info()
                assert info["heartbeats_served"] >= 1
                assert info["last_heartbeat_age_s"] is not None
            finally:
                transport.shutdown()

    def test_heartbeat_is_served_before_auth(self):
        """A health monitor needs no tenant token: a raw connection that
        never said hello (and holds no token) still gets its heartbeat
        answered, while any other RPC is rejected."""
        with ServiceServer(
            _runtime(), session_timeout=None, auth_tokens=["secret"]
        ).start() as server:
            host, port = server.url[len("tcp://"):].rsplit(":", 1)
            raw = socket.create_connection((host, int(port)), timeout=5.0)
            try:
                wfile = raw.makefile("wb")
                rfile = raw.makefile("rb")
                write_frame(wfile, (1, "heartbeat", ()))
                request_id, status, payload = read_frame(rfile)
                assert (request_id, status) == (1, REPLY_OK)
                assert payload["pid"] == os.getpid()
                # The same tokenless connection may NOT call anything else.
                write_frame(wfile, (2, "server_info", ()))
                request_id, status, payload = read_frame(rfile)
                assert request_id == 2
                assert status != REPLY_OK
                assert isinstance(payload, PermissionDeniedError)
            finally:
                raw.close()


# -- retry jitter desynchronization -------------------------------------------


class _AlwaysFailingTransport(ServiceTransport):
    """Answers get_spaces (so ServiceConnection can bootstrap), then fails
    every call with a generic (retryable) error."""

    def call(self, method, *args):
        if method == "get_spaces":
            # ServiceConnection stores the reply opaquely; a sentinel is
            # enough to bootstrap without a real runtime.
            return object()
        raise RuntimeError("chaos: simulated backend crash")


class TestRetryJitterDesync:
    """Regression: pool workers that lose the same daemon must not retry in
    lockstep. Each retry sleeps uniform(0, wait), never wait itself."""

    def _failing_connection(self, monkeypatch):
        sleeps, uniforms = [], []
        import repro.core.service.connection as connection_module

        monkeypatch.setattr(
            connection_module.time, "sleep", lambda s: sleeps.append(s)
        )
        real_uniform = connection_module.random.uniform

        def recording_uniform(low, high):
            uniforms.append((low, high))
            return real_uniform(low, high)

        monkeypatch.setattr(connection_module.random, "uniform", recording_uniform)
        connection = ServiceConnection(
            _AlwaysFailingTransport(),
            ConnectionOpts(rpc_max_retries=3, retry_wait_seconds=0.5),
        )
        return connection, sleeps, uniforms

    def test_jitter_on_by_default_sleeps_uniform(self, monkeypatch):
        connection, sleeps, uniforms = self._failing_connection(monkeypatch)
        with pytest.raises(ServiceError, match="failed after 3 attempts"):
            connection._call("step")
        # Two retries: draws from uniform(0, wait) with backed-off waits,
        # never the deterministic wait itself.
        assert uniforms == [(0.0, 0.5), (0.0, 0.75)]
        assert len(sleeps) == 2
        assert all(0.0 <= s <= high for s, (_, high) in zip(sleeps, uniforms))


# -- heartbeat-driven failover (acceptance) -----------------------------------


class _ScriptedFleet:
    """A one-member gateway whose probe answers from a script (None: alive)."""

    def __init__(self, outcomes):
        self.member = SimpleNamespace(index=0, url="tcp://member", dead=False)
        self._outcomes = iter(outcomes)

    def live_daemons(self):
        return [] if self.member.dead else [self.member]

    def probe(self, daemon):
        return next(self._outcomes)

    def _handle_daemon_failure(self, daemon, error):
        assert isinstance(error, ServiceIsDown)
        daemon.dead = True


@pytest.mark.parametrize(
    "outcomes, dies_at_sweep",
    [
        ([ConnectionRefusedError()], 1),
        ([TimeoutError(), TimeoutError()], 2),
        ([TimeoutError(), None, TimeoutError(), None], None),
        ([None, None, None], None),
    ],
    ids=["refused-at-once", "misses-reach-threshold", "misses-are-consecutive", "answers"],
)
def test_the_monitor_retires_a_member_by_its_rule(outcomes, dies_at_sweep):
    fleet = _ScriptedFleet(outcomes)
    monitor = HealthMonitor(fleet, interval=60, failure_threshold=2)
    sweeps = 0
    while not fleet.member.dead and sweeps < len(outcomes):
        monitor.probe_once()
        sweeps += 1
    assert (sweeps if fleet.member.dead else None) == dies_at_sweep
    assert monitor.deaths_detected == (dies_at_sweep is not None)


def _daemon_hosting(gateway, want_sessions=True):
    for daemon in gateway.live_daemons():
        hosts = any(record.daemon is daemon for record in gateway._sessions.values())
        if hosts == want_sessions:
            return daemon
    raise AssertionError("No daemon matched the requested load profile")


class TestHealthMonitorFailover:
    HEARTBEAT = 0.25

    def test_sigkill_detected_without_client_rpc(self):
        """Acceptance: a SIGKILLed daemon is detected and its sessions
        re-homed by the HealthMonitor within 2 heartbeat intervals, with no
        client RPC in flight."""
        gateway = ServiceGateway(
            env_id="llvm-v0", daemons=2, heartbeat_interval=self.HEARTBEAT
        ).start()
        env = _make_env(gateway.url)
        try:
            assert isinstance(gateway.health_monitor, HealthMonitor)
            env.reset()
            env.step(ACTIONS[0])
            victim = _daemon_hosting(gateway)
            os.kill(victim.pid, signal.SIGKILL)
            killed_at = time.monotonic()
            # NO client RPC from here on: the monitor alone must notice.
            budget = 2 * self.HEARTBEAT
            while gateway.failovers == 0:
                assert time.monotonic() - killed_at < budget + 2.0, (
                    "HealthMonitor did not detect the SIGKILLed daemon"
                )
                time.sleep(0.01)
            detection_latency = time.monotonic() - killed_at
            # The hard SLO (2 intervals) plus scheduling slack for loaded CI.
            assert detection_latency < budget + 1.0
            assert victim.dead
            # Detection precedes the replay; the monitor re-homes moments
            # later (still with no client RPC in flight).
            _wait_until(lambda: gateway.rehomed_sessions >= 1)
            assert gateway.health_monitor.deaths_detected >= 1
            # The replayed session continues the episode on a survivor.
            _, reward, done, _ = env.step(ACTIONS[1])
            assert reward is not None and not done
            assert env.actions == ACTIONS[:2]
        finally:
            env.close()
            gateway.shutdown()

    def test_fleet_health_in_server_info(self):
        gateway = ServiceGateway(
            env_id="llvm-v0", daemons=2, heartbeat_interval=self.HEARTBEAT
        ).start()
        try:
            _wait_until(
                lambda: all(
                    d.last_heartbeat is not None for d in gateway.live_daemons()
                )
            )
            info = gateway.server_info()
            assert info["health_monitor"]["interval_s"] == self.HEARTBEAT
            assert info["health_monitor"]["probes"] >= 2
            assert info["failovers"] == 0
            assert info["rehomed_sessions"] == 0
            for daemon_info in info["daemons"]:
                assert daemon_info["last_heartbeat_age_s"] is not None
                assert daemon_info["last_heartbeat_age_s"] < 10.0
        finally:
            gateway.shutdown()


class TestGracefulDegradation:
    @pytest.mark.parametrize(
        "pooled, stage",
        [(True, "send"), (False, "send"), (True, "reply"), (False, "reply")],
        ids=["pool", "single-env", "pool-awaited", "single-env-awaited"],
    )
    def test_a_members_connection_failures_are_shed_per_session(
        self, pooled, stage, monkeypatch
    ):
        """Sessions on a live member whose connection fails get per-session
        ServiceIsDown, whether their step travelled alone or in a pool's batch
        (which never fails whole), and whether the connection failed as the
        step was sent or as its reply was awaited; the other daemon's tenant
        keeps stepping; the member is not retired, so once its connection
        heals it serves again."""
        gateway = ServiceGateway(env_id="llvm-v0", daemons=2).start()
        env_a = _make_env(gateway.url)
        env_b = _make_env(gateway.url)
        try:
            env_a.reset()
            env_b.reset()
            tenant = VecCompilerEnv(env_a, n=2, backend="thread") if pooled else env_a

            def step(action):
                if pooled:
                    return tenant.step([action, action])[1:]
                _, reward, done, info = tenant.step(action)
                return [reward], [done], [info]

            def reset_by_peer(*args):
                raise ConnectionResetError("connection reset by peer")

            def reset_awaiting(requests):
                collect = send(requests)

                def reply():
                    collect()
                    reset_by_peer()

                return reply

            with tenant:
                tenant.reset()
                # env_b's daemon carries just env_b; a pool's forked sessions
                # co-locate with their root on the other one.
                broken = gateway._sessions[env_a._session_id].daemon
                assert gateway._sessions[env_b._session_id].daemon is not broken
                rewards, dones, _ = step(ACTIONS[0])
                assert not any(dones) and all(reward > 0 for reward in rewards)
                # The daemon stays alive and answers its heartbeat throughout.
                send = broken.connection.send_step_sessions
                monkeypatch.setattr(
                    broken.connection, "send_step_sessions",
                    reset_by_peer if stage == "send" else reset_awaiting,
                )
                monkeypatch.setattr(broken.connection, "fork_session", reset_by_peer)
                # A fork is shed like a step.
                with pytest.raises(ServiceIsDown):
                    env_a.fork()
                degraded, dones, infos = step(ACTIONS[1])
                assert all(dones)
                assert all(info.get("service_is_down") for info in infos)
                assert degraded == [
                    env_a.reward_space.reward_on_error(reward) for reward in rewards
                ]
                assert not broken.dead and gateway.failovers == 0
                # The client forgets a session answered ServiceIsDown without
                # an end_session, so the gateway drops its route too: the
                # outage leaves nothing counted against the broken daemon.
                (entry,) = [
                    d for d in gateway.server_info()["daemons"]
                    if d["index"] == broken.index
                ]
                assert entry["sessions"] == 0
                # The other daemon's tenant is untouched by the outage. Its
                # forks crowd that daemon, so the recovering tenant is placed
                # back on the emptied broken one as the strictly least loaded.
                _, reward, done, _ = env_b.step(ACTIONS[0])
                assert reward is not None and not done
                crowd = [env_b.fork(), env_b.fork()]
                monkeypatch.undo()
                tenant.reset()
                assert gateway._sessions[env_a._session_id].daemon is broken
                _, dones, _ = step(ACTIONS[1])
                assert not any(dones)
                for fork in crowd:
                    fork.close()
        finally:
            env_a.close()
            env_b.close()
            gateway.shutdown()
