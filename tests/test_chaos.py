"""Tests for the chaos harness and the proactive health layer.

Covers the PR's acceptance criteria: a seeded :class:`FaultPlan` is
deterministic and reusable; :class:`ChaosTransport` injects each fault kind
through the transport's *production* classification paths (retryable
pre-send failures, non-retryable partial flushes, at-most-once reply loss,
slow-success deadline breaches); daemon-side :class:`ServerChaos` drops,
corrupts, and delays replies; the pre-auth ``heartbeat`` RPC; full-jitter
retry desynchronization; the :class:`HealthMonitor` detecting a SIGKILLed
daemon within two heartbeat intervals with no client RPC in flight; and a
live member's connection failures shed per session.
"""

import os
import signal
import socket
import time
from types import SimpleNamespace

import pytest

import repro
from repro.core.service import ConnectionOpts, ServiceConnection
from repro.core.service.chaos import (
    ChaosTransport,
    FaultEvent,
    FaultPlan,
    ServerChaos,
    resolve_chaos,
)
from repro.core.service.gateway import ServiceGateway
from repro.core.service.health import HealthMonitor
from repro.core.service.proto import StartSessionRequest, StepRequest
from repro.core.service.runtime.server import ServiceServer
from repro.core.service.transport import ServiceTransport, SocketTransport
from repro.core.service.wire import REPLY_OK, read_frame, write_frame
from repro.core.vector import VecCompilerEnv
from repro.errors import (
    PermissionDeniedError,
    ServiceError,
    ServiceIsDown,
    ServiceTransportError,
)
from tests.test_service import _runtime

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

    def test_resolve_chaos_coercions(self):
        assert resolve_chaos(None) is None
        plan = FaultPlan(events=())
        assert resolve_chaos(plan) is plan
        generated = resolve_chaos(42)
        assert isinstance(generated, FaultPlan)
        assert generated.seed == 42
        assert generated.events == FaultPlan.generate(seed=42, calls=256).events
        with pytest.raises(TypeError, match="chaos must be"):
            resolve_chaos("0.5")
        with pytest.raises(TypeError, match="chaos must be"):
            resolve_chaos(True)


class _NeverCalledTransport(ServiceTransport):
    """A stub transport for tests that never reach a real call."""

    def call(self, method, *args):
        raise AssertionError("unexpected call")


# -- client-side fault injection ----------------------------------------------


def _step_fault(kind, param=0.0):
    """A plan with one fault on the first step() RPC of the connection.

    Method-restricted events slide forward from index 0 until the first
    matching call, so the schedule is independent of how many bootstrap
    RPCs (get_spaces, start_session) precede the step.
    """
    return FaultPlan(
        events=(FaultEvent(call_index=0, kind=kind, method="step", param=param),)
    )


class TestChaosTransportInjection:
    """Each fault kind must flow through the transport's own classifier —
    the same code paths production failures take — not a simulation."""

    def _connect(self, server, plan, **opts):
        transport = ChaosTransport(SocketTransport(server.url, timeout=5.0), plan)
        connection = ServiceConnection(
            transport,
            ConnectionOpts(
                rpc_max_retries=3, retry_wait_seconds=0.001, **opts
            ),
        )
        session = connection.start_session(
            StartSessionRequest(benchmark_uri="benchmark://t-v0/0")
        )
        return transport, connection, session

    def test_refused_connect_is_retried_and_applied_exactly_once(self):
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            transport, connection, session = self._connect(
                server, _step_fault("refuse_connect")
            )
            steps_before = server.runtime.stats["step"]
            reply = connection.step(
                StepRequest(
                    session_id=session.session_id,
                    actions=[1],
                    observation_space_names=["value"],
                )
            )
            assert reply.observations[0].value() == 1
            assert connection.stats["step"].retries == 1
            assert server.runtime.stats["step"] == steps_before + 1
            assert transport.injected == [(2, "refuse_connect", "step")]
            connection.close()

    def test_presend_cut_is_retried_and_applied_exactly_once(self):
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            transport, connection, session = self._connect(
                server, _step_fault("cut_send", param=0.0)
            )
            steps_before = server.runtime.stats["step"]
            reply = connection.step(
                StepRequest(
                    session_id=session.session_id,
                    actions=[1],
                    observation_space_names=["value"],
                )
            )
            assert reply.observations[0].value() == 1
            assert connection.stats["step"].retries == 1
            assert server.runtime.stats["step"] == steps_before + 1
            connection.close()

    def test_partial_flush_cut_is_never_retried(self):
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            transport, connection, session = self._connect(
                server, _step_fault("cut_send", param=5.0)
            )
            steps_before = server.runtime.stats["step"]
            with pytest.raises(ServiceTransportError, match="will not be retried"):
                connection.step(
                    StepRequest(session_id=session.session_id, actions=[1])
                )
            assert connection.stats["step"].retries == 0
            assert server.runtime.stats["step"] == steps_before
            connection.close()

    def test_reply_loss_is_at_most_once(self):
        """cut_recv: the daemon executes the request, the client never sees
        the reply — and must NOT retry, or the step would apply twice."""
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            transport, connection, session = self._connect(
                server, _step_fault("cut_recv")
            )
            steps_before = server.runtime.stats["step"]
            with pytest.raises(ServiceTransportError, match="will not be retried"):
                connection.step(
                    StepRequest(session_id=session.session_id, actions=[1])
                )
            assert connection.stats["step"].retries == 0
            # The daemon DID apply the step (the request was flushed whole).
            _wait_until(lambda: server.runtime.stats["step"] == steps_before + 1)
            # The daemon session carries the applied action; a fresh
            # connection epoch observes it rather than re-applying it.
            reply = connection.step(
                StepRequest(
                    session_id=session.session_id,
                    actions=[],
                    observation_space_names=["value"],
                )
            )
            assert reply.observations[0].value() == 1
            connection.close()

    def test_delayed_reply_past_deadline_is_not_retried(self):
        with ServiceServer(_runtime(), session_timeout=None).start() as server:
            transport, connection, session = self._connect(
                server,
                _step_fault("delay", param=0.2),
                rpc_call_max_seconds=0.05,
            )
            steps_before = server.runtime.stats["step"]
            with pytest.raises(ServiceTransportError, match="will not be retried"):
                connection.step(
                    StepRequest(session_id=session.session_id, actions=[1])
                )
            assert connection.stats["step"].retries == 0
            assert server.runtime.stats["step"] == steps_before + 1
            connection.close()

    @pytest.mark.parametrize("kind", ["refuse_connect", "cut_send"])
    def test_a_retryable_fault_in_process_retries_on_the_same_runtime(self, kind):
        """With no socket to cut, a fault that sends nothing fails the call
        before it reaches the runtime: the retry goes to that same runtime,
        and the episode steps on in the session it already had."""
        with repro.make("llvm-v0", benchmark=BENCHMARK, chaos=_step_fault(kind)) as env:
            env.reset()
            runtime = env.service.runtime
            for action in ACTIONS[:2]:
                _, _, done, info = env.step(action)
                assert not done and "error_details" not in info
            assert env.service.stats["step"].retries == 1
            assert env.service.runtime is runtime
            assert [fault[1:] for fault in env.service.transport.injected] == [(kind, "step")]

    def test_injection_log_is_deterministic_across_transports(self):
        plan = FaultPlan.generate(
            seed=2, calls=12, rate=0.4, kinds=("refuse_connect",)
        )
        assert plan.events, "seed 3 must schedule at least one event"
        logs = []
        for _ in range(2):
            with ServiceServer(_runtime(), session_timeout=None).start() as server:
                transport = ChaosTransport(
                    SocketTransport(server.url, timeout=5.0), plan
                )
                connection = ServiceConnection(
                    transport,
                    ConnectionOpts(rpc_max_retries=4, retry_wait_seconds=0.001),
                )
                session = connection.start_session(
                    StartSessionRequest(benchmark_uri="benchmark://t-v0/0")
                )
                for action in (1, 3, 1, 4):
                    connection.step(
                        StepRequest(session_id=session.session_id, actions=[action])
                    )
                logs.append(list(transport.injected))
                connection.close()
        assert logs[0] == logs[1]

    def test_env_level_chaos_wraps_transport(self):
        """make(..., chaos=...) puts a ChaosTransport between the env and
        its service, whatever the underlying transport."""
        plan = FaultPlan(events=())
        env = repro.make("llvm-v0", chaos=plan)
        try:
            assert isinstance(env.service.transport, ChaosTransport)
            assert env.service.transport.plan is plan
        finally:
            env.close()


def _wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    assert predicate()


# -- daemon-side fault injection ----------------------------------------------


class TestServerChaos:
    def _server(self):
        return ServiceServer(_runtime(), session_timeout=None).start()

    def test_dropped_reply_after_execution(self):
        """drop_reply_at exercises the at-most-once path from the daemon
        side: the request executes, the reply never leaves the server."""
        with self._server() as server:
            connection = ServiceConnection(
                SocketTransport(server.url, timeout=5.0),
                ConnectionOpts(rpc_max_retries=3, retry_wait_seconds=0.001),
            )
            session = connection.start_session(
                StartSessionRequest(benchmark_uri="benchmark://t-v0/0")
            )
            steps_before = server.runtime.stats["step"]
            # ServerChaos counts non-hello RPCs from the moment it is
            # attached: the next request — our step — is index 0.
            server.chaos = ServerChaos(drop_reply_at={0})
            with pytest.raises(ServiceTransportError, match="will not be retried"):
                connection.step(
                    StepRequest(session_id=session.session_id, actions=[1])
                )
            assert server.runtime.stats["step"] == steps_before + 1
            assert connection.stats["step"].retries == 0
            connection.close()

    def test_corrupted_reply_is_a_service_error_not_a_retry(self):
        with self._server() as server:
            connection = ServiceConnection(
                SocketTransport(server.url, timeout=5.0),
                ConnectionOpts(rpc_max_retries=3, retry_wait_seconds=0.001),
            )
            session = connection.start_session(
                StartSessionRequest(benchmark_uri="benchmark://t-v0/0")
            )
            steps_before = server.runtime.stats["step"]
            server.chaos = ServerChaos(corrupt_reply_at={0})
            with pytest.raises((ServiceError, ConnectionError)):
                connection.step(
                    StepRequest(session_id=session.session_id, actions=[1])
                )
            assert server.runtime.stats["step"] == steps_before + 1
            connection.close()

    def test_delayed_reply_holds_the_call(self):
        with self._server() as server:
            connection = ServiceConnection(SocketTransport(server.url, timeout=5.0))
            session = connection.start_session(
                StartSessionRequest(benchmark_uri="benchmark://t-v0/0")
            )
            server.chaos = ServerChaos(delay_reply={0: 0.2})
            started = time.monotonic()
            connection.step(StepRequest(session_id=session.session_id, actions=[1]))
            assert time.monotonic() - started >= 0.15
            connection.close()


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
    @pytest.mark.parametrize("pooled", [True, False], ids=["pool", "single-env"])
    def test_a_members_connection_failures_are_shed_per_session(self, pooled, monkeypatch):
        """Sessions on a live member whose connection fails get per-session
        ServiceIsDown, whether their step travelled alone or in a pool's batch
        (which never fails whole), and the other daemon's tenant keeps
        stepping; the member is not retired, so once its connection heals it
        serves again."""
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

            with tenant:
                tenant.reset()
                # env_b's daemon carries just env_b; a pool's forked sessions
                # co-locate with their root on the other one.
                broken = gateway._sessions[env_a._session_id].daemon
                assert gateway._sessions[env_b._session_id].daemon is not broken
                rewards, dones, _ = step(ACTIONS[0])
                assert not any(dones) and all(reward > 0 for reward in rewards)
                # The daemon stays alive and answers its heartbeat throughout.
                monkeypatch.setattr(broken.connection, "step_sessions", reset_by_peer)
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
