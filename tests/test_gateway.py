"""Tests for the session-routing gateway over a daemon fleet.

Covers the PR's acceptance criteria: a two-daemon gateway is
trace-equivalent to a single daemon, survives SIGKILL of a daemon
mid-rollout, rejects cross-tenant session access and version-skewed peers,
and the fleet autoscaling policy turns per-daemon call accounting into
daemon-count decisions.
"""

import os
import pickle
import signal
import struct
import time

import pytest

import repro
from repro.core.service.connection import ServiceConnection
from repro.core.service.gateway import ServiceGateway
from repro.core.service.proto import StartSessionRequest, StepRequest
from repro.core.service.transport import SocketTransport
from repro.core.service.wire import WIRE_VERSION
from repro.core.vector import FleetAutoscalePolicy, VecCompilerEnv
from repro.core.vector.autoscale import interval_delta
from repro.errors import PermissionDeniedError, ServiceError
from tests.test_transport import _assert_hung_up_on

BENCHMARK = "cbench-v1/qsort"
ACTIONS = [0, 11, 3, 7, 1, 23, 5]


@pytest.fixture
def gateway():
    gw = ServiceGateway(env_id="llvm-v0", daemons=2).start()
    yield gw
    gw.shutdown()


def _make_env(url, **kwargs):
    return repro.make(
        "llvm-v0",
        benchmark=BENCHMARK,
        reward_space="IrInstructionCount",
        service_url=url,
        **kwargs,
    )


def _described(spaces):
    return [(m.name, m.space) for m in spaces.action_spaces + spaces.observation_spaces]


def _rollout(url, actions=ACTIONS, **kwargs):
    env = _make_env(url, **kwargs)
    try:
        env.reset()
        trace = []
        for action in actions:
            observation, reward, done, _ = env.step(action)
            trace.append((reward, done))
            if done:
                break
        return trace
    finally:
        env.close()


class TestGatewayRouting:
    def test_server_info_reports_fleet(self, gateway):
        info = gateway.server_info()
        assert info["role"] == "gateway"
        assert info["protocol_version"] == WIRE_VERSION
        assert len(info["daemons"]) == 2
        assert all(d["pid"] is not None for d in info["daemons"])

    def test_client_server_info_via_rpc(self, gateway):
        with ServiceConnection(SocketTransport(gateway.url)) as connection:
            info = connection.transport.server_info()
            assert info["role"] == "gateway"


class TestGatewayFailover:
    def _daemon_hosting(self, gateway, want_sessions=True):
        for daemon in gateway.live_daemons():
            hosts = any(
                record.daemon is daemon for record in gateway._sessions.values()
            )
            if hosts == want_sessions:
                return daemon
        raise AssertionError("No daemon matched the requested load profile")

    def test_sigkill_failover_mid_episode(self, gateway):
        env = _make_env(gateway.url)
        try:
            env.reset()
            for action in ACTIONS[:3]:
                env.step(action)
            victim = self._daemon_hosting(gateway)
            os.kill(victim.pid, signal.SIGKILL)
            # The next step rides through failover: the session is replayed
            # onto the surviving daemon and the step applied exactly once.
            _, reward, done, _ = env.step(ACTIONS[3])
            assert reward is not None and not done
            assert gateway.server_info()["failovers"] == 1
            assert env.actions == ACTIONS[:4]
            # A client that connects after the failover asks for its spaces
            # like any other, reads what the first client read, and steps.
            with _make_env(gateway.url) as late:
                assert late.service.stats["get_spaces"].calls == 1
                assert _described(late.service.spaces) == _described(env.service.spaces)
                late.reset()
                _, reward, done, _ = late.step(ACTIONS[0])
                assert reward is not None and not done
        finally:
            env.close()

    def test_sigkill_failover_mid_rollout_vec_pool(self, gateway):
        """Acceptance: kill one daemon mid-rollout under a 2-worker pool;
        the pool completes the rollout on replayed sessions."""
        env = _make_env(gateway.url)
        with VecCompilerEnv(env, n=2, backend="thread") as vec:
            vec.reset()
            vec.step([ACTIONS[0], ACTIONS[1]])
            # The pool's forked sessions co-locate with the root's daemon;
            # kill whichever daemon carries sessions.
            victim = self._daemon_hosting(gateway)
            os.kill(victim.pid, signal.SIGKILL)
            for action in ACTIONS[2:]:
                _, rewards, dones, infos = vec.step([action, action])
                assert len(rewards) == 2
                assert not any(dones)
            assert gateway.server_info()["failovers"] == 1
            assert [w.actions for w in vec.workers] == [
                [ACTIONS[0]] + ACTIONS[2:],
                [ACTIONS[1]] + ACTIONS[2:],
            ]

    def test_failover_replay_preserves_episode_state(self, gateway):
        """The replayed session continues the episode, not a fresh one:
        cumulative rewards match an uninterrupted run."""
        expected = _rollout(None)  # in-process
        env = _make_env(gateway.url)
        try:
            env.reset()
            trace = []
            for i, action in enumerate(ACTIONS):
                if i == 4:
                    victim = self._daemon_hosting(gateway)
                    os.kill(victim.pid, signal.SIGKILL)
                _, reward, done, _ = env.step(action)
                trace.append((reward, done))
            assert trace == expected
        finally:
            env.close()

    def test_sigkill_under_a_cache_served_episode(self, gateway):
        """The configuration people run: result cache on and warm. The episode's
        steps are all hits, so its session is unbuilt on the daemon that dies.
        The replay is one batched step (a miss: a prefix's flags are keyed on
        the batching), so the survivor builds the session, runs the remaining
        hits on it, and then the first action nobody has walked."""
        beyond = ACTIONS + [42]
        expected = _rollout(None, actions=beyond, result_cache=False)  # in-process
        # Two concurrent episodes land on different daemons: both caches warm.
        warmers = [_make_env(gateway.url), _make_env(gateway.url)]
        try:
            for env in warmers:
                env.reset()
            for env in warmers:
                for action in ACTIONS:
                    env.step(action)
        finally:
            for env in warmers:
                env.close()
        warm = gateway.result_cache_stats()["total"]
        assert warm["daemons"] == 2

        env = _make_env(gateway.url)
        try:
            env.reset()
            trace = []
            for i, action in enumerate(ACTIONS):
                if i == 4:
                    # Nothing missed so far: the session was never built.
                    assert gateway.result_cache_stats()["total"]["misses"] == warm["misses"]
                    os.kill(self._daemon_hosting(gateway).pid, signal.SIGKILL)
                _, reward, done, _ = env.step(action)
                trace.append((reward, done))
            _, reward, done, _ = env.step(beyond[-1])
            trace.append((reward, done))
            assert trace == expected
            assert gateway.server_info()["failovers"] == 1
        finally:
            env.close()


class TestGatewayAuth:
    def _gateway(self, tokens):
        return ServiceGateway(
            env_id="llvm-v0", daemons=1, auth_tokens=tokens, fleet_token="fleet-secret"
        ).start()

    def test_rejects_missing_or_bad_token(self):
        gw = self._gateway(["alice"])
        try:
            with pytest.raises(PermissionDeniedError):
                _make_env(gw.url).reset()
            with pytest.raises(PermissionDeniedError):
                _make_env(gw.url, service_token="mallory").reset()
        finally:
            gw.shutdown()

    def test_accepts_valid_token(self):
        gw = self._gateway(["alice"])
        try:
            trace = _rollout(gw.url, actions=ACTIONS[:2], service_token="alice")
            assert len(trace) == 2
        finally:
            gw.shutdown()

    def test_cross_tenant_session_access_rejected(self):
        """Acceptance: one tenant's session-scoped RPCs cannot touch another
        tenant's sessions."""
        gw = self._gateway(["alice", "bob"])
        try:
            alice = ServiceConnection(SocketTransport(gw.url, auth_token="alice"))
            bob = ServiceConnection(SocketTransport(gw.url, auth_token="bob"))
            try:
                reply = alice.start_session(
                    StartSessionRequest(benchmark_uri=f"benchmark://{BENCHMARK}")
                )
                with pytest.raises(PermissionDeniedError, match="another tenant"):
                    bob.step(StepRequest(session_id=reply.session_id, actions=[0]))
                # The rightful owner still works.
                alice.step(StepRequest(session_id=reply.session_id, actions=[0]))
            finally:
                alice.close()
                bob.close()
        finally:
            gw.shutdown()

    def test_daemons_require_the_fleet_token(self):
        """Spawned daemons are locked down: only the gateway's fleet token
        opens a direct connection to them."""
        gw = self._gateway(None)
        try:
            daemon_url = gw.live_daemons()[0].url
            with pytest.raises(PermissionDeniedError):
                ServiceConnection(SocketTransport(daemon_url))
            direct = ServiceConnection(
                SocketTransport(daemon_url, auth_token="fleet-secret")
            )
            direct.close()
        finally:
            gw.shutdown()


class TestVersionSkew:
    def test_a_skewed_version_is_rejected(self, gateway):
        """Acceptance: a peer speaking any wire version but the gateway's is
        dropped on the frame's first byte, never unpickled."""
        payload = pickle.dumps((0, "server_info", ()))
        _assert_hung_up_on(
            gateway.url, bytes([WIRE_VERSION + 1]) + struct.pack(">Q", len(payload)) + payload
        )
        # The gateway survives and still serves current-version clients.
        with ServiceConnection(SocketTransport(gateway.url)) as connection:
            assert connection.transport.server_info()["role"] == "gateway"


def _fleet_stats(step_calls, step_wall, errors=0):
    return {
        "step": {
            "calls": step_calls,
            "errors": errors,
            "retries": 0,
            "wall_time_s": step_wall,
        }
    }


class TestFleetAutoscalePolicy:
    def test_scales_up_on_low_latency(self):
        policy = FleetAutoscalePolicy(max_daemons=4, scale_up_latency_s=0.1)
        stats = {"tcp://a": _fleet_stats(10, 0.1), "tcp://b": _fleet_stats(10, 0.1)}
        assert policy(stats, current_daemons=2) == 3

    def test_scales_down_on_high_latency(self):
        policy = FleetAutoscalePolicy(scale_down_latency_s=0.2)
        stats = {"tcp://a": _fleet_stats(10, 10.0), "tcp://b": _fleet_stats(10, 10.0)}
        assert policy(stats, current_daemons=3) == 2

    def test_no_decision_on_idle_fleet(self):
        policy = FleetAutoscalePolicy()
        assert policy({}, current_daemons=2) is None
        assert policy({"tcp://a": {}}, current_daemons=2) is None

    def test_daemon_replacement_reset_is_localized(self):
        """A replaced daemon restarts its counters from zero; only its own
        interval restarts — the survivors' deltas stay correct."""
        policy = FleetAutoscalePolicy(
            scale_up_latency_s=0.05, scale_down_latency_s=0.2
        )
        policy(
            {"tcp://a": _fleet_stats(100, 1.0), "tcp://b": _fleet_stats(100, 1.0)},
            current_daemons=2,
        )
        # b died and was replaced: its counters regressed. a's interval is
        # 10 calls / 10s (slow); replacement-b contributes 5 fast calls.
        decision = policy(
            {"tcp://a": _fleet_stats(110, 11.0), "tcp://b": _fleet_stats(5, 0.05)},
            current_daemons=2,
        )
        # Aggregate interval: 15 calls, ~10.06s => mean ~0.67s: scale down.
        assert decision == 1

    def test_vanished_daemon_drops_out(self):
        policy = FleetAutoscalePolicy(max_daemons=4, scale_up_latency_s=0.1)
        policy({"tcp://a": _fleet_stats(10, 0.1)}, current_daemons=2)
        assert (
            policy({"tcp://b": _fleet_stats(10, 0.1)}, current_daemons=2) == 3
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="min_daemons"):
            FleetAutoscalePolicy(min_daemons=5, max_daemons=2)
        with pytest.raises(ValueError, match="scale_up_latency_s"):
            FleetAutoscalePolicy(scale_up_latency_s=1.0, scale_down_latency_s=0.1)


class TestGatewayScaling:
    def test_scale_up_spawns_and_scale_down_drains(self):
        gw = ServiceGateway(env_id="llvm-v0", daemons=1).start()
        try:
            assert gw.scale_to(2) == 2
            assert len(gw.live_daemons()) == 2
            # An idle daemon drains and retires immediately.
            assert gw.scale_to(1) == 1
            deadline = time.time() + 10
            while len(gw.live_daemons()) > 1 and time.time() < deadline:
                time.sleep(0.05)
            assert len(gw.live_daemons()) == 1
        finally:
            gw.shutdown()

    def test_draining_daemon_keeps_sessions_until_they_end(self):
        gw = ServiceGateway(env_id="llvm-v0", daemons=2).start()
        try:
            env = _make_env(gw.url)
            env.reset()
            hosting = next(
                d for d in gw.live_daemons()
                if any(r.daemon is d for r in gw._sessions.values())
            )
            gw.scale_to(1)
            if hosting.draining:
                # The loaded daemon was drained: it must survive (still
                # serving its session) until the session ends.
                assert not hosting.dead
                env.step(ACTIONS[0])
                env.close()
                gw._retire_empty_drains()
                assert hosting.dead
            else:
                env.close()
        finally:
            gw.shutdown()

    def test_autoscale_tick_applies_policy_target(self):
        gw = ServiceGateway(env_id="llvm-v0", daemons=1).start()
        try:
            assert gw.autoscale_tick(lambda stats, current: 2) == 2
            assert len(gw.live_daemons()) == 2
            assert gw.autoscale_tick(lambda stats, current: None) is None
        finally:
            gw.shutdown()


class TestExplorerAgainstGateway:
    def test_rest_api_sessions_ride_the_gateway(self):
        """Satellite: the Explorer REST API works unchanged when its
        service_url points at a (token-protected) gateway."""
        from repro.web.rest import ExplorerAPI

        gw = ServiceGateway(
            env_id="llvm-v0", daemons=2, auth_tokens=["web"]
        ).start()
        try:
            api = ExplorerAPI(service_url=gw.url, service_token="web")
            result = api.start("IrInstructionCount", f"benchmark://{BENCHMARK}")
            session_id = result["session_id"]
            stepped = api.step(session_id, [0, 1])
            assert len(stepped["states"]) == 2
            assert gw.server_info()["active_sessions"] >= 1
            api.stop(session_id)
        finally:
            gw.shutdown()


class TestIntervalDeltaEdgeCases:
    """Satellite: interval_delta under counter regression and empty input."""

    def test_empty_snapshots(self):
        assert interval_delta({}, {}) == {}

    def test_empty_previous_passes_current_through(self):
        current = _fleet_stats(5, 1.0)
        assert interval_delta({}, current) == current

    def test_method_vanishing_from_current_is_dropped(self):
        assert interval_delta(_fleet_stats(5, 1.0), {}) == {}

    def test_regression_in_one_method_leaves_others_diffed(self):
        previous = {
            "step": {"calls": 10, "errors": 0, "retries": 0, "wall_time_s": 5.0},
            "start_session": {"calls": 2, "errors": 0, "retries": 0, "wall_time_s": 1.0},
        }
        current = {
            # step regressed (a worker was retired mid-interval): restarts.
            "step": {"calls": 4, "errors": 0, "retries": 0, "wall_time_s": 2.0},
            "start_session": {"calls": 5, "errors": 0, "retries": 0, "wall_time_s": 1.5},
        }
        delta = interval_delta(previous, current)
        assert delta["step"] == current["step"]
        assert delta["start_session"] == {
            "calls": 3, "errors": 0, "retries": 0, "wall_time_s": 0.5,
        }

    def test_regression_on_single_key_restarts_whole_method(self):
        previous = {"step": {"calls": 10, "errors": 3, "wall_time_s": 5.0}}
        current = {"step": {"calls": 12, "errors": 1, "wall_time_s": 6.0}}
        delta = interval_delta(previous, current)
        assert delta["step"] == current["step"]
