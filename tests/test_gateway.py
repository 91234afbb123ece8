"""Tests for the session-routing gateway over a daemon fleet.

A two-daemon gateway is trace-equivalent to a single daemon, survives
SIGKILL of a daemon mid-rollout, keeps the fleet it was built with (only
failover retires a member), and rejects cross-tenant session access and
version-skewed peers.
"""

import multiprocessing
import os
import pickle
import signal
import socket
import struct
import threading

import pytest

import repro
from repro.core.service.connection import ServiceConnection
from repro.core.service.gateway import ServiceGateway
from repro.core.service.health import HealthMonitor
from repro.core.service.proto import (
    Event,
    ForkSessionRequest,
    StartSessionRequest,
    StepRequest,
)
from repro.core.service.runtime.server import make_env_server
from repro.core.service.transport import SocketTransport
from repro.core.service.wire import WIRE_VERSION
from repro.core.vector import VecCompilerEnv
from repro.errors import PermissionDeniedError, ServiceError, ServiceIsDown
from tests.test_transport import _assert_hung_up_on

BENCHMARK = "cbench-v1/qsort"
ACTIONS = [0, 11, 3, 7, 1, 23, 5]


@pytest.fixture
def gateway():
    gw = ServiceGateway(env_id="llvm-v0", daemons=2).start()
    yield gw
    gw.shutdown()


@pytest.fixture(scope="module")
def daemon_servers():
    """Two daemons served from this process, for gateways to attach to."""
    servers = [
        make_env_server("llvm-v0", port=0, session_timeout=None).start() for _ in range(2)
    ]
    yield servers
    for server in servers:
        server.shutdown()


@pytest.fixture
def attached_gateway(daemon_servers):
    gw = ServiceGateway(daemon_urls=[server.url for server in daemon_servers]).start()
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
        assert info["protocol_version"] == WIRE_VERSION == 3
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


def _home(gateway, env):
    """The fleet member hosting ``env``'s session."""
    return gateway._sessions[env._session_id].daemon


def _indices(daemons):
    return [daemon.index for daemon in daemons]


def _routed_sessions(gateway):
    """Routed sessions per fleet member, as ``server_info()`` reports them."""
    return {entry["index"]: entry["sessions"] for entry in gateway.server_info()["daemons"]}


class TestFleetMembership:
    """A gateway keeps the daemons it was started or attached with: failover
    takes a dead one away, and nothing adds one."""

    def test_a_gateway_needs_a_fleet(self):
        with pytest.raises(ValueError, match="needs a fleet"):
            ServiceGateway()
        with pytest.raises(ValueError, match="requires env_id"):
            ServiceGateway(daemons=2)

    def test_a_gateway_that_fails_to_listen_stops_the_daemons_it_spawned(self):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            before = multiprocessing.active_children()
            with pytest.raises(OSError):
                ServiceGateway(env_id="llvm-v0", daemons=2, port=busy.getsockname()[1])
        assert [p for p in multiprocessing.active_children() if p not in before] == []

    def test_attached_daemons_are_the_fleet(self, daemon_servers):
        urls = [server.url for server in daemon_servers]
        gw = ServiceGateway(daemon_urls=urls).start()
        try:
            assert [daemon.url for daemon in gw.live_daemons()] == urls
            assert all(daemon.pid is None for daemon in gw.live_daemons())
            with pytest.raises(ServiceError, match="no env_id"):
                gw.spawn_daemon()
            assert len(gw.live_daemons()) == 2
            expected = _rollout(None, actions=ACTIONS[:3])  # in-process
            assert _rollout(gw.url, actions=ACTIONS[:3]) == expected
        finally:
            gw.shutdown()
        # Shutting the gateway down leaves the daemons it did not start serving.
        for url in urls:
            with ServiceConnection(SocketTransport(url)) as connection:
                assert connection.transport.server_info()["url"] == url

    def test_fleet_keeps_its_members_as_sessions_come_and_go(self, attached_gateway):
        members = [(daemon.index, daemon.url) for daemon in attached_gateway.live_daemons()]
        envs = [_make_env(attached_gateway.url) for _ in range(4)]
        try:
            for env in envs:
                env.reset()
                env.step(ACTIONS[0])
            # Least-loaded placement spreads the sessions over the fleet.
            assert sorted(_routed_sessions(attached_gateway).values()) == [2, 2]
        finally:
            for env in envs:
                env.close()
        assert _routed_sessions(attached_gateway) == {index: 0 for index, _ in members}
        assert [(d.index, d.url) for d in attached_gateway.live_daemons()] == members

    def test_daemon_entries_report_the_fleet_fields(self, attached_gateway):
        entries = attached_gateway.server_info()["daemons"]
        assert _indices(attached_gateway.live_daemons()) == [e["index"] for e in entries]
        for entry in entries:
            assert set(entry) == {
                "index", "url", "pid", "sessions", "last_heartbeat_age_s",
            }
            assert entry["sessions"] == 0

    def test_a_probe_sweep_leaves_a_healthy_fleet_as_it_is(self, attached_gateway):
        members = _indices(attached_gateway.live_daemons())
        monitor = HealthMonitor(attached_gateway, interval=60)
        monitor.probe_once()
        assert monitor.probes == 2 and monitor.deaths_detected == 0
        assert _indices(attached_gateway.live_daemons()) == members
        assert all(d.last_heartbeat is not None for d in attached_gateway.live_daemons())
        assert attached_gateway.failovers == 0

    def test_a_probe_sweep_retires_a_killed_member_and_spawns_none(self, gateway):
        env = _make_env(gateway.url)
        try:
            env.reset()
            env.step(ACTIONS[0])
            victim = _home(gateway, env)
            (survivor,) = [d for d in gateway.live_daemons() if d is not victim]
            os.kill(victim.pid, signal.SIGKILL)
            victim.spawned.process.join(timeout=10)
            monitor = HealthMonitor(gateway, interval=60, failure_threshold=2)
            for _ in range(2):
                monitor.probe_once()
            assert victim.dead and gateway.failovers == 1
            assert _indices(gateway.live_daemons()) == [survivor.index]
            assert [e["pid"] for e in gateway.server_info()["daemons"]] == [survivor.pid]
            # The session was re-homed onto the survivor and carries on there.
            assert _home(gateway, env) is survivor
            _, reward, done, _ = env.step(ACTIONS[1])
            assert reward is not None and not done
            assert env.actions == ACTIONS[:2]
        finally:
            env.close()

    @pytest.mark.parametrize("fleet", ["attached_gateway", "gateway"], ids=["attached", "spawned"])
    def test_a_wedged_member_is_retired_after_consecutive_missed_probes(
        self, request, monkeypatch, fleet
    ):
        gateway = request.getfixturevalue(fleet)
        env = _make_env(gateway.url)
        try:
            env.reset()
            env.step(ACTIONS[0])
            wedged = _home(gateway, env)

            def no_answer():
                raise TimeoutError("heartbeat timed out")

            monkeypatch.setattr(wedged.connection.transport, "heartbeat", no_answer)
            monitor = HealthMonitor(gateway, interval=60, failure_threshold=2)
            monitor.probe_once()
            # One missed probe is not a death.
            assert not wedged.dead and len(gateway.live_daemons()) == 2
            monitor.probe_once()
            assert wedged.dead and monitor.deaths_detected == 1
            # A member the gateway spawned is stopped once its sessions moved.
            assert wedged.spawned is None or not wedged.spawned.process.is_alive()
            (survivor,) = gateway.live_daemons()
            assert _home(gateway, env) is survivor
            _, reward, done, _ = env.step(ACTIONS[1])
            assert reward is not None and not done
            assert env.actions == ACTIONS[:2]
        finally:
            env.close()

    @pytest.mark.parametrize("method", ["fork_session", "handle_session_parameter"])
    @pytest.mark.parametrize(
        "error, expected",
        [
            (ConnectionResetError("connection reset by peer"), ServiceIsDown),
            (TimeoutError("timed out"), ServiceIsDown),
            (ServiceError("compiler crashed"), ServiceError),
        ],
        ids=["reset", "timeout", "service-error"],
    )
    def test_a_call_failing_at_a_live_member_is_answered_as_a_step_is(
        self, attached_gateway, monkeypatch, method, error, expected
    ):
        """A fork or a session parameter that fails at the connection to a
        live member gets ServiceIsDown, as a step does; an error the member
        answered passes through. The parent still holds its session, so its
        route stays, and once the member is reachable the parent carries on."""
        env = _make_env(attached_gateway.url)
        try:
            env.reset()
            env.step(ACTIONS[0])
            home = _home(attached_gateway, env)

            def fail(*args):
                raise error

            monkeypatch.setattr(home.connection, method, fail)
            with pytest.raises(ServiceError, match=str(error)) as raised:
                if method == "fork_session":
                    env.fork()
                else:
                    env.service.handle_session_parameter(env._session_id, "key", "value")
            assert type(raised.value) is expected
            assert not home.dead
            assert _routed_sessions(attached_gateway)[home.index] == 1
            monkeypatch.undo()
            _, reward, done, _ = env.step(ACTIONS[1])
            assert reward is not None and not done
            assert env.actions == ACTIONS[:2]
        finally:
            env.close()

    @pytest.mark.parametrize(
        "failure, stage",
        [("unreachable", "send"), ("service-error", "send"),
         ("unreachable", "reply"), ("service-error", "reply")],
        ids=["unreachable", "service-error", "unreachable-awaited", "service-error-awaited"],
    )
    def test_a_failed_step_leaves_no_route_behind(
        self, attached_gateway, daemon_servers, monkeypatch, failure, stage
    ):
        env = _make_env(attached_gateway.url)
        try:
            env.reset()
            env.step(ACTIONS[0])
            home = _home(attached_gateway, env)
            (server,) = [s for s in daemon_servers if s.url == home.url]
            hosted = server.server_info()["active_sessions"]
            error = (
                ConnectionResetError("connection reset by peer")
                if failure == "unreachable"
                else ServiceError("compiler crashed")
            )

            send = home.connection.send_step_sessions

            def fail(requests):
                if stage == "send":
                    raise error
                collect = send(requests)

                def reply():
                    collect()
                    raise error

                return reply

            # The daemon still answers its heartbeat: no failover, the step
            # itself fails, as it is sent or as its reply is awaited.
            monkeypatch.setattr(home.connection, "send_step_sessions", fail)
            _, _, done, info = env.step(ACTIONS[1])
            assert done
            assert bool(info.get("service_is_down")) == (failure == "unreachable")
            assert not home.dead
            # A ServiceIsDown answer drops the route with it; a ServiceError
            # is answered, so the client ends the session and the route goes.
            assert _routed_sessions(attached_gateway)[home.index] == 0
            assert attached_gateway.server_info()["active_sessions"] == 0
            # What the daemon holds: the unreachable session is left to its
            # idle reaper, the ended one is ended there too.
            expected = hosted if failure == "unreachable" else hosted - 1
            assert server.server_info()["active_sessions"] == expected
        finally:
            env.close()


class TestResetRoute:
    """A reset is one ``start_session`` at the gateway too, and placement
    decides where it lands as if the old session had been ended first."""

    def test_a_reset_that_moves_ends_the_old_session_while_the_new_one_starts(
        self, daemon_servers, attached_gateway, monkeypatch
    ):
        gateway = attached_gateway
        moving, leaving, staying = envs = [_make_env(gateway.url) for _ in range(3)]
        try:
            for env in envs:
                env.reset()
            assert _home(gateway, moving) is _home(gateway, staying)
            assert _home(gateway, leaving) is not _home(gateway, moving)
            leaving.close()
            # The old home still holds ``staying``: the reset moves.
            old_home = _home(gateway, moving)
            old_remote = gateway._sessions[moving._session_id].remote_sid
            servers = {server.url: server for server in daemon_servers}
            # The old home's end and the new home's start wait for each other:
            # the reset completes only if both are sent before either reply
            # is awaited.
            barrier = threading.Barrier(2, timeout=10)
            for server in daemon_servers:
                method = "end_session" if server.url == old_home.url else "start_session"

                def meeting(request, owner=None, call=getattr(server.runtime, method)):
                    barrier.wait()
                    return call(request, owner=owner)

                monkeypatch.setattr(server.runtime, method, meeting)
            moving.service.stats.clear()
            moving.reset()
            monkeypatch.undo()
            assert not barrier.broken
            calls = {name: stats.calls for name, stats in moving.service.stats.items()}
            assert calls == {"start_session": 1}
            assert _home(gateway, moving) is not old_home
            assert old_remote not in servers[old_home.url].runtime.sessions
            assert sorted(_routed_sessions(gateway).values()) == [1, 1]
            _, _, done, _ = moving.step(ACTIONS[0])
            assert not done
        finally:
            monkeypatch.undo()
            for env in envs:
                env.close()


class TestBatchFanOut:
    """The gateway steps a batch on the thread that read it: every daemon's
    share is sent before any reply is awaited."""

    def test_every_share_is_sent_before_a_reply_is_awaited(
        self, daemon_servers, attached_gateway, monkeypatch
    ):
        # Each daemon's step waits for the other's: the batch completes only
        # if both shares are on the wire before either reply is awaited.
        barrier = threading.Barrier(2, timeout=10)
        env = _make_env(attached_gateway.url)
        with VecCompilerEnv(env, n=2, backend="serial") as vec:
            vec.reset()
            vec.reset_worker(1)
            homes = [attached_gateway._sessions[w._session_id].daemon for w in vec.workers]
            assert homes[0] is not homes[1]
            for server in daemon_servers:

                def meeting(request, owner=None, step=server.runtime.step):
                    barrier.wait()
                    return step(request, owner=owner)

                monkeypatch.setattr(server.runtime, "step", meeting)
            _, rewards, dones, _ = vec.step([ACTIONS[0], ACTIONS[1]])
            assert not any(dones) and None not in rewards
            assert not barrier.broken
            monkeypatch.undo()
        assert not [t.name for t in threading.enumerate() if "fanout" in t.name]

    def test_a_wedged_member_fails_only_its_own_share(self, daemon_servers, monkeypatch):
        # The first daemon's step blocks past the gateway's daemon timeout;
        # the second answers at once, and its reply waits in its socket while
        # the gateway awaits the first. That wait is not the second call's
        # time: its slot succeeds and keeps its route.
        gateway = ServiceGateway(
            daemon_urls=[server.url for server in daemon_servers], daemon_timeout=1.0
        ).start()
        released = threading.Event()
        try:
            with ServiceConnection(SocketTransport(gateway.url)) as connection:
                sessions = [
                    connection.start_session(
                        StartSessionRequest(benchmark_uri=f"benchmark://{BENCHMARK}")
                    ).session_id
                    for _ in range(2)
                ]
                homes = [gateway._sessions[sid].daemon for sid in sessions]
                wedged = next(s for s in daemon_servers if s.url == homes[0].url)
                assert homes[0] is not homes[1]

                def stuck(request, owner=None, step=wedged.runtime.step):
                    released.wait(10)
                    return step(request, owner=owner)

                monkeypatch.setattr(wedged.runtime, "step", stuck)
                timed_out, stepped = connection.step_sessions(
                    [StepRequest(session_id=sid, actions=[ACTIONS[0]]) for sid in sessions]
                )
                with pytest.raises(ServiceError, match="No reply"):
                    timed_out.unwrap()
                assert stepped.error is None
                assert gateway._sessions[sessions[1]].daemon is homes[1]
                states = gateway.session_states()
                assert states[sessions[0]].commandline == ""
                assert states[sessions[1]].commandline == str(ACTIONS[0])
                assert gateway.failovers == 0 and not homes[0].dead
        finally:
            released.set()
            monkeypatch.undo()
            gateway.shutdown()

    def test_a_daemon_dying_mid_batch_is_failed_over_for_its_share_only(self, gateway):
        with ServiceConnection(SocketTransport(gateway.url)) as connection:
            sessions = [
                connection.start_session(
                    StartSessionRequest(benchmark_uri=f"benchmark://{BENCHMARK}")
                ).session_id
                for _ in range(2)
            ]
            homes = [gateway._sessions[sid].daemon for sid in sessions]
            assert homes[0] is not homes[1]
            connection.step_sessions(
                [StepRequest(session_id=sid, actions=[ACTIONS[0]]) for sid in sessions]
            )
            os.kill(homes[0].pid, signal.SIGKILL)
            results = connection.step_sessions(
                [StepRequest(session_id=sid, actions=[ACTIONS[1]]) for sid in sessions]
            )
            assert [result.error for result in results] == [None, None]
            assert [result.session_id for result in results] == sessions
            assert gateway.failovers == 1 and homes[0].dead
            states = gateway.session_states()
            assert [states[sid].commandline for sid in sessions] == [
                f"{ACTIONS[0]} {ACTIONS[1]}"
            ] * 2
            assert all(gateway._sessions[sid].daemon is homes[1] for sid in sessions)

    @pytest.mark.parametrize("cell", ["daemon", "gateway"])
    def test_an_unsendable_slot_fails_only_itself(
        self, daemon_servers, request, monkeypatch, cell
    ):
        gateway = request.getfixturevalue("attached_gateway") if cell == "gateway" else None
        url = daemon_servers[0].url if gateway is None else gateway.url

        class Unsendable:
            pass

        for server in daemon_servers:

            def poisoned(step_request, owner=None, step=server.runtime.step):
                reply = step(step_request, owner=owner)
                if step_request.actions == [ACTIONS[1]]:
                    reply.observations.append(Event(opaque=Unsendable()))
                return reply

            monkeypatch.setattr(server.runtime, "step", poisoned)
        with ServiceConnection(SocketTransport(url)) as connection:
            good = connection.start_session(
                StartSessionRequest(benchmark_uri=f"benchmark://{BENCHMARK}")
            ).session_id
            # A fork shares its parent's daemon: both slots are in one reply.
            bad = connection.fork_session(ForkSessionRequest(session_id=good)).session_id
            ok, refused = connection.step_sessions([
                StepRequest(
                    session_id=good,
                    actions=[ACTIONS[0]],
                    observation_space_names=["IrInstructionCount"],
                ),
                StepRequest(session_id=bad, actions=[ACTIONS[1]]),
            ])
            (count,) = ok.unwrap().observations
            assert count.value() > 0
            with pytest.raises(ServiceError, match="not sent"):
                refused.unwrap()
            if gateway is not None:
                states = gateway.session_states()
                assert states[good].commandline == str(ACTIONS[0])
                assert states[bad].commandline == ""


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
