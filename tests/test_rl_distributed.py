"""Tests for distributed actor/learner training (``repro.rl.distributed``)."""

import multiprocessing

import numpy as np
import pytest

import repro
from repro.rl import ApexDQNAgent, DistributedTrainer, ImpalaAgent
from repro.rl.distributed import (
    ActorSpec,
    _build_agent,
    checkpoint_path,
    load_learner_checkpoint,
    train_agent_distributed,
)
from repro.rl.policies import LinearPolicy, LinearValueFunction
from repro.rl.trainer import (
    AUTOPHASE_ACTION_SUBSET,
    make_vec_rl_environment,
    observation_dim,
    train_agent_vec,
)

NUM_ACTIONS = len(AUTOPHASE_ACTION_SUBSET)
OBS_DIM = observation_dim("Autophase", True, NUM_ACTIONS)
BENCHMARKS = ["benchmark://cbench-v1/crc32", "benchmark://cbench-v1/qsort"]
EPISODE_LENGTH = 5


def _single_process_reference(agent, episodes):
    env = repro.make(
        "llvm-v0", benchmark=BENCHMARKS[0], reward_space="IrInstructionCountNorm"
    )
    vec = make_vec_rl_environment(
        env, n=2, backend="serial", episode_length=EPISODE_LENGTH, auto_reset=True
    )
    try:
        return train_agent_vec(agent, vec, BENCHMARKS, episodes=episodes)
    finally:
        vec.close()


def _distributed_trainer(agent_name, agent_kwargs, num_actors, **kwargs):
    kwargs.setdefault(
        "make_kwargs",
        {"benchmark": BENCHMARKS[0], "reward_space": "IrInstructionCountNorm"},
    )
    return DistributedTrainer(
        agent=agent_name,
        agent_kwargs=agent_kwargs,
        env_id="llvm-v0",
        num_actors=num_actors,
        episode_length=EPISODE_LENGTH,
        timeout=120.0,
        **kwargs,
    )


class TestWeightTransfer:
    @pytest.mark.parametrize("model_type", [LinearPolicy, LinearValueFunction])
    def test_policy_weight_roundtrip(self, model_type):
        source = model_type(6, 3, seed=1)
        target = model_type(6, 3, seed=2)
        target.set_weights(source.get_weights())
        np.testing.assert_array_equal(target.weights, source.weights)
        np.testing.assert_array_equal(target.bias, source.bias)
        # get_weights returns copies: mutating them must not touch the model.
        weights, _ = source.get_weights()
        weights += 1.0
        assert not np.array_equal(weights, source.weights)

    def test_scaler_state_roundtrip_and_merge(self):
        from repro.rl.policies import FeatureScaler

        rng = np.random.default_rng(0)
        samples = rng.uniform(0, 100, size=(40, 3))
        whole = FeatureScaler(dim=3)
        left, right = FeatureScaler(dim=3), FeatureScaler(dim=3)
        for i, sample in enumerate(samples):
            whole(sample)
            (left if i < 20 else right)(sample)
        merged = FeatureScaler.merge_states([left.get_state(), right.get_state()])
        restored = FeatureScaler(dim=3)
        restored.set_state(merged)
        # Chan's merge reproduces the single-stream statistics (up to the
        # per-scaler initialization priors).
        np.testing.assert_allclose(restored.mean, whole.mean, rtol=1e-4)
        np.testing.assert_allclose(restored.m2, whole.m2, rtol=0.1)
        assert restored.count == pytest.approx(whole.count, rel=1e-3)
        with pytest.raises(ValueError, match="at least one"):
            FeatureScaler.merge_states([])

    def test_set_weights_rejects_shape_mismatch(self):
        policy = LinearPolicy(6, 3, seed=0)
        other = LinearPolicy(4, 3, seed=0)
        with pytest.raises(ValueError, match="do not match"):
            policy.set_weights(other.get_weights())

    def test_apex_weights_cover_the_online_q(self):
        learner = ApexDQNAgent(obs_dim=4, num_actions=3, seed=0)
        actor = ApexDQNAgent(obs_dim=4, num_actions=3, seed=7)
        actor.set_weights(learner.get_weights())
        observation = np.ones(4)
        np.testing.assert_array_equal(actor.q(observation), learner.q(observation))

    def test_impala_weights_install_as_behaviour(self):
        learner = ImpalaAgent(obs_dim=4, num_actions=3, seed=0)
        learner.policy.policy_gradient_step(np.ones(4), action=1, scale=1.0)
        actor = ImpalaAgent(obs_dim=4, num_actions=3, seed=7)
        actor.set_weights(learner.get_weights())
        np.testing.assert_array_equal(actor.behaviour.weights, learner.policy.weights)
        np.testing.assert_array_equal(actor.policy.weights, learner.policy.weights)


class TestActorLearnerProtocol:
    def test_apex_collect_batch_does_not_learn(self):
        agent = ApexDQNAgent(obs_dim=4, num_actions=3, seed=0, batch_size=2)
        before = agent.q.weights.copy()
        observation = np.ones(4)
        for _ in range(4):
            agent.act_batch([observation, observation])
            items = agent.collect_batch(
                [0.1, 0.2], [False, False], [observation, observation]
            )
            assert len(items) == 2
        np.testing.assert_array_equal(agent.q.weights, before)
        assert len(agent.replay) == 0
        assert agent.total_steps == 8  # The actor-side epsilon schedule advances.

    def test_apex_learn_items_matches_observe_batch(self):
        """A learner fed collected items replays the single-process update."""
        reference = ApexDQNAgent(obs_dim=4, num_actions=3, seed=0, batch_size=2)
        actor = ApexDQNAgent(obs_dim=4, num_actions=3, seed=0, batch_size=2)
        learner = ApexDQNAgent(obs_dim=4, num_actions=3, seed=0, batch_size=2)
        rng = np.random.default_rng(5)
        for _ in range(6):
            observation = rng.uniform(size=4)
            next_observation = rng.uniform(size=4)
            reference.act_batch([observation])
            reference.observe_batch([0.5], [False], [next_observation])
            actor.set_weights(learner.get_weights())
            actor.act_batch([observation])
            weights = learner.learn_items(
                actor.collect_batch([0.5], [False], [next_observation])
            )
            assert weights is not None
        np.testing.assert_allclose(learner.q.weights, reference.q.weights)
        assert len(learner.replay) == len(reference.replay)

    def test_impala_collect_batch_ships_completed_trajectories(self):
        agent = ImpalaAgent(obs_dim=4, num_actions=3, seed=0)
        observation = np.ones(4)
        agent.act_batch([observation, observation])
        items = agent.collect_batch([0.1, 0.2], [False, True])
        assert len(items) == 1 and len(items[0]) == 1  # Slot 1 finished.
        agent.act_batch([observation, observation])
        items = agent.collect_batch([0.3, 0.4], [False, False])
        assert items == []
        flushed = agent.collect_flush()
        assert len(flushed) == 2  # Both open trajectories handed over.
        assert not agent._slot_trajectories

    def test_impala_learn_items_broadcasts_at_sync_boundaries(self):
        agent = ImpalaAgent(obs_dim=4, num_actions=3, seed=0, sync_interval=2)
        trajectory = [(np.ones(4), 0, 0.5, -1.0)]
        assert agent.learn_items([trajectory]) is None  # Episode 1: no boundary.
        weights = agent.learn_items([trajectory])  # Episode 2: boundary crossed.
        assert weights is not None
        np.testing.assert_array_equal(weights["policy"][0], agent.policy.weights)

    def test_rejects_on_policy_agents(self):
        with pytest.raises(ValueError, match="does not implement the distributed"):
            _build_agent("a2c", {"obs_dim": 4, "num_actions": 3})
        with pytest.raises(ValueError, match="Unknown agent"):
            _build_agent("dreamer", {})

    def test_actor_spec_is_picklable(self):
        import pickle

        spec = ActorSpec(
            actor_id=0,
            agent_name="apex",
            agent_kwargs={"obs_dim": 4, "num_actions": 3, "seed": 0},
            env_id="llvm-v0",
            make_kwargs={"benchmark": BENCHMARKS[0]},
            envs_per_actor=1,
            env_backend="serial",
            observation_space="Autophase",
            use_action_histogram=True,
            episode_length=5,
            action_subset=None,
            benchmarks=tuple(BENCHMARKS),
            episodes=2,
            synchronous=True,
            timeout=60.0,
        )
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestDistributedTraining:
    @pytest.mark.parametrize(
        "agent_name,agent_kwargs",
        [("apex", {"batch_size": 8}), ("impala", {})],
        ids=["apex", "impala"],
    )
    def test_one_actor_matches_single_process_seed_for_seed(
        self, agent_name, agent_kwargs
    ):
        """The acceptance criterion: with one (synchronous) actor, the
        distributed topology replays the exact single-process learning
        sequence — same acting RNG stream, same scaler statistics, same
        replay/update order — so the learning curves are identical."""
        agent_type = {"apex": ApexDQNAgent, "impala": ImpalaAgent}[agent_name]
        reference_agent = agent_type(
            obs_dim=OBS_DIM, num_actions=NUM_ACTIONS, seed=3, **agent_kwargs
        )
        reference = _single_process_reference(reference_agent, episodes=6)
        trainer = _distributed_trainer(
            agent_name, {"seed": 3, **agent_kwargs}, num_actors=1, envs_per_actor=2, seed=3
        )
        result = trainer.train(BENCHMARKS, episodes=6)
        assert result.agent_name == reference.agent_name
        assert result.episodes == reference.episodes
        assert result.episode_rewards == pytest.approx(
            reference.episode_rewards, rel=1e-12
        )
        assert trainer.stats["synchronous"] is True
        # The trained learner *is* the single-process agent: learned weights
        # and the (actor-transferred) feature scaler statistics both match,
        # so greedy evaluation of trainer.learner is equivalent too.
        learner = trainer.learner
        if agent_name == "apex":
            np.testing.assert_array_equal(learner.q.weights, reference_agent.q.weights)
        else:
            np.testing.assert_array_equal(
                learner.policy.weights, reference_agent.policy.weights
            )
        np.testing.assert_allclose(learner.scaler.mean, reference_agent.scaler.mean)
        np.testing.assert_allclose(learner.scaler.m2, reference_agent.scaler.m2)
        assert learner.scaler.count == pytest.approx(reference_agent.scaler.count)

    def test_two_actor_smoke_broadcasts_weights_and_grows_shared_replay(self):
        trainer = _distributed_trainer(
            "apex",
            {"batch_size": 8},
            num_actors=2,
            envs_per_actor=1,
            broadcast_interval=1,
        )
        result = trainer.train([BENCHMARKS[0]], episodes=6)
        assert len(result.episode_rewards) == 6
        assert all(np.isfinite(r) for r in result.episode_rewards)
        stats = trainer.stats
        assert stats["actors"] == 2
        assert stats["synchronous"] is False
        # Both actors fed the one central replay buffer...
        assert len(trainer.learner.replay) == stats["items_learned"] > 0
        assert all(steps > 0 for steps in stats["actor_steps"].values())
        # ...and received weight broadcasts back from the learner.
        assert stats["broadcasts"] >= 1
        assert sum(stats["actor_weight_updates"].values()) >= 1

    def test_two_actor_impala_smoke(self):
        trainer = _distributed_trainer(
            "impala",
            {"sync_interval": 1},
            num_actors=2,
            envs_per_actor=1,
            broadcast_interval=1,
        )
        result = trainer.train([BENCHMARKS[0]], episodes=4)
        assert len(result.episode_rewards) == 4
        assert trainer.stats["broadcasts"] >= 1

    def test_actor_failure_propagates(self):
        trainer = _distributed_trainer(
            "apex", {}, num_actors=1, make_kwargs={"benchmark": "benchmark://nope-v0/x"}
        )
        with pytest.raises(RuntimeError, match="Actor 0 failed"):
            trainer.train(["benchmark://nope-v0/x"], episodes=2)

    def test_train_agent_distributed_convenience(self):
        result = train_agent_distributed(
            "impala",
            [BENCHMARKS[0]],
            episodes=2,
            num_actors=2,
            env_id="llvm-v0",
            make_kwargs={"benchmark": BENCHMARKS[0], "reward_space": "IrInstructionCountNorm"},
            episode_length=EPISODE_LENGTH,
            timeout=120.0,
        )
        assert result.agent_name == "impala"
        assert len(result.episode_rewards) == 2

    def test_episode_quota_never_spawns_idle_actors(self):
        trainer = _distributed_trainer("apex", {"batch_size": 8}, num_actors=4)
        result = trainer.train([BENCHMARKS[0]], episodes=2)
        assert len(result.episode_rewards) == 2
        assert trainer.stats["actors"] == 2  # Actors beyond the quota are skipped.

    def test_invalid_configuration(self):
        with pytest.raises(ValueError, match="num_actors"):
            DistributedTrainer(agent="apex", num_actors=0)
        with pytest.raises(ValueError, match="envs_per_actor"):
            DistributedTrainer(agent="apex", envs_per_actor=0)
        # Found at construction, not inside N actor subprocesses.
        children = set(multiprocessing.active_children())
        for backend in ("fibers", "process"):
            with pytest.raises(ValueError, match=r"expected one of \('serial', 'thread'\)"):
                DistributedTrainer(agent="apex", num_actors=2, env_backend=backend)
        assert set(multiprocessing.active_children()) == children


class TestLearnerCheckpoints:
    """Periodic learner checkpoints and the kill-and-resume contract."""

    def _trainer(self, **kwargs):
        return _distributed_trainer(
            "apex",
            {"batch_size": 8, "seed": 3},
            num_actors=1,
            envs_per_actor=2,
            seed=3,
            **kwargs,
        )

    def test_kill_and_resume_reaches_total_episode_target(self, tmp_path):
        """The crash-resume contract: train 3 of 6 episodes, 'crash' (drop
        the trainer), resume in a fresh trainer, and ask for the same total.
        The resumed run replays only the remainder and returns a trajectory
        of exactly 6 rewards whose first 3 are the checkpointed ones."""
        checkpoint_dir = str(tmp_path / "ckpt")
        first = self._trainer(checkpoint_dir=checkpoint_dir, checkpoint_interval=1)
        partial = first.train(BENCHMARKS, episodes=3)
        assert len(partial.episode_rewards) == 3
        state = load_learner_checkpoint(checkpoint_dir)
        assert state is not None
        assert state["episodes_done"] == 3
        assert state["episode_rewards"] == pytest.approx(partial.episode_rewards)

        # A fresh trainer (the "restarted process") warm-starts from disk.
        resumed = self._trainer(checkpoint_dir=checkpoint_dir, resume=True)
        result = resumed.train(BENCHMARKS, episodes=6)
        assert len(result.episode_rewards) == 6
        assert result.episode_rewards[:3] == pytest.approx(partial.episode_rewards)
        assert all(np.isfinite(r) for r in result.episode_rewards)
        # Only the remainder actually ran.
        assert resumed.stats["resumed_episodes"] == 3
        # The final checkpoint now carries the whole trajectory.
        final = load_learner_checkpoint(checkpoint_dir)
        assert final["episodes_done"] == 6

    def test_checkpoint_restores_weights_and_scaler(self, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        first = self._trainer(checkpoint_dir=checkpoint_dir)
        first.train(BENCHMARKS, episodes=2)
        resumed = self._trainer(checkpoint_dir=checkpoint_dir, resume=True)
        np.testing.assert_array_equal(
            resumed.learner.q.weights, first.learner.q.weights
        )
        np.testing.assert_allclose(resumed.learner.scaler.mean, first.learner.scaler.mean)
        assert resumed.learner.replay._max_priority == first.learner.replay._max_priority

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="requires checkpoint_dir"):
            self._trainer(resume=True)

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        trainer = self._trainer(checkpoint_dir=str(tmp_path / "empty"), resume=True)
        result = trainer.train([BENCHMARKS[0]], episodes=2)
        assert len(result.episode_rewards) == 2

    def test_missing_checkpoint_loads_none(self, tmp_path):
        assert load_learner_checkpoint(str(tmp_path / "nope")) is None

    def test_version_mismatch_rejected(self, tmp_path):
        import pickle

        checkpoint_dir = str(tmp_path)
        with open(checkpoint_path(checkpoint_dir), "wb") as f:
            pickle.dump({"version": 999}, f)
        with pytest.raises(ValueError, match="checkpoint version"):
            load_learner_checkpoint(checkpoint_dir)

    def test_agent_mismatch_rejected(self, tmp_path):
        checkpoint_dir = str(tmp_path / "ckpt")
        first = self._trainer(checkpoint_dir=checkpoint_dir)
        first.train([BENCHMARKS[0]], episodes=2)
        with pytest.raises(ValueError, match="was written by agent"):
            _distributed_trainer(
                "impala", {"seed": 3}, num_actors=1,
                checkpoint_dir=checkpoint_dir, resume=True,
            )
