"""Distributed actor/learner training: the real Ape-X / IMPALA topology.

The paper trains its RL agents on RLlib's distributed runtimes: Ape-X runs a
fleet of epsilon-greedy actors feeding one central prioritized replay, IMPALA
runs actors with stale behaviour policies whose trajectories the learner
corrects with V-trace importance ratios. The single-process harness
(:func:`repro.rl.trainer.train_agent_vec`) collapses both roles into one
agent; this module splits them back apart:

* **Actors** are subprocesses. Each one builds its own auto-reset
  :class:`~repro.core.vector.VecCompilerEnv` pool of RL-wrapped environments
  (in-process, or sessions on a shared daemon with ``service_url``)
  and drives it with a *local copy* of the policy through the exact rollout
  loop of the single-process path (:func:`repro.rl.trainer.run_vec_rollouts`).
  Experience — Ape-X transition tuples, IMPALA trajectories with behaviour
  log-probs — is shipped to the learner over a ``multiprocessing`` queue via
  the agents' ``collect_batch``/``collect_flush`` protocol.
* **The learner** runs in the calling process. It owns the learning state
  (the prioritized replay buffer and Q/target networks for Ape-X; the policy,
  value function, and V-trace machinery for IMPALA), consumes the experience
  queue through ``learn_items``, and periodically broadcasts refreshed
  ``get_weights()`` snapshots back to every actor's weight queue.

With one actor the trainer defaults to a *synchronous* barrier — the actor
blocks after each shipped batch until the learner replies with (possibly
updated) weights — which makes distributed training bit-for-bit equivalent to
``train_agent_vec`` on the same seeds: the actor's acting RNG, feature scaler
and epsilon schedule consume exactly the single-process sequence, and the
learner's replay/update sequence is replayed in the same order. With several
actors the topology runs asynchronously: actors act on stale weights between
broadcasts, which is precisely the staleness IMPALA's importance ratios (and
Ape-X's off-policy replay) are built to absorb.

:class:`DistributedTrainer` keeps the :class:`~repro.rl.trainer.TrainingResult`
contract of ``train_agent_vec``, so evaluation and plotting code downstream
of either path is identical.
"""

import logging
import multiprocessing
import os
import pickle
import queue as queue_module
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.vector import check_backend
from repro.rl.a2c import A2CAgent
from repro.rl.apex import ApexDQNAgent
from repro.rl.impala import ImpalaAgent
from repro.rl.policies import FeatureScaler
from repro.rl.ppo import PPOAgent
from repro.rl.trainer import (
    AUTOPHASE_ACTION_SUBSET,
    EPISODE_LENGTH,
    TrainingResult,
    make_vec_rl_environment,
    observation_dim,
    run_vec_rollouts,
)

logger = logging.getLogger(__name__)

AGENT_TYPES = {
    "a2c": A2CAgent,
    "apex": ApexDQNAgent,
    "impala": ImpalaAgent,
    "ppo": PPOAgent,
}

# Seed stride between actors: every actor explores with its own RNG stream
# while actor 0 keeps the caller's seed (the single-process equivalence
# anchor).
_ACTOR_SEED_STRIDE = 9973

# Learner checkpoint file name inside --checkpoint-dir, and its format tag.
CHECKPOINT_FILENAME = "learner.ckpt"
_CHECKPOINT_VERSION = 1


def checkpoint_path(checkpoint_dir: str) -> str:
    return os.path.join(checkpoint_dir, CHECKPOINT_FILENAME)


def save_learner_checkpoint(checkpoint_dir: str, state: Dict[str, Any]) -> str:
    """Atomically persist a learner checkpoint (write temp + rename).

    A kill mid-write leaves either the previous checkpoint or the new one —
    never a torn file — which is the whole point of checkpointing against
    crashes.
    """
    os.makedirs(checkpoint_dir, exist_ok=True)
    path = checkpoint_path(checkpoint_dir)
    fd, tmp = tempfile.mkstemp(dir=checkpoint_dir, suffix=".ckpt.tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            pickle.dump(state, f)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_learner_checkpoint(checkpoint_dir: str) -> Optional[Dict[str, Any]]:
    """Load the learner checkpoint from ``checkpoint_dir``, or None."""
    path = checkpoint_path(checkpoint_dir)
    if not os.path.exists(path):
        return None
    with open(path, "rb") as f:
        state = pickle.load(f)
    version = state.get("version")
    if version != _CHECKPOINT_VERSION:
        raise ValueError(
            f"Unsupported learner checkpoint version {version!r} at {path} "
            f"(this build writes version {_CHECKPOINT_VERSION})"
        )
    return state


def _build_agent(agent_name: str, agent_kwargs: Dict[str, Any]):
    try:
        agent_type = AGENT_TYPES[agent_name]
    except KeyError:
        raise ValueError(
            f"Unknown agent {agent_name!r}; expected one of {sorted(AGENT_TYPES)}"
        ) from None
    agent = agent_type(**agent_kwargs)
    for method in ("collect_batch", "collect_flush", "learn_items", "get_weights", "set_weights"):
        if not hasattr(agent, method):
            raise ValueError(
                f"{type(agent).__name__} does not implement the distributed "
                f"actor/learner protocol ({method}); distributed training "
                "supports the off-policy agents ('apex', 'impala') — use "
                "train_agent_vec() for A2C/PPO"
            )
    return agent


@dataclass(frozen=True)
class ActorSpec:
    """A picklable recipe for one actor process.

    The actor rebuilds its agent and its vectorized environment pool from
    plain data, so specs survive both the ``fork`` and ``spawn`` start methods.
    """

    actor_id: int
    agent_name: str
    agent_kwargs: Dict[str, Any]
    env_id: str
    make_kwargs: Dict[str, Any]
    envs_per_actor: int
    env_backend: str
    observation_space: str
    use_action_histogram: bool
    episode_length: int
    action_subset: Optional[Tuple[str, ...]]
    benchmarks: Tuple[str, ...]
    episodes: int
    synchronous: bool
    timeout: float


class _ActorAgent:
    """The rollout-facing face of an actor: acts locally, ships experience.

    Implements the ``act_batch``/``observe_batch``/``end_episode_batch``
    surface that :func:`run_vec_rollouts` drives, so the actor's data
    collection is *literally* the single-process rollout loop — benchmark
    cycling, auto-reset bootstrapping and completion accounting included.
    Acting delegates to the wrapped agent; observations are converted into
    experience items (``collect_batch``) and shipped instead of learned
    from; broadcast weights are installed before each acting step.
    """

    def __init__(self, agent, spec: ActorSpec, experience_queue, weight_queue):
        self.agent = agent
        self.spec = spec
        self._experience = experience_queue
        self._weights = weight_queue
        self.steps = 0
        self.weight_updates = 0

    def _apply_weights(self, weights: Optional[Dict[str, Any]]) -> None:
        if weights is not None:
            self.agent.set_weights(weights)
            self.weight_updates += 1

    def _drain_weights(self) -> None:
        """Install the freshest broadcast waiting on the weight queue, if any."""
        latest = None
        while True:
            try:
                latest = self._weights.get_nowait()
            except queue_module.Empty:
                break
        self._apply_weights(latest)

    def _ship(self, items: List[Any]) -> None:
        self._experience.put(("experience", self.spec.actor_id, items))
        if self.spec.synchronous:
            # Barrier mode: wait for the learner to consume this batch and
            # reply with (possibly unchanged) weights before acting again —
            # the lockstep that makes one-actor runs replay the
            # single-process learning sequence exactly.
            try:
                reply = self._weights.get(timeout=self.spec.timeout)
            except queue_module.Empty:
                raise RuntimeError(
                    f"Actor {self.spec.actor_id}: no learner reply within "
                    f"{self.spec.timeout}s (learner died or stalled)"
                ) from None
            self._apply_weights(reply)

    # -- the rollout API run_vec_rollouts() drives --------------------------

    def act_batch(self, observations: Sequence, greedy: bool = False) -> List[Optional[int]]:
        if not self.spec.synchronous:
            self._drain_weights()
        return self.agent.act_batch(observations, greedy=greedy)

    def observe_batch(self, rewards, dones, observations=None) -> None:
        self.steps += len(rewards)
        items = self.agent.collect_batch(rewards, dones, observations)
        if items:
            self._ship(items)

    def end_episode_batch(self) -> None:
        items = self.agent.collect_flush()
        if items:
            self._ship(items)


def _actor_main(spec: ActorSpec, experience_queue, weight_queue) -> None:
    """Actor subprocess entry point: build pool + agent, collect, report."""
    try:
        import repro

        agent = _build_agent(spec.agent_name, dict(spec.agent_kwargs))
        env = repro.make(spec.env_id, **spec.make_kwargs)
        # make_vec_rl_environment closes env for us if pool construction fails.
        vec = make_vec_rl_environment(
            env,
            n=spec.envs_per_actor,
            backend=spec.env_backend,
            observation_space=spec.observation_space,
            use_action_histogram=spec.use_action_histogram,
            episode_length=spec.episode_length,
            action_subset=list(spec.action_subset) if spec.action_subset else None,
            auto_reset=True,
        )
        actor = _ActorAgent(agent, spec, experience_queue, weight_queue)
        try:
            rewards = run_vec_rollouts(
                vec, actor, spec.episodes, benchmarks=list(spec.benchmarks), train=True
            )
        finally:
            vec.close()
        scaler = getattr(agent, "scaler", None)
        experience_queue.put(
            (
                "done",
                spec.actor_id,
                {
                    "rewards": rewards,
                    "steps": actor.steps,
                    "weight_updates": actor.weight_updates,
                    # Actors standardize observations with an online
                    # FeatureScaler and ship pre-scaled features; the learner
                    # needs the statistics to act on raw observations later
                    # (greedy evaluation of the trained learner).
                    "scaler": scaler.get_state() if scaler is not None else None,
                },
            )
        )
    except BaseException as error:  # noqa: BLE001 - reported to the learner
        try:
            experience_queue.put(
                (
                    "error",
                    spec.actor_id,
                    f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
                )
            )
        except Exception:  # noqa: BLE001 - the learner is already gone
            pass


@dataclass
class DistributedTrainer:
    """Multi-process actor/learner training over vectorized environment pools.

    The learner runs in the calling process; ``num_actors`` subprocesses each
    drive an ``envs_per_actor``-worker auto-reset pool. Construction is by
    recipe (environment ID + kwargs, agent name + kwargs) because every actor
    rebuilds both from scratch in its own process.

    Args:
        agent: ``"apex"`` or ``"impala"`` (the off-policy agents whose
            algorithms define this topology). A2C/PPO are rejected.
        agent_kwargs: Constructor kwargs for the agent. ``obs_dim``,
            ``num_actions`` and ``seed`` are filled in from the environment
            configuration and ``seed`` when absent.
        env_id: ``repro.make`` environment ID for the actors' pools.
        make_kwargs: ``repro.make`` kwargs (benchmark, reward space, ...);
            must be picklable.
        num_actors: Number of actor subprocesses.
        envs_per_actor: Pool size inside each actor.
        env_backend: ``backend`` of each actor's pool (``"serial"`` or
            ``"thread"``), checked here rather than inside every actor. The
            actors themselves are the process-level parallelism.
        service_url: Attach every actor's environments to a running compiler
            service daemon (``repro serve``) at this URL instead of hosting a
            compiler service inside each actor. The daemon multiplexes all
            actors' sessions over one shared runtime (and benchmark cache) and
            may live on another machine — the paper's scale-out topology.
        broadcast_interval: Asynchronous mode only — minimum number of
            experience items the learner consumes between weight broadcasts.
        synchronous: Barrier mode (actor blocks for a learner reply after
            every shipped batch). Defaults to ``num_actors == 1``, which is
            what makes one-actor runs seed-for-seed equivalent to
            :func:`~repro.rl.trainer.train_agent_vec`.
        seed: Learner seed; actor ``i`` uses ``seed + i * 9973``.
        start_method: ``multiprocessing`` start method (default: ``fork``
            where available, else ``spawn``).
        timeout: Seconds either side waits on its queue before declaring the
            other side dead.
        checkpoint_dir: Directory for periodic learner checkpoints (weights,
            FeatureScaler statistics, replay-buffer priority seed, episode
            accounting). ``None`` disables checkpointing.
        checkpoint_interval: Learn items consumed between periodic
            checkpoints (a final checkpoint is always written when a
            checkpointed run completes).
        resume: Warm-start from the checkpoint in ``checkpoint_dir``:
            the learner's weights and scaler are restored and
            :meth:`train`'s ``episodes`` is treated as the *total* target —
            only the episodes beyond the checkpoint's count are run, and the
            returned reward trajectory concatenates saved + new episodes to
            exactly ``episodes`` entries (the crash-resume contract).
    """

    agent: str = "apex"
    agent_kwargs: Dict[str, Any] = field(default_factory=dict)
    env_id: str = "llvm-v0"
    make_kwargs: Dict[str, Any] = field(default_factory=dict)
    num_actors: int = 1
    envs_per_actor: int = 1
    env_backend: str = "serial"
    service_url: Optional[str] = None
    observation_space: str = "Autophase"
    use_action_histogram: bool = True
    episode_length: int = EPISODE_LENGTH
    action_subset: Optional[Sequence[str]] = None
    broadcast_interval: int = 8
    synchronous: Optional[bool] = None
    seed: int = 0
    start_method: Optional[str] = None
    timeout: float = 300.0
    checkpoint_dir: Optional[str] = None
    checkpoint_interval: int = 512
    resume: bool = False

    def __post_init__(self):
        if self.num_actors < 1:
            raise ValueError(f"DistributedTrainer requires num_actors >= 1, got {self.num_actors}")
        if self.envs_per_actor < 1:
            raise ValueError(
                f"DistributedTrainer requires envs_per_actor >= 1, got {self.envs_per_actor}"
            )
        check_backend(self.env_backend)
        if self.service_url:
            self.make_kwargs = dict(self.make_kwargs)
            self.make_kwargs.setdefault("service_url", self.service_url)
        actions = self.action_subset or AUTOPHASE_ACTION_SUBSET
        self.agent_kwargs = dict(self.agent_kwargs)
        self.agent_kwargs.setdefault(
            "obs_dim",
            observation_dim(self.observation_space, self.use_action_histogram, len(actions)),
        )
        self.agent_kwargs.setdefault("num_actions", len(actions))
        self.agent_kwargs.setdefault("seed", self.seed)
        # Validates the agent name and its distributed protocol support up
        # front (rather than inside N subprocesses), and becomes the learner.
        self.learner = _build_agent(self.agent, self.agent_kwargs)
        self.stats: Dict[str, Any] = {}
        # Episode accounting carried over from a resumed checkpoint: the
        # rewards already earned before the crash, and the learn-item count.
        self._resume_rewards: List[float] = []
        self._resume_items = 0
        if self.resume:
            if not self.checkpoint_dir:
                raise ValueError("resume=True requires checkpoint_dir")
            state = load_learner_checkpoint(self.checkpoint_dir)
            if state is not None:
                self._apply_checkpoint(state)

    # -- checkpointing -------------------------------------------------------

    def _apply_checkpoint(self, state: Dict[str, Any]) -> None:
        if state.get("agent") != self.agent:
            raise ValueError(
                f"Checkpoint in {self.checkpoint_dir} was written by agent "
                f"{state.get('agent')!r}, not {self.agent!r}"
            )
        self.learner.set_weights(state["weights"])
        scaler = getattr(self.learner, "scaler", None)
        if scaler is not None and state.get("scaler") is not None:
            scaler.set_state(state["scaler"])
        # The replay buffer's *contents* die with the process (they are
        # regenerated by fresh experience) but its priority scale survives:
        # restoring max_priority keeps new experience sampled with the same
        # initial priority it would have had in the uninterrupted run.
        replay = getattr(self.learner, "replay", None)
        if replay is not None and state.get("replay_max_priority") is not None:
            replay._max_priority = state["replay_max_priority"]
        self._resume_rewards = list(state.get("episode_rewards", []))
        self._resume_items = int(state.get("items_learned", 0))
        logger.info(
            "Resumed %s learner from %s: %d episode(s), %d learn item(s)",
            self.agent, self.checkpoint_dir, len(self._resume_rewards),
            self._resume_items,
        )

    def _checkpoint_state(
        self, episode_rewards: List[float], items_learned: int
    ) -> Dict[str, Any]:
        scaler = getattr(self.learner, "scaler", None)
        replay = getattr(self.learner, "replay", None)
        return {
            "version": _CHECKPOINT_VERSION,
            "agent": self.agent,
            "seed": self.seed,
            "weights": self.learner.get_weights(),
            "scaler": scaler.get_state() if scaler is not None else None,
            "replay_max_priority": getattr(replay, "_max_priority", None),
            "episodes_done": len(episode_rewards),
            "episode_rewards": list(episode_rewards),
            "items_learned": items_learned,
        }

    def _write_checkpoint(self, episode_rewards: List[float], items_learned: int) -> None:
        if not self.checkpoint_dir:
            return
        try:
            save_learner_checkpoint(
                self.checkpoint_dir,
                self._checkpoint_state(episode_rewards, items_learned),
            )
        except Exception:  # noqa: BLE001 - checkpointing must not kill training
            logger.warning(
                "Failed to write learner checkpoint to %s", self.checkpoint_dir,
                exc_info=True,
            )

    # -- topology ------------------------------------------------------------

    def _actor_specs(self, benchmarks: Sequence[str], episodes: int, synchronous: bool):
        """One spec per actor, splitting the episode budget evenly.

        Actors beyond the episode count get a zero quota and are not spawned.
        """
        num_actors = min(self.num_actors, max(1, episodes))
        quotas = [
            episodes // num_actors + (1 if i < episodes % num_actors else 0)
            for i in range(num_actors)
        ]
        specs = []
        for actor_id, quota in enumerate(quotas):
            if quota <= 0:
                continue
            agent_kwargs = dict(self.agent_kwargs)
            agent_kwargs["seed"] = self.seed + actor_id * _ACTOR_SEED_STRIDE
            specs.append(
                ActorSpec(
                    actor_id=actor_id,
                    agent_name=self.agent,
                    agent_kwargs=agent_kwargs,
                    env_id=self.env_id,
                    make_kwargs=dict(self.make_kwargs),
                    envs_per_actor=self.envs_per_actor,
                    env_backend=self.env_backend,
                    observation_space=self.observation_space,
                    use_action_histogram=self.use_action_histogram,
                    episode_length=self.episode_length,
                    action_subset=tuple(self.action_subset) if self.action_subset else None,
                    benchmarks=tuple(benchmarks),
                    episodes=quota,
                    synchronous=synchronous,
                    timeout=self.timeout,
                )
            )
        return specs

    def train(self, training_benchmarks: Sequence[str], episodes: int) -> TrainingResult:
        """Run the actor fleet to ``episodes`` completed episodes total.

        Returns the same :class:`TrainingResult` as
        :func:`~repro.rl.trainer.train_agent_vec`; per-actor reward streams
        are concatenated in actor order and trimmed to ``episodes``. The
        trained learner remains available as ``self.learner`` (e.g. for
        :func:`~repro.rl.trainer.evaluate_codesize_reduction`), and run
        accounting lands in ``self.stats``.
        """
        if isinstance(training_benchmarks, str):
            training_benchmarks = [training_benchmarks]
        benchmarks = [str(benchmark) for benchmark in training_benchmarks]
        # Resume accounting: episodes is the TOTAL target; a resumed trainer
        # runs only the episodes beyond its checkpoint and prepends the saved
        # reward stream, so crash + resume reaches the same trajectory
        # length as the uninterrupted run.
        remaining = episodes - len(self._resume_rewards)
        if remaining <= 0:
            result = TrainingResult(
                agent_name=getattr(self.learner, "name", type(self.learner).__name__),
                episodes=episodes,
            )
            result.episode_rewards = list(self._resume_rewards[:episodes])
            self.stats = {"resumed_episodes": len(result.episode_rewards), "actors": 0}
            return result
        synchronous = self.synchronous if self.synchronous is not None else self.num_actors == 1
        specs = self._actor_specs(benchmarks, remaining, synchronous)

        if self.start_method is not None:
            start_method = self.start_method
        else:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        ctx = multiprocessing.get_context(start_method)
        experience_queue = ctx.Queue()
        weight_queues = {spec.actor_id: ctx.Queue() for spec in specs}
        processes = {
            spec.actor_id: ctx.Process(
                target=_actor_main,
                args=(spec, experience_queue, weight_queues[spec.actor_id]),
                daemon=True,
                name=f"rl-actor-{spec.actor_id}",
            )
            for spec in specs
        }

        learner = self.learner
        start = time.monotonic()
        items_learned = 0
        items_since_broadcast = 0
        broadcasts = 0
        pending_weights: Optional[Dict[str, Any]] = None
        actor_reports: Dict[int, Dict[str, Any]] = {}
        active = set(processes)
        try:
            for process in processes.values():
                process.start()
            while active:
                try:
                    kind, actor_id, payload = experience_queue.get(timeout=self.timeout)
                except queue_module.Empty:
                    dead = sorted(
                        pid for pid in active if not processes[pid].is_alive()
                    )
                    raise RuntimeError(
                        f"Learner: no actor message within {self.timeout}s "
                        f"(active actors: {sorted(active)}, dead: {dead})"
                    ) from None
                if kind == "experience":
                    weights = learner.learn_items(payload)
                    items_learned += len(payload)
                    if (
                        self.checkpoint_dir
                        and items_learned // self.checkpoint_interval
                        > (items_learned - len(payload)) // self.checkpoint_interval
                    ):
                        # Periodic mid-run checkpoint: the weights/scaler are
                        # current; episode accounting is the pre-crash state
                        # (this run's episodes only land in the final write).
                        self._write_checkpoint(
                            self._resume_rewards,
                            self._resume_items + items_learned,
                        )
                    if synchronous:
                        # Reply to the shipping actor only: None means "keep
                        # your current weights" (exactly what a
                        # single-process agent's behaviour policy does
                        # between sync boundaries).
                        weight_queues[actor_id].put(weights)
                    else:
                        if weights is not None:
                            pending_weights = weights
                        items_since_broadcast += len(payload)
                        if (
                            pending_weights is not None
                            and items_since_broadcast >= self.broadcast_interval
                        ):
                            for pid in active:
                                weight_queues[pid].put(pending_weights)
                            broadcasts += 1
                            pending_weights = None
                            items_since_broadcast = 0
                elif kind == "done":
                    actor_reports[actor_id] = payload
                    active.discard(actor_id)
                elif kind == "error":
                    raise RuntimeError(f"Actor {actor_id} failed:\n{payload}")
                else:
                    raise RuntimeError(f"Unknown actor message kind: {kind!r}")
            for process in processes.values():
                process.join(timeout=self.timeout)
        finally:
            for process in processes.values():
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)
            # Unconsumed broadcasts must not block interpreter shutdown on
            # the queues' feeder threads.
            for weight_queue in weight_queues.values():
                weight_queue.cancel_join_thread()
            experience_queue.cancel_join_thread()

        result = TrainingResult(
            agent_name=getattr(learner, "name", type(learner).__name__), episodes=episodes
        )
        result.episode_rewards.extend(self._resume_rewards)
        for spec in specs:
            report = actor_reports.get(spec.actor_id, {})
            result.episode_rewards.extend(report.get("rewards", [])[: spec.episodes])
        result.episode_rewards = result.episode_rewards[:episodes]
        # The learner's weights were fit to actor-standardized features;
        # adopt the actors' (merged) scaler statistics so the trained
        # learner evaluates raw observations with the transform it was
        # trained under.
        scaler_states = [
            actor_reports[spec.actor_id]["scaler"]
            for spec in specs
            if actor_reports.get(spec.actor_id, {}).get("scaler") is not None
        ]
        learner_scaler = getattr(learner, "scaler", None)
        if scaler_states and learner_scaler is not None:
            learner_scaler.set_state(FeatureScaler.merge_states(scaler_states))
        self._write_checkpoint(
            result.episode_rewards, self._resume_items + items_learned
        )
        self.stats = {
            "actors": len(specs),
            "envs_per_actor": self.envs_per_actor,
            "synchronous": synchronous,
            "items_learned": items_learned,
            "resumed_episodes": len(self._resume_rewards),
            "checkpoint_dir": self.checkpoint_dir,
            "broadcasts": broadcasts,
            "total_env_steps": sum(r.get("steps", 0) for r in actor_reports.values()),
            "actor_steps": {pid: r.get("steps", 0) for pid, r in actor_reports.items()},
            "actor_weight_updates": {
                pid: r.get("weight_updates", 0) for pid, r in actor_reports.items()
            },
            "walltime_s": time.monotonic() - start,
        }
        logger.info(
            "Distributed %s training: %d episodes from %d actor(s), %d env steps, "
            "%d learn items, %d broadcast(s) in %.2fs",
            self.agent,
            len(result.episode_rewards),
            len(specs),
            self.stats["total_env_steps"],
            items_learned,
            broadcasts if not synchronous else sum(
                self.stats["actor_weight_updates"].values()
            ),
            self.stats["walltime_s"],
        )
        return result


def train_agent_distributed(
    agent: str,
    training_benchmarks: Sequence[str],
    episodes: int,
    num_actors: int = 2,
    **trainer_kwargs,
) -> TrainingResult:
    """One-call convenience wrapper around :class:`DistributedTrainer`."""
    trainer = DistributedTrainer(agent=agent, num_actors=num_actors, **trainer_kwargs)
    return trainer.train(training_benchmarks, episodes)
