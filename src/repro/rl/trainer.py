"""Training and evaluation harness for the RL experiments.

Reproduces the setup of Section VII-G/H/I: fixed 45-step episodes, a
constrained 42-pass action space, an Autophase (or InstCount) observation
concatenated with a histogram of the agent's previous actions, code-size
reward, Csmith training programs, and evaluation by geometric-mean code-size
reduction relative to -Oz on held-out benchmarks.
"""

import logging
import random
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.vector import VecCompilerEnv
from repro.core.vector.vec_env import close_quietly
from repro.core.wrappers import ConcatActionsHistogram, ConstrainedCommandline, TimeLimit
from repro.util.statistics import geometric_mean

logger = logging.getLogger(__name__)

# Floor for a benchmark's code-size reduction in geometric-mean evaluation;
# see evaluate_codesize_reduction().
MIN_CODESIZE_REDUCTION = 1e-6

# The 42-pass subset used by the paper's replication of Autophase (42 of the
# 45 original actions survive in recent LLVM releases).
AUTOPHASE_ACTION_SUBSET = [
    "-adce", "-aggressive-instcombine", "-always-inline", "-constmerge", "-constprop",
    "-correlated-propagation", "-dce", "-deadargelim", "-die", "-dse",
    "-early-cse", "-globaldce", "-globalopt", "-gvn", "-gvn-hoist",
    "-indvars", "-inline", "-instcombine", "-instsimplify", "-ipsccp",
    "-jump-threading", "-lcssa", "-licm", "-loop-deletion", "-loop-idiom",
    "-loop-rotate", "-loop-simplify", "-loop-unroll", "-lowerswitch", "-mem2reg",
    "-memcpyopt", "-mergefunc", "-mergereturn", "-newgvn", "-partial-inliner",
    "-reassociate", "-sccp", "-simplifycfg", "-sink", "-sroa",
    "-strip", "-tailcallelim",
]
EPISODE_LENGTH = 45


@dataclass
class TrainingResult:
    """Learning-curve record of one training run."""

    agent_name: str
    episodes: int
    episode_rewards: List[float] = field(default_factory=list)
    validation_scores: List[float] = field(default_factory=list)
    validation_episodes: List[int] = field(default_factory=list)


@dataclass
class EvaluationResult:
    """Evaluation of a trained agent on one dataset."""

    dataset: str
    geomean_reduction: float
    per_benchmark: List[float] = field(default_factory=list)


def make_rl_environment(
    env,
    observation_space: str = "Autophase",
    use_action_histogram: bool = True,
    episode_length: int = EPISODE_LENGTH,
    action_subset: Optional[Sequence[str]] = None,
):
    """Wrap an LlvmEnv into the experiment's MDP formulation.

    This is the wrapper composition highlighted in the paper: a constrained
    commandline action space, a fixed time limit, and an observation
    concatenated with the action histogram.
    """
    env.observation_space = observation_space
    if env.reward_space is None:
        env.reward_space = "IrInstructionCountNorm"
    env = ConstrainedCommandline(env, flags=list(action_subset or AUTOPHASE_ACTION_SUBSET))
    env = TimeLimit(env, max_episode_steps=episode_length)
    if use_action_histogram:
        env = ConcatActionsHistogram(env, norm_to_episode_len=episode_length)
    return env


@dataclass(frozen=True)
class RlWorkerWrapper:
    """Picklable per-worker wrapper applying the experiment's MDP formulation.

    ``VecCompilerEnv`` applies this to every pool worker. Being a plain
    dataclass (rather than a closure) it can be shipped to the actor processes
    of :mod:`repro.rl.distributed`.
    """

    observation_space: str = "Autophase"
    use_action_histogram: bool = True
    episode_length: int = EPISODE_LENGTH
    action_subset: Optional[Tuple[str, ...]] = None

    def __call__(self, worker):
        return make_rl_environment(
            worker,
            observation_space=self.observation_space,
            use_action_histogram=self.use_action_histogram,
            episode_length=self.episode_length,
            action_subset=list(self.action_subset) if self.action_subset else None,
        )


def make_vec_rl_environment(
    env,
    n: int,
    backend="serial",
    observation_space: str = "Autophase",
    use_action_histogram: bool = True,
    episode_length: int = EPISODE_LENGTH,
    action_subset: Optional[Sequence[str]] = None,
    auto_reset: bool = False,
    close_env_on_error: bool = True,
) -> VecCompilerEnv:
    """Build a vectorized pool of RL-wrapped environments.

    The raw root environment is forked to populate the pool (so service
    startup and the benchmark cache are shared), and every worker is then
    wrapped into the experiment's MDP formulation via :class:`RlWorkerWrapper`.
    ``backend`` is passed to :class:`VecCompilerEnv`.

    On success the pool owns ``env``. On failure ``env`` is closed before the
    error propagates (callers construct it solely for the pool); pass
    ``close_env_on_error=False`` to keep it open instead.
    """
    env.observation_space = observation_space
    if env.reward_space is None:
        env.reward_space = "IrInstructionCountNorm"

    wrap = RlWorkerWrapper(
        observation_space=observation_space,
        use_action_histogram=use_action_histogram,
        episode_length=episode_length,
        action_subset=tuple(action_subset) if action_subset else None,
    )
    try:
        return VecCompilerEnv(
            env, n=n, backend=backend, worker_wrapper=wrap, auto_reset=auto_reset
        )
    except Exception:
        if close_env_on_error:
            close_quietly(env)
        raise


def observation_dim(observation_space: str, use_action_histogram: bool, num_actions: int) -> int:
    base = {"Autophase": 56, "InstCount": 70}[observation_space]
    return base + (num_actions if use_action_histogram else 0)


def run_episode(env, agent, benchmark: Optional[str] = None, train: bool = True) -> float:
    """Run one episode; returns the cumulative reward."""
    observation = env.reset(benchmark=benchmark) if benchmark else env.reset()
    total = 0.0
    done = False
    while not done:
        action = agent.act(observation, greedy=not train)
        observation, reward, done, _ = env.step(action)
        reward = reward or 0.0
        total += reward
        if train:
            agent.observe(observation, action, reward, done)
    if train:
        agent.end_episode()
    return total


def run_vec_episode(
    vec_env: VecCompilerEnv,
    agent,
    benchmarks: Optional[Sequence[str]] = None,
    train: bool = True,
) -> List[float]:
    """Collect one episode from every pool worker, returning episode rewards.

    Workers run in lockstep: each iteration the agent selects a batch of
    actions (one per live worker), the pool applies them in one batched step,
    and the agent observes the batch of transitions. Workers whose episodes
    end early are masked out with ``None`` actions. Agents that implement
    ``act_batch``/``observe_batch`` (A2C, PPO) accumulate per-worker
    trajectories and compute advantages over them exactly as in the
    sequential rollout path.
    """
    observations = vec_env.reset(benchmarks=benchmarks)
    n = vec_env.num_envs
    totals = [0.0] * n
    dones = [False] * n
    batched_agent = hasattr(agent, "act_batch")
    if train and not batched_agent and n > 1:
        # Agents without the batch API keep single-slot internal state
        # between act() and observe(); interleaving workers would corrupt it.
        raise ValueError(
            f"{type(agent).__name__} does not implement act_batch()/observe_batch(); "
            "training on a vectorized pool with n > 1 requires the batch rollout API "
            "(use run_episode() for sequential training)"
        )
    batched_agent = batched_agent and train
    while not all(dones):
        masked = [None if dones[i] else observations[i] for i in range(n)]
        if batched_agent:
            actions = agent.act_batch(masked, greedy=not train)
        else:
            actions = [
                None if observation is None else agent.act(observation, greedy=not train)
                for observation in masked
            ]
        observations, rewards, step_dones, _ = vec_env.step(actions)
        rewards = [reward or 0.0 for reward in rewards]
        if batched_agent:
            agent.observe_batch(rewards, step_dones, observations)
        for i in range(n):
            if dones[i]:
                continue
            totals[i] += rewards[i]
            if not batched_agent and train:
                agent.observe(observations[i], actions[i], rewards[i], step_dones[i])
            dones[i] = bool(step_dones[i])
    if train:
        if batched_agent:
            agent.end_episode_batch()
        else:
            agent.end_episode()
    return totals


def run_vec_rollouts(
    vec_env: VecCompilerEnv,
    agent,
    episodes: int,
    benchmarks: Optional[Sequence[str]] = None,
    train: bool = True,
) -> List[float]:
    """Continuously collect episodes from an auto-reset pool.

    Unlike :func:`run_vec_episode` — which runs the pool in per-episode
    lockstep and masks finished workers out — this keeps every worker live:
    a worker whose episode ends is reset by the pool *within the same batched
    step* and immediately starts its next episode, so no step-slot is ever
    wasted. The agent bootstraps finished transitions from
    ``info["terminal_observation"]`` (the episode's true final state), not
    from the next episode's initial observation.

    ``benchmarks`` is the full training list: the first ``num_envs`` entries
    seed the workers and every completed episode advances the cycle, so (as
    in the lockstep path) every benchmark gets its turn even when there are
    more benchmarks than workers. Returns the rewards of the completed
    episodes, in completion order (at least ``episodes`` of them). The pool
    keeps its ``num_envs`` workers throughout.
    """
    if not getattr(vec_env, "auto_reset", False):
        raise ValueError("run_vec_rollouts() requires a VecCompilerEnv(auto_reset=True)")
    if train and not hasattr(agent, "act_batch"):
        raise ValueError(
            f"{type(agent).__name__} does not implement act_batch()/observe_batch(); "
            "continuous rollout collection requires the batch rollout API"
        )
    n = vec_env.num_envs
    if isinstance(benchmarks, str):
        benchmarks = [benchmarks]
    benchmarks = list(benchmarks) if benchmarks else []
    if benchmarks:
        current = [benchmarks[i % len(benchmarks)] for i in range(n)]
        observations = vec_env.reset(benchmarks=current)
    else:
        current = [None] * n
        observations = vec_env.reset()
    next_benchmark = n  # Cursor into the benchmark cycle, matching run_vec_episode.
    totals = [0.0] * n
    completed: List[float] = []

    while len(completed) < episodes:
        if train:
            actions = agent.act_batch(observations, greedy=False)
        else:
            actions = [agent.act(observation, greedy=True) for observation in observations]
        observations, rewards, dones, infos = vec_env.step(actions)
        rewards = [reward or 0.0 for reward in rewards]
        if train:
            bootstrap_observations = [
                info.get("terminal_observation", observation) if done else observation
                for observation, done, info in zip(observations, dones, infos)
            ]
            agent.observe_batch(rewards, dones, bootstrap_observations)
        for i in range(n):
            totals[i] += rewards[i]
            if dones[i]:
                completed.append(totals[i])
                totals[i] = 0.0
                if benchmarks:
                    # The auto-reset restarted the worker on its current
                    # benchmark; advance the cycle so every training
                    # benchmark gets its turn, re-resetting only when the
                    # assignment actually changes (the agent has not acted on
                    # the discarded initial observation yet). The discarded
                    # reset is the price of a deterministic benchmark order:
                    # scheduling the next benchmark inside the pool's
                    # auto-reset would assign in backend completion order.
                    assigned = benchmarks[next_benchmark % len(benchmarks)]
                    next_benchmark += 1
                    if assigned != current[i]:
                        current[i] = assigned
                        observations[i] = vec_env.reset_worker(i, benchmark=assigned)
    if train and hasattr(agent, "end_episode_batch"):
        agent.end_episode_batch()
    return completed


def train_agent_vec(
    agent,
    vec_env: VecCompilerEnv,
    training_benchmarks: Sequence[str],
    episodes: int,
    seed: int = 0,
) -> TrainingResult:
    """Train an agent on vectorized rollouts.

    With a plain pool, episodes are collected ``vec_env.num_envs`` at a time
    in lockstep, cycling over the training benchmarks (one benchmark per
    worker per round), until at least ``episodes`` episodes have been
    recorded. With an ``auto_reset=True`` pool, rollouts are collected
    continuously instead: finished workers restart immediately on their
    assigned benchmark, so no batched step is spent on masked-out slots.
    """
    del seed  # Benchmark order is deterministic, matching train_agent().
    result = TrainingResult(
        agent_name=getattr(agent, "name", type(agent).__name__), episodes=episodes
    )
    benchmarks = list(training_benchmarks)
    n = vec_env.num_envs
    if getattr(vec_env, "auto_reset", False):
        rewards = run_vec_rollouts(vec_env, agent, episodes, benchmarks=benchmarks, train=True)
        result.episode_rewards.extend(rewards[:episodes])
        return result
    episode = 0
    while episode < episodes:
        if benchmarks:
            assigned = [benchmarks[(episode + i) % len(benchmarks)] for i in range(n)]
        else:
            assigned = None
        rewards = run_vec_episode(vec_env, agent, benchmarks=assigned, train=True)
        remaining = episodes - episode
        result.episode_rewards.extend(rewards[:remaining])
        episode += min(n, remaining)
    return result


def final_codesize_reduction(env) -> float:
    """The paper's headline metric: -Oz size divided by the achieved size."""
    unwrapped = env.unwrapped if hasattr(env, "unwrapped") else env
    final_size = unwrapped.observation["IrInstructionCount"]
    oz_size = unwrapped.observation["IrInstructionCountOz"]
    if final_size <= 0:
        return 0.0
    return float(oz_size) / float(final_size)


def train_agent(
    agent,
    env,
    training_benchmarks: Sequence[str],
    episodes: int,
    validation_benchmarks: Optional[Sequence[str]] = None,
    validation_interval: Optional[int] = None,
    seed: int = 0,
) -> TrainingResult:
    """Train an agent by cycling over the training benchmarks."""
    rng = random.Random(seed)  # noqa: F841 - reserved for future stochastic curricula
    result = TrainingResult(agent_name=getattr(agent, "name", type(agent).__name__), episodes=episodes)
    benchmarks = list(training_benchmarks)
    for episode in range(episodes):
        benchmark = benchmarks[episode % len(benchmarks)] if benchmarks else None
        reward = run_episode(env, agent, benchmark=benchmark, train=True)
        result.episode_rewards.append(reward)
        if (
            validation_benchmarks
            and validation_interval
            and (episode + 1) % validation_interval == 0
        ):
            score = evaluate_codesize_reduction(agent, env, validation_benchmarks).geomean_reduction
            result.validation_scores.append(score)
            result.validation_episodes.append(episode + 1)
    return result


def evaluate_codesize_reduction(
    agent,
    env,
    benchmarks: Iterable[str],
    dataset_name: str = "",
) -> EvaluationResult:
    """Evaluate a trained agent: greedy rollouts, geomean reduction vs -Oz.

    A benchmark that degenerates to a non-positive final code size is
    clamped to :data:`MIN_CODESIZE_REDUCTION` (and logged) rather than
    contributing a 0.0 reduction, which would zero the entire geometric
    mean no matter how the other benchmarks fared.
    """
    reductions = []
    for benchmark in benchmarks:
        run_episode(env, agent, benchmark=benchmark, train=False)
        reduction = final_codesize_reduction(env)
        if reduction <= 0.0:
            logger.warning(
                "Benchmark %s reported a non-positive final code size; "
                "clamping its reduction to %g instead of zeroing the geomean",
                benchmark,
                MIN_CODESIZE_REDUCTION,
            )
            reduction = MIN_CODESIZE_REDUCTION
        reductions.append(reduction)
    return EvaluationResult(
        dataset=dataset_name,
        geomean_reduction=geometric_mean(reductions),
        per_benchmark=reductions,
    )
