"""Common autotuner interfaces."""

import time
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.core.vector import VecCompilerEnv


@dataclass
class SearchResult:
    """The outcome of one autotuning run on one benchmark."""

    benchmark: str
    best_actions: List[Any] = field(default_factory=list)
    best_reward: float = float("-inf")
    best_metric: Optional[float] = None
    episodes: int = 0
    steps: int = 0
    walltime: float = 0.0

    def __repr__(self) -> str:
        return (
            f"SearchResult(benchmark={self.benchmark}, best_reward={self.best_reward:.4f}, "
            f"episodes={self.episodes}, steps={self.steps}, walltime={self.walltime:.2f}s)"
        )


class Budget:
    """A combined step/wall-time search budget.

    Elapsed time is measured on the monotonic clock: a wall-clock
    adjustment (NTP step, DST, manual change) mid-search must neither
    terminate the budget early nor extend it.
    """

    def __init__(self, max_steps: Optional[int] = None, max_seconds: Optional[float] = None):
        self.max_steps = max_steps
        self.max_seconds = max_seconds
        self.steps = 0
        self.start = time.monotonic()

    def spend(self, steps: int = 1) -> None:
        self.steps += steps

    def exhausted(self) -> bool:
        if self.max_steps is not None and self.steps >= self.max_steps:
            return True
        if self.max_seconds is not None and time.monotonic() - self.start >= self.max_seconds:
            return True
        return False

    @property
    def walltime(self) -> float:
        return time.monotonic() - self.start


class EpisodeTuner:
    """Base class for tuners that search over environment action sequences.

    Subclasses implement :meth:`search`. The environment must have a reward
    space selected; the tuner maximizes cumulative episode reward.
    """

    name = "episode-tuner"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def tune(
        self,
        env,
        max_steps: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> SearchResult:
        budget = Budget(max_steps=max_steps, max_seconds=max_seconds)
        benchmark = str(env.benchmark.uri) if env.benchmark else ""
        result = SearchResult(benchmark=benchmark)
        self.search(env, budget, result)
        result.walltime = budget.walltime
        result.steps = budget.steps
        return result

    def search(self, env, budget: Budget, result: SearchResult) -> None:
        raise NotImplementedError

    @staticmethod
    def evaluate_episode(env, actions: Sequence[Any], budget: Budget) -> float:
        """Run one complete episode from reset and return its cumulative reward."""
        env.reset()
        total = 0.0
        if actions:
            _, reward, _, _ = env.multistep(list(actions))
            total = env.episode_reward if env.episode_reward is not None else (reward or 0.0)
        budget.spend(len(actions))
        return float(total)

    @staticmethod
    def parallel_evaluate(
        vec_env: VecCompilerEnv, action_sequences: Sequence[Sequence[Any]], budget: Budget
    ) -> List[float]:
        """Evaluate up to ``num_envs`` complete episodes concurrently.

        Each action sequence is assigned to one pool worker; all workers are
        reset and stepped in batched operations, so a pool steps a search
        round in one ``step_sessions`` call.
        Returns one cumulative episode reward per sequence, in input order.
        """
        sequences = [list(sequence) for sequence in action_sequences]
        if len(sequences) > vec_env.num_envs:
            raise ValueError(
                f"Got {len(sequences)} action sequences for a pool of "
                f"{vec_env.num_envs} workers"
            )
        padded: List[Optional[List[Any]]] = list(sequences)
        padded += [None] * (vec_env.num_envs - len(sequences))
        vec_env.reset()
        _, step_rewards, _, _ = vec_env.multistep(padded)
        totals: List[float] = []
        for worker, sequence, reward in zip(vec_env.workers, padded, step_rewards):
            if sequence is None:
                continue
            total = getattr(worker, "episode_reward", None)
            if total is None:
                total = reward or 0.0
            totals.append(float(total))
            budget.spend(len(sequence))
        return totals

    @staticmethod
    def record(result: SearchResult, actions: Sequence[Any], reward: float, metric: Optional[float] = None) -> None:
        if reward > result.best_reward:
            result.best_reward = float(reward)
            result.best_actions = list(actions)
            result.best_metric = metric
        result.episodes += 1


class ConfigurationTuner:
    """Base class for tuners that search over integer configuration vectors.

    The objective is a callable ``configuration -> cost`` to *minimize* (e.g.
    object-code size in bytes); cardinalities give the number of choices per
    position.
    """

    name = "configuration-tuner"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def tune(
        self,
        objective: Callable[[Sequence[int]], float],
        cardinalities: Sequence[int],
        max_evaluations: int = 1000,
        initial: Optional[Sequence[int]] = None,
    ) -> SearchResult:
        start = time.monotonic()
        result = SearchResult(benchmark="")
        best_config, best_cost, evaluations = self.search(
            objective, list(cardinalities), max_evaluations, list(initial) if initial else None
        )
        result.best_actions = list(best_config)
        result.best_metric = best_cost
        result.best_reward = -best_cost
        result.steps = evaluations
        result.walltime = time.monotonic() - start
        return result

    def search(self, objective, cardinalities, max_evaluations, initial):
        raise NotImplementedError
