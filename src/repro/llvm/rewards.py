"""Reward spaces for the LLVM phase-ordering environment.

Three metrics (code size, binary size, runtime), each exposed raw and scaled
against the gains achieved by the compiler's default pipelines (-Oz for size,
-O3 for runtime), exactly as described in Section V-A of the paper.
"""

from typing import List, Optional

from repro.core.spaces.reward import Reward


class DeltaReward(Reward):
    """Reward = decrease in a scalar metric observation since the last step."""

    def __init__(self, name: str, observation_name: str, deterministic: bool, platform_dependent: bool):
        super().__init__(
            name=name,
            observation_spaces=[observation_name],
            default_value=0,
            default_negates_returns=True,
            deterministic=deterministic,
            platform_dependent=platform_dependent,
        )
        self.observation_name = observation_name
        self.previous_value: Optional[float] = None

    def reset(self, benchmark: str, observation_view) -> None:
        del benchmark
        self.previous_value = None

    def update(self, actions, observations, observation_view) -> float:
        del actions, observation_view
        value = float(observations[0])
        if self.previous_value is None:
            self.previous_value = value
            return 0.0
        reward = self.previous_value - value
        self.previous_value = value
        return reward


class BaselineScaledReward(DeltaReward):
    """A :class:`DeltaReward` scaled against a reference pipeline's total gain.

    The per-step reward is ``(previous - new) / (O0 - baseline)`` where
    ``baseline`` is the metric after -Oz or -O3. The episode return therefore
    reaches 1.0 exactly when the agent matches the default pipeline, and
    exceeds 1.0 when it beats it.
    """

    def __init__(
        self,
        name: str,
        observation_name: str,
        unoptimized_observation: str,
        baseline_observation: str,
        deterministic: bool,
        platform_dependent: bool,
    ):
        super().__init__(
            name=name,
            observation_name=observation_name,
            deterministic=deterministic,
            platform_dependent=platform_dependent,
        )
        self.unoptimized_observation = unoptimized_observation
        self.baseline_observation = baseline_observation
        self.reset_observation_spaces = [unoptimized_observation, baseline_observation]
        self.scale: float = 1.0

    def reset(self, benchmark: str, observation_view) -> None:
        super().reset(benchmark, observation_view)
        unoptimized = float(observation_view[self.unoptimized_observation])
        baseline = float(observation_view[self.baseline_observation])
        gain = unoptimized - baseline
        # A baseline that achieves no improvement gives a unit scale, matching
        # the upstream behaviour of falling back to absolute deltas.
        self.scale = 1.0 / gain if gain > 0 else 1.0

    def update(self, actions, observations, observation_view) -> float:
        return super().update(actions, observations, observation_view) * self.scale


class NormalizedReward(DeltaReward):
    """A :class:`DeltaReward` scaled by the unoptimized metric value, so the
    episode return is the fraction of the original size removed."""

    def __init__(self, name: str, observation_name: str, unoptimized_observation: str,
                 deterministic: bool, platform_dependent: bool):
        super().__init__(
            name=name,
            observation_name=observation_name,
            deterministic=deterministic,
            platform_dependent=platform_dependent,
        )
        self.unoptimized_observation = unoptimized_observation
        self.reset_observation_spaces = [unoptimized_observation]
        self.scale: float = 1.0

    def reset(self, benchmark: str, observation_view) -> None:
        super().reset(benchmark, observation_view)
        unoptimized = float(observation_view[self.unoptimized_observation])
        self.scale = 1.0 / unoptimized if unoptimized > 0 else 1.0

    def update(self, actions, observations, observation_view) -> float:
        return super().update(actions, observations, observation_view) * self.scale


def make_llvm_rewards() -> List[Reward]:
    """The reward spaces of the LLVM environment."""
    return [
        DeltaReward(
            "IrInstructionCount", "IrInstructionCount", deterministic=True, platform_dependent=False
        ),
        NormalizedReward(
            "IrInstructionCountNorm", "IrInstructionCount", "IrInstructionCountO0",
            deterministic=True, platform_dependent=False,
        ),
        BaselineScaledReward(
            "IrInstructionCountO3", "IrInstructionCount", "IrInstructionCountO0",
            "IrInstructionCountO3", deterministic=True, platform_dependent=False,
        ),
        BaselineScaledReward(
            "IrInstructionCountOz", "IrInstructionCount", "IrInstructionCountO0",
            "IrInstructionCountOz", deterministic=True, platform_dependent=False,
        ),
        DeltaReward(
            "ObjectTextSizeBytes", "ObjectTextSizeBytes", deterministic=True, platform_dependent=True
        ),
        NormalizedReward(
            "ObjectTextSizeNorm", "ObjectTextSizeBytes", "ObjectTextSizeO0",
            deterministic=True, platform_dependent=True,
        ),
        BaselineScaledReward(
            "ObjectTextSizeO3", "ObjectTextSizeBytes", "ObjectTextSizeO0", "ObjectTextSizeO3",
            deterministic=True, platform_dependent=True,
        ),
        BaselineScaledReward(
            "ObjectTextSizeOz", "ObjectTextSizeBytes", "ObjectTextSizeO0", "ObjectTextSizeOz",
            deterministic=True, platform_dependent=True,
        ),
        DeltaReward("Runtime", "Runtime", deterministic=False, platform_dependent=True),
    ]
