"""Reinforcement-learning agents and training harness.

The paper trains RLlib agents (PPO, A2C, Ape-X, IMPALA) on the LLVM
phase-ordering environment. Offline, this package provides compact NumPy
implementations of the same four algorithm families over linear
policy/value/Q function approximators, plus the training and evaluation
harness used by the Table VI/VII and Fig. 9 reproductions.
"""

from repro.rl.policies import LinearPolicy, LinearValueFunction, FeatureScaler
from repro.rl.replay_buffer import PrioritizedReplayBuffer
from repro.rl.ppo import PPOAgent
from repro.rl.a2c import A2CAgent
from repro.rl.apex import ApexDQNAgent
from repro.rl.impala import ImpalaAgent
from repro.rl.trainer import (
    EvaluationResult,
    RlWorkerWrapper,
    TrainingResult,
    evaluate_codesize_reduction,
    make_rl_environment,
    make_vec_rl_environment,
    run_vec_episode,
    run_vec_rollouts,
    train_agent,
    train_agent_vec,
)
from repro.rl.distributed import DistributedTrainer

__all__ = [
    "A2CAgent",
    "ApexDQNAgent",
    "DistributedTrainer",
    "EvaluationResult",
    "FeatureScaler",
    "ImpalaAgent",
    "LinearPolicy",
    "LinearValueFunction",
    "PPOAgent",
    "PrioritizedReplayBuffer",
    "RlWorkerWrapper",
    "TrainingResult",
    "evaluate_codesize_reduction",
    "make_rl_environment",
    "make_vec_rl_environment",
    "run_vec_episode",
    "run_vec_rollouts",
    "train_agent",
    "train_agent_vec",
]
