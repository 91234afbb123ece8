"""Linear function approximators shared by the RL agents."""

from typing import Optional, Tuple

import numpy as np


class FeatureScaler:
    """Online feature preprocessing: log1p compression plus running
    standardization.

    IR feature vectors are raw counters spanning several orders of magnitude;
    without compression the linear agents see wildly varying gradient scales.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 1e-4
        self.mean = np.zeros(dim)
        self.m2 = np.ones(dim)

    def __call__(self, observation, update: bool = True) -> np.ndarray:
        x = np.log1p(np.maximum(np.asarray(observation, dtype=np.float64), 0.0))
        if update:
            self.count += 1
            delta = x - self.mean
            self.mean += delta / self.count
            self.m2 += delta * (x - self.mean)
        std = np.sqrt(self.m2 / max(1.0, self.count)) + 1e-6
        return np.clip((x - self.mean) / std, -5.0, 5.0)

    def get_state(self) -> dict:
        """The running statistics, picklable for actor→learner transfer."""
        return {"count": self.count, "mean": self.mean.copy(), "m2": self.m2.copy()}

    def set_state(self, state: dict) -> None:
        self.count = float(state["count"])
        self.mean = np.array(state["mean"], dtype=np.float64)
        self.m2 = np.array(state["m2"], dtype=np.float64)

    @staticmethod
    def merge_states(states) -> dict:
        """Combine running statistics from several scalers into one state.

        Chan et al.'s parallel variance merge: exact for the counts and
        means, and for the M2 sums up to the (tiny) initialization priors
        each scaler starts from. Lets a distributed learner adopt the
        feature statistics its actors standardized with.
        """
        merged = None
        for state in states:
            count = float(state["count"])
            mean = np.array(state["mean"], dtype=np.float64)
            m2 = np.array(state["m2"], dtype=np.float64)
            if merged is None:
                merged = {"count": count, "mean": mean, "m2": m2}
                continue
            total = merged["count"] + count
            delta = mean - merged["mean"]
            merged["mean"] = merged["mean"] + delta * (count / total)
            merged["m2"] = (
                merged["m2"] + m2 + delta**2 * (merged["count"] * count / total)
            )
            merged["count"] = total
        if merged is None:
            raise ValueError("merge_states() requires at least one state")
        return merged


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    return exps / exps.sum()


class LinearPolicy:
    """A softmax policy with linear logits."""

    def __init__(self, obs_dim: int, num_actions: int, learning_rate: float = 0.01, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.weights = rng.normal(scale=0.01, size=(num_actions, obs_dim))
        self.bias = np.zeros(num_actions)
        self.learning_rate = learning_rate
        self.num_actions = num_actions

    def logits(self, observation: np.ndarray) -> np.ndarray:
        return self.weights @ observation + self.bias

    def get_weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """Copies of ``(weights, bias)`` — the broadcastable learner state."""
        return self.weights.copy(), self.bias.copy()

    def set_weights(self, weights: Tuple[np.ndarray, np.ndarray]) -> None:
        """Install a ``(weights, bias)`` pair produced by :meth:`get_weights`."""
        new_weights, new_bias = (np.array(w, dtype=np.float64) for w in weights)
        if new_weights.shape != self.weights.shape or new_bias.shape != self.bias.shape:
            raise ValueError(
                f"Weight shapes {new_weights.shape}/{new_bias.shape} do not match "
                f"the model's {self.weights.shape}/{self.bias.shape}"
            )
        self.weights = new_weights
        self.bias = new_bias

    def probabilities(self, observation: np.ndarray) -> np.ndarray:
        return softmax(self.logits(observation))

    def act(self, observation: np.ndarray, rng: np.random.Generator, greedy: bool = False) -> Tuple[int, float]:
        probs = self.probabilities(observation)
        if greedy:
            action = int(np.argmax(probs))
        else:
            action = int(rng.choice(self.num_actions, p=probs))
        return action, float(np.log(probs[action] + 1e-12))

    def log_prob(self, observation: np.ndarray, action: int) -> float:
        return float(np.log(self.probabilities(observation)[action] + 1e-12))

    def policy_gradient_step(self, observation: np.ndarray, action: int, scale: float) -> None:
        """Apply one ascent step of ``scale * grad log pi(action | observation)``."""
        probs = self.probabilities(observation)
        grad_logits = -probs
        grad_logits[action] += 1.0
        self.weights += self.learning_rate * scale * np.outer(grad_logits, observation)
        self.bias += self.learning_rate * scale * grad_logits

    def entropy(self, observation: np.ndarray) -> float:
        probs = self.probabilities(observation)
        return float(-(probs * np.log(probs + 1e-12)).sum())

    def entropy_gradient_step(self, observation: np.ndarray, scale: float) -> None:
        """Apply one ascent step of ``scale * grad H(pi(. | observation))``.

        This is the correct entropy regularizer for a softmax policy: the
        gradient of the entropy with respect to the logits is
        ``-pi_k * (log pi_k + H)``, which pushes probability mass toward the
        uniform distribution. It is *not* equivalent to adding a constant to
        the advantage of the sampled action, which instead biases the policy
        toward whatever action happened to be taken.
        """
        probs = self.probabilities(observation)
        log_probs = np.log(probs + 1e-12)
        entropy = float(-(probs * log_probs).sum())
        grad_logits = -probs * (log_probs + entropy)
        self.weights += self.learning_rate * scale * np.outer(grad_logits, observation)
        self.bias += self.learning_rate * scale * grad_logits


class LinearValueFunction:
    """A linear state-value (or action-value) function."""

    def __init__(self, obs_dim: int, num_outputs: int = 1, learning_rate: float = 0.01, seed: int = 0):
        rng = np.random.default_rng(seed + 1)
        self.weights = rng.normal(scale=0.01, size=(num_outputs, obs_dim))
        self.bias = np.zeros(num_outputs)
        self.learning_rate = learning_rate

    def __call__(self, observation: np.ndarray) -> np.ndarray:
        return self.weights @ observation + self.bias

    def value(self, observation: np.ndarray) -> float:
        return float(self(observation)[0])

    def update(self, observation: np.ndarray, target, output_index: Optional[int] = None) -> float:
        """One TD/regression step toward ``target``. Returns the error.

        The step is a normalized LMS update (scaled by the squared feature
        norm), which keeps linear TD learning stable regardless of the
        observation dimensionality.
        """
        prediction = self(observation)
        norm = 1.0 + float(observation @ observation)
        index = 0 if output_index is None else output_index
        error = float(np.asarray(target) - prediction[index])
        step = self.learning_rate * error / norm
        self.weights[index] += step * observation
        self.bias[index] += step
        return error
