"""Stochastic multilabel policies of the exponential family.

A policy over label bit-vectors y in {0,1}^q conditioned on features x scores
actions by w(y)'u with u = theta @ x, which makes the distribution factorize
into q independent Bernoulli components with success probability sigmoid(u_l).

Every form here works on a feature matrix, one row per example; a single
record is a one-row matrix.  Sampling (`bandit.generate_bandit_log`), greedy
decoding and the exact expected Hamming loss (`bandit.evaluate_policy`) and
the score-function gradients (`objectives`) all build on these forms and the
factorization; no normalizer enumeration is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

_LOGIT_CLAMP = 500.0


@dataclass(frozen=True)
class PolicyParams:
    """Per-label weight matrix, shape (n_labels, n_features)."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2:
            raise ContractViolation("weights must be a (labels x features) matrix")
        if not np.all(np.isfinite(w)):
            raise ContractViolation("weights must be finite")
        object.__setattr__(self, "weights", w)

    @property
    def n_labels(self) -> int:
        return self.weights.shape[0]

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]

    @staticmethod
    def zeros(n_labels: int, n_features: int) -> "PolicyParams":
        return PolicyParams(np.zeros((n_labels, n_features)))


def clamp_logits(u: np.ndarray) -> np.ndarray:
    return np.clip(u, -_LOGIT_CLAMP, _LOGIT_CLAMP)


def _sigmoid_from(u: np.ndarray, e: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-u) for u >= 0 and e^u / (1 + e^u) below, with e = e^-|u|
    # <= 1: the numerator max(e, [u >= 0]) picks 1 or e without a branch.
    return np.maximum(e, u >= 0.0) / (1.0 + e)


def sigmoid(u: np.ndarray) -> np.ndarray:
    u = clamp_logits(u)
    return _sigmoid_from(u, np.exp(-np.abs(u)))


def log1p_exp(u: np.ndarray) -> np.ndarray:
    """log(1 + e^u), branchless stable form."""
    return np.logaddexp(0.0, clamp_logits(u))


def logits_matrix(params: PolicyParams, X: np.ndarray) -> np.ndarray:
    """(n, q) logits for a dense feature matrix X of shape (n, D)."""
    if X.shape[1] != params.n_features:
        raise ContractViolation("feature matrix width does not match policy")
    return X @ params.weights.T


def log_prob_matrix(params: PolicyParams, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n,) log-probabilities of the actions Y (shape (n, q)) under the policy."""
    U = clamp_logits(logits_matrix(params, X))
    if Y.shape != U.shape:
        raise ContractViolation("action matrix shape does not match logits")
    return (Y * U).sum(axis=1) - log1p_exp(U).sum(axis=1)
