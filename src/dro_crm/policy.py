"""Stochastic multilabel policies of the exponential family, and the one
kernel that every log-probability, sigmoid and score gradient comes from.

A policy scores label bit-vectors y in {0,1}^q by w(y)'u with u = theta @ x,
so it factorizes into q independent Bernoulli components with success
probability sigmoid(u_l); every form works on a matrix, a row per example.

`logit_terms` clamps the logits and forms e = exp(-|U|) and the softplus
from one exp.  `log_prob` and `score_gradient` work on the replay fold:
record k of n = delta * n_examples is example k % n_examples of pass
k // n_examples, so the (n, q) actions reshaped to (delta, n_examples, q)
line each record up with its example's terms.  One einsum gives log pi with
no per-record gather; another folds the gradient's passes onto one row per
example, whose product with the features sums blocks of _GRAD_ROWS examples
in order, so its bits do not depend on how BLAS splits it among threads.
Every product of features with policy weights is `logits_matrix` or
`score_gradient`: the objective kernel, the log generator, the logger and
skyline fits and `evaluate_policy` all call these, so every importance ratio
at the logger is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

_LOGIT_CLAMP = 500.0
_GRAD_ROWS = 256  # examples per block of the score gradient's product


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


def logit_terms(U: np.ndarray):
    """(U clamped to +-500, e = exp(-|U|), the softplus log(1 + e^U) as
    max(U, 0) + log1p(e)), all from one exp."""
    U = np.clip(U, -_LOGIT_CLAMP, _LOGIT_CLAMP)
    e = np.exp(-np.abs(U))
    return U, e, np.maximum(U, 0.0) + np.log1p(e)


def _sigmoid_from(U: np.ndarray, e: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-u) for u >= 0 and e^u / (1 + e^u) below, with e = e^-|u|
    # <= 1: the numerator max(e, [u >= 0]) picks 1 or e without a branch.
    return np.maximum(e, U >= 0.0) / (1.0 + e)


def log_prob(Y: np.ndarray, U: np.ndarray, softplus: np.ndarray) -> np.ndarray:
    """(n,) log pi(y_k | x_k) of the n replay-major actions Y, (n, q) or
    (delta, n_examples, q), from the (n_examples, q) terms of `logit_terms`."""
    Y = Y.reshape(-1, *U.shape)
    return (np.einsum("dij,ij->di", Y, U) - softplus.sum(axis=1)).ravel()


def score_gradient(c: np.ndarray, Y: np.ndarray, U: np.ndarray, e: np.ndarray,
                   X: np.ndarray) -> np.ndarray:
    """sum_k c_k d log pi(y_k | x_k)/dW, (q, D), for coefficients c (n,) on
    the records of `log_prob`'s fold and example features X: with the score
    (y - sigmoid(u)) x', R = sum_d c y - (sum_d c) sigmoid(U), then R' X."""
    n_ex, q = U.shape
    c = c.reshape(-1, n_ex)
    R = np.einsum("di,dij->ij", c, Y.reshape(-1, n_ex, q))
    R -= c.sum(axis=0)[:, None] * _sigmoid_from(U, e)
    G = np.zeros((q, X.shape[1]))
    for i in range(0, n_ex, _GRAD_ROWS):
        G += R[i:i + _GRAD_ROWS].T @ X[i:i + _GRAD_ROWS]
    return G


def sigmoid(u: np.ndarray) -> np.ndarray:
    return _sigmoid_from(*logit_terms(u)[:2])


def logits_matrix(params: PolicyParams, X: np.ndarray) -> np.ndarray:
    """(n, q) logits for a dense feature matrix X of shape (n, D)."""
    if X.shape[1] != params.n_features:
        raise ContractViolation("feature matrix width does not match policy")
    return X @ params.weights.T


def log_prob_matrix(params: PolicyParams, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(n,) log-probabilities of the actions Y (`log_prob`'s fold over X)."""
    return log_prob(Y, *logit_terms(logits_matrix(params, X))[::2])
