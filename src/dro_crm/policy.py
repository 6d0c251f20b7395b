"""Stochastic multilabel policies of the exponential family.

A policy over label bit-vectors y in {0,1}^q conditioned on features x scores
actions by w(y)'u with u = theta @ x, which makes the distribution factorize
into q independent Bernoulli components with success probability sigmoid(u_l).
Log-probabilities, sampling, gradients, greedy decoding and the exact expected
Hamming loss all exploit that factorization; no normalizer enumeration is ever
needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Tuple

import numpy as np

from .errors import ContractViolation

_LOGIT_CLAMP = 500.0
_FEATURE_BOUND = 1e6


@dataclass(frozen=True)
class FeatureVector:
    """Sparse feature vector: parallel (index, value) arrays plus total dim."""

    indices: np.ndarray
    values: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ContractViolation("indices and values must be parallel 1-d arrays")
        if idx.size and (idx.min() < 0 or idx.max() >= self.dim):
            raise ContractViolation("feature index out of range")
        if not np.all(np.isfinite(val)) or (val.size and np.abs(val).max() > _FEATURE_BOUND):
            raise ContractViolation("feature values must be finite and bounded")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @staticmethod
    def from_dense(x: np.ndarray) -> "FeatureVector":
        x = np.asarray(x, dtype=np.float64)
        nz = np.flatnonzero(x)
        return FeatureVector(nz, x[nz], x.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.indices] = self.values
        return out


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


def softplus_sigmoid(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(log(1 + e^u), sigmoid(u)) of the clamped logits from a single exp.
    The softplus agrees with `log1p_exp` to a few ulp, not bit for bit."""
    u = clamp_logits(u)
    e = np.exp(-np.abs(u))
    return np.maximum(u, 0.0) + np.log1p(e), _sigmoid_from(u, e)


def _check_dims(params: PolicyParams, x: FeatureVector):
    if x.dim != params.n_features:
        raise ContractViolation(
            f"feature dim {x.dim} does not match policy ({params.n_features})")


def label_logits(params: PolicyParams, x: FeatureVector) -> np.ndarray:
    """Per-label scores u_l = theta_l . x."""
    _check_dims(params, x)
    return params.weights[:, x.indices] @ x.values


def log_prob(params: PolicyParams, x: FeatureVector, y: np.ndarray) -> float:
    """log pi(y | x) = sum_l [y_l u_l - log(1 + e^{u_l})]; always <= 0.
    Logits are clamped to +-500 in both terms so the bound survives extreme
    parameters."""
    u = clamp_logits(label_logits(params, x))
    y = np.asarray(y, dtype=np.float64)
    if y.shape != u.shape:
        raise ContractViolation("action length does not match label count")
    return float(y @ u - log1p_exp(u).sum())


def sample_action(params: PolicyParams, x: FeatureVector,
                  rng: np.random.Generator) -> Tuple[np.ndarray, float]:
    """Draw y with each bit Bernoulli(sigmoid(u_l)); returns (y, propensity)
    where the propensity is exactly exp(log_prob(params, x, y))."""
    u = label_logits(params, x)
    y = (rng.random(u.size) < sigmoid(u)).astype(np.int8)
    return y, math.exp(log_prob(params, x, y))


def greedy_action(params: PolicyParams, x: FeatureVector) -> np.ndarray:
    """Most probable action: y_l = 1 iff u_l > 0 (ties resolve to 0)."""
    return (label_logits(params, x) > 0.0).astype(np.int8)


def grad_log_prob(params: PolicyParams, x: FeatureVector, y: np.ndarray) -> np.ndarray:
    """d log pi(y|x) / d theta: row l equals (y_l - sigmoid(u_l)) * x."""
    u = label_logits(params, x)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != u.shape:
        raise ContractViolation("action length does not match label count")
    grad = np.zeros_like(params.weights)
    grad[:, x.indices] = np.outer(y - sigmoid(u), x.values)
    return grad


def expected_hamming(params: PolicyParams, x: FeatureVector, y_star: np.ndarray) -> float:
    """E_{y ~ pi(.|x)} sum_l |y_l - y*_l|, exact by per-label independence."""
    u = label_logits(params, x)
    y_star = np.asarray(y_star, dtype=np.float64)
    if y_star.shape != u.shape:
        raise ContractViolation("action length does not match label count")
    s = sigmoid(u)
    return float((y_star * (1.0 - s) + (1.0 - y_star) * s).sum())


def enumerate_actions(n_labels: int) -> Iterator[np.ndarray]:
    """All 2^q bit vectors, for exhaustive checks at small q."""
    if n_labels > 20:
        raise ContractViolation("enumeration limited to 20 labels")
    for bits in product((0, 1), repeat=n_labels):
        yield np.array(bits, dtype=np.int8)


# --- dataset-level forms used by the objectives and the evaluator ----------

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
