"""Counterfactual risk objectives and gradients over a logged bandit dataset.

Each record of the log is (features x, action y, propensity p, cost c).  The
per-sample counterfactual loss under a candidate policy is

    z_i = c_i * min(M, pi_theta(y_i | x_i) / p_i),

with the importance ratio computed in log space and clipped at M.  Every
objective is the worst case of the mean of z over a divergence ball around the
uniform weights, evaluated by one shared kernel and one rule per algorithm
(`RULES`).  A rule maps z to the risk, the weights q it puts on z and its
temperature:

* cips: the plain clipped mean (poem at lam = 0, uniform q);
* poem: mean(z) + lam * sqrt(var(z) / n), which is the chi-square ball's worst
  case at radius lam^2 / n (`divergence.robust_risk_chi2`), with its
  active-set solution where the interior weights would turn negative;
* klcrm: Boltzmann weights q_i prop. to exp(z_i / gamma) at a fixed gamma;
* aklcrm: the same at the temperature `divergence.gamma_star_approx` gives
  for radius eps / n, recomputed from z at every evaluation (constant z has
  none: the uniform-weight risk is returned, with temperature 0).

The gradient is sum_i q_i dz_i/dtheta for every rule, with the score-function
identity dz_i/dtheta = c_i * ratio_i * dlog pi(y_i | x_i)/dtheta on unclipped
samples and zero on clipped ones.  For cips and poem this is the exact
gradient of the risk (Danskin's theorem: q is the maximizer over the ball).
For klcrm and aklcrm it treats q as constant, so it is the gradient of the
surrogate sum_i q_i z_i(theta) that each optimizer step sees, not of the risk.

`evaluate(algorithm, params, log, hyper)` is the one place the kernel and a
rule run: the `RiskReport` it returns holds the value path's results, and its
`gradient()` is computed only when called.  `make_objective` (for the
minimizer) and `ips_risk` are callers of `evaluate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .divergence import boltzmann_weights, gamma_star_approx, robust_risk_chi2
from .errors import ContractViolation
# log_prob_matrix and sigmoid are not called here: perfbench/spans.py times
# the policy calls of this module by wrapping these names in place.
from .policy import (PolicyParams, clamp_logits, log_prob_matrix,
                     logits_matrix, sigmoid, softplus_sigmoid)

_RATIO_LOG_CAP = 700.0  # keeps exp() finite; ratios beyond e^700 are already absurd


@dataclass
class BanditLog:
    """Dense logged-feedback dataset, features stored once per example.

    X: (n_examples, D) features; Y: (n, q) 0/1 actions of the n records;
    example_ids: (n,) row of X each record was logged on, so replaying an
    example delta times stores its features once (defaults to arange(n) when
    X has one row per record); log_propensities: (n,) natural logs of the
    logger's action probabilities; costs: (n,) logged (already scaled) costs;
    clip_m: ratio clipping constant, finite M > 0.
    """

    X: np.ndarray
    Y: np.ndarray
    log_propensities: np.ndarray
    costs: np.ndarray
    clip_m: float
    replay_ids: Optional[np.ndarray] = None
    example_ids: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ContractViolation("features and actions must be matrices")
        n = self.Y.shape[0]
        if n < 1:
            raise ContractViolation("bandit log must be non-empty")
        if self.log_propensities.shape != (n,) or self.costs.shape != (n,):
            raise ContractViolation("bandit log arrays must agree on length")
        if self.example_ids is None:
            if self.X.shape[0] != n:
                raise ContractViolation("without example ids X needs one row per record")
            self.example_ids = np.arange(n)
        ids = np.asarray(self.example_ids)
        if ids.shape != (n,) or not np.issubdtype(ids.dtype, np.integer):
            raise ContractViolation("example ids must be one integer per record")
        if ids.min() < 0 or ids.max() >= self.X.shape[0]:
            raise ContractViolation(
                f"example ids must lie in [0, {self.X.shape[0]})")
        self.example_ids = ids
        if not np.all((self.Y == 0.0) | (self.Y == 1.0)):
            raise ContractViolation("actions must be 0/1 bit vectors")
        if not 0.0 < self.clip_m < math.inf:
            raise ContractViolation(
                f"clip constant must be positive and finite, got {self.clip_m}")
        if not np.all(np.isfinite(self.log_propensities)) \
                or np.any(self.log_propensities > 0.0):
            raise ContractViolation("propensities must lie in (0, 1]")
        if not np.all(np.isfinite(self.costs)):
            raise ContractViolation("costs must be finite")

    @property
    def n(self) -> int:
        return self.Y.shape[0]


class RiskReport:
    """The kernel's value path and a rule at one parameter value: logits,
    softplus and sigmoid once per example (row of log.X), gathered per record
    through log.example_ids into the importance ratios `ratio`, the mask
    `clipped` of samples clipped at M and the losses z (`losses`); then the
    rule's `risk`, weights q (`weights`) and temperature (`gamma_used`, None
    without one, aklcrm's 0.0 when the losses were constant)."""

    def __init__(self, params: PolicyParams, log: BanditLog, rule, hyper: Optional[float]):
        U = clamp_logits(logits_matrix(params, log.X))
        softplus, self._sigmoid = softplus_sigmoid(U)
        ids = log.example_ids
        log_pi = (np.einsum("ij,ij->i", log.Y, np.take(U, ids, axis=0))
                  - np.take(softplus.sum(axis=1), ids))
        self.ratio = np.exp(np.minimum(log_pi - log.log_propensities, _RATIO_LOG_CAP))
        self.clipped = self.ratio >= log.clip_m
        self.losses = log.costs * np.minimum(self.ratio, log.clip_m)
        self.risk, self.weights, self.gamma_used = rule(self.losses, hyper)
        self._log = log

    def gradient(self) -> np.ndarray:
        """sum_i q_i dz_i/dtheta as a (q, D) matrix, where dz_i/dtheta =
        cost_i ratio_i d log pi(y_i | x_i)/dtheta, zero where the clip binds.
        With a_i = q_i cost_i ratio_i, the sum of a_i (y_i - sigmoid(u_i)) x_i
        is taken into one row per example, sum_i a_i y_i minus (sum_i a_i)
        sigmoid(u), before a single product with the features."""
        log = self._log
        ids = log.example_ids
        n_ex, q = self._sigmoid.shape
        c = self.weights * np.where(self.clipped, 0.0, log.costs * self.ratio)
        R = np.empty((n_ex, q))
        for label in range(q):
            R[:, label] = np.bincount(ids, weights=c * log.Y[:, label], minlength=n_ex)
        R -= np.bincount(ids, weights=c, minlength=n_ex)[:, None] * self._sigmoid
        return R.T @ log.X


def _chi2_rule(z: np.ndarray, lam: float):
    if lam < 0.0:
        raise ContractViolation("lambda must be nonnegative")
    return (*robust_risk_chi2(z, lam * lam / z.size), None)


def _tilted_rule(z: np.ndarray, gamma: float):
    s = boltzmann_weights(z, gamma)
    return float(s @ z), s, gamma


def _adaptive_tilted_rule(z: np.ndarray, epsilon: float):
    gamma = gamma_star_approx(z, epsilon / z.size)
    if gamma == 0.0:  # constant losses: the uniform-weight mean
        return (*robust_risk_chi2(z, 0.0), 0.0)
    return _tilted_rule(z, gamma)


# algorithm -> (name of its hyper-parameter, rule (z, hyper) -> (risk, q, gamma))
RULES: Dict[str, Tuple[str, Callable[..., Tuple[float, np.ndarray, Optional[float]]]]] = {
    "cips": ("", lambda z, _: _chi2_rule(z, 0.0)),
    "poem": ("lambda", _chi2_rule),
    "klcrm": ("gamma", _tilted_rule),
    "aklcrm": ("epsilon", _adaptive_tilted_rule),
}


def _rule(algorithm: str, hyper: Optional[float]):
    """The algorithm's rule, checked to have the finite hyper-parameter it needs."""
    if algorithm not in RULES:
        raise ContractViolation(f"unknown algorithm {algorithm!r}")
    name, rule = RULES[algorithm]
    if name and hyper is None:
        raise ContractViolation(f"{algorithm} needs its {name}")
    if name and not math.isfinite(hyper):
        raise ContractViolation(f"{name} must be finite, got {hyper}")
    return rule


def evaluate(algorithm: str, params: PolicyParams, log: BanditLog,
             hyper: Optional[float] = None) -> RiskReport:
    """The objective of `algorithm`, a name in RULES, at `params` on `log`.
    `hyper` is the parameter RULES names for it (none for cips)."""
    return RiskReport(params, log, _rule(algorithm, hyper), hyper)


def ips_risk(params: PolicyParams, log: BanditLog) -> float:
    """Unclipped importance-weighted mean cost (the unbiased estimator used
    for validation-time model selection, never as a training objective)."""
    return float(np.mean(log.costs * evaluate("cips", params, log).ratio))


def make_objective(algorithm: str, log: BanditLog, hyper: Optional[float]):
    """Flat-vector adapter used by the minimizer: returns fun(theta_flat) ->
    (risk, grad), the `evaluate` of the named algorithm at theta_flat with
    grad() its flat gradient, plus the matrix shape."""
    _rule(algorithm, hyper)  # a bad name or hyper-parameter fails here, not in minimize
    q = log.Y.shape[1]
    d = log.X.shape[1]

    def fun(theta_flat: np.ndarray):
        report = evaluate(algorithm, PolicyParams(theta_flat.reshape(q, d)), log, hyper)
        fun.last_gamma = report.gamma_used  # read only by perfbench/spans.py
        return report.risk, lambda: report.gradient().ravel()
    fun.last_gamma = None
    return fun, (q, d)
