"""Counterfactual risk objectives and gradients over a logged bandit dataset.

Each record of the log is (features x, action y, propensity p, cost c).  The
per-sample counterfactual loss under a candidate policy is

    z_i = c_i * min(M, pi_theta(y_i | x_i) / p_i),

with the importance ratio computed in log space and clipped at M.  Every
objective is the worst case of the mean of z over a divergence ball around the
uniform weights, evaluated by one shared kernel and one row of `RULES` per
algorithm: its hyper-parameter's name ("" for none), its rule, the
hyper-parameter's domain and its default search range, as the powers of ten
(lo, hi) that `bench.default_grids` spans (None for none).  A rule maps z to
the risk, the weights q it puts on z and its temperature:

* cips: the plain clipped mean, poem's chi-square face solve at radius 0;
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
minimizer) and `ips_risk` are callers of `evaluate`.  `rule_for` checks a
hyper-parameter against its row, for them and for `bench.ExperimentConfig`.

The policy math is `policy.logit_terms`, `policy.log_prob` and
`policy.score_gradient`, on the log's replay fold described there.
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
from .policy import (PolicyParams, log_prob, log_prob_matrix, logit_terms,
                     logits_matrix, score_gradient, sigmoid)

_RATIO_LOG_CAP = 700.0  # keeps exp() finite; ratios beyond e^700 are already absurd


@dataclass
class BanditLog:
    """Dense logged-feedback dataset in replay-major layout, features stored
    once per example.

    X: (n_examples, D) features; Y: (n, q) 0/1 actions of the n records,
    n a positive multiple delta * n_examples, in the replay fold of
    `policy` (one row of X per record is delta = 1); log_propensities: (n,)
    natural logs of the logger's action probabilities; costs: (n,) logged
    (already scaled) costs; clip_m: ratio clipping constant, finite M > 0.
    """

    X: np.ndarray
    Y: np.ndarray
    log_propensities: np.ndarray
    costs: np.ndarray
    clip_m: float

    def __post_init__(self):
        if self.X.ndim != 2 or self.Y.ndim != 2:
            raise ContractViolation("features and actions must be matrices")
        n = self.Y.shape[0]
        if n < 1:
            raise ContractViolation("bandit log must be non-empty")
        if self.log_propensities.shape != (n,) or self.costs.shape != (n,):
            raise ContractViolation("bandit log arrays must agree on length")
        if self.X.shape[0] < 1 or n % self.X.shape[0]:
            raise ContractViolation(
                f"{n} records are not whole replays of {self.X.shape[0]} examples")
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

    @property
    def delta(self) -> int:
        return self.n // self.X.shape[0]

    @property
    def replay_ids(self) -> np.ndarray:
        """(n,) replay pass of each record, k // n_examples."""
        return np.repeat(np.arange(self.delta, dtype=np.int64), self.X.shape[0])

    @property
    def example_ids(self) -> np.ndarray:
        """(n,) row of X each record was logged on, k % n_examples."""
        return np.tile(np.arange(self.X.shape[0], dtype=np.int64), self.delta)


class RiskReport:
    """The kernel's value path and a rule at one parameter value: log pi by
    `policy.log_prob`, the importance ratios `ratio`, the mask `clipped` of
    samples clipped at M, the losses z (`losses`), and the rule's `risk`,
    weights q (`weights`) and temperature (`gamma_used`, None without one,
    aklcrm's 0.0 for constant losses); U and e are kept for `gradient()`."""

    def __init__(self, params: PolicyParams, log: BanditLog, rule, hyper: Optional[float]):
        U, e, softplus = logit_terms(logits_matrix(params, log.X))
        log_pi = log_prob(log.Y, U, softplus)
        self.ratio = np.exp(np.minimum(log_pi - log.log_propensities, _RATIO_LOG_CAP))
        self.clipped = self.ratio >= log.clip_m
        self.losses = log.costs * np.minimum(self.ratio, log.clip_m)
        self.risk, self.weights, self.gamma_used = rule(self.losses, hyper)
        self._log, self._U, self._e = log, U, e

    def gradient(self) -> np.ndarray:
        """sum_i q_i dz_i/dtheta, (q, D), by `policy.score_gradient`: dz_i/dtheta
        = cost_i ratio_i d log pi(y_i | x_i)/dtheta, zero where the clip binds."""
        log = self._log
        c = self.weights * np.where(self.clipped, 0.0, log.costs * self.ratio)
        return score_gradient(c, log.Y, self._U, self._e, log.X)


def _chi2_rule(z: np.ndarray, lam: float):
    return (*robust_risk_chi2(z, lam * lam / z.size), None)


def _tilted_rule(z: np.ndarray, gamma: float):
    s = boltzmann_weights(z, gamma)
    return float(s @ z), s, gamma


def _adaptive_tilted_rule(z: np.ndarray, epsilon: float):
    gamma = gamma_star_approx(z, epsilon / z.size)
    if gamma == 0.0:  # constant losses: the uniform-weight mean
        return (*robust_risk_chi2(z, 0.0), 0.0)
    return _tilted_rule(z, gamma)


# algorithm -> (hyper name or "", rule (z, hyper) -> (risk, q, gamma), domain, range)
RULES: Dict[str, Tuple[str, Callable[..., Tuple[float, np.ndarray, Optional[float]]], str,
                       Optional[Tuple[float, float]]]] = {
    "cips": ("", lambda z, _: _chi2_rule(z, 0.0), "", None),
    "poem": ("lambda", _chi2_rule, "non-negative", (-6.0, 0.0)),
    "klcrm": ("gamma", _tilted_rule, "positive", (-3.0, 4.0)),
    "aklcrm": ("epsilon", _adaptive_tilted_rule, "positive", (-6.0, 0.0)),
}
_DOMAINS = {"non-negative": lambda v: v >= 0.0, "positive": lambda v: v > 0.0}


def rule_for(algorithm: str, hyper: Optional[float]):
    """The rule of `algorithm`'s RULES row, once `hyper` fits the row: None
    when the row names no hyper-parameter, else a finite value in its domain."""
    if algorithm not in RULES:
        raise ContractViolation(f"unknown algorithm {algorithm!r}")
    name, rule, domain, _ = RULES[algorithm]
    if not name:
        if hyper is not None:
            raise ContractViolation(f"{algorithm} takes no hyper-parameter, got {hyper}")
    elif hyper is None:
        raise ContractViolation(f"{algorithm} needs its {name}")
    elif not (math.isfinite(hyper) and _DOMAINS[domain](hyper)):
        raise ContractViolation(f"{algorithm} {name} must be finite and {domain}, got {hyper}")
    return rule


def evaluate(algorithm: str, params: PolicyParams, log: BanditLog,
             hyper: Optional[float] = None) -> RiskReport:
    """The objective of `algorithm`, a name in RULES, at `params` on `log`.
    `hyper` is the parameter RULES names for it (none for cips)."""
    return RiskReport(params, log, rule_for(algorithm, hyper), hyper)


def ips_risk(params: PolicyParams, log: BanditLog) -> float:
    """Unclipped importance-weighted mean cost (the unbiased estimator used
    for validation-time model selection, never as a training objective)."""
    return float(np.mean(log.costs * evaluate("cips", params, log).ratio))


def make_objective(algorithm: str, log: BanditLog, hyper: Optional[float]):
    """Flat-vector adapter used by the minimizer: returns fun(theta_flat) ->
    (risk, grad), the `evaluate` of the named algorithm at theta_flat with
    grad() its flat gradient, plus the matrix shape."""
    rule_for(algorithm, hyper)  # a bad name or hyper-parameter fails here, not in minimize
    q = log.Y.shape[1]
    d = log.X.shape[1]

    def fun(theta_flat: np.ndarray):
        report = evaluate(algorithm, PolicyParams(theta_flat.reshape(q, d)), log, hyper)
        fun.last_gamma = report.gamma_used  # read only by perfbench/spans.py
        return report.risk, lambda: report.gradient().ravel()
    fun.last_gamma = None
    return fun, (q, d)
