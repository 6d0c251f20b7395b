"""Counterfactual risk objectives and gradients over a logged bandit dataset.

Each record of the log is (features x, action y, propensity p, cost c).  The
per-sample counterfactual loss under a candidate policy is

    z_i = c_i * min(M, pi_theta(y_i | x_i) / p_i),

with the importance ratio computed in log space and clipped at M.  Every
objective is the worst case of the mean of z over a divergence ball around the
uniform weights, evaluated by one shared kernel and one rule per algorithm
(`RULES`).  A rule maps z to the risk and the weights q it puts on z:

* cips: the plain clipped mean (poem at lam = 0, uniform q);
* poem: mean(z) + lam * sqrt(var(z) / n), which is the chi-square ball's worst
  case at radius lam^2 / n (`divergence.robust_risk_chi2`), with its
  active-set solution where the interior weights would turn negative;
* klcrm: Boltzmann weights q_i prop. to exp(z_i / gamma) at a fixed gamma;
* aklcrm: the same at the temperature `divergence.gamma_star_approx` gives
  for radius eps / n, recomputed from z at every evaluation.

The gradient is sum_i q_i dz_i/dtheta for every rule, with the score-function
identity dz_i/dtheta = c_i * ratio_i * dlog pi(y_i | x_i)/dtheta on unclipped
samples and zero on clipped ones.  For cips and poem this is the exact
gradient of the risk (Danskin's theorem: q is the maximizer over the ball).
For klcrm and aklcrm it treats q as constant, so it is the gradient of the
surrogate sum_i q_i z_i(theta) that each optimizer step sees, not of the risk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .divergence import (DualSolution, LossSample, boltzmann_weights,
                         gamma_star_approx, robust_risk_chi2)
from .errors import ContractViolation
# log_prob_matrix and sigmoid are not called here: perfbench/spans.py times
# the policy calls of this module by wrapping these names in place.
from .policy import (PolicyParams, clamp_logits, log_prob_matrix,
                     logits_matrix, sigmoid, softplus_sigmoid)

_RATIO_LOG_CAP = 700.0  # keeps exp() finite; ratios beyond e^700 are already absurd


@dataclass(frozen=True)
class CostScaling:
    """Affine map scaled = raw * scale + offset applied before logging."""

    scale: float = 1.0
    offset: float = 0.0

    def to_raw(self, scaled):
        return (np.asarray(scaled) - self.offset) / self.scale


@dataclass
class BanditLog:
    """Dense logged-feedback dataset, features stored once per example.

    X: (n_examples, D) features; Y: (n, q) 0/1 actions of the n records;
    example_ids: (n,) row of X each record was logged on, so replaying an
    example delta times stores its features once (defaults to arange(n) when
    X has one row per record); log_propensities: (n,) natural logs of the
    logger's action probabilities; costs: (n,) logged (already scaled) costs;
    clip_m: ratio clipping constant M > 0.
    """

    X: np.ndarray
    Y: np.ndarray
    log_propensities: np.ndarray
    costs: np.ndarray
    clip_m: float
    cost_scaling: CostScaling = field(default_factory=CostScaling)
    replay_ids: Optional[np.ndarray] = None
    example_ids: Optional[np.ndarray] = None
    seed: Optional[int] = None
    delta: Optional[int] = None

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
        if self.clip_m <= 0.0:
            raise ContractViolation("clip constant must be positive")
        if not np.all(np.isfinite(self.log_propensities)) \
                or np.any(self.log_propensities > 0.0):
            raise ContractViolation("propensities must lie in (0, 1]")
        if not np.all(np.isfinite(self.costs)):
            raise ContractViolation("costs must be finite")

    @property
    def n(self) -> int:
        return self.Y.shape[0]

    @property
    def propensities(self) -> np.ndarray:
        return np.exp(self.log_propensities)


@dataclass
class RiskReport:
    """Risk value with its ingredients: per-sample losses z, the weights q the
    rule puts on them, the gradient sum_i q_i dz_i/dtheta, the temperature
    used when one was, and whether the losses were constant."""

    risk: float
    losses: np.ndarray
    weights: np.ndarray
    gradient: np.ndarray
    gamma_used: Optional[float] = None
    degenerate: bool = False


class _LossPass:
    """The kernel every objective shares, at one parameter value.

    Logits, softplus and sigmoid are computed once per example (row of
    log.X) and gathered per record through log.example_ids, giving
    log pi(y_i | x_i), the importance ratios, the clipped losses z and
    dz_i = c_i * ratio_i (zero where the clip binds), so that
    d z_i / d theta = dz_i * d log pi(y_i | x_i) / d theta.
    """

    def __init__(self, params: PolicyParams, log: BanditLog):
        U = clamp_logits(logits_matrix(params, log.X))
        softplus, self._sigmoid = softplus_sigmoid(U)
        ids = log.example_ids
        log_pi = (np.einsum("ij,ij->i", log.Y, np.take(U, ids, axis=0))
                  - np.take(softplus.sum(axis=1), ids))
        self.ratio = np.exp(np.minimum(log_pi - log.log_propensities, _RATIO_LOG_CAP))
        self.clipped = self.ratio >= log.clip_m
        self.z = log.costs * np.minimum(self.ratio, log.clip_m)
        self.dz = np.where(self.clipped, 0.0, log.costs * self.ratio)
        self._log = log

    def report(self, sol: DualSolution) -> RiskReport:
        """Report of a rule's risk and weights q.  With c_i = q_i dz_i, the
        gradient sum_i c_i (y_i - sigmoid(u_i)) x_i is summed into one row per
        example, sum_i c_i y_i minus (sum_i c_i) sigmoid(u), before a single
        product with the features."""
        log = self._log
        ids = log.example_ids
        n_ex, q = self._sigmoid.shape
        c = sol.worst_case_weights * self.dz
        R = np.empty((n_ex, q))
        for label in range(q):
            R[:, label] = np.bincount(ids, weights=c * log.Y[:, label], minlength=n_ex)
        R -= np.bincount(ids, weights=c, minlength=n_ex)[:, None] * self._sigmoid
        return RiskReport(sol.robust_risk, self.z, sol.worst_case_weights,
                          R.T @ log.X, sol.gamma, sol.degenerate)


def _chi2_rule(z: np.ndarray, lam: float) -> DualSolution:
    if lam < 0.0:
        raise ContractViolation("lambda must be nonnegative")
    return robust_risk_chi2(LossSample(z), lam * lam / z.size)


def _tilted_rule(z: np.ndarray, gamma: float) -> DualSolution:
    s = boltzmann_weights(LossSample(z), gamma)
    return DualSolution(float(s @ z), gamma, s)


def _adaptive_tilted_rule(z: np.ndarray, epsilon: float) -> DualSolution:
    sample = LossSample(z)
    gamma, degenerate = gamma_star_approx(sample, epsilon / z.size)
    if degenerate:
        return DualSolution(sample.mean(), 0.0, sample.base_weights, degenerate=True)
    return _tilted_rule(z, gamma)


# algorithm -> (name of its hyper-parameter, rule (z, hyper) -> risk and weights q)
RULES: Dict[str, Tuple[str, Callable[..., DualSolution]]] = {
    "cips": ("", lambda z, _: _chi2_rule(z, 0.0)),
    "poem": ("lambda", _chi2_rule),
    "klcrm": ("gamma", _tilted_rule),
    "aklcrm": ("epsilon", _adaptive_tilted_rule),
}


def _rule(algorithm: str, hyper: Optional[float]):
    """The algorithm's rule, checked to have the hyper-parameter it needs."""
    if algorithm not in RULES:
        raise ContractViolation(f"unknown algorithm {algorithm!r}")
    name, rule = RULES[algorithm]
    if name and hyper is None:
        raise ContractViolation(f"{algorithm} needs its {name}")
    return rule


def _evaluate(algorithm: str, params: PolicyParams, log: BanditLog,
              hyper: Optional[float] = None) -> RiskReport:
    rule = _rule(algorithm, hyper)
    losses = _LossPass(params, log)
    return losses.report(rule(losses.z, hyper))


def sample_losses(params: PolicyParams, log: BanditLog) -> Tuple[np.ndarray, np.ndarray]:
    """Per-sample clipped losses z_i and the mask of clipped samples
    (importance ratio >= M), where the ratio's gradient contribution is zero."""
    losses = _LossPass(params, log)
    return losses.z, losses.clipped


def ips_risk(params: PolicyParams, log: BanditLog) -> float:
    """Unclipped importance-weighted mean cost (the unbiased estimator used
    for validation-time model selection, never as a training objective)."""
    return float(np.mean(log.costs * _LossPass(params, log).ratio))


def cips_risk(params: PolicyParams, log: BanditLog) -> RiskReport:
    """Clipped importance-weighted risk: mean of z with uniform weights."""
    return _evaluate("cips", params, log)


def poem_objective(params: PolicyParams, log: BanditLog, lam: float) -> RiskReport:
    """Variance-penalized clipped risk mean(z) + lam * sqrt(var(z) / n), the
    worst case over the chi-square ball of radius lam^2 / n."""
    return _evaluate("poem", params, log, lam)


def kl_crm_objective(params: PolicyParams, log: BanditLog, gamma: float) -> RiskReport:
    """Tilted clipped risk sum_i s_i z_i with s_i prop. to exp(z_i / gamma)."""
    return _evaluate("klcrm", params, log, gamma)


def akl_crm_objective(params: PolicyParams, log: BanditLog, epsilon: float) -> RiskReport:
    """Adaptive-temperature tilted risk.

    Every evaluation recomputes the temperature from the current losses:
    gamma = sqrt(sum_i (z_i - mean)^2 / (2 eps)), the rule
    sqrt(var(z) / (2 eps')) of `divergence.gamma_star_approx` at the radius
    eps' = eps / n.  Constant losses make the temperature degenerate; the
    uniform-weight risk is returned flagged.
    """
    return _evaluate("aklcrm", params, log, epsilon)


def make_objective(algorithm: str, log: BanditLog, hyper: Optional[float]):
    """Flat-vector adapter used by the minimizer: returns fun(theta_flat) ->
    (risk, grad_flat) for the named algorithm, plus the matrix shape."""
    _rule(algorithm, hyper)
    q = log.Y.shape[1]
    d = log.X.shape[1]

    def fun(theta_flat: np.ndarray):
        report = _evaluate(algorithm, PolicyParams(theta_flat.reshape(q, d)), log, hyper)
        fun.last_gamma = report.gamma_used  # minimizer traces show it
        return report.risk, report.gradient.ravel()
    fun.last_gamma = None
    return fun, (q, d)
