"""Counterfactual risk objectives and gradients over a logged bandit dataset.

Each record of the log is (features x, action y, propensity p, cost c).  The
per-sample counterfactual loss under a candidate policy is

    z_i = c_i * min(M, pi_theta(y_i | x_i) / p_i),

with the importance ratio computed in log space and clipped at M.  Every
objective is one weighting of z, evaluated by one shared kernel: the plain
clipped estimator (uniform weights), its variance-penalized version, a
fixed-temperature tilted version that puts more weight on high-loss samples,
and an adaptive-temperature version that recomputes the temperature from the
loss spread at every evaluation.

Gradients follow the score-function identity d z_i / d theta =
c_i * ratio_i * d log pi / d theta on unclipped samples and zero on clipped
ones.  For the tilted objectives the weights are treated as constants of the
evaluation by default (the surrogate each optimizer step actually minimizes);
`freeze_weights=False` switches to the fully differentiated form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .divergence import LossSample, boltzmann_weights
from .errors import ContractViolation
# log_prob_matrix and sigmoid are not called here: perfbench/spans.py times
# the policy calls of this module by wrapping these names in place.
from .policy import (PolicyParams, clamp_logits, log_prob_matrix,
                     logits_matrix, sigmoid, softplus_sigmoid)

_VAR_FLOOR = 1e-12
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
    """Risk value with its ingredients: per-sample losses z, the weights s
    applied to them, their variance (divisor n), the gradient in theta, and
    the temperature used when one was."""

    risk: float
    losses: np.ndarray
    weights: np.ndarray
    variance: float
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

    def report(self, risk: float, weights: np.ndarray, dz_weights: np.ndarray,
               gamma_used: Optional[float] = None,
               degenerate: bool = False) -> RiskReport:
        """Report of a weighting rule that gives the risk, the weights it puts
        on z, and d risk / d z_i (`dz_weights`).  With c_i the product of
        d risk / d z_i and dz_i, the gradient sum_i c_i (y_i - sigmoid(u_i)) x_i
        is summed into one row per example, sum_i c_i y_i minus
        (sum_i c_i) sigmoid(u), before a single product with the features."""
        log = self._log
        ids = log.example_ids
        n_ex, q = self._sigmoid.shape
        c = dz_weights * self.dz
        R = np.empty((n_ex, q))
        for label in range(q):
            R[:, label] = np.bincount(ids, weights=c * log.Y[:, label], minlength=n_ex)
        R -= np.bincount(ids, weights=c, minlength=n_ex)[:, None] * self._sigmoid
        return RiskReport(risk, self.z, weights, _variance(self.z), R.T @ log.X,
                          gamma_used, degenerate)


def _variance(z: np.ndarray) -> float:
    return float(np.mean((z - z.mean()) ** 2))


def _uniform(n: int) -> np.ndarray:
    return np.full(n, 1.0 / n)


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
    losses = _LossPass(params, log)
    w = _uniform(log.n)
    return losses.report(float(losses.z.mean()), w, w)


def poem_objective(params: PolicyParams, log: BanditLog, lam: float) -> RiskReport:
    """Variance-penalized clipped risk: mean(z) + lam * sqrt(var(z) / n).

    The penalty gradient chains through the variance; it is treated as zero
    when the variance falls below 1e-12.
    """
    if lam < 0.0:
        raise ContractViolation("lambda must be nonnegative")
    n = log.n
    if lam > 0.0 and n < 2:
        raise ContractViolation("variance penalty needs at least two records")
    losses = _LossPass(params, log)
    z = losses.z
    var = _variance(z)
    w = _uniform(n)
    dz_weights = w
    if lam > 0.0 and var >= _VAR_FLOOR:
        # d/dz_i sqrt(var/n) = (1 / (2 sqrt(var/n))) * (2/n) (z_i - mean) / n
        pref = lam / (2.0 * np.sqrt(var / n))
        dz_weights = w + pref * (2.0 / n) * (z - z.mean()) / n
    return losses.report(float(z.mean()) + lam * np.sqrt(var / n), w, dz_weights)


def _tilted(losses: _LossPass, gamma: float, freeze_weights: bool) -> RiskReport:
    """sum_i s_i z_i with s_i prop. to exp(z_i / gamma); with frozen weights
    d risk / d z_i = s_i, otherwise the softmax is differentiated too."""
    z = losses.z
    s = boltzmann_weights(LossSample(z), gamma)
    risk = float(s @ z)
    dz_weights = s if freeze_weights else s * (1.0 + (z - risk) / gamma)
    return losses.report(risk, s, dz_weights, gamma_used=gamma)


def kl_crm_objective(params: PolicyParams, log: BanditLog, gamma: float,
                     freeze_weights: bool = True) -> RiskReport:
    """Tilted clipped risk sum_i s_i z_i with s_i prop. to exp(z_i / gamma).

    With `freeze_weights` (default) the tilt is a constant of the evaluation
    and the gradient is sum_i s_i dz_i; otherwise the softmax is differentiated
    through as well.
    """
    if gamma <= 0.0:
        raise ContractViolation("gamma must be positive")
    return _tilted(_LossPass(params, log), gamma, freeze_weights)


def akl_crm_objective(params: PolicyParams, log: BanditLog, epsilon: float,
                      freeze_weights: bool = True) -> RiskReport:
    """Adaptive-temperature tilted risk.

    Every evaluation recomputes the temperature from the current losses:
    gamma = sqrt(sum_i (z_i - mean)^2 / (2 eps)).  This is the rule
    sqrt(var(z) / (2 eps')) of `divergence.gamma_star_approx` at the radius
    eps' = eps / n.  Constant losses make the temperature degenerate; the
    uniform-weight risk is returned flagged.
    """
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    losses = _LossPass(params, log)
    z, n = losses.z, log.n
    sum_sq = float(((z - z.mean()) ** 2).sum())
    gamma = float(np.sqrt(sum_sq / (2.0 * epsilon)))
    if gamma <= 0.0:
        w = _uniform(n)
        return losses.report(float(z.mean()), w, w, gamma_used=0.0, degenerate=True)
    return _tilted(losses, gamma, freeze_weights)


def make_objective(algorithm: str, log: BanditLog, hyper: Optional[float],
                   freeze_weights: bool = True):
    """Flat-vector adapter used by the minimizer: returns fun(theta_flat) ->
    (risk, grad_flat) for the named algorithm, plus the matrix shape."""
    q = log.Y.shape[1]
    d = log.X.shape[1]

    def wrap(report_fn):
        def fun(theta_flat: np.ndarray):
            params = PolicyParams(theta_flat.reshape(q, d))
            report = report_fn(params)
            fun.last_gamma = report.gamma_used  # minimizer traces show it
            return report.risk, report.gradient.ravel()
        fun.last_gamma = None
        return fun

    if algorithm == "cips":
        return wrap(lambda p: cips_risk(p, log)), (q, d)
    if algorithm == "poem":
        if hyper is None:
            raise ContractViolation("poem needs a penalty strength")
        return wrap(lambda p: poem_objective(p, log, hyper)), (q, d)
    if algorithm == "klcrm":
        if hyper is None:
            raise ContractViolation("klcrm needs a temperature")
        return wrap(lambda p: kl_crm_objective(p, log, hyper, freeze_weights)), (q, d)
    if algorithm == "aklcrm":
        if hyper is None:
            raise ContractViolation("aklcrm needs a radius")
        return wrap(lambda p: akl_crm_objective(p, log, hyper, freeze_weights)), (q, d)
    raise ContractViolation(f"unknown algorithm {algorithm!r}")
