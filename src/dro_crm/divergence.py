"""Worst-case risk over a divergence ball around a finite loss sample.

Given losses z_1..z_n carrying uniform base probabilities p_i = 1/n, the
robust risk at radius eps is

    sup { sum_i q_i z_i : q in simplex, D(q || p) <= eps },

where D(q || p) = sum_i p_i * phi(q_i / p_i) for a convex generator phi with
phi(1) = 0.  This module holds the worst cases the training rules in
`objectives.RULES` call:

* chi-square, phi(t) = (t - 1)^2: `robust_risk_chi2` gives the supremum in
  closed form, mean + sqrt(eps * var), whenever the maximizing weights stay
  nonnegative, and by an active-set solve on the simplex face otherwise.
  poem is this worst case at radius lam^2 / n, cips at radius 0.
* Kullback-Leibler, phi(t) = t*log(t) - t + 1: the supremum equals
  inf_{gamma > 0} gamma*eps + gamma*log sum_i p_i exp(z_i / gamma), attained
  by the exponentially tilted weights `boltzmann_weights` at the minimizing
  temperature.  klcrm tilts at a fixed temperature, and aklcrm at the
  second-order approximation of the minimizer, `gamma_star_approx`.

The maximizing weights of a rule are the gradient of its risk in the losses
(Danskin's theorem).

Two references verify these at small n and live with the tests: the KL dual
solved by bisection and the fixed-point temperature iteration in
`tests/kl_dual.py`, and a brute-force maximizer over the feasible set, which
shares no code with either, in `tests/oracle.py`.

All functions are pure; reductions use a fixed summation order, so results are
bit-identical across repeated calls regardless of caller threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractViolation

_VAR_FLOOR = 1e-300


def _effectively_constant(z: np.ndarray) -> bool:
    """Spread at roundoff scale; guards every variance-driven formula."""
    return float(z.max() - z.min()) <= 1e-14 * max(1.0, float(np.abs(z).max()))


@dataclass(frozen=True)
class LossSample:
    """Finite loss sample with uniform base probabilities `base_weights`."""

    values: np.ndarray
    base_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        z = np.asarray(self.values, dtype=np.float64)
        if z.ndim != 1 or z.size < 1:
            raise ContractViolation("losses must be a non-empty 1-d vector")
        if not np.all(np.isfinite(z)):
            raise ContractViolation("losses must be finite")
        w = np.full(z.size, 1.0, dtype=np.float64)
        w /= w.sum()
        object.__setattr__(self, "values", z)
        object.__setattr__(self, "base_weights", w)

    @property
    def n(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(self.base_weights @ self.values)

    def variance(self) -> float:
        """Variance of the losses under the base weights (divisor n)."""
        m = self.mean()
        return float(self.base_weights @ (self.values - m) ** 2)


@dataclass(frozen=True)
class DualSolution:
    """Robust risk value together with the attaining weights.

    `gamma` is the temperature of tilted weights (None for chi-square);
    `degenerate` marks constant-loss samples where every radius yields the
    plain mean.
    """

    robust_risk: float
    gamma: Optional[float]
    worst_case_weights: np.ndarray
    degenerate: bool = False


class GammaApprox(NamedTuple):
    gamma: float
    degenerate: bool


# ---------------------------------------------------------------------------
# Chi-square: closed form plus active-set fallback on the simplex boundary
# ---------------------------------------------------------------------------

def robust_risk_chi2(sample: LossSample, epsilon: float) -> DualSolution:
    """Worst-case mean over the chi-square ball of radius epsilon.

    Interior regime: risk = mean + sqrt(eps * var) with weights
    p_i * (1 + sqrt(eps/var) * (z_i - mean)).  When those weights would leave
    the simplex, coordinates are dropped one at a time (lowest implied weight
    first) and the tangency problem is re-solved on the remaining face.
    """
    if not epsilon >= 0.0:
        raise ContractViolation(f"epsilon must be nonnegative, got {epsilon}")
    z = sample.values
    p = sample.base_weights
    mean = sample.mean()
    var = sample.variance()
    if epsilon == 0.0 or _effectively_constant(z):
        return DualSolution(mean, None, p.copy(), degenerate=_effectively_constant(z))

    q = p * (1.0 + math.sqrt(epsilon / var) * (z - mean))
    if q.min() >= 0.0:
        return DualSolution(mean + math.sqrt(epsilon * var), None, q)

    active = np.ones(sample.n, dtype=bool)
    for _ in range(sample.n):
        idx = np.flatnonzero(active)
        pa, za = p[idx], z[idx]
        mass = pa.sum()
        mean_a = float(pa @ za) / mass
        scatter = float(pa @ (za - mean_a) ** 2)
        slack = epsilon - (1.0 - mass) / mass
        if idx.size == 1 or _effectively_constant(za):
            # Remaining losses are equal: the max-loss face, reached only when
            # the radius covers it, so slack >= 0 here.
            q = np.zeros(sample.n)
            q[idx] = pa / mass
            return DualSolution(mean_a, None, q)
        if slack <= 0.0:
            raise ArithmeticError("chi-square active-set solve left the feasible region")
        beta = math.sqrt(slack / scatter)
        qa = pa * (1.0 + (1.0 - mass) / mass + beta * (za - mean_a))
        worst = qa.min()
        if worst >= -1e-15:
            q = np.zeros(sample.n)
            q[idx] = np.maximum(qa, 0.0)
            return DualSolution(mean_a + math.sqrt(slack * scatter), None, q)
        active[idx[int(np.argmin(qa))]] = False
    raise ArithmeticError("chi-square active-set solve failed to terminate")


# ---------------------------------------------------------------------------
# Kullback-Leibler: Boltzmann weights and the second-order temperature rule
# ---------------------------------------------------------------------------

def boltzmann_weights(sample: LossSample, gamma: float) -> np.ndarray:
    """Exponentially tilted weights s_i = p_i exp(z_i/gamma) / sum_j p_j exp(z_j/gamma),
    computed with a max shift so the result is finite for any finite z/gamma."""
    if not 0.0 < gamma < math.inf:
        raise ContractViolation(f"gamma must be positive and finite, got {gamma}")
    a = sample.values / gamma
    a -= a.max()
    w = sample.base_weights * np.exp(a)
    return w / w.sum()


def gamma_star_approx(sample: LossSample, epsilon: float) -> GammaApprox:
    """Second-order temperature rule sqrt(var / (2*eps)); degenerate (gamma 0)
    for constant losses."""
    if not 0.0 < epsilon < math.inf:
        raise ContractViolation(f"epsilon must be positive and finite, got {epsilon}")
    var = sample.variance()
    if var <= _VAR_FLOOR:
        return GammaApprox(0.0, True)
    return GammaApprox(math.sqrt(var / (2.0 * epsilon)), False)
