"""Phi-divergences and worst-case risk over a finite loss sample.

Given losses z_1..z_n carrying base probabilities p_1..p_n, the robust risk at
radius eps is

    sup { sum_i q_i z_i : q in simplex, D(q || p) <= eps },

where D(q || p) = sum_i p_i * phi(q_i / p_i) for a convex generator phi with
phi(1) = 0.  Two generators are supported:

* chi-square, phi(t) = (t - 1)^2: the supremum has the closed form
  mean + sqrt(eps * var) whenever the maximizing weights stay nonnegative, and
  an active-set solve on the simplex face otherwise.
* Kullback-Leibler, phi(t) = t*log(t) - t + 1: the supremum equals
  inf_{gamma > 0} gamma*eps + gamma*log sum_i p_i exp(z_i / gamma), attained by
  exponentially tilted (Boltzmann) weights at the minimizing temperature.

The training objectives in `objectives` are rules built from these worst
cases over the uniform weights of the logged sample: poem is
`robust_risk_chi2` at radius lam^2 / n (cips at radius 0), klcrm is the
`boltzmann_weights` tilt at a fixed temperature, and aklcrm the tilt at the
`gamma_star_approx` temperature.  The maximizing weights of a rule are the
gradient of its risk in the losses (Danskin's theorem).

A brute-force maximizer over the feasible set, which shares no code with the
closed forms or the dual, verifies them at small n in `tests/oracle.py`.

All functions are pure; reductions use a fixed summation order, so results are
bit-identical across repeated calls regardless of caller threading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .errors import ContractViolation
from .special import normal_quantile

_WEIGHT_SUM_TOL = 1e-12
_VAR_FLOOR = 1e-300


def _effectively_constant(z: np.ndarray) -> bool:
    """Spread at roundoff scale; guards every variance-driven formula."""
    return float(z.max() - z.min()) <= 1e-14 * max(1.0, float(np.abs(z).max()))


class DivergenceKind(Enum):
    CHI_SQUARE = "chi_square"
    KULLBACK_LEIBLER = "kullback_leibler"


@dataclass(frozen=True)
class LossSample:
    """Finite loss sample with base probabilities (uniform when omitted)."""

    values: np.ndarray
    base_weights: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        z = np.asarray(self.values, dtype=np.float64)
        if z.ndim != 1 or z.size < 1:
            raise ContractViolation("losses must be a non-empty 1-d vector")
        if not np.all(np.isfinite(z)):
            raise ContractViolation("losses must be finite")
        if self.base_weights is None:
            w = np.full(z.size, 1.0, dtype=np.float64)
            w /= w.sum()
        else:
            w = np.asarray(self.base_weights, dtype=np.float64)
            if w.shape != z.shape:
                raise ContractViolation("base_weights length must match losses")
            if np.any(w < 0.0) or not np.all(np.isfinite(w)):
                raise ContractViolation("base_weights must be finite and nonnegative")
            if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
                raise ContractViolation("base_weights must sum to 1 within 1e-12")
        object.__setattr__(self, "values", z)
        object.__setattr__(self, "base_weights", w)

    @property
    def n(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(self.base_weights @ self.values)

    def variance(self) -> float:
        """Variance of the losses under the base weights (divisor n when uniform)."""
        m = self.mean()
        return float(self.base_weights @ (self.values - m) ** 2)


@dataclass(frozen=True)
class DualSolution:
    """Robust risk value together with the attaining weights.

    `gamma` is the minimizing temperature (KL only, None for chi-square).
    `saturated` marks a radius large enough that the solution sits at the
    max-loss vertex (or the temperature bracket boundary); `degenerate` marks
    constant-loss samples where every radius yields the plain mean.
    """

    robust_risk: float
    gamma: Optional[float]
    worst_case_weights: np.ndarray
    saturated: bool = False
    degenerate: bool = False


class FixedPointResult(NamedTuple):
    gamma: float
    converged: bool
    fell_back: bool
    iterations: int


class GammaApprox(NamedTuple):
    gamma: float
    degenerate: bool


# ---------------------------------------------------------------------------
# Generators, conjugates, divergences
# ---------------------------------------------------------------------------

def phi_value(kind: DivergenceKind, t: float) -> float:
    """Generator phi(t); +inf (a deliberate saturation value, never an
    overflow artifact) outside the domain."""
    if t < 0.0:
        return math.inf
    if kind is DivergenceKind.CHI_SQUARE:
        return (t - 1.0) ** 2
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        if t == 0.0:
            return 1.0
        return t * math.log(t) - t + 1.0
    raise ContractViolation(f"unknown divergence kind {kind!r}")


def phi_conjugate(kind: DivergenceKind, u: float) -> float:
    """Convex conjugate phi*(u) = sup_{t >= 0} u*t - phi(t)."""
    if kind is DivergenceKind.CHI_SQUARE:
        if u < -2.0:
            return -1.0
        return u + 0.25 * u * u
    if kind is DivergenceKind.KULLBACK_LEIBLER:
        return math.expm1(u)
    raise ContractViolation(f"unknown divergence kind {kind!r}")


def divergence(kind: DivergenceKind, q, p) -> float:
    """D(q || p) = sum_i p_i * phi(q_i / p_i), with 0*phi(0/0) := 0 and +inf
    whenever q puts mass where p does not."""
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape or q.ndim != 1:
        raise ContractViolation("q and p must be 1-d vectors of equal length")
    if np.any(q[p == 0.0] > 0.0):
        return math.inf
    total = 0.0
    for qi, pi in zip(q.tolist(), p.tolist()):
        if pi == 0.0:
            continue
        total += pi * phi_value(kind, qi / pi)
    return total


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
    if epsilon < 0.0:
        raise ContractViolation("epsilon must be nonnegative")
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
            return DualSolution(mean_a, None, q, saturated=True)
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
# Kullback-Leibler: Boltzmann weights, dual bisection, fixed point, Taylor rule
# ---------------------------------------------------------------------------

def boltzmann_weights(sample: LossSample, gamma: float) -> np.ndarray:
    """Exponentially tilted weights s_i = p_i exp(z_i/gamma) / sum_j p_j exp(z_j/gamma),
    computed with a max shift so the result is finite for any finite z/gamma."""
    if gamma <= 0.0:
        raise ContractViolation("gamma must be positive")
    a = sample.values / gamma
    a -= a.max()
    w = sample.base_weights * np.exp(a)
    return w / w.sum()


def robust_risk_kl_fixed_gamma(sample: LossSample, gamma: float) -> tuple[float, np.ndarray]:
    """Tilted mean sum_i s_i z_i at a fixed temperature gamma."""
    s = boltzmann_weights(sample, gamma)
    return float(s @ sample.values), s


def _kl_dual_value(sample: LossSample, epsilon: float, gamma: float) -> float:
    a = sample.values / gamma
    m = a.max()
    lse = m + math.log(float(sample.base_weights @ np.exp(a - m)))
    return gamma * epsilon + gamma * lse


def _kl_dual_deriv(sample: LossSample, epsilon: float, gamma: float) -> float:
    """Derivative in gamma of gamma*eps + gamma*log sum p exp(z/gamma)."""
    a = sample.values / gamma
    m = a.max()
    e = sample.base_weights * np.exp(a - m)
    total = float(e.sum())
    lse = m + math.log(total)
    tilted_mean = float(e @ sample.values) / total
    return epsilon + lse - tilted_mean / gamma


def _argmax_limit_weights(sample: LossSample) -> np.ndarray:
    """Zero-temperature limit of the tilted weights: base mass renormalized on
    the set of maximal losses."""
    z = sample.values
    top = z >= z.max() - 1e-15 * max(1.0, abs(z.max()))
    q = np.where(top, sample.base_weights, 0.0)
    return q / q.sum()


def robust_risk_kl_dual(sample: LossSample, epsilon: float) -> DualSolution:
    """Worst-case mean over the KL ball of radius epsilon via the 1-d dual.

    The dual objective gamma*eps + gamma*log sum_i p_i exp(z_i/gamma) is convex
    in gamma; its minimizer is bracketed in [1e-6, 1e6] * range(z) and located
    by bisection on the derivative to 1e-10 relative width.  A radius so large
    that the supremum sits at the max-loss vertex (minimizer below the bracket)
    returns that vertex solution flagged `saturated`; a minimizer above the
    bracket returns the ceiling evaluation, also flagged.
    """
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    z = sample.values
    p = sample.base_weights
    spread = float(z.max() - z.min())
    if _effectively_constant(z):
        return DualSolution(sample.mean(), None, p.copy(), degenerate=True)

    lo, hi = 1e-6 * spread, 1e6 * spread
    if _kl_dual_deriv(sample, epsilon, lo) >= 0.0:
        # Increasing already at the floor: the ball covers the max-loss vertex.
        return DualSolution(float(z.max()), lo, _argmax_limit_weights(sample), saturated=True)
    if _kl_dual_deriv(sample, epsilon, hi) <= 0.0:
        risk = _kl_dual_value(sample, epsilon, hi)
        return DualSolution(risk, hi, boltzmann_weights(sample, hi), saturated=True)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _kl_dual_deriv(sample, epsilon, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * hi:
            break
    gamma = 0.5 * (lo + hi)
    risk = _kl_dual_value(sample, epsilon, gamma)
    return DualSolution(risk, gamma, boltzmann_weights(sample, gamma))


def kl_gamma_fixed_point(sample: LossSample, epsilon: float,
                         gamma0: float) -> FixedPointResult:
    """Temperature found by iterating gamma <- tilted_mean / (eps + log-mean-exp).

    The iteration's fixed points are the stationary temperatures of the KL
    dual.  It is iterated to 1e-8 relative tolerance or 200 steps; when it
    leaves (0, inf), collapses toward the spurious root at 0, or fails to
    settle, the bisection minimizer is returned with `fell_back` set.
    """
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    if gamma0 <= 0.0:
        raise ContractViolation("gamma0 must be positive")
    z = sample.values
    spread = float(z.max() - z.min())
    if _effectively_constant(z):
        raise ContractViolation("losses must be non-constant")

    gamma = float(gamma0)
    lo_guard, hi_guard = 1e-9 * spread, 1e9 * spread
    for k in range(1, 201):
        a = z / gamma
        m = a.max()
        e = sample.base_weights * np.exp(a - m)
        total = float(e.sum())
        tilted_mean = float(e @ z) / total
        denom = epsilon + m + math.log(total)
        if denom == 0.0 or not math.isfinite(denom):
            break
        step = tilted_mean / denom
        if not math.isfinite(step) or step <= lo_guard or step >= hi_guard:
            break
        if abs(step - gamma) <= 1e-8 * abs(step):
            return FixedPointResult(step, True, False, k)
        gamma = step
    fallback = robust_risk_kl_dual(sample, epsilon)
    return FixedPointResult(float(fallback.gamma), False, True, 200)


def gamma_star_approx(sample: LossSample, epsilon: float) -> GammaApprox:
    """Second-order temperature rule sqrt(var / (2*eps)); degenerate (gamma 0)
    for constant losses."""
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    var = sample.variance()
    if var <= _VAR_FLOOR:
        return GammaApprox(0.0, True)
    return GammaApprox(math.sqrt(var / (2.0 * epsilon)), False)


# ---------------------------------------------------------------------------
# Radius calibration
# ---------------------------------------------------------------------------

def chi2_quantile_1dof(delta: float) -> float:
    """(1 - delta) quantile of the chi-square distribution with one degree of
    freedom, as the squared standard-normal quantile."""
    if not 0.0 < delta < 1.0:
        raise ContractViolation(f"delta must lie in (0, 1), got {delta}")
    x = normal_quantile(1.0 - 0.5 * delta)
    return x * x


def chi2_radius(delta: float, n: int) -> float:
    """Confidence-calibrated ball radius: chi2 quantile over the sample size."""
    if n < 1:
        raise ContractViolation("n must be at least 1")
    return chi2_quantile_1dof(delta) / n
