"""The 1-d dual of the Kullback-Leibler worst case and the fixed-point
temperature iteration, as references for the package's KL rules.

Acceptance criteria 2-4 compare against these: the dual's risk against the
brute-force maximizer in `oracle.py`, the fixed point's temperature against
the dual's, and the `gamma_star_approx` temperature rule against the dual's
minimizer.  The oracle must not import this module, or criterion 2 would
check the dual against itself.
"""

import math
from typing import NamedTuple, Optional, Tuple

import numpy as np

from dro_crm.errors import ContractViolation


class KlDualResult(NamedTuple):
    """Risk of the KL dual, its minimizing temperature (None for constant
    losses) and the weights that attain the risk.  `saturated` marks a radius
    large enough that the solution sits at the max-loss vertex (or the
    temperature bracket boundary)."""

    robust_risk: float
    gamma: Optional[float]
    worst_case_weights: np.ndarray
    saturated: bool = False


class FixedPointResult(NamedTuple):
    gamma: float
    converged: bool
    fell_back: bool
    iterations: int


def _losses(z) -> Tuple[np.ndarray, np.ndarray]:
    """z as a checked float64 vector, and its uniform base weights."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise ContractViolation("losses must be a non-empty 1-d vector")
    if not np.all(np.isfinite(z)):
        raise ContractViolation("losses must be finite")
    return z, np.full(z.size, 1.0 / z.size)


def _effectively_constant(z: np.ndarray) -> bool:
    """Spread at roundoff scale: no temperature to tilt toward."""
    return float(z.max() - z.min()) <= 1e-14 * max(1.0, float(np.abs(z).max()))


def _tilted_weights(z: np.ndarray, p: np.ndarray, gamma: float) -> np.ndarray:
    """p_i exp(z_i/gamma), normalized, with a max shift."""
    a = z / gamma
    a -= a.max()
    w = p * np.exp(a)
    return w / w.sum()


def _kl_dual_value(z: np.ndarray, p: np.ndarray, epsilon: float, gamma: float) -> float:
    a = z / gamma
    m = a.max()
    lse = m + math.log(float(p @ np.exp(a - m)))
    return gamma * epsilon + gamma * lse


def _kl_dual_deriv(z: np.ndarray, p: np.ndarray, epsilon: float, gamma: float) -> float:
    """Derivative in gamma of gamma*eps + gamma*log sum p exp(z/gamma)."""
    a = z / gamma
    m = a.max()
    e = p * np.exp(a - m)
    total = float(e.sum())
    lse = m + math.log(total)
    tilted_mean = float(e @ z) / total
    return epsilon + lse - tilted_mean / gamma


def _argmax_limit_weights(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Zero-temperature limit of the tilted weights: base mass renormalized on
    the set of maximal losses."""
    top = z >= z.max() - 1e-15 * max(1.0, abs(z.max()))
    q = np.where(top, p, 0.0)
    return q / q.sum()


def robust_risk_kl_dual(z, epsilon: float) -> KlDualResult:
    """Worst-case mean of the losses z over the KL ball of radius epsilon
    around the uniform weights, via the 1-d dual.

    The dual objective gamma*eps + gamma*log sum_i p_i exp(z_i/gamma) is convex
    in gamma; its minimizer is bracketed in [1e-6, 1e6] * range(z) and located
    by bisection on the derivative to 1e-10 relative width.  A radius so large
    that the supremum sits at the max-loss vertex (minimizer below the bracket)
    returns that vertex solution flagged `saturated`; a minimizer above the
    bracket returns the ceiling evaluation, also flagged.
    """
    if epsilon <= 0.0:
        raise ContractViolation("epsilon must be positive")
    z, p = _losses(z)
    spread = float(z.max() - z.min())
    if _effectively_constant(z):
        return KlDualResult(float(p @ z), None, p)

    lo, hi = 1e-6 * spread, 1e6 * spread
    if _kl_dual_deriv(z, p, epsilon, lo) >= 0.0:
        # Increasing already at the floor: the ball covers the max-loss vertex.
        return KlDualResult(float(z.max()), lo, _argmax_limit_weights(z, p),
                              saturated=True)
    if _kl_dual_deriv(z, p, epsilon, hi) <= 0.0:
        risk = _kl_dual_value(z, p, epsilon, hi)
        return KlDualResult(risk, hi, _tilted_weights(z, p, hi), saturated=True)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _kl_dual_deriv(z, p, epsilon, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-10 * hi:
            break
    gamma = 0.5 * (lo + hi)
    risk = _kl_dual_value(z, p, epsilon, gamma)
    return KlDualResult(risk, gamma, _tilted_weights(z, p, gamma))


def kl_gamma_fixed_point(z, epsilon: float, gamma0: float) -> FixedPointResult:
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
    z, p = _losses(z)
    spread = float(z.max() - z.min())
    if _effectively_constant(z):
        raise ContractViolation("losses must be non-constant")

    gamma = float(gamma0)
    lo_guard, hi_guard = 1e-9 * spread, 1e9 * spread
    for k in range(1, 201):
        a = z / gamma
        m = a.max()
        e = p * np.exp(a - m)
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
    fallback = robust_risk_kl_dual(z, epsilon)
    return FixedPointResult(float(fallback.gamma), False, True, 200)
