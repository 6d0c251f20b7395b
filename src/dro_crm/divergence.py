"""Worst-case risk over a divergence ball around a finite loss sample.

Given losses z_1..z_n, a 1-d array, and uniform base probabilities p_i = 1/n,
the robust risk at radius eps is

    sup { sum_i q_i z_i : q in simplex, D(q || p) <= eps },

where D(q || p) = sum_i p_i * phi(q_i / p_i) for a convex generator phi with
phi(1) = 0.  This module holds the worst cases the training rules in
`objectives.RULES` call:

* chi-square, phi(t) = (t - 1)^2: `robust_risk_chi2`, mean + sqrt(eps * var)
  on the face of the largest losses where the weights stay nonnegative.  poem
  is this worst case at radius lam^2 / n, cips the same face solve at radius 0.
* Kullback-Leibler, phi(t) = t*log(t) - t + 1: the supremum equals
  inf_{gamma > 0} gamma*eps + gamma*log sum_i p_i exp(z_i / gamma), attained
  by the exponentially tilted weights `boltzmann_weights` at the minimizing
  temperature.  klcrm tilts at a fixed temperature, and aklcrm at the
  second-order approximation of the minimizer, `gamma_star_approx`.

The maximizing weights of a rule are the gradient of its risk in the losses
(Danskin's theorem).

References live with the tests: the drop-one active-set loop for the
chi-square worst case (`chi2_active_set.py`), the KL dual by bisection and
the fixed-point temperature iteration (`kl_dual.py`), and a brute-force
maximizer over the feasible set that shares no code with them (`oracle.py`).

All functions are pure; reductions use a fixed summation order, so results are
bit-identical across repeated calls regardless of caller threading.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import ContractViolation


def _effectively_constant(z: np.ndarray) -> bool:
    """Spread at roundoff scale; guards every variance-driven formula."""
    hi, lo = float(z.max()), float(z.min())
    return hi - lo <= 1e-14 * max(1.0, abs(hi), abs(lo))


def _losses(z) -> Tuple[np.ndarray, np.ndarray]:
    """The loss vector z as float64, checked non-empty, 1-d and finite, and
    its uniform base weights p."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise ContractViolation("losses must be a non-empty 1-d vector")
    if not np.isfinite(z).all():
        raise ContractViolation("losses must be finite")
    return z, np.full(z.size, 1.0 / z.size)


def _mean_var(z: np.ndarray, p: np.ndarray) -> Tuple[float, float]:
    """Mean and variance (divisor n) of z under the weights p."""
    mean = float(p @ z)
    d = z - mean
    d *= d
    return mean, float(p @ d)


# ---------------------------------------------------------------------------
# Chi-square: one face solve, on all losses or on the largest k
# ---------------------------------------------------------------------------

def _face(za: np.ndarray, pa: np.ndarray, n: int, epsilon: float) -> Tuple[float, np.ndarray]:
    """Worst case over the weights that vanish off k of the n losses, za,
    whose base weights pa have mass k/n: p_i * (n/k + beta * (z_i - mean)),
    the interior closed form at k = n.  Equal losses, or a radius used up
    exactly (cips: k = n at radius 0), give beta = 0: uniform weights."""
    k = za.size
    mean = float(pa @ za) / (k / n)
    slack = epsilon - (n - k) / k  # the radius left past uniform weights on the face
    if slack == 0.0 or _effectively_constant(za):  # beta = 0
        return mean, pa / (k / n)
    if slack < 0.0:
        raise ArithmeticError("chi-square radius does not reach the face of the largest losses")
    d = za - mean
    scatter = float(pa @ np.square(d))
    beta = math.sqrt(slack / scatter)
    d *= beta  # d becomes the weights p_i * (n/k + beta * (z_i - mean))
    d += n / k
    d *= pa
    return mean + math.sqrt(slack * scatter), d


def robust_risk_chi2(z, epsilon: float) -> Tuple[float, np.ndarray]:
    """Worst-case mean of the losses z over the chi-square ball of radius
    epsilon, and the weights q that attain it: `_face` on the k largest losses,
    k = n in the interior regime, which holds cips's radius 0, else the
    largest k whose face has nonnegative weights, equal losses or lies past
    the radius, from one sort and shifted cumulative sums.  By the KKT
    conditions, tied losses split by the cut carry weights within 1e-15 of
    zero, so either order of them does."""
    if not epsilon >= 0.0:
        raise ContractViolation(f"epsilon must be nonnegative, got {epsilon}")
    z, p = _losses(z)
    n = z.size
    risk, q = _face(z, p, n, epsilon)
    if q.min() >= -1e-15:
        return risk, np.maximum(q, 0.0, out=q)
    order = np.argsort(z)  # smallest first
    top = z[order[::-1]]  # top[:k] are the k largest losses
    d = top - top[0]  # shifted, so the cumulative sums lose no digits to the mean
    k, s1, s2 = np.arange(1.0, n + 1.0), np.cumsum(d), np.cumsum(d * d)
    slack = epsilon - (n - k) / k
    # a top-k scatter of 0, or one so small that the square root overflows,
    # has top losses within `equal`'s tolerance, which decides such a k
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        worst = (n / k + np.sqrt(slack * n / (s2 - s1 * s1 / k)) * (d - s1 / k)) / n
    equal = -d <= 1e-14 * np.maximum(max(1.0, abs(top[0])), np.abs(top))
    stop = np.flatnonzero((equal | (slack <= 0.0) | (worst >= -1e-15))[:-1])
    support = np.sort(order[n - 1 - stop[-1]:])
    risk, qa = _face(z[support], p[support], n, epsilon)
    q = np.zeros(n)
    q[support] = np.maximum(qa, 0.0)
    return risk, q


# ---------------------------------------------------------------------------
# Kullback-Leibler: Boltzmann weights and the second-order temperature rule
# ---------------------------------------------------------------------------

def boltzmann_weights(z, gamma: float) -> np.ndarray:
    """Exponentially tilted weights s_i = p_i exp(z_i/gamma) / sum_j p_j exp(z_j/gamma),
    computed with a max shift so the result is finite for any positive gamma.
    Where z/gamma overflows (gamma -> 0), the shift comes before the division:
    (z - max z)/gamma is the same tilt, and in the limit it puts all the
    weight, uniformly, on the largest losses."""
    if not 0.0 < gamma < math.inf:
        raise ContractViolation(f"gamma must be positive and finite, got {gamma}")
    z, p = _losses(z)
    with np.errstate(over="ignore"):
        a = z / gamma
        top = a.max()
        if math.isfinite(top):
            a -= top
        else:
            a = z - z.max()
            a /= gamma
    np.exp(a, out=a)
    a *= p
    a /= a.sum()
    return a


def gamma_star_approx(z, epsilon: float) -> float:
    """Second-order temperature rule sqrt(var / (2*eps)); 0.0 for constant
    losses, which have no worst case to tilt toward."""
    if not 0.0 < epsilon < math.inf:
        raise ContractViolation(f"epsilon must be positive and finite, got {epsilon}")
    z, p = _losses(z)
    if _effectively_constant(z):
        return 0.0
    return math.sqrt(_mean_var(z, p)[1] / (2.0 * epsilon))
