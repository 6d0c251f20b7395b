"""Worst-case risk over a divergence ball around a finite loss sample.

Given losses z_1..z_n, a 1-d array, and uniform base probabilities p_i = 1/n,
the robust risk at radius eps is

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
from typing import Tuple

import numpy as np

from .errors import ContractViolation


def _effectively_constant(z: np.ndarray) -> bool:
    """Spread at roundoff scale; guards every variance-driven formula."""
    return float(z.max() - z.min()) <= 1e-14 * max(1.0, float(np.abs(z).max()))


def _losses(z) -> Tuple[np.ndarray, np.ndarray]:
    """The loss vector z as float64, checked non-empty, 1-d and finite, and
    its uniform base weights p."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 1:
        raise ContractViolation("losses must be a non-empty 1-d vector")
    if not np.all(np.isfinite(z)):
        raise ContractViolation("losses must be finite")
    return z, np.full(z.size, 1.0 / z.size)


def _mean_var(z: np.ndarray, p: np.ndarray) -> Tuple[float, float]:
    """Mean and variance (divisor n) of z under the weights p."""
    mean = float(p @ z)
    return mean, float(p @ (z - mean) ** 2)


# ---------------------------------------------------------------------------
# Chi-square: closed form plus active-set fallback on the simplex boundary
# ---------------------------------------------------------------------------

def robust_risk_chi2(z, epsilon: float) -> Tuple[float, np.ndarray]:
    """Worst-case mean of the losses z over the chi-square ball of radius
    epsilon, and the weights q that attain it.

    Interior regime: risk = mean + sqrt(eps * var) with weights
    p_i * (1 + sqrt(eps/var) * (z_i - mean)).  When those weights would leave
    the simplex, coordinates are dropped one at a time (lowest implied weight
    first) and the tangency problem is re-solved on the remaining face.  At
    radius 0, and for constant losses, this is the mean with uniform weights.
    """
    if not epsilon >= 0.0:
        raise ContractViolation(f"epsilon must be nonnegative, got {epsilon}")
    z, p = _losses(z)
    if epsilon == 0.0:  # cips: the mean, with no variance to compute
        return float(p @ z), p
    mean, var = _mean_var(z, p)
    n = z.size
    if _effectively_constant(z):
        return mean, p

    q = p * (1.0 + math.sqrt(epsilon / var) * (z - mean))
    if q.min() >= 0.0:
        return mean + math.sqrt(epsilon * var), q

    active = np.ones(n, dtype=bool)
    for _ in range(n):
        idx = np.flatnonzero(active)
        pa, za = p[idx], z[idx]
        mass = pa.sum()
        mean_a = float(pa @ za) / mass
        scatter = float(pa @ (za - mean_a) ** 2)
        slack = epsilon - (1.0 - mass) / mass
        if idx.size == 1 or _effectively_constant(za):
            # Remaining losses are equal: the max-loss face, reached only when
            # the radius covers it, so slack >= 0 here.
            q = np.zeros(n)
            q[idx] = pa / mass
            return mean_a, q
        if slack <= 0.0:
            raise ArithmeticError("chi-square active-set solve left the feasible region")
        beta = math.sqrt(slack / scatter)
        qa = pa * (1.0 + (1.0 - mass) / mass + beta * (za - mean_a))
        worst = qa.min()
        if worst >= -1e-15:
            q = np.zeros(n)
            q[idx] = np.maximum(qa, 0.0)
            return mean_a + math.sqrt(slack * scatter), q
        active[idx[int(np.argmin(qa))]] = False
    raise ArithmeticError("chi-square active-set solve failed to terminate")


# ---------------------------------------------------------------------------
# Kullback-Leibler: Boltzmann weights and the second-order temperature rule
# ---------------------------------------------------------------------------

def boltzmann_weights(z, gamma: float) -> np.ndarray:
    """Exponentially tilted weights s_i = p_i exp(z_i/gamma) / sum_j p_j exp(z_j/gamma),
    computed with a max shift so the result is finite for any finite z/gamma."""
    if not 0.0 < gamma < math.inf:
        raise ContractViolation(f"gamma must be positive and finite, got {gamma}")
    z, p = _losses(z)
    a = z / gamma
    a -= a.max()
    w = p * np.exp(a)
    return w / w.sum()


def gamma_star_approx(z, epsilon: float) -> float:
    """Second-order temperature rule sqrt(var / (2*eps)); 0.0 for constant
    losses, which have no worst case to tilt toward."""
    if not 0.0 < epsilon < math.inf:
        raise ContractViolation(f"epsilon must be positive and finite, got {epsilon}")
    z, p = _losses(z)
    if _effectively_constant(z):
        return 0.0
    return math.sqrt(_mean_var(z, p)[1] / (2.0 * epsilon))
