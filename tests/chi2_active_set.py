"""The chi-square worst case by the drop-one-at-a-time active-set loop, as a
reference for `dro_crm.divergence.robust_risk_chi2`.

Past the interior regime, the loop drops the loss with the lowest implied
weight, re-solves the tangency problem on the remaining face, and repeats
until every weight is nonnegative, the remaining losses are equal, or the
radius no longer reaches the face.  It costs one O(n) solve per dropped
loss; the package finds the same face with one sort.  `test_divergence.py`
compares the two on randomized losses.
"""

import math
from typing import Tuple

import numpy as np

from dro_crm.divergence import _effectively_constant, _losses, _mean_var
from dro_crm.errors import ContractViolation


def robust_risk_chi2_active_set(z, epsilon: float) -> Tuple[float, np.ndarray]:
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
