"""Numerical references the tests check closed forms against: central finite
differences for gradients, and the Student-t upper tail by integrating its
density (needs scipy; callers skip without it)."""

import math

import numpy as np


def fd_gradient(fun, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (fun(tp) - fun(tm)) / (2.0 * h)
    return g


def t_sf_oracle(t, dof):
    from scipy.integrate import quad

    c = math.gamma((dof + 1) / 2) / (math.sqrt(dof * math.pi) * math.gamma(dof / 2))
    val, _ = quad(lambda u: c * (1 + u * u / dof) ** (-(dof + 1) / 2), t, np.inf)
    return val
