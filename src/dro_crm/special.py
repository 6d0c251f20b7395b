"""Scalar special functions for the benchmark's paired t-test.

Self-contained double-precision routines: the regularized incomplete beta
function (Lentz continued fraction) and the Student-t upper tail built on it.
"""

import math

from .errors import ContractViolation


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz iteration."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ContractViolation("betainc_reg requires a > 0 and b > 0")
    if not 0.0 <= x <= 1.0:
        raise ContractViolation(f"betainc_reg requires x in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, dof: float) -> float:
    """Upper-tail probability P(T > t) of a Student-t variable with `dof` dof."""
    if dof <= 0:
        raise ContractViolation("student_t_sf requires dof > 0")
    if t != t:
        raise ContractViolation("student_t_sf got NaN statistic")
    x = dof / (dof + t * t)
    tail = 0.5 * betainc_reg(0.5 * dof, 0.5, x)
    return tail if t >= 0.0 else 1.0 - tail
