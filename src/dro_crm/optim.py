"""Limited-memory BFGS with a strong-Wolfe line search.

`minimize(fun, x0, max_iters=500, grad_tol=1e-6)` is a deterministic,
dense-vector minimizer: two-loop recursion over a bounded history of
curvature pairs, a line search that is one loop over a bracket of step
lengths (doubling until a trial bounds it, then bisecting), and explicit
termination reasons.  Curvature pairs with s'y <= 1e-10 ||s|| ||y|| are
discarded so the implicit Hessian approximation stays positive definite.

An objective is `fun(x) -> (f, grad)`, where `grad` is a zero-argument
callable returning the gradient at x.  It is called only at x0 and at the
trial points that pass the line search's sufficient-decrease test and improve
on the bracket's lower end, since only there is the gradient read; any other
trial point costs the value alone.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from .errors import ContractViolation

Objective = Callable[[np.ndarray], Tuple[float, Callable[[], np.ndarray]]]

_C1 = 1e-4                    # Armijo (sufficient decrease) constant
_C2 = 0.9                     # curvature constant, 0 < _C1 < _C2 < 1
_MAX_LINE_SEARCH_STEPS = 40   # evaluations per line search
_MEMORY = 10                  # curvature pairs the two-loop recursion keeps
_F_TOL = 1e-9                 # relative decrease between accepted iterates


@dataclass
class IterRecord:
    f: float
    grad_norm: float
    step: float


@dataclass
class OptimTrace:
    iterations: List[IterRecord] = field(default_factory=list)
    termination: str = ""
    n_evals: int = 0              # objective values
    n_grads: int = 0              # gradients, at most one per value


class _NanObjective(Exception):
    pass


def _line_search(evaluate, x: np.ndarray, p: np.ndarray, f0: float, g0: np.ndarray):
    """Strong-Wolfe search along direction p from unit step, in at most
    _MAX_LINE_SEARCH_STEPS trials.

    `evaluate(x, rejects) -> (f, g)` gives g = None, without computing it,
    when rejects(f), and raises _NanObjective on NaN.  Returns
    (alpha, f, g, x_new), or None when no acceptable step was found.
    """
    d0 = float(g0 @ p)
    if d0 >= 0.0:
        return None
    # a_lo is the last accepted step (f_lo its value), a_hi a rejected step or
    # the far side of a slope sign change; the trial doubles until a_hi is set.
    # Only later trials must also improve on f_lo; the first is held to
    # sufficient decrease alone, which accepts f == f0 when C1 * d0 rounds away.
    a_lo, f_lo, a_hi = 0.0, f0, math.inf
    a, best = 1.0, None
    for trial in range(_MAX_LINE_SEARCH_STEPS):
        xa = x + a * p
        fa, ga = evaluate(xa, lambda f: f > f0 + _C1 * a * d0
                          or (trial > 0 and f >= f_lo))
        if ga is None:
            a_hi = a
        else:
            da = float(ga @ p)
            best = (a, fa, ga, xa)
            if abs(da) <= -_C2 * d0:
                return best
            if da * (a_hi - a_lo) >= 0.0:
                a_hi = a_lo
            a_lo, f_lo = a, fa
        a = min(2.0 * a, 1e10) if a_hi == math.inf else 0.5 * (a_lo + a_hi)
    # Budget exhausted: the last step satisfying Armijo still yields progress.
    return best


def minimize(fun: Objective, x0: np.ndarray, max_iters: int = 500,
             grad_tol: float = 1e-6) -> Tuple[np.ndarray, OptimTrace]:
    """Minimize the smooth objective `fun` from x0.

    Terminates when the gradient's infinity norm is at most `grad_tol`, on
    relative objective decrease, or after `max_iters` iterations.  A failed
    line search along a direction from curvature pairs restarts once along
    steepest descent; if that also fails, or the failed direction was already
    steepest descent, the run ends with reason "line_search_failed".  NaN from
    the objective, in a value or in a gradient it was asked for, aborts with
    reason "nan_objective".  The returned point never has a larger objective
    than x0.
    """
    if not 0.0 < grad_tol < math.inf:
        raise ContractViolation("grad_tol must be positive and finite")
    if max_iters < 1:
        raise ContractViolation("max_iters must be positive")
    x = np.asarray(x0, dtype=np.float64).copy()
    if not np.all(np.isfinite(x)):
        raise ContractViolation("x0 must be finite")

    trace = OptimTrace()

    def evaluate(xv, rejects=lambda f: False):
        # grad is called here or never, so no objective's state outlives its point
        trace.n_evals += 1
        f, grad = fun(xv)
        f = float(f)
        if math.isnan(f):
            raise _NanObjective
        if rejects(f):
            return f, None
        trace.n_grads += 1
        g = np.asarray(grad(), dtype=np.float64)
        if np.isnan(g).any():
            raise _NanObjective
        return f, g

    history = deque(maxlen=_MEMORY)   # curvature pairs (s, y, 1 / s'y)
    try:
        f, g = evaluate(x)
        for _ in range(max_iters):
            gnorm = float(np.abs(g).max()) if g.size else 0.0
            if gnorm <= grad_tol:
                trace.termination = "grad_tol"
                break

            # Two-loop recursion over the stored curvature pairs.
            q = g.copy()
            alphas = []
            for s, y, rho in reversed(history):
                a = rho * float(s @ q)
                q -= a * y
                alphas.append(a)
            if history:
                s, y, rho = history[-1]
                q *= float(s @ y) / float(y @ y)
            for (s, y, rho), a in zip(history, reversed(alphas)):
                b = rho * float(y @ q)
                q += s * (a - b)
            p = -q

            result = _line_search(evaluate, x, p, f, g)
            if result is None and history:  # else p is -g, and would fail again
                history.clear()
                result = _line_search(evaluate, x, -g, f, g)
            if result is None:
                trace.termination = "line_search_failed"
                break

            alpha, f_new, g_new, x_new = result
            s = x_new - x
            y = g_new - g
            sy = float(s @ y)
            if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
                history.append((s, y, 1.0 / sy))

            decrease = f - f_new
            trace.iterations.append(
                IterRecord(f_new, float(np.abs(g_new).max()), alpha))
            x, f, g = x_new, f_new, g_new
            if decrease <= _F_TOL * max(1.0, abs(f)):
                trace.termination = "f_tol"
                break
        else:
            trace.termination = "max_iters"
    except _NanObjective:
        # the run keeps the last accepted point
        trace.termination = "nan_objective"
    return x, trace
