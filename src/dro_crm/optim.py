"""Limited-memory BFGS with a strong-Wolfe line search.

Deterministic, dense-vector minimizer: two-loop recursion over a bounded
history of curvature pairs, bracketing line search with bisection zoom, and
explicit termination reasons.  Curvature pairs with s'y <= 1e-10 ||s|| ||y||
are discarded so the implicit Hessian approximation stays positive definite.

An objective is `fun(x) -> (f, grad)`, where `grad` is a zero-argument
callable returning the gradient at x.  It is called only at x0 and at the
trial points that pass the line search's sufficient-decrease test and improve
on the bracket's lower end, since only there is the gradient read; any other
trial point costs the value alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ContractViolation

Objective = Callable[[np.ndarray], Tuple[float, Callable[[], np.ndarray]]]

_C1 = 1e-4                    # Armijo (sufficient decrease) constant
_C2 = 0.9                     # curvature constant, 0 < _C1 < _C2 < 1
_MAX_LINE_SEARCH_STEPS = 40   # evaluations per line search
_MEMORY = 10                  # curvature pairs the two-loop recursion keeps
_F_TOL = 1e-9                 # relative decrease between accepted iterates


@dataclass
class OptimConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6          # infinity norm of the gradient

    def __post_init__(self):
        if not 0.0 < self.grad_tol < math.inf:
            raise ContractViolation("grad_tol must be positive and finite")
        if self.max_iters < 1:
            raise ContractViolation("max_iters must be positive")


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
    """Strong-Wolfe search along direction p starting from unit step.

    `evaluate(x, rejects) -> (f, g)` gives g = None, without computing it,
    when rejects(f), and raises _NanObjective on NaN.  Returns
    (alpha, f, g, x_new) or None when no acceptable step was found within the
    evaluation budget.
    """
    d0 = float(g0 @ p)
    if d0 >= 0.0:
        return None
    budget = [_MAX_LINE_SEARCH_STEPS]

    def phi(alpha: float, f_ref: Optional[float]):
        """f, g and x at step alpha; g is None where f fails sufficient
        decrease or does not fall below f_ref (when one is given)."""
        budget[0] -= 1
        xa = x + alpha * p
        fa, ga = evaluate(xa, lambda f: f > f0 + _C1 * alpha * d0
                          or (f_ref is not None and f >= f_ref))
        return fa, ga, xa

    def zoom(a_lo, f_lo, a_hi, best=None):
        while budget[0] > 0:
            a = 0.5 * (a_lo + a_hi)
            fa, ga, xa = phi(a, f_lo)
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
        # Budget exhausted: a point satisfying Armijo still yields progress.
        return best

    a_prev, f_prev = 0.0, f0
    prev = None
    a = 1.0
    first = True
    while budget[0] > 0:
        fa, ga, xa = phi(a, None if first else f_prev)
        if ga is None:
            return zoom(a_prev, f_prev, a, best=prev)
        da = float(ga @ p)
        if abs(da) <= -_C2 * d0:
            return a, fa, ga, xa
        if da >= 0.0:
            return zoom(a, fa, a_prev, best=(a, fa, ga, xa))
        a_prev, f_prev, prev = a, fa, (a, fa, ga, xa)
        a = min(2.0 * a, 1e10)
        first = False
    return prev


def minimize(fun: Objective, x0: np.ndarray,
             config: Optional[OptimConfig] = None) -> Tuple[np.ndarray, OptimTrace]:
    """Minimize a smooth objective `fun(x) -> (value, grad)`, where grad()
    returns the gradient at x and is called only where it is used.

    Terminates on the gradient infinity norm, on relative objective decrease,
    or at the iteration cap.  A failed line search restarts once along steepest
    descent; if that also fails the run ends with reason "line_search_failed".
    NaN from the objective, in a value or in a gradient it was asked for,
    aborts with reason "nan_objective".  The returned
    point never has a larger objective than x0.
    """
    cfg = config or OptimConfig()
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

    try:
        f, g = evaluate(x)
    except _NanObjective:
        trace.termination = "nan_objective"
        return x, trace

    s_hist: List[np.ndarray] = []
    y_hist: List[np.ndarray] = []
    rho_hist: List[float] = []

    for _ in range(cfg.max_iters):
        gnorm = float(np.abs(g).max()) if g.size else 0.0
        if gnorm <= cfg.grad_tol:
            trace.termination = "grad_tol"
            break

        # Two-loop recursion over the stored curvature pairs.
        q = g.copy()
        alphas = []
        for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
            a = rho * float(s @ q)
            q -= a * y
            alphas.append(a)
        if y_hist:
            q *= float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
        for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
            b = rho * float(y @ q)
            q += s * (a - b)
        p = -q

        try:
            result = _line_search(evaluate, x, p, f, g)
            if result is None:
                s_hist.clear()
                y_hist.clear()
                rho_hist.clear()
                result = _line_search(evaluate, x, -g, f, g)
        except _NanObjective:
            trace.termination = "nan_objective"
            break
        if result is None:
            trace.termination = "line_search_failed"
            break

        alpha, f_new, g_new, x_new = result
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _MEMORY:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        decrease = f - f_new
        trace.iterations.append(IterRecord(f_new, float(np.abs(g_new).max()), alpha))
        x, f, g = x_new, f_new, g_new
        if decrease <= _F_TOL * max(1.0, abs(f)):
            trace.termination = "f_tol"
            break
    else:
        trace.termination = "max_iters"

    return x, trace
