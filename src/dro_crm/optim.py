"""Limited-memory BFGS with a strong-Wolfe line search.

Deterministic, dense-vector minimizer: two-loop recursion over a bounded
history of curvature pairs, bracketing line search with bisection zoom, and
explicit termination reasons.  Curvature pairs with s'y <= 1e-10 ||s|| ||y||
are discarded so the implicit Hessian approximation stays positive definite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import ContractViolation

Objective = Callable[[np.ndarray], Tuple[float, np.ndarray]]

_C1 = 1e-4                    # Armijo (sufficient decrease) constant
_C2 = 0.9                     # curvature constant, 0 < _C1 < _C2 < 1
_MAX_LINE_SEARCH_STEPS = 40   # evaluations per line search


@dataclass
class OptimConfig:
    memory: int = 10
    max_iters: int = 500
    grad_tol: float = 1e-6          # infinity norm of the gradient
    f_tol: float = 1e-9             # relative decrease between accepted iterates
    box_bound: Optional[float] = 1e3  # infinity-norm box, None disables

    def __post_init__(self):
        if not (0.0 < self.grad_tol < math.inf and 0.0 < self.f_tol < math.inf):
            raise ContractViolation("tolerances must be positive and finite")
        if self.box_bound is not None and not 0.0 < self.box_bound < math.inf:
            raise ContractViolation("box_bound must be positive and finite, or None")
        if self.memory < 1 or self.max_iters < 1:
            raise ContractViolation("memory and max_iters must be positive")


@dataclass
class IterRecord:
    f: float
    grad_norm: float
    step: float
    gamma: Optional[float] = None


@dataclass
class OptimTrace:
    iterations: List[IterRecord] = field(default_factory=list)
    termination: str = ""
    n_evals: int = 0


class _NanObjective(Exception):
    pass


def _line_search(evaluate, x: np.ndarray, p: np.ndarray, f0: float, g0: np.ndarray):
    """Strong-Wolfe search along direction p starting from unit step.

    `evaluate(x) -> (f, g)` raises _NanObjective on NaN.  Returns
    (alpha, f, g, x_new) or None when no acceptable step was found within the
    evaluation budget.
    """
    d0 = float(g0 @ p)
    if d0 >= 0.0:
        return None
    budget = [_MAX_LINE_SEARCH_STEPS]

    def phi(alpha: float):
        budget[0] -= 1
        xa = x + alpha * p
        fa, ga = evaluate(xa)
        return fa, ga, xa

    def zoom(a_lo, f_lo, a_hi, best=None):
        while budget[0] > 0:
            a = 0.5 * (a_lo + a_hi)
            fa, ga, xa = phi(a)
            if fa > f0 + _C1 * a * d0 or fa >= f_lo:
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
        fa, ga, xa = phi(a)
        if fa > f0 + _C1 * a * d0 or (not first and fa >= f_prev):
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
    """Minimize a smooth objective returning (value, gradient).

    Terminates on the gradient infinity norm, on relative objective decrease,
    or at the iteration cap.  A failed line search restarts once along steepest
    descent; if that also fails the run ends with reason "line_search_failed".
    NaN from the objective aborts with reason "nan_objective".  The returned
    point never has a larger objective than x0.
    """
    cfg = config or OptimConfig()
    x = np.asarray(x0, dtype=np.float64).copy()
    if not np.all(np.isfinite(x)):
        raise ContractViolation("x0 must be finite")

    trace = OptimTrace()
    n_evals = [0]

    def evaluate(xv):
        n_evals[0] += 1
        f, g = fun(xv)
        f = float(f)
        g = np.asarray(g, dtype=np.float64)
        if math.isnan(f) or np.isnan(g).any():
            raise _NanObjective
        return f, g

    try:
        f, g = evaluate(x)
    except _NanObjective:
        trace.termination = "nan_objective"
        trace.n_evals = n_evals[0]
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
        if cfg.box_bound is not None:
            clipped = np.clip(x_new, -cfg.box_bound, cfg.box_bound)
            if not np.array_equal(clipped, x_new):
                x_new = clipped
                try:
                    f_new, g_new = evaluate(x_new)
                except _NanObjective:
                    trace.termination = "nan_objective"
                    break
                if f_new > f:  # projection undid the decrease; keep the old point
                    trace.termination = "box_projection_stalled"
                    break

        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > cfg.memory:
                s_hist.pop(0)
                y_hist.pop(0)
                rho_hist.pop(0)

        decrease = f - f_new
        trace.iterations.append(IterRecord(f_new, float(np.abs(g_new).max()), alpha,
                                           gamma=getattr(fun, "last_gamma", None)))
        x, f, g = x_new, f_new, g_new
        if decrease <= cfg.f_tol * max(1.0, abs(f)):
            trace.termination = "f_tol"
            break
    else:
        trace.termination = "max_iters"

    trace.n_evals = n_evals[0]
    return x, trace
