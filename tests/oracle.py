"""Brute-force worst-case risk over a divergence ball, for verifying the
chi-square closed form in `dro_crm.divergence` and the KL dual in
`kl_dual.py` at small n.

`dro_oracle` shares no code with what it checks: it imports only the error
class from the package, and computes the uniform base weights, divergences
(`divergence_rows`), projections and ascent steps itself.
`enumerate_actions` lists every action of a small label space for
exhaustive checks of the policy.
"""

import math
from enum import Enum
from itertools import product
from typing import Iterator

import numpy as np

from dro_crm.errors import ContractViolation


class DivergenceKind(Enum):
    CHI_SQUARE = "chi_square"
    KULLBACK_LEIBLER = "kullback_leibler"


def enumerate_actions(n_labels: int) -> Iterator[np.ndarray]:
    """All 2^q bit vectors, for exhaustive checks at small q."""
    if n_labels > 20:
        raise ContractViolation("enumeration limited to 20 labels")
    for bits in product((0, 1), repeat=n_labels):
        yield np.array(bits, dtype=np.int8)


def divergence_rows(kind: DivergenceKind, Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Row-wise D(q || p) for strictly positive p (vectorized, 0*log 0 := 0)."""
    if kind is DivergenceKind.CHI_SQUARE:
        return ((Q - p) ** 2 / p).sum(axis=1)
    log_ratio = np.log(Q / p, out=np.zeros(Q.shape), where=Q > 0.0)
    return (Q * log_ratio).sum(axis=1) - Q.sum(axis=1) + 1.0


def _project_simplex_rows(Q: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    n = Q.shape[1]
    srt = np.sort(Q, axis=1)[:, ::-1]
    css = np.cumsum(srt, axis=1) - 1.0
    ind = np.arange(1, n + 1)
    cond = srt - css / ind > 0.0
    rho = cond.sum(axis=1)
    theta = css[np.arange(Q.shape[0]), rho - 1] / rho
    return np.maximum(Q - theta[:, None], 0.0)


def _shrink_to_ball_rows(kind: DivergenceKind, Q: np.ndarray, p: np.ndarray,
                         epsilon: float, max_steps: int = 30) -> np.ndarray:
    """Move each infeasible row along the ray toward p until D(q||p) = eps.

    The chi-square divergence is exactly quadratic along the ray, so that case
    scales in closed form.  For KL, f(t) = KL(p + t (q - p) || p) is convex,
    rises from f(0) = 0 to f(1) = D(q||p) > eps and stays close to its
    quadratic model chi2(q||p) t^2 / 2, so sqrt(f) is close to linear in t.
    Newton's method on sqrt(f) = sqrt(eps) starts where the model crosses,
    never more than halves t in one step, and stops once the steps fall
    below 1e-6 t.  The result is pulled back toward p by a relative 1e-10
    and checked with `divergence_rows`; a row still outside the ball is
    halved toward p until it is inside (at most 60 times, which leaves it at
    p to rounding)."""
    d = divergence_rows(kind, Q, p)
    bad = d > epsilon
    if not bad.any():
        return Q
    out = Q.copy()
    base = Q[bad]
    if kind is DivergenceKind.CHI_SQUARE:
        t = np.sqrt(epsilon / d[bad])
        out[bad] = p + t[:, None] * (base - p)
        return out
    diff = base - p
    rel = diff / p
    t = np.sqrt(2.0 * epsilon / np.einsum("ij,ij->i", diff, rel))
    t = np.where(t < 1.0, t, epsilon / d[bad])  # else the chord's crossing
    root_eps = math.sqrt(epsilon)
    for _ in range(max_steps):
        log_ratio = np.log1p(t[:, None] * rel)  # r / p = 1 + t rel > 0 for 0 < t < 1
        slope = np.einsum("ij,ij->i", diff, log_ratio)  # f'(t)
        root_f = np.sqrt(log_ratio @ p + t * slope)  # f = sum_j r_j log(r_j / p_j)
        step = (root_f - root_eps) * 2.0 * root_f / slope
        t = np.minimum(np.maximum(t - step, 0.5 * t), 1.0 - 1e-12)
        if (np.abs(step) <= 1e-6 * t).all():
            break
    t *= 1.0 - 1e-10
    for _ in range(60):
        rows = p + t[:, None] * diff
        outside = divergence_rows(kind, rows, p) > epsilon
        if not outside.any():
            break
        t = np.where(outside, 0.5 * t, t)
    out[bad] = rows
    return out


def _push_to_boundary_rows(kind: DivergenceKind, Q: np.ndarray, p: np.ndarray,
                           epsilon: float, iters: int = 60) -> np.ndarray:
    """Extend each feasible row outward along the ray from p until it meets
    the ball boundary or a simplex face, whichever comes first."""
    diff = Q - p
    with np.errstate(divide="ignore", invalid="ignore"):
        caps = np.where(diff < 0.0, p / -diff, np.inf)
    t_cap = np.minimum(caps.min(axis=1), 1e6)
    t_cap = np.maximum(t_cap, 1.0)
    if kind is DivergenceKind.CHI_SQUARE:
        d = divergence_rows(kind, Q, p)
        t_ball = np.where(d > 0.0, np.sqrt(epsilon / np.maximum(d, 1e-300)), t_cap)
        return np.maximum(p + np.maximum(np.minimum(t_ball, t_cap), 1.0)[:, None] * diff, 0.0)
    at_cap = divergence_rows(kind, p + t_cap[:, None] * diff, p) <= epsilon
    hi = t_cap
    lo = np.where(at_cap, t_cap, 1.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = divergence_rows(kind, p + mid[:, None] * diff, p) <= epsilon
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.maximum(p + lo[:, None] * diff, 0.0)


def _ray_max_feasible_rows(kind: DivergenceKind, base: np.ndarray,
                           direction: np.ndarray, p: np.ndarray,
                           epsilon: float, iters: int = 70) -> np.ndarray:
    """From each feasible base row, advance t >= 0 along its direction row to
    the furthest point that stays in the simplex and the ball."""
    with np.errstate(divide="ignore", invalid="ignore"):
        caps = np.where(direction < 0.0, base / -direction, np.inf)
    t_cap = np.where(np.isfinite(caps.min(axis=1)), caps.min(axis=1), 1.0)
    at_cap = divergence_rows(kind, base + t_cap[:, None] * direction, p) <= epsilon
    hi = t_cap
    lo = np.where(at_cap, t_cap, 0.0)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        inside = divergence_rows(kind, base + mid[:, None] * direction, p) <= epsilon
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return np.maximum(base + lo[:, None] * direction, 0.0)


def _face_line_candidates(kind: DivergenceKind, z: np.ndarray, p: np.ndarray,
                          epsilon: float) -> np.ndarray:
    """For every top-k support (by loss), walk the line through the face
    center in the face's centered-loss direction out to the boundary.  These
    lines contain the tangency optima of faces, for any generator."""
    n = z.size
    order = np.argsort(z)[::-1]
    bases = np.zeros((n, n))
    dirs = np.zeros((n, n))
    for k in range(1, n + 1):
        idx = order[:k]
        mass = p[idx].sum()
        base = np.zeros(n)
        base[idx] = p[idx] / mass
        m = float(base[idx] @ z[idx])
        d = np.zeros(n)
        d[idx] = p[idx] * (z[idx] - m)
        bases[k - 1] = base
        norm = np.abs(d).max()
        dirs[k - 1] = d / norm if norm > 0 else d
    feasible = divergence_rows(kind, bases, p) <= epsilon
    bases, dirs = bases[feasible], dirs[feasible]
    if bases.shape[0] == 0:
        return p[None, :]
    return _ray_max_feasible_rows(kind, bases, dirs, p, epsilon)


def _exp_tilt_candidates(z: np.ndarray, p: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    expo = p[None, :] * np.exp((z[None, :] - z.max()) / gammas[:, None])
    return expo / expo.sum(axis=1, keepdims=True)


def _pairwise_polish(kind: DivergenceKind, q: np.ndarray, z: np.ndarray,
                     p: np.ndarray, epsilon: float) -> np.ndarray:
    """Greedy mass transfers along simplex edges (toward higher loss) with the
    transfer amount bisected against the divergence budget."""
    order = np.argsort(z)
    q = q.copy()
    for _ in range(3):
        improved = False
        slack = epsilon - divergence_rows(kind, q[None, :], p)[0]
        g = _divergence_grad_rows(kind, q[None, :], p)[0]
        for i in order[::-1]:
            for j in order:
                if z[i] <= z[j] or q[j] <= 1e-15:
                    continue
                # On the boundary, a transfer whose divergence derivative is
                # outward admits no feasible positive step.
                if slack <= 1e-12 and g[i] - g[j] >= -1e-12:
                    continue
                lo, hi = 0.0, float(q[j])
                trial = q.copy()
                trial[i] += hi
                trial[j] -= hi
                if divergence_rows(kind, trial[None, :], p)[0] <= epsilon:
                    lo = hi
                else:
                    for _ in range(40):
                        mid = 0.5 * (lo + hi)
                        trial = q.copy()
                        trial[i] += mid
                        trial[j] -= mid
                        if divergence_rows(kind, trial[None, :], p)[0] <= epsilon:
                            lo = mid
                        else:
                            hi = mid
                if lo > 1e-14:
                    q[i] += lo
                    q[j] -= lo
                    improved = True
        if not improved:
            break
    return q


def _divergence_grad_rows(kind: DivergenceKind, Q: np.ndarray, p: np.ndarray) -> np.ndarray:
    if kind is DivergenceKind.CHI_SQUARE:
        return 2.0 * (Q - p) / p
    return np.log(np.maximum(Q, 1e-300) / p) + 1.0


def _tangent_walk(kind: DivergenceKind, Q: np.ndarray, z: np.ndarray,
                  p: np.ndarray, epsilon: float, iters: int = 60,
                  eta0: float = 0.12) -> np.ndarray:
    """Row-wise ascent of q'z along the ball boundary: step in the direction
    of z projected onto the tangent space of {D = eps, sum q = 1}, clip to the
    simplex, retract to the ball along the ray toward p.  Steps that fail to
    improve a row are rejected, so every row is monotone."""
    n = Q.shape[1]
    obj = Q @ z
    eta = eta0
    zsum = float(z.sum())
    for k in range(iters):
        G = _divergence_grad_rows(kind, Q, p)
        a11 = (G * G).sum(axis=1)
        a12 = G.sum(axis=1)
        b1 = G @ z
        det = a11 * n - a12 * a12
        det = np.where(np.abs(det) < 1e-30, 1e-30, det)
        alpha = (b1 * n - zsum * a12) / det
        beta = (a11 * zsum - a12 * b1) / det
        T = z[None, :] - alpha[:, None] * G - beta[:, None]
        norm = np.sqrt((T * T).sum(axis=1, keepdims=True))
        trial = _project_simplex_rows(Q + eta * T / np.maximum(norm, 1e-15))
        trial = _shrink_to_ball_rows(kind, trial, p, epsilon)
        trial_obj = trial @ z
        better = trial_obj > obj
        Q = np.where(better[:, None], trial, Q)
        obj = np.where(better, trial_obj, obj)
        if (k + 1) % 12 == 0:
            eta *= 0.45
    return Q


def dro_oracle(z, kind: DivergenceKind, epsilon: float) -> float:
    """Brute-force sup of sum_i q_i z_i over the divergence ball around the
    uniform weights, for a loss vector z of n <= 12 finite values.

    Candidates come from a dense Dirichlet grid (rays shrunk to the ball
    boundary) plus the simplex vertices; the best 64 seed a projected-gradient
    ascent along the constraint boundary (`_tangent_walk`), and the winner is
    polished by greedy pairwise mass transfers.  Accurate to well under 1e-4
    at this scale, independently of the closed forms it checks.
    """
    if epsilon < 0.0:
        raise ContractViolation("epsilon must be nonnegative")
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size < 1 or not np.all(np.isfinite(z)):
        raise ContractViolation("losses must be a non-empty finite 1-d vector")
    n = z.size
    p = np.full(n, 1.0 / n)
    if n > 12:
        raise ContractViolation("dro_oracle is limited to n <= 12")
    if epsilon == 0.0 or n == 1:
        return float(p @ z)

    rng = np.random.default_rng(20240901)
    grids = [np.eye(n), p[None, :]]
    for alpha in (0.3, 1.0, 3.0):
        grids.append(rng.dirichlet(np.full(n, alpha), size=300))
        grids.append(rng.dirichlet(n * alpha * p + 1e-2, size=200))
    # structured seeds: face tangency lines for every top-k support, plus
    # exponentially tilted copies of p over a two-stage temperature grid
    grids.append(_face_line_candidates(kind, z, p, epsilon))
    spread = max(float(z.max() - z.min()), 1e-12)
    coarse = spread * 10.0 ** np.linspace(-3.0, 3.0, 40)
    tilts = _exp_tilt_candidates(z, p, coarse)
    feas = divergence_rows(kind, tilts, p) <= epsilon
    if feas.any() and not feas.all():
        # the sharpest feasible tilt sits at the feasibility threshold of the
        # temperature; locate it by bisection on primal feasibility
        i = int(np.argmax(feas))
        g_lo, g_hi = coarse[i - 1], coarse[i]
        for _ in range(80):
            g_mid = math.sqrt(g_lo * g_hi)
            if divergence_rows(kind, _exp_tilt_candidates(z, p, np.array([g_mid])),
                                p)[0] <= epsilon:
                g_hi = g_mid
            else:
                g_lo = g_mid
        grids.append(_exp_tilt_candidates(z, p, np.array([g_hi])))
    grids.append(tilts)

    Q = _shrink_to_ball_rows(kind, np.vstack(grids), p, epsilon)
    obj = Q @ z
    best = float(obj.max())

    cur = _tangent_walk(kind, Q[np.argsort(obj)[-64:]], z, p, epsilon)
    best = max(best, float((cur @ z).max()))
    cur = _push_to_boundary_rows(kind, cur, p, epsilon)
    obj = cur @ z
    best = max(best, float(obj.max()))

    q_best = _pairwise_polish(kind, cur[int(np.argmax(obj))], z, p, epsilon)
    return max(best, float(q_best @ z))
