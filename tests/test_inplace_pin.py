"""The evaluation path against its arithmetic written out as whole-array numpy
expressions, bit for bit.

The package builds each array it returns in place and writes into no array it
was passed.  The references below form every intermediate as its own array,
one expression each, so a changed operation, operand order or buffer shows
here as a changed byte.  `TestFoldedKernelPin` cannot see such a change: its
reference calls the package's own `logit_terms` and rules."""

import math

import numpy as np
import pytest

from dro_crm import BanditLog, PolicyParams, boltzmann_weights, evaluate, gamma_star_approx
from dro_crm import divergence, policy
from dro_crm.objectives import RULES, rule_for


# ---------------------------------------------------------------------------
# The references
# ---------------------------------------------------------------------------

def ref_logit_terms(U):
    U = np.clip(U, -500.0, 500.0)
    e = np.exp(-np.abs(U))
    return U, e, np.maximum(U, 0.0) + np.log1p(e)


def ref_sigmoid_from(U, e):
    return np.maximum(e, U >= 0.0) / (1.0 + e)


def ref_log_prob(Y, U, softplus):
    Y = Y.reshape(-1, *U.shape)
    return (np.einsum("dij,ij->di", Y, U) - softplus.sum(axis=1)).ravel()


def ref_score_gradient(c, Y, U, e, X):
    n_ex, q = U.shape
    c = c.reshape(-1, n_ex)
    R = np.einsum("di,dij->ij", c, Y.reshape(-1, n_ex, q))
    R = R - c.sum(axis=0)[:, None] * ref_sigmoid_from(U, e)
    G = np.zeros((q, X.shape[1]))
    for i in range(0, n_ex, 256):
        G = G + R[i:i + 256].T @ X[i:i + 256]
    return G


def ref_effectively_constant(z):
    return float(z.max() - z.min()) <= 1e-14 * max(1.0, float(np.abs(z).max()))


def ref_face(za, pa, n, epsilon):
    k = za.size
    mean = float(pa @ za) / (k / n)
    slack = epsilon - (n - k) / k
    if slack == 0.0 or ref_effectively_constant(za):
        return mean, pa / (k / n)
    scatter = float(pa @ (za - mean) ** 2)
    beta = math.sqrt(slack / scatter)
    return mean + math.sqrt(slack * scatter), pa * (n / k + beta * (za - mean))


def ref_chi2(z, epsilon):
    n = z.size
    p = np.full(n, 1.0 / n)
    risk, q = ref_face(z, p, n, epsilon)
    if q.min() >= -1e-15:
        return risk, np.maximum(q, 0.0)
    order = np.argsort(z)
    top = z[order[::-1]]
    d = top - top[0]
    k, s1, s2 = np.arange(1.0, n + 1.0), np.cumsum(d), np.cumsum(d * d)
    slack = epsilon - (n - k) / k
    with np.errstate(divide="ignore", invalid="ignore"):
        worst = (n / k + np.sqrt(slack * n / (s2 - s1 * s1 / k)) * (d - s1 / k)) / n
    equal = -d <= 1e-14 * np.maximum(max(1.0, abs(top[0])), np.abs(top))
    stop = np.flatnonzero((equal | (slack <= 0.0) | (worst >= -1e-15))[:-1])
    support = np.sort(order[n - 1 - stop[-1]:])
    risk, qa = ref_face(z[support], p[support], n, epsilon)
    q = np.zeros(n)
    q[support] = np.maximum(qa, 0.0)
    return risk, q


def ref_boltzmann(z, gamma):
    p = np.full(z.size, 1.0 / z.size)
    a = z / gamma
    w = p * np.exp(a - a.max())
    return w / w.sum()


def ref_gamma_star(z, epsilon):
    if ref_effectively_constant(z):
        return 0.0
    p = np.full(z.size, 1.0 / z.size)
    mean = float(p @ z)
    return math.sqrt(float(p @ (z - mean) ** 2) / (2.0 * epsilon))


def ref_rule(algorithm, z, hyper):
    if algorithm == "cips":
        return (*ref_chi2(z, 0.0), None)
    if algorithm == "poem":
        return (*ref_chi2(z, hyper * hyper / z.size), None)
    gamma = hyper if algorithm == "klcrm" else ref_gamma_star(z, hyper / z.size)
    if gamma == 0.0:
        return (*ref_chi2(z, 0.0), 0.0)
    s = ref_boltzmann(z, gamma)
    return float(s @ z), s, gamma


def ref_report(algorithm, params, log, hyper):
    """(ratio, clipped, losses, risk, weights, gamma, gradient)."""
    U, e, softplus = ref_logit_terms(log.X @ params.weights.T)
    log_pi = ref_log_prob(log.Y, U, softplus)
    ratio = np.exp(np.minimum(log_pi - log.log_propensities, 700.0))
    clipped = ratio >= log.clip_m
    losses = log.costs * np.minimum(ratio, log.clip_m)
    risk, weights, gamma = ref_rule(algorithm, losses, hyper)
    c = weights * np.where(clipped, 0.0, log.costs * ratio)
    return (ratio, clipped, losses, risk, weights, gamma,
            ref_score_gradient(c, log.Y, U, e, log.X))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def edge_logits(rng, shape):
    """Seeded logits with entries beyond +-500, exact +-0.0 and +-500."""
    U = rng.normal(scale=4.0, size=shape)
    flat = U.reshape(-1)
    picks = rng.choice(flat.size, size=8 * 6, replace=False).reshape(8, 6)
    flat[picks[0]] = 0.0
    flat[picks[1]] = -0.0
    flat[picks[2]] = rng.uniform(500.0, 1e4, size=6)
    flat[picks[3]] = -rng.uniform(500.0, 1e4, size=6)
    flat[picks[4]] = 500.0
    flat[picks[5]] = -500.0
    flat[picks[6]] = rng.uniform(30.0, 40.0, size=6)
    flat[picks[7]] = -rng.uniform(30.0, 40.0, size=6)
    return U


def make_log(rng, n_ex, q, delta, d=6):
    """(log, W0): a replay-major log whose costs are Hamming-like (so losses
    tie), whose features give logits beyond +-500 at weights of scale 1, and
    whose propensities scatter around pi at W0, so that at W0 some records
    clip at M = 2 and others do not."""
    X = rng.normal(size=(n_ex, d))
    X[:5] *= 400.0
    X[5] = 0.0
    X[:, -1] = 1.0
    X[5, -1] = 0.0
    Y = (rng.random((delta * n_ex, q)) < 0.4).astype(np.float64)
    W0 = 0.3 * rng.normal(size=(q, d))
    log_pi = ref_log_prob(Y, *ref_logit_terms(X @ W0.T)[::2])
    log_p = np.minimum(log_pi + rng.normal(size=log_pi.size), 0.0)
    costs = rng.integers(0, q + 1, size=delta * n_ex) * (1.0 / q) - 1.0
    return BanditLog(X, Y, log_p, costs, 2.0), W0


def frozen(*arrays):
    return [np.array(a, copy=True) for a in arrays]


def unchanged(before, after):
    return all(same(b, a) for b, a in zip(before, after))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

class TestPolicyArithmetic:
    @pytest.mark.parametrize("shape", [(300, 3), (300, 14), (1, 1)])
    def test_logit_terms_sigmoid_and_log_prob(self, shape):
        rng = np.random.default_rng(shape[1])
        U0 = edge_logits(rng, shape) if shape[0] > 1 else np.array([[-0.0]])
        before = frozen(U0)
        got, want = policy.logit_terms(U0), ref_logit_terms(U0)
        assert all(same(g, w) for g, w in zip(got, want))
        assert unchanged(before, [U0])
        U, e, softplus = got
        kept = frozen(U, e, softplus)
        assert same(policy._sigmoid_from(U, e), ref_sigmoid_from(U, e))
        assert same(policy.sigmoid(U0), ref_sigmoid_from(*ref_logit_terms(U0)[:2]))
        for delta in (1, 4):
            Y = (rng.random((delta * shape[0], shape[1])) < 0.5).astype(np.float64)
            y_kept = frozen(Y)
            assert same(policy.log_prob(Y, U, softplus), ref_log_prob(Y, U, softplus))
            assert unchanged(y_kept, [Y])
        assert unchanged(kept, [U, e, softplus]) and unchanged(before, [U0])

    @pytest.mark.parametrize("delta", [1, 4])
    @pytest.mark.parametrize("q", [3, 14])
    def test_score_gradient(self, delta, q):
        rng = np.random.default_rng(10 * delta + q)
        n_ex, d = 600, 7  # three 256-row blocks
        X = rng.normal(size=(n_ex, d))
        U, e, _ = ref_logit_terms(edge_logits(rng, (n_ex, q)))
        Y = (rng.random((delta * n_ex, q)) < 0.5).astype(np.float64)
        c = rng.normal(size=delta * n_ex)
        c[rng.random(c.size) < 0.2] = 0.0
        before = frozen(c, Y, U, e, X)
        assert same(policy.score_gradient(c, Y, U, e, X), ref_score_gradient(c, Y, U, e, X))
        assert unchanged(before, [c, Y, U, e, X])

    def test_policy_params_refuses_non_finite(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(Exception, match="weights must be finite"):
                PolicyParams(np.array([[0.0, bad]]))


class TestRuleArithmetic:
    @staticmethod
    def vectors(rng):
        yield rng.normal(size=700)
        yield np.round(rng.normal(size=500), 1)  # ties
        yield np.full(9, -0.25)                 # constant
        yield np.array([-0.5, -0.5 + 1e-16, -0.5])
        yield np.array([3.0])
        yield -rng.integers(0, 5, size=320) / 4.0  # Hamming-like ties
        yield np.r_[np.zeros(40), -1.0]
        yield np.r_[1e150, rng.normal(size=30)]

    def test_effectively_constant_and_gamma_star(self):
        rng = np.random.default_rng(41)
        for z in self.vectors(rng):
            before = frozen(z)
            assert divergence._effectively_constant(z) == ref_effectively_constant(z)
            for eps in (1e-6, 0.1, 3.0):
                assert same(gamma_star_approx(z, eps), ref_gamma_star(z, eps))
            assert unchanged(before, [z])

    def test_boltzmann(self):
        rng = np.random.default_rng(42)
        for z in self.vectors(rng):
            for gamma in (1e-3, 0.3, 1.0, 7.5, 1e4):
                before = frozen(z)
                got = boltzmann_weights(z, gamma)
                assert same(got, ref_boltzmann(z, gamma)), gamma
                assert unchanged(before, [z])

    def test_chi2_in_both_regimes(self):
        rng = np.random.default_rng(43)
        regimes = set()
        for z in self.vectors(rng):
            for eps in (0.0, 1e-4, 0.05, 1.0, 30.0, 1e4):
                before = frozen(z)
                risk, q = divergence.robust_risk_chi2(z, eps)
                want = ref_chi2(z, eps)
                assert same(risk, want[0]) and same(q, want[1]), eps
                assert unchanged(before, [z])
                regimes.add(bool((q == 0.0).any()))
        assert regimes == {False, True}

    def test_face(self):
        rng = np.random.default_rng(44)
        z = rng.normal(size=300)
        n = 400
        pa = np.full(z.size, 1.0 / n)
        for eps in (1 / 3, 0.5, 2.0):
            before = frozen(z, pa)
            got, want = divergence._face(z, pa, n, eps), ref_face(z, pa, n, eps)
            assert same(got[0], want[0]) and same(got[1], want[1])
            assert unchanged(before, [z, pa])


class TestEvaluationArithmetic:
    HYPERS = {"cips": [None], "poem": [0.4, 30.0], "klcrm": [0.3, 5.0],
              "aklcrm": [0.05, 1.0]}

    @pytest.mark.parametrize("delta", [1, 4])
    @pytest.mark.parametrize("q", [3, 14])
    def test_every_rule(self, delta, q):
        rng = np.random.default_rng(100 + 10 * delta + q)
        log, W0 = make_log(rng, 300, q, delta)
        kept = frozen(log.X, log.Y, log.log_propensities, log.costs)
        seen = {"clipped": 0, "unclipped": 0, "beyond": 0, "support": 0}
        for weights in (np.zeros_like(W0), W0, W0 + rng.normal(size=W0.shape)):
            params = PolicyParams(weights)
            w_kept = frozen(params.weights)
            U = log.X @ params.weights.T
            seen["beyond"] += int((np.abs(U) > 500.0).sum())
            for alg, hypers in self.HYPERS.items():
                for hyper in hypers:
                    got = evaluate(alg, params, log, hyper)
                    g = got.gradient()
                    ratio, clipped, losses, risk, q_w, gamma, grad = ref_report(
                        alg, params, log, hyper)
                    assert same(got.ratio, ratio), (alg, hyper)
                    assert same(got.clipped, clipped), (alg, hyper)
                    assert same(got.losses, losses), (alg, hyper)
                    assert same(got.risk, risk) and got.gamma_used == gamma, (alg, hyper)
                    assert same(got.weights, q_w), (alg, hyper)
                    assert same(g, grad), (alg, hyper)
                    assert same(got.gradient(), grad), (alg, hyper)  # the report is reusable
                    if alg == "poem":
                        seen["support"] += int((q_w == 0.0).any())
                    assert unchanged(kept, [log.X, log.Y, log.log_propensities, log.costs])
                    assert unchanged(w_kept, [params.weights])
            seen["clipped"] += int(clipped.sum())
            seen["unclipped"] += int((~clipped).sum())
        assert all(seen.values()), seen
        assert rule_for("cips", None) is RULES["cips"][1]
