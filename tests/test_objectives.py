import hashlib
import math

import numpy as np
import pytest

from dro_crm import (BanditLog, ContractViolation, LoggerSpec, LossSample,
                     PolicyParams, akl_crm_objective, cips_risk,
                     gamma_star_approx, generate_bandit_log, ips_risk,
                     kl_crm_objective, make_objective, poem_objective,
                     robust_risk_chi2, sample_losses, synthetic_multilabel,
                     train_logger)
from dro_crm.bandit import SupervisedDataset
from dro_crm.objectives import RULES
from oracle import enumerate_actions
from toy_logs import one_feature_log, sample_log


def two_point_log():
    """Losses [1, 0] at theta = 0: a zero feature, propensities 0.5."""
    return one_feature_log([0.0, 0.0], [[1], [0]], [0.5, 0.5], [1.0, 0.0], 2.0)


def fd_gradient(fun, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(theta.size):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += h
        tm[i] -= h
        g[i] = (fun(tp) - fun(tm)) / (2 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)


class TestSampleLosses:
    def test_logger_as_target_gives_costs(self):
        rng = np.random.default_rng(0)
        log, logger = sample_log(rng, n=12)
        z, clipped = sample_losses(logger, log)
        assert np.allclose(z, log.costs, atol=1e-12)
        assert not clipped.any()

    def test_clipping(self):
        # sigma(u) = 0.9 against propensity 0.1: ratio 9, clipped at 5
        u = math.log(9.0)
        log = one_feature_log([1.0], [[1]], [0.1], [-0.5], clip_m=5.0)
        params = PolicyParams(np.array([[u]]))
        z, clipped = sample_losses(params, log)
        assert clipped[0]
        assert z[0] == pytest.approx(-0.5 * 5.0, rel=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        log, _ = sample_log(rng, n=6, q=2, d=3)
        params = PolicyParams(0.3 * rng.normal(size=(2, 3)))
        z, _ = sample_losses(params, log)
        for i in range(log.n):
            u = params.weights @ log.X[i]
            logz = math.log(sum(math.exp(float(y @ u))
                                for y in enumerate_actions(2)))
            lp = float(log.Y[i] @ u) - logz
            ratio = math.exp(lp - log.log_propensities[i])
            assert z[i] == pytest.approx(
                log.costs[i] * min(log.clip_m, ratio), rel=1e-10)


class TestIpsRisk:
    def test_logger_recovers_mean_cost(self):
        rng = np.random.default_rng(2)
        log, logger = sample_log(rng, n=20)
        assert ips_risk(logger, log) == pytest.approx(float(log.costs.mean()), abs=1e-12)

    def test_single_record_ratio(self):
        log = one_feature_log([1.0], [[1]], [0.25], [-2.0], clip_m=100.0)
        params = PolicyParams(np.zeros((1, 1)))  # pi(y) = 0.5, ratio 2
        assert ips_risk(params, log) == pytest.approx(-4.0, rel=1e-12)

    def test_equals_clipped_mean_when_clip_never_binds(self):
        rng = np.random.default_rng(3)
        log, _ = sample_log(rng, n=10, clip_m=1e18)
        params = PolicyParams(0.3 * rng.normal(size=(2, 3)))
        z, _ = sample_losses(params, log)
        assert ips_risk(params, log) == pytest.approx(float(z.mean()), rel=1e-12)


class TestCips:
    def test_all_clipped_zero_gradient(self):
        u = math.log(9.0)
        log = one_feature_log([1.0] * 3, [[1]] * 3, [0.1] * 3, [-1.0] * 3, clip_m=2.0)
        report = cips_risk(PolicyParams(np.array([[u]])), log)
        assert np.all(report.gradient == 0.0)

    def test_two_record_mean(self):
        log = two_point_log()
        report = cips_risk(PolicyParams.zeros(1, 1), log)
        assert report.risk == pytest.approx(0.5)
        assert np.allclose(report.weights, 0.5)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            log, _ = sample_log(rng, n=7)
            theta = 0.3 * rng.normal(size=6)

            def value(t):
                return cips_risk(PolicyParams(t.reshape(2, 3)), log).risk

            g = cips_risk(PolicyParams(theta.reshape(2, 3)), log).gradient.ravel()
            assert rel_err(g, fd_gradient(value, theta)) < 1e-5


class TestPoem:
    def test_zero_penalty_equals_cips(self):
        rng = np.random.default_rng(5)
        log, _ = sample_log(rng)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        a = poem_objective(params, log, 0.0)
        b = cips_risk(params, log)
        assert a.risk == b.risk
        assert np.array_equal(a.gradient, b.gradient)

    def test_constant_losses_no_penalty(self):
        log = one_feature_log([0.0] * 4, [[1]] * 4, [0.5] * 4, [-0.5] * 4, 2.0)
        report = poem_objective(PolicyParams.zeros(1, 1), log, 3.0)
        assert report.risk == pytest.approx(-0.5, abs=1e-14)

    def test_bridges_to_chi_square_robust_risk(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            log, _ = sample_log(rng, n=10)
            params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
            lam = float(rng.uniform(0.01, 0.5))
            report = poem_objective(params, log, lam)
            z, _ = sample_losses(params, log)
            sol = robust_risk_chi2(LossSample(z), lam * lam / log.n)
            assert abs(report.risk - sol.robust_risk) <= 1e-10

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            log, _ = sample_log(rng, n=9)
            lam = float(rng.uniform(0.05, 1.0))
            theta = 0.3 * rng.normal(size=6)

            def value(t):
                return poem_objective(PolicyParams(t.reshape(2, 3)), log, lam).risk

            g = poem_objective(PolicyParams(theta.reshape(2, 3)), log, lam).gradient.ravel()
            assert rel_err(g, fd_gradient(value, theta)) < 1e-5


class TestKlCrm:
    def test_huge_temperature_is_cips(self):
        rng = np.random.default_rng(8)
        log, _ = sample_log(rng)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        a = kl_crm_objective(params, log, 1e9)
        b = cips_risk(params, log)
        assert abs(a.risk - b.risk) <= 1e-8

    def test_low_temperature_is_max_loss(self):
        rng = np.random.default_rng(9)
        log, _ = sample_log(rng)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        z, _ = sample_losses(params, log)
        spread = float(z.max() - z.min())
        report = kl_crm_objective(params, log, 1e-6 * spread)
        assert report.risk == pytest.approx(float(z.max()), abs=1e-9)

    def test_frozen_weight_gradient(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            log, _ = sample_log(rng, n=8)
            gamma = float(rng.uniform(0.2, 5.0))
            theta = 0.3 * rng.normal(size=6)
            report = kl_crm_objective(PolicyParams(theta.reshape(2, 3)), log, gamma)
            s0 = report.weights

            def surrogate(t):
                z, _ = sample_losses(PolicyParams(t.reshape(2, 3)), log)
                return float(s0 @ z)

            assert rel_err(report.gradient.ravel(), fd_gradient(surrogate, theta)) < 1e-5

    def test_requires_positive_temperature(self):
        log = two_point_log()
        with pytest.raises(ContractViolation):
            kl_crm_objective(PolicyParams.zeros(1, 1), log, 0.0)


class TestAklCrm:
    def test_constant_losses_degenerate(self):
        log = one_feature_log([0.0] * 4, [[1]] * 4, [0.5] * 4, [-0.25] * 4, 2.0)
        report = akl_crm_objective(PolicyParams.zeros(1, 1), log, 0.1)
        assert report.degenerate
        assert report.risk == pytest.approx(-0.25, abs=1e-14)
        assert np.allclose(report.weights, 0.25)

    def test_huge_radius_hardest_example(self):
        rng = np.random.default_rng(12)
        log, _ = sample_log(rng)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        z, _ = sample_losses(params, log)
        report = akl_crm_objective(params, log, 1e12)
        assert report.risk == pytest.approx(float(z.max()), abs=1e-6)

    def test_hand_evaluated_two_point_instance(self):
        # z = [1, 0], eps = 0.25: temperature sqrt(0.5/0.5) = 1, risk e/(e+1)
        log = two_point_log()
        report = akl_crm_objective(PolicyParams.zeros(1, 1), log, 0.25)
        assert report.gamma_used == pytest.approx(1.0, abs=1e-14)
        assert report.risk == pytest.approx(math.e / (math.e + 1.0), abs=1e-14)

    def test_variance_rule(self):
        # the rule sqrt(var(z) / (2 eps)) is the sum-of-squares rule at radius n eps
        rng = np.random.default_rng(14)
        cases = [(two_point_log(), PolicyParams.zeros(1, 1), 0.25)]
        for _ in range(5):
            log, _ = sample_log(rng)
            cases.append((log, PolicyParams(0.3 * rng.normal(size=(2, 3))),
                          float(rng.uniform(0.01, 1.0))))
        for log, params, eps in cases:
            z, _ = sample_losses(params, log)
            report = akl_crm_objective(params, log, log.n * eps)
            assert report.gamma_used == pytest.approx(
                gamma_star_approx(LossSample(z), eps).gamma, rel=1e-12)
        # variance of [1,0] is 0.25: gamma = sqrt(0.25/0.5)
        report = akl_crm_objective(PolicyParams.zeros(1, 1), two_point_log(), 2 * 0.25)
        assert report.gamma_used == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_frozen_gradient(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            log, _ = sample_log(rng, n=8)
            eps = float(rng.uniform(0.05, 1.0))
            theta = 0.3 * rng.normal(size=6)
            report = akl_crm_objective(PolicyParams(theta.reshape(2, 3)), log, eps)
            s0 = report.weights

            def surrogate(t):
                z, _ = sample_losses(PolicyParams(t.reshape(2, 3)), log)
                return float(s0 @ z)

            assert rel_err(report.gradient.ravel(), fd_gradient(surrogate, theta)) < 1e-5


class TestWorstCaseWeights:
    """Each rule's gradient is sum_i q_i dz_i/dtheta with q its reported
    weights.  For cips and poem, whose q maximizes over a chi-square ball,
    that is also the gradient of the risk, inside and outside the ball's
    interior regime."""

    EVALUATE = {"cips": lambda p, log, _: cips_risk(p, log), "poem": poem_objective,
                "klcrm": kl_crm_objective, "aklcrm": akl_crm_objective}

    def test_gradient_is_weighted_loss_gradient(self):
        assert set(self.EVALUATE) == set(RULES)
        rng = np.random.default_rng(23)
        draw = {"cips": lambda: None, "poem": lambda: float(rng.uniform(0.05, 3.0)),
                "klcrm": lambda: float(rng.uniform(0.2, 5.0)),
                "aklcrm": lambda: float(rng.uniform(0.05, 1.0))}
        poem_on_face = 0
        for _ in range(20):
            log, _ = sample_log(rng, n=8)
            theta = 0.3 * rng.normal(size=6)
            params = PolicyParams(theta.reshape(2, 3))
            z, clipped = sample_losses(params, log)
            assert not clipped.any()
            for alg in RULES:
                hyper = draw[alg]()
                report = self.EVALUATE[alg](params, log, hyper)
                q = report.weights

                def weighted(t, q=q):
                    return float(q @ sample_losses(PolicyParams(t.reshape(2, 3)), log)[0])

                g = report.gradient.ravel()
                assert rel_err(g, fd_gradient(weighted, theta)) < 1e-5, alg
                if alg in ("cips", "poem"):
                    def value(t, alg=alg, hyper=hyper):
                        return self.EVALUATE[alg](PolicyParams(t.reshape(2, 3)), log, hyper).risk

                    assert rel_err(g, fd_gradient(value, theta)) < 1e-5, alg
                if alg == "poem":
                    sol = robust_risk_chi2(LossSample(z), hyper * hyper / log.n)
                    assert np.array_equal(q, sol.worst_case_weights)
                    assert q.sum() == pytest.approx(1.0, abs=1e-12)
                    poem_on_face += bool(np.any(q == 0.0))
        assert 0 < poem_on_face < 20  # both chi-square regimes were exercised


class TestObjectiveProperties:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        log, _ = sample_log(rng, n=10)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        perm = rng.permutation(log.n)
        shuffled = BanditLog(log.X[perm], log.Y[perm], log.log_propensities[perm],
                             log.costs[perm], log.clip_m, log.cost_scaling)
        for fn in (lambda p, l: cips_risk(p, l).risk,
                   lambda p, l: poem_objective(p, l, 0.3).risk,
                   lambda p, l: kl_crm_objective(p, l, 0.7).risk,
                   lambda p, l: akl_crm_objective(p, l, 0.2).risk):
            assert fn(params, shuffled) == pytest.approx(fn(params, log), abs=1e-11)

    def test_akl_pessimism_and_monotonicity(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            log, _ = sample_log(rng, n=9)
            params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
            base = cips_risk(params, log).risk
            prev = -np.inf
            for eps in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
                risk = akl_crm_objective(params, log, eps).risk
                assert risk >= base - 1e-12
                assert risk >= prev - 1e-10
                prev = risk

    def test_make_objective_adapter(self):
        rng = np.random.default_rng(16)
        log, _ = sample_log(rng)
        fun, shape = make_objective("poem", log, 0.1)
        assert shape == (2, 3)
        theta = 0.1 * rng.normal(size=6)
        f, g = fun(theta)
        report = poem_objective(PolicyParams(theta.reshape(2, 3)), log, 0.1)
        assert f == report.risk
        assert np.array_equal(g, report.gradient.ravel())
        with pytest.raises(ContractViolation):
            make_objective("poem", log, None)
        with pytest.raises(ContractViolation):
            make_objective("nope", log, 0.1)

    def test_record_validation(self):
        for propensity in (0.0, 1.5):
            with pytest.raises(ContractViolation), np.errstate(divide="ignore"):
                one_feature_log([1.0], [[1]], [propensity], [1.0], 1.0)
        with pytest.raises(ContractViolation):
            one_feature_log([1.0], [[1]], [0.5], [math.nan], 1.0)
        with pytest.raises(ContractViolation):
            BanditLog(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0), np.zeros(0), 1.0)


class TestReplayLayoutEquivalence:
    """The per-example log (features once, records pointing in by example id)
    against a reference written here over a log whose features are tiled once
    per record, with the per-record formulas: log pi from logaddexp, three-exp
    sigmoid, gradient as one (records x features) product."""

    DELTA = 3

    @staticmethod
    def _log():
        ds = synthetic_multilabel(40, 5, 3, seed=21)
        logger = train_logger(ds, LoggerSpec())
        return generate_bandit_log(logger, ds, delta=TestReplayLayoutEquivalence.DELTA,
                                   seed=4), ds

    @staticmethod
    def _reference(params, log, X_tiled, rule):
        W = params.weights
        U = np.clip(X_tiled @ W.T, -500.0, 500.0)
        log_pi = (log.Y * U).sum(axis=1) - np.logaddexp(0.0, U).sum(axis=1)
        ratio = np.exp(np.minimum(log_pi - log.log_propensities, 700.0))
        clipped = ratio >= log.clip_m
        z = log.costs * np.minimum(ratio, log.clip_m)
        dz = np.where(clipped, 0.0, log.costs * ratio)
        sig = np.where(U >= 0.0, 1.0 / (1.0 + np.exp(-U)), np.exp(U) / (1.0 + np.exp(U)))
        n = z.size
        if rule == "ips":
            return float(np.mean(log.costs * ratio)), None
        if rule == "cips":
            risk, coeff = z.mean(), dz / n
        elif rule == "poem":
            lam = 0.4
            var = np.mean((z - z.mean()) ** 2)
            risk = z.mean() + lam * np.sqrt(var / n)
            pref = lam / (2.0 * np.sqrt(var / n))
            coeff = dz / n + pref * (2.0 / n) * (z - z.mean()) / n * dz
        else:
            if rule == "aklcrm":
                gamma = np.sqrt(((z - z.mean()) ** 2).sum() / (2.0 * 0.05))
            else:
                gamma = 0.3
            s = np.exp((z - z.max()) / gamma)
            s /= s.sum()
            risk = s @ z
            coeff = s * dz
        grad = (coeff[:, None] * (log.Y - sig)).T @ X_tiled
        return float(risk), grad

    def test_matches_tiled_reference(self):
        log, ds = self._log()
        assert log.X.shape[0] == ds.n_examples
        assert log.n == self.DELTA * ds.n_examples
        X_tiled = np.tile(ds.X, (self.DELTA, 1))
        assert np.array_equal(log.X[log.example_ids], X_tiled)
        evaluators = {
            "cips": lambda p: cips_risk(p, log),
            "poem": lambda p: poem_objective(p, log, 0.4),
            "klcrm": lambda p: kl_crm_objective(p, log, 0.3),
            "aklcrm": lambda p: akl_crm_objective(p, log, 0.05),
        }
        rng = np.random.default_rng(22)
        for _ in range(5):
            params = PolicyParams(0.8 * rng.normal(size=(3, 5)))
            for rule, evaluate in evaluators.items():
                report = evaluate(params)
                risk, grad = self._reference(params, log, X_tiled, rule)
                assert report.risk == pytest.approx(risk, rel=1e-12, abs=0.0), rule
                assert rel_err(report.gradient, grad) < 1e-12, rule
            ips, _ = self._reference(params, log, X_tiled, "ips")
            assert ips_risk(params, log) == pytest.approx(ips, rel=1e-12, abs=0.0)

    def test_generated_records_unchanged(self):
        # Dyadic features and weights make the logits exact, so the digest
        # does not depend on the BLAS summation order.  It was computed with
        # the tiled-feature implementation of generate_bandit_log.
        rng = np.random.default_rng(2024)
        X = rng.integers(-8, 9, size=(12, 4)) / 8.0
        Y = rng.integers(0, 2, size=(12, 3)).astype(np.float64)
        W = rng.integers(-4, 5, size=(3, 4)) / 4.0
        log = generate_bandit_log(PolicyParams(W), SupervisedDataset(X, Y), delta=3, seed=11)
        digest = hashlib.sha256(log.Y.tobytes() + log.log_propensities.tobytes()
                                + log.costs.tobytes()).hexdigest()
        assert digest == "6ce41ba7a40f4931edaca966982fb45769708f6578803a9c66e857f1c3c9c0e3"
        assert log.X is X
        assert np.array_equal(log.example_ids, np.tile(np.arange(12), 3))
