import hashlib
import math

import numpy as np
import pytest

from dro_crm import (BanditLog, ContractViolation, PolicyParams, evaluate,
                     gamma_star_approx,
                     generate_bandit_log, ips_risk, make_objective,
                     robust_risk_chi2, synthetic_multilabel, train_logger)
from dro_crm.bandit import SupervisedDataset
from dro_crm.objectives import RULES, _rule
from gather_kernel import gather_report
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
        report = evaluate("cips", logger, log)
        z, clipped = report.losses, report.clipped
        assert np.array_equal(z, log.costs)
        assert not clipped.any()

    def test_clipping(self):
        # sigma(u) = 0.9 against propensity 0.1: ratio 9, clipped at 5
        u = math.log(9.0)
        log = one_feature_log([1.0], [[1]], [0.1], [-0.5], clip_m=5.0)
        params = PolicyParams(np.array([[u]]))
        report = evaluate("cips", params, log)
        z, clipped = report.losses, report.clipped
        assert clipped[0]
        assert z[0] == pytest.approx(-0.5 * 5.0, rel=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        log, _ = sample_log(rng, n=6, q=2, d=3)
        params = PolicyParams(0.3 * rng.normal(size=(2, 3)))
        z = evaluate("cips", params, log).losses
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
        z = evaluate("cips", params, log).losses
        assert ips_risk(params, log) == pytest.approx(float(z.mean()), rel=1e-12)


class TestCips:
    def test_all_clipped_zero_gradient(self):
        u = math.log(9.0)
        log = one_feature_log([1.0] * 3, [[1]] * 3, [0.1] * 3, [-1.0] * 3, clip_m=2.0)
        report = evaluate("cips", PolicyParams(np.array([[u]])), log)
        assert np.all(report.gradient() == 0.0)

    def test_two_record_mean(self):
        log = two_point_log()
        report = evaluate("cips", PolicyParams.zeros(1, 1), log)
        assert report.risk == pytest.approx(0.5)
        assert np.allclose(report.weights, 0.5)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            log, _ = sample_log(rng, n=7)
            theta = 0.3 * rng.normal(size=6)

            def value(t):
                return evaluate("cips", PolicyParams(t.reshape(2, 3)), log).risk

            g = evaluate("cips", PolicyParams(theta.reshape(2, 3)), log).gradient().ravel()
            assert rel_err(g, fd_gradient(value, theta)) < 1e-5


class TestPoem:
    def test_zero_penalty_equals_cips(self):
        rng = np.random.default_rng(5)
        log, _ = sample_log(rng)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        a = evaluate("poem", params, log, 0.0)
        b = evaluate("cips", params, log)
        assert a.risk == b.risk
        assert np.array_equal(a.gradient(), b.gradient())

    def test_constant_losses_no_penalty(self):
        log = one_feature_log([0.0] * 4, [[1]] * 4, [0.5] * 4, [-0.5] * 4, 2.0)
        report = evaluate("poem", PolicyParams.zeros(1, 1), log, 3.0)
        assert report.risk == pytest.approx(-0.5, abs=1e-14)

    def test_bridges_to_chi_square_robust_risk(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            log, _ = sample_log(rng, n=10)
            params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
            lam = float(rng.uniform(0.01, 0.5))
            report = evaluate("poem", params, log, lam)
            z = evaluate("cips", params, log).losses
            risk, _ = robust_risk_chi2(z, lam * lam / log.n)
            assert abs(report.risk - risk) <= 1e-10

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            log, _ = sample_log(rng, n=9)
            lam = float(rng.uniform(0.05, 1.0))
            theta = 0.3 * rng.normal(size=6)

            def value(t):
                return evaluate("poem", PolicyParams(t.reshape(2, 3)), log, lam).risk

            g = evaluate("poem", PolicyParams(theta.reshape(2, 3)), log, lam).gradient().ravel()
            assert rel_err(g, fd_gradient(value, theta)) < 1e-5


class TestKlCrm:
    def test_huge_temperature_is_cips(self):
        rng = np.random.default_rng(8)
        log, _ = sample_log(rng)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        a = evaluate("klcrm", params, log, 1e9)
        b = evaluate("cips", params, log)
        assert abs(a.risk - b.risk) <= 1e-8

    def test_low_temperature_is_max_loss(self):
        rng = np.random.default_rng(9)
        log, _ = sample_log(rng)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        z = evaluate("cips", params, log).losses
        spread = float(z.max() - z.min())
        report = evaluate("klcrm", params, log, 1e-6 * spread)
        assert report.risk == pytest.approx(float(z.max()), abs=1e-9)

    def test_frozen_weight_gradient(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            log, _ = sample_log(rng, n=8)
            gamma = float(rng.uniform(0.2, 5.0))
            theta = 0.3 * rng.normal(size=6)
            report = evaluate("klcrm", PolicyParams(theta.reshape(2, 3)), log, gamma)
            s0 = report.weights

            def surrogate(t):
                z = evaluate("cips", PolicyParams(t.reshape(2, 3)), log).losses
                return float(s0 @ z)

            assert rel_err(report.gradient().ravel(), fd_gradient(surrogate, theta)) < 1e-5

    def test_requires_positive_temperature(self):
        log = two_point_log()
        with pytest.raises(ContractViolation):
            evaluate("klcrm", PolicyParams.zeros(1, 1), log, 0.0)


class TestAklCrm:
    def test_constant_losses_degenerate(self):
        log = one_feature_log([0.0] * 4, [[1]] * 4, [0.5] * 4, [-0.25] * 4, 2.0)
        report = evaluate("aklcrm", PolicyParams.zeros(1, 1), log, 0.1)
        assert report.gamma_used == 0.0
        assert report.risk == pytest.approx(-0.25, abs=1e-14)
        assert np.allclose(report.weights, 0.25)

    def test_roundoff_spread_is_constant(self):
        # Losses that differ at roundoff scale count as constant for every
        # rule: the uniform-weight mean, and no temperature for aklcrm.
        z = np.array([1.0, 1.0 + 2.2e-16, 1.0])
        log = one_feature_log([0.0] * 3, [[1]] * 3, [0.5] * 3, z, 2.0)
        uniform = np.full(3, 1.0 / 3.0)
        for alg, hyper in (("cips", None), ("poem", 3.0), ("aklcrm", 0.1)):
            report = evaluate(alg, PolicyParams.zeros(1, 1), log, hyper)
            assert np.array_equal(report.losses, z), alg
            assert report.risk == float(uniform @ z), alg
            assert np.array_equal(report.weights, uniform), alg
        assert report.gamma_used == 0.0

    def test_huge_radius_hardest_example(self):
        rng = np.random.default_rng(12)
        log, _ = sample_log(rng)
        params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
        z = evaluate("cips", params, log).losses
        report = evaluate("aklcrm", params, log, 1e12)
        assert report.risk == pytest.approx(float(z.max()), abs=1e-6)

    def test_hand_evaluated_two_point_instance(self):
        # z = [1, 0], eps = 0.25: temperature sqrt(0.5/0.5) = 1, risk e/(e+1)
        log = two_point_log()
        report = evaluate("aklcrm", PolicyParams.zeros(1, 1), log, 0.25)
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
            z = evaluate("cips", params, log).losses
            report = evaluate("aklcrm", params, log, log.n * eps)
            assert report.gamma_used == pytest.approx(
                gamma_star_approx(z, eps), rel=1e-12)
        # variance of [1,0] is 0.25: gamma = sqrt(0.25/0.5)
        report = evaluate("aklcrm", PolicyParams.zeros(1, 1), two_point_log(), 2 * 0.25)
        assert report.gamma_used == pytest.approx(math.sqrt(0.5), rel=1e-12)

    def test_frozen_gradient(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            log, _ = sample_log(rng, n=8)
            eps = float(rng.uniform(0.05, 1.0))
            theta = 0.3 * rng.normal(size=6)
            report = evaluate("aklcrm", PolicyParams(theta.reshape(2, 3)), log, eps)
            s0 = report.weights

            def surrogate(t):
                z = evaluate("cips", PolicyParams(t.reshape(2, 3)), log).losses
                return float(s0 @ z)

            assert rel_err(report.gradient().ravel(), fd_gradient(surrogate, theta)) < 1e-5


class TestWorstCaseWeights:
    """Each rule's gradient is sum_i q_i dz_i/dtheta with q its reported
    weights.  For cips and poem, whose q maximizes over a chi-square ball,
    that is also the gradient of the risk, inside and outside the ball's
    interior regime."""

    def test_gradient_is_weighted_loss_gradient(self):
        rng = np.random.default_rng(23)
        draw = {"cips": lambda: None, "poem": lambda: float(rng.uniform(0.05, 3.0)),
                "klcrm": lambda: float(rng.uniform(0.2, 5.0)),
                "aklcrm": lambda: float(rng.uniform(0.05, 1.0))}
        poem_on_face = 0
        for _ in range(20):
            log, _ = sample_log(rng, n=8)
            theta = 0.3 * rng.normal(size=6)
            params = PolicyParams(theta.reshape(2, 3))
            cips = evaluate("cips", params, log)
            z = cips.losses
            assert not cips.clipped.any()
            for alg in RULES:
                hyper = draw[alg]()
                report = evaluate(alg, params, log, hyper)
                q = report.weights

                def weighted(t, q=q):
                    z = evaluate("cips", PolicyParams(t.reshape(2, 3)), log).losses
                    return float(q @ z)

                g = report.gradient().ravel()
                assert rel_err(g, fd_gradient(weighted, theta)) < 1e-5, alg
                if alg in ("cips", "poem"):
                    def value(t, alg=alg, hyper=hyper):
                        return evaluate(alg, PolicyParams(t.reshape(2, 3)), log, hyper).risk

                    assert rel_err(g, fd_gradient(value, theta)) < 1e-5, alg
                if alg == "poem":
                    _, worst_case_weights = robust_risk_chi2(z, hyper * hyper / log.n)
                    assert np.array_equal(q, worst_case_weights)
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
                             log.costs[perm], log.clip_m)
        hypers = {"cips": None, "poem": 0.3, "klcrm": 0.7, "aklcrm": 0.2}
        for alg in RULES:
            hyper = hypers[alg]
            assert evaluate(alg, params, shuffled, hyper).risk == pytest.approx(
                evaluate(alg, params, log, hyper).risk, abs=1e-11), alg

    def test_akl_pessimism_and_monotonicity(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            log, _ = sample_log(rng, n=9)
            params = PolicyParams(0.2 * rng.normal(size=(2, 3)))
            base = evaluate("cips", params, log).risk
            prev = -np.inf
            for eps in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
                risk = evaluate("aklcrm", params, log, eps).risk
                assert risk >= base - 1e-12
                assert risk >= prev - 1e-10
                prev = risk

    def test_make_objective_adapter(self):
        rng = np.random.default_rng(16)
        log, _ = sample_log(rng)
        theta = 0.1 * rng.normal(size=6)
        for algorithm, hyper in (("cips", None), ("poem", 0.1), ("klcrm", 0.5),
                                 ("aklcrm", 0.1)):
            fun, shape = make_objective(algorithm, log, hyper)
            assert shape == (2, 3)
            f, grad = fun(theta)
            report = evaluate(algorithm, PolicyParams(theta.reshape(2, 3)), log, hyper)
            assert f == report.risk
            assert fun.last_gamma == report.gamma_used
            assert grad().tobytes() == report.gradient().ravel().tobytes()
        with pytest.raises(ContractViolation):
            make_objective("poem", log, None)
        with pytest.raises(ContractViolation):
            make_objective("nope", log, 0.1)

    @pytest.mark.parametrize("algorithm", [alg for alg, (name, _) in RULES.items() if name])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_hyper_rejected(self, algorithm, value):
        log, _ = sample_log(np.random.default_rng(17))
        message = f"^{RULES[algorithm][0]} must be finite"
        with pytest.raises(ContractViolation, match=message):
            evaluate(algorithm, PolicyParams.zeros(2, 3), log, value)
        with pytest.raises(ContractViolation, match=message):
            make_objective(algorithm, log, value)

    def test_record_validation(self):
        for propensity in (0.0, 1.5):
            with pytest.raises(ContractViolation), np.errstate(divide="ignore"):
                one_feature_log([1.0], [[1]], [propensity], [1.0], 1.0)
        with pytest.raises(ContractViolation):
            one_feature_log([1.0], [[1]], [0.5], [math.nan], 1.0)
        with pytest.raises(ContractViolation):
            BanditLog(np.zeros((0, 1)), np.zeros((0, 1)), np.zeros(0), np.zeros(0), 1.0)


class TestFoldedKernelPin:
    """The replay-major kernel against the per-record gather and bincount
    kernel it replaced (`gather_kernel.py`), bit for bit."""

    HYPERS = {"cips": None, "poem": 0.4, "klcrm": 0.3, "aklcrm": 0.05}

    @pytest.mark.parametrize("delta", [1, 3, 4])
    @pytest.mark.parametrize("q", [3, 14])
    def test_bit_equal_to_gather_kernel(self, delta, q):
        ds = synthetic_multilabel(37, 6, q, seed=30 + q)
        rng = np.random.default_rng(delta * q)
        logger = PolicyParams(0.3 * rng.normal(size=(q, 6)))
        log = generate_bandit_log(logger, ds, delta=delta, seed=delta)
        assert log.n == delta * ds.n_examples
        # near-certain of the least likely logged action at its example: that
        # record's ratio is 1 / min propensity >= clip_m, so it clips
        k = int(np.argmin(log.log_propensities))
        x = ds.X[k % ds.n_examples]
        sure = 50.0 * np.outer(2.0 * log.Y[k] - 1.0, x) / (x @ x)
        n_clipped = 0
        for weights in (np.zeros((q, 6)), 0.3 * rng.normal(size=(q, 6)),
                        1.5 * rng.normal(size=(q, 6)), 4.0 * logger.weights, sure):
            params = PolicyParams(weights)
            for alg, hyper in self.HYPERS.items():
                got = evaluate(alg, params, log, hyper)
                want = gather_report(params, log, _rule(alg, hyper), hyper)
                for name in ("ratio", "clipped", "losses", "weights"):
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (alg, name)
                assert got.risk == want.risk, alg
                assert got.gamma_used == want.gamma_used, alg
                assert np.array_equal(got.gradient(), want.gradient()), alg
            n_clipped += int(got.clipped.sum())
        assert 0 < n_clipped < 4 * log.n  # both sides of the clip were pinned


class TestReplayLayoutEquivalence:
    """The replay-major log (features once, passes folded onto the examples)
    against a reference written here over a log whose features are tiled once
    per record, with the per-record formulas: log pi from logaddexp, three-exp
    sigmoid, gradient as one (records x features) product."""

    DELTA = 3

    @staticmethod
    def _log():
        ds = synthetic_multilabel(40, 5, 3, seed=21)
        logger = train_logger(ds)
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
        hypers = {"cips": None, "poem": 0.4, "klcrm": 0.3, "aklcrm": 0.05}
        rng = np.random.default_rng(22)
        for _ in range(5):
            params = PolicyParams(0.8 * rng.normal(size=(3, 5)))
            for rule in RULES:
                report = evaluate(rule, params, log, hypers[rule])
                risk, grad = self._reference(params, log, X_tiled, rule)
                assert report.risk == pytest.approx(risk, rel=1e-12, abs=0.0), rule
                assert rel_err(report.gradient(), grad) < 1e-12, rule
            ips, _ = self._reference(params, log, X_tiled, "ips")
            assert ips_risk(params, log) == pytest.approx(ips, rel=1e-12, abs=0.0)

    def test_generated_records_unchanged(self):
        # Dyadic features and weights make the logits exact, so the digests
        # do not depend on the BLAS summation order.  The first pins the
        # draws of default_rng((seed, stream, d)) per pass; a record-at-a-time
        # reference of that rule gave the same actions and costs.  The second
        # pins the propensities, which are the kernel's log pi (policy.log_prob).
        rng = np.random.default_rng(2024)
        X = rng.integers(-8, 9, size=(12, 4)) / 8.0
        Y = rng.integers(0, 2, size=(12, 3)).astype(np.float64)
        W = rng.integers(-4, 5, size=(3, 4)) / 4.0
        log = generate_bandit_log(PolicyParams(W), SupervisedDataset(X, Y), delta=3, seed=11)
        digest = hashlib.sha256(log.Y.tobytes() + log.costs.tobytes()).hexdigest()
        assert digest == "47b4e0338a6352e1b9fd51918fa8563957ebb0b26a15a79095890f6cdaf8d6ae"
        digest = hashlib.sha256(log.log_propensities.tobytes()).hexdigest()
        assert digest == "d78da036788c1d93805534142581e08a0eed7a5f1e3849a5a4bdef94f2e6871e"
        assert log.X is X
        assert np.array_equal(log.example_ids, np.tile(np.arange(12), 3))
