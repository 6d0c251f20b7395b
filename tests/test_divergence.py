import ast
import math
import os

import numpy as np
import pytest

from dro_crm import (ContractViolation, DivergenceKind, LossSample,
                     boltzmann_weights, chi2_quantile_1dof, chi2_radius,
                     divergence, gamma_star_approx,
                     kl_gamma_fixed_point, phi_conjugate, phi_value,
                     robust_risk_chi2, robust_risk_kl_dual,
                     robust_risk_kl_fixed_gamma)
from oracle import dro_oracle

CHI = DivergenceKind.CHI_SQUARE
KL = DivergenceKind.KULLBACK_LEIBLER


def interior_epsilon(sample, rng, low=0.05, high=0.95):
    """A radius for which the chi-square maximizer keeps all weights positive."""
    z = sample.values
    mean, var = sample.mean(), sample.variance()
    thr = var / (mean - z.min()) ** 2
    return float(rng.uniform(low, high)) * thr


class TestGenerators:
    def test_phi_at_one_is_zero(self):
        assert phi_value(CHI, 1.0) == 0.0
        assert phi_value(KL, 1.0) == 0.0

    def test_chi_square_values(self):
        assert phi_value(CHI, 3.0) == 4.0
        assert phi_value(CHI, -0.5) == math.inf

    def test_kl_boundary_values(self):
        assert phi_value(KL, 0.0) == 1.0
        assert phi_value(KL, -1e-9) == math.inf

    def test_coherence_axioms(self):
        # phi(1) = 0, phi'(1) = 0, phi''(1) > 0 by central differences
        h = 1e-5
        for kind in (CHI, KL):
            d1 = (phi_value(kind, 1 + h) - phi_value(kind, 1 - h)) / (2 * h)
            d2 = (phi_value(kind, 1 + h) - 2 * phi_value(kind, 1.0)
                  + phi_value(kind, 1 - h)) / h ** 2
            assert abs(d1) < 1e-9
            assert d2 > 0.5

    def test_conjugate_trivial_points(self):
        assert phi_conjugate(KL, 0.0) == 0.0
        assert phi_conjugate(CHI, 0.0) == 0.0

    def test_conjugate_matches_brute_force_sup(self):
        # sup over a fine t-grid of u*t - phi(t)
        t = np.linspace(0.0, 12.0, 2_000_001)
        for kind in (CHI, KL):
            phis = np.array([phi_value(kind, ti) for ti in t[:: 1000]])
            for u in (-3.0, -1.0, 0.5, 2.0):
                grid_sup = (u * t[::1000] - phis).max()
                assert phi_conjugate(kind, u) >= grid_sup - 1e-9
        # exact value pinned by the grid at u = 2 for the chi-square generator
        coarse = np.linspace(0, 12, 20001)
        sup = max(2.0 * ti - (ti - 1.0) ** 2 for ti in coarse)
        assert phi_conjugate(CHI, 2.0) == pytest.approx(3.0, abs=1e-12)
        assert sup == pytest.approx(3.0, abs=1e-6)


class TestDivergence:
    def test_identical_distributions(self):
        assert divergence(KL, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_chi_square_value(self):
        assert divergence(CHI, [0.75, 0.25], [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_kl_vertex_is_log2(self):
        val = divergence(KL, [1.0, 0.0], [0.5, 0.5])
        assert val == pytest.approx(math.log(2.0), abs=1e-12)
        # grid limit cross-check: q -> vertex along the segment
        for t in (1e-3, 1e-6):
            q = [1.0 - t, t]
            assert divergence(KL, q, [0.5, 0.5]) < val

    def test_absolute_continuity(self):
        assert divergence(KL, [0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            divergence(KL, [1.0], [0.5, 0.5])


class TestLossSample:
    def test_rejects_bad_weights(self):
        with pytest.raises(ContractViolation):
            LossSample(np.array([1.0, 2.0]), np.array([0.7, 0.2]))
        with pytest.raises(ContractViolation):
            LossSample(np.array([1.0, np.nan]))

    def test_uniform_default(self):
        s = LossSample(np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.allclose(s.base_weights, 0.25)
        assert abs(s.base_weights.sum() - 1.0) <= 1e-12


class TestChiSquareRisk:
    def test_constant_losses(self):
        sol = robust_risk_chi2(LossSample(np.array([5.0, 5.0, 5.0])), 1.0)
        assert sol.robust_risk == 5.0
        assert sol.degenerate

    def test_two_point_closed_form(self):
        sol = robust_risk_chi2(LossSample(np.array([1.0, -1.0])), 0.04)
        assert sol.robust_risk == pytest.approx(0.2, abs=1e-14)
        assert np.allclose(sol.worst_case_weights, [0.6, 0.4], atol=1e-14)

    def test_zero_radius_is_mean(self):
        sol = robust_risk_chi2(LossSample(np.array([1.0, -1.0])), 0.0)
        assert sol.robust_risk == 0.0

    def test_single_record(self):
        sol = robust_risk_chi2(LossSample(np.array([2.5])), 3.0)
        assert sol.robust_risk == 2.5
        assert sol.worst_case_weights.tolist() == [1.0]

    def test_interior_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            s = LossSample(rng.normal(size=n))
            eps = interior_epsilon(s, rng)
            sol = robust_risk_chi2(s, eps)
            formula = s.mean() + math.sqrt(eps * s.variance())
            assert sol.robust_risk == pytest.approx(formula, abs=1e-12)
            assert sol.robust_risk == pytest.approx(dro_oracle(s, CHI, eps), abs=1e-4)

    def test_boundary_regime_matches_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            s = LossSample(rng.normal(size=n) * float(rng.uniform(0.5, 2.0)))
            thr = s.variance() / (s.mean() - s.values.min()) ** 2
            eps = thr * float(rng.uniform(1.05, 30.0))
            sol = robust_risk_chi2(s, eps)
            assert sol.robust_risk == pytest.approx(dro_oracle(s, CHI, eps), abs=1e-4)
            assert divergence(CHI, sol.worst_case_weights, s.base_weights) <= eps + 1e-8
            assert abs(sol.worst_case_weights.sum() - 1.0) < 1e-9

    def test_huge_radius_saturates_at_max(self):
        s = LossSample(np.array([0.3, -0.7, 1.9]))
        sol = robust_risk_chi2(s, 1e6)
        assert sol.robust_risk == pytest.approx(1.9, abs=1e-12)


class TestBoltzmann:
    def test_constant_losses_uniform(self):
        s = LossSample(np.array([3.0, 3.0, 3.0]))
        assert np.allclose(boltzmann_weights(s, 0.5), 1.0 / 3.0)

    def test_log2_example(self):
        s = LossSample(np.array([math.log(2.0), 0.0]))
        w = boltzmann_weights(s, 1.0)
        assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_low_temperature_concentrates(self):
        w = boltzmann_weights(LossSample(np.array([10.0, 0.0])), 0.01)
        assert w[0] > 1.0 - 1e-12

    def test_sums_to_one_and_no_nan_at_extreme_ratios(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(-700.0, 700.0, size=10)
            w = boltzmann_weights(LossSample(z), 1.0)
            assert np.all(np.isfinite(w))
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_gamma_must_be_positive(self):
        with pytest.raises(ContractViolation):
            boltzmann_weights(LossSample(np.array([1.0, 0.0])), 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=7)
        w1 = boltzmann_weights(LossSample(z), 0.7)
        w2 = boltzmann_weights(LossSample(z + 13.0), 0.7)
        assert np.allclose(w1, w2, atol=1e-13)


class TestKlFixedGamma:
    def test_constant_losses(self):
        risk, w = robust_risk_kl_fixed_gamma(LossSample(np.array([2.0, 2.0, 2.0])), 0.3)
        assert risk == pytest.approx(2.0, abs=1e-14)

    def test_high_temperature_is_mean(self):
        risk, _ = robust_risk_kl_fixed_gamma(LossSample(np.array([1.0, 0.0])), 1e6)
        assert risk == pytest.approx(0.5, abs=1e-6)

    def test_unit_temperature_value(self):
        # e/(e+1) = 0.73105857863000487...; cross-checked at 50 digits below
        risk, _ = robust_risk_kl_fixed_gamma(LossSample(np.array([1.0, 0.0])), 1.0)
        assert risk == pytest.approx(0.7310585786300049, abs=1e-15)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            exact = mpmath.e / (mpmath.e + 1)
            assert abs(risk - float(exact)) < 1e-15


class TestKlDual:
    def test_constant_losses(self):
        sol = robust_risk_kl_dual(LossSample(np.array([4.0, 4.0])), 0.5)
        assert sol.robust_risk == 4.0
        assert sol.degenerate

    def test_two_point_vs_oracle(self):
        s = LossSample(np.array([1.0, 0.0]))
        sol = robust_risk_kl_dual(s, 0.1)
        assert 0.5 <= sol.robust_risk <= 1.0
        assert sol.robust_risk == pytest.approx(dro_oracle(s, KL, 0.1), abs=1e-4)

    def test_huge_radius_saturates(self):
        sol = robust_risk_kl_dual(LossSample(np.array([1.0, 0.0])), 100.0)
        assert sol.robust_risk == pytest.approx(1.0, abs=1e-12)
        assert sol.saturated
        assert np.allclose(sol.worst_case_weights, [1.0, 0.0])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            s = LossSample(rng.normal(size=n))
            eps = float(rng.uniform(0.005, 0.4))
            sol = robust_risk_kl_dual(s, eps)
            assert sol.robust_risk == pytest.approx(dro_oracle(s, KL, eps), abs=1e-4)
            assert divergence(KL, sol.worst_case_weights, s.base_weights) <= eps + 1e-8

    def test_weights_saturate_radius(self):
        s = LossSample(np.array([0.9, -0.2, 0.1, 0.4]))
        sol = robust_risk_kl_dual(s, 0.07)
        assert divergence(KL, sol.worst_case_weights, s.base_weights) == pytest.approx(
            0.07, abs=1e-7)

    def test_requires_positive_radius(self):
        with pytest.raises(ContractViolation):
            robust_risk_kl_dual(LossSample(np.array([1.0, 0.0])), 0.0)


class TestKlFixedPoint:
    def test_agrees_with_dual_minimizer(self):
        s = LossSample(np.array([1.0, 0.0]))
        fp = kl_gamma_fixed_point(s, 0.1, 1.0)
        dual = robust_risk_kl_dual(s, 0.1)
        assert fp.converged
        assert fp.gamma == pytest.approx(dual.gamma, rel=1e-5)

    def test_initialization_independent(self):
        s = LossSample(np.array([1.0, 0.0]))
        g1 = kl_gamma_fixed_point(s, 0.1, 1.0).gamma
        g2 = kl_gamma_fixed_point(s, 0.1, 10.0).gamma
        assert g1 == pytest.approx(g2, rel=1e-6)

    def test_shift_leaves_gamma_fixed_and_shifts_risk(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(0.2, 1.0, size=12)
        s1, s2 = LossSample(z), LossSample(z + 3.0)
        d1, d2 = robust_risk_kl_dual(s1, 0.05), robust_risk_kl_dual(s2, 0.05)
        assert d2.gamma == pytest.approx(d1.gamma, rel=1e-7)
        assert d2.robust_risk == pytest.approx(d1.robust_risk + 3.0, rel=1e-10)

    def test_fallback_on_divergent_iteration(self):
        # all-negative losses make the literal iteration collapse toward 0;
        # the bisection result is returned flagged
        rng = np.random.default_rng(10)
        s = LossSample(rng.uniform(-1.0, 0.0, size=50))
        fp = kl_gamma_fixed_point(s, 0.01, 1.0)
        assert fp.fell_back
        dual = robust_risk_kl_dual(s, 0.01)
        assert fp.gamma == pytest.approx(dual.gamma, rel=1e-6)

    def test_rejects_constant_losses(self):
        with pytest.raises(ContractViolation):
            kl_gamma_fixed_point(LossSample(np.array([1.0, 1.0])), 0.1, 1.0)


class TestGammaApprox:
    def test_formula(self):
        s = LossSample(np.array([2.0, -2.0]))  # variance 4, so sqrt(4/(2*2)) = 1
        assert gamma_star_approx(s, 2.0).gamma == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_on_constant(self):
        res = gamma_star_approx(LossSample(np.array([3.0, 3.0])), 0.5)
        assert res.degenerate and res.gamma == 0.0

    def test_small_radius_accuracy(self):
        s = LossSample(np.array([1.0, 0.0]))
        res = gamma_star_approx(s, 0.005)
        assert res.gamma == pytest.approx(5.0, abs=1e-12)
        exact = kl_gamma_fixed_point(s, 0.005, 1.0).gamma
        assert abs(res.gamma - exact) / exact < 0.05


class TestOracle:
    def test_zero_radius_returns_mean(self):
        s = LossSample(np.array([3.0, -1.0, 0.5]))
        assert dro_oracle(s, CHI, 0.0) == pytest.approx(s.mean(), abs=1e-15)
        assert dro_oracle(s, KL, 0.0) == pytest.approx(s.mean(), abs=1e-15)

    def test_rejects_large_n(self):
        with pytest.raises(ContractViolation):
            dro_oracle(LossSample(np.zeros(13) + np.arange(13)), CHI, 0.1)

    def test_two_point_chi2(self):
        s = LossSample(np.array([1.0, -1.0]))
        assert dro_oracle(s, CHI, 0.04) == pytest.approx(0.2, abs=1e-6)

    def test_imports_none_of_the_code_it_verifies(self):
        # The oracle checks the closed forms and the dual only while it
        # computes without them: from the package it may take the sample
        # type, the divergence kind and the error class, nothing else.
        path = os.path.join(os.path.dirname(__file__), "oracle.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        package_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "dro_crm" for a in node.names), \
                    "import the allowed names with 'from dro_crm... import'"
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in the oracle"
                if node.module.split(".")[0] == "dro_crm":
                    package_names |= {a.name for a in node.names}
        assert package_names <= {"DivergenceKind", "LossSample", "ContractViolation"}, \
            sorted(package_names)
        verified = ("robust_risk_", "kl_gamma_fixed_point", "gamma_star_approx",
                    "boltzmann_weights", "divergence", "phi_value", "phi_conjugate")
        imported = {a.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
        assert not {name for name in imported if name.startswith(verified)}


class TestRiskProperties:
    def test_monotone_in_radius(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            s = LossSample(rng.normal(size=n))
            eps_grid = np.sort(rng.uniform(1e-4, 2.0, size=10))
            chi_vals = [robust_risk_chi2(s, e).robust_risk for e in eps_grid]
            kl_vals = [robust_risk_kl_dual(s, e).robust_risk for e in eps_grid]
            assert all(b >= a - 1e-10 for a, b in zip(chi_vals, chi_vals[1:]))
            assert all(b >= a - 1e-10 for a, b in zip(kl_vals, kl_vals[1:]))

    def test_sandwich_between_mean_and_max(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            s = LossSample(rng.normal(size=n))
            eps = float(rng.uniform(0.0, 3.0))
            for sol in (robust_risk_chi2(s, eps),
                        robust_risk_kl_dual(s, eps) if eps > 0 else None):
                if sol is None:
                    continue
                assert sol.robust_risk >= s.mean() - 1e-10
                assert sol.robust_risk <= s.values.max() + 1e-10

    def test_shift_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            z = rng.normal(size=6)
            c = float(rng.normal()) * 5.0
            eps = float(rng.uniform(0.01, 0.5))
            r1 = robust_risk_chi2(LossSample(z), eps).robust_risk
            r2 = robust_risk_chi2(LossSample(z + c), eps).robust_risk
            assert r2 == pytest.approx(r1 + c, abs=1e-10)
            k1 = robust_risk_kl_dual(LossSample(z), eps).robust_risk
            k2 = robust_risk_kl_dual(LossSample(z + c), eps).robust_risk
            assert k2 == pytest.approx(k1 + c, abs=1e-8)

    def test_kl_remainder_with_matched_constant_decays(self):
        # with the curvature-matched constant sqrt(2 eps_n var) the rescaled
        # remainder vanishes as n grows, for a symmetric law
        rng = np.random.default_rng(24)
        meds = []
        for n in (100, 1000, 10000):
            vals = []
            for _ in range(30):
                s = LossSample(rng.random(n))
                eps_n = 1.0 / n
                r = robust_risk_kl_dual(s, eps_n).robust_risk
                vals.append(math.sqrt(n) * abs(
                    r - s.mean() - math.sqrt(2.0 * eps_n * s.variance())))
            meds.append(float(np.median(vals)))
        assert meds[0] > meds[1] > meds[2]
        assert meds[2] < 0.1 * meds[0]


class TestChi2Quantile:
    def test_known_values(self):
        assert chi2_quantile_1dof(0.05) == pytest.approx(3.841458820694124, abs=1e-9)
        assert chi2_quantile_1dof(0.3173) == pytest.approx(1.0, abs=1e-3)

    def test_against_density_integration(self):
        quad = pytest.importorskip("scipy.integrate")

        def chi2_cdf(x):
            # integrate the chi-square(1) density via the substitution x = u^2
            val, _ = quad.quad(lambda u: 2.0 * math.exp(-0.5 * u * u)
                               / math.sqrt(2.0 * math.pi), 0.0, math.sqrt(x))
            return val

        for delta in (0.05, 0.10, 0.3173, 0.5, 0.9):
            x = chi2_quantile_1dof(delta)
            assert chi2_cdf(x) == pytest.approx(1.0 - delta, abs=1e-9)

    def test_tends_to_zero_as_delta_to_one(self):
        assert chi2_quantile_1dof(1.0 - 1e-9) < 1e-15

    def test_radius_helper(self):
        assert chi2_radius(0.05, 100) == pytest.approx(chi2_quantile_1dof(0.05) / 100)

    def test_domain(self):
        with pytest.raises(ContractViolation):
            chi2_quantile_1dof(0.0)
        with pytest.raises(ContractViolation):
            chi2_quantile_1dof(1.0)
