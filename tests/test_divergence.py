import ast
import math
import os

import numpy as np
import pytest

from dro_crm import (ContractViolation, LossSample, boltzmann_weights,
                     gamma_star_approx, robust_risk_chi2)
from dro_crm.objectives import RULES
from kl_dual import kl_gamma_fixed_point, robust_risk_kl_dual
from oracle import DivergenceKind, divergence_rows, dro_oracle

CHI = DivergenceKind.CHI_SQUARE
KL = DivergenceKind.KULLBACK_LEIBLER


def divergence(kind, q, p):
    """D(q || p) of one pair by the oracle's row-wise divergence."""
    return float(divergence_rows(kind, np.asarray(q, dtype=float)[None, :],
                                 np.asarray(p, dtype=float))[0])


def interior_epsilon(sample, rng, low=0.05, high=0.95):
    """A radius for which the chi-square maximizer keeps all weights positive."""
    z = sample.values
    mean, var = sample.mean(), sample.variance()
    thr = var / (mean - z.min()) ** 2
    return float(rng.uniform(low, high)) * thr


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


class TestLossSample:
    def test_rejects_non_finite_losses(self):
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

    def test_radius_must_be_nonnegative(self):
        for eps in (-0.1, math.nan):
            with pytest.raises(ContractViolation, match="epsilon must be nonnegative"):
                robust_risk_chi2(LossSample(np.array([1.0, -1.0])), eps)

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
        for gamma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ContractViolation, match="gamma must be positive and finite"):
                boltzmann_weights(LossSample(np.array([1.0, 0.0])), gamma)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=7)
        w1 = boltzmann_weights(LossSample(z), 0.7)
        w2 = boltzmann_weights(LossSample(z + 13.0), 0.7)
        assert np.allclose(w1, w2, atol=1e-13)


def klcrm_risk(z, gamma):
    """Risk of the klcrm rule: the tilted mean at a fixed temperature."""
    return RULES["klcrm"][1](np.asarray(z, dtype=float), gamma).robust_risk


class TestKlFixedGamma:
    def test_constant_losses(self):
        risk = klcrm_risk([2.0, 2.0, 2.0], 0.3)
        assert risk == pytest.approx(2.0, abs=1e-14)

    def test_high_temperature_is_mean(self):
        risk = klcrm_risk([1.0, 0.0], 1e6)
        assert risk == pytest.approx(0.5, abs=1e-6)

    def test_unit_temperature_value(self):
        # e/(e+1) = 0.73105857863000487...; cross-checked at 50 digits below
        risk = klcrm_risk([1.0, 0.0], 1.0)
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

    def test_radius_must_be_positive_and_finite(self):
        # inf gave gamma 0 without the degenerate flag, nan gave gamma nan
        for epsilon in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ContractViolation, match="epsilon must be positive and finite"):
                gamma_star_approx(LossSample(np.array([1.0, 0.0, 2.0])), epsilon)

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
        # type and the error class, nothing else, and the KL dual in
        # kl_dual.py not at all.
        path = os.path.join(os.path.dirname(__file__), "oracle.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        package_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "dro_crm" for a in node.names), \
                    "import the allowed names with 'from dro_crm... import'"
                assert not any(a.name.split(".")[0] == "kl_dual" for a in node.names), \
                    "the oracle imports the KL dual it verifies"
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in the oracle"
                assert node.module.split(".")[0] != "kl_dual", \
                    "the oracle imports the KL dual it verifies"
                if node.module.split(".")[0] == "dro_crm":
                    package_names |= {a.name for a in node.names}
        assert package_names <= {"LossSample", "ContractViolation"}, \
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
