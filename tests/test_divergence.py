import ast
import decimal
import math
import os

import numpy as np
import pytest

from chi2_active_set import robust_risk_chi2_active_set
from dro_crm import (ContractViolation, boltzmann_weights, gamma_star_approx,
                     robust_risk_chi2)
from dro_crm.divergence import _face
from dro_crm.objectives import RULES
from kl_dual import kl_gamma_fixed_point, robust_risk_kl_dual
from oracle import DivergenceKind, divergence_rows, dro_oracle

CHI = DivergenceKind.CHI_SQUARE
KL = DivergenceKind.KULLBACK_LEIBLER


def divergence(kind, q, p):
    """D(q || p) of one pair by the oracle's row-wise divergence."""
    return float(divergence_rows(kind, np.asarray(q, dtype=float)[None, :],
                                 np.asarray(p, dtype=float))[0])


def interior_epsilon(z, rng, low=0.05, high=0.95):
    """A radius for which the chi-square maximizer keeps all weights positive."""
    thr = z.var() / (z.mean() - z.min()) ** 2
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


class TestLossVector:
    def test_rejects_non_finite_losses(self):
        for z in (np.array([1.0, np.nan]), np.array([np.inf, 0.0]), np.zeros(0),
                  np.zeros((2, 2))):
            for call in (lambda: robust_risk_chi2(z, 0.1),
                         lambda: boltzmann_weights(z, 1.0),
                         lambda: gamma_star_approx(z, 0.1)):
                with pytest.raises(ContractViolation, match="losses must be"):
                    call()

    def test_uniform_default(self):
        _, p = robust_risk_chi2(np.array([1.0, 2.0, 3.0, 4.0]), 0.0)
        assert np.allclose(p, 0.25)
        assert abs(p.sum() - 1.0) <= 1e-12


class TestChiSquareRisk:
    def test_constant_losses(self):
        risk, q = robust_risk_chi2(np.array([5.0, 5.0, 5.0]), 1.0)
        assert risk == 5.0
        assert np.array_equal(q, np.full(3, 1.0 / 3.0))

    def test_two_point_closed_form(self):
        risk, q = robust_risk_chi2(np.array([1.0, -1.0]), 0.04)
        assert risk == pytest.approx(0.2, abs=1e-14)
        assert np.allclose(q, [0.6, 0.4], atol=1e-14)

    def test_zero_radius_is_mean(self):
        risk, _ = robust_risk_chi2(np.array([1.0, -1.0]), 0.0)
        assert risk == 0.0

    def test_radius_must_be_nonnegative(self):
        for eps in (-0.1, math.nan):
            with pytest.raises(ContractViolation, match="epsilon must be nonnegative"):
                robust_risk_chi2(np.array([1.0, -1.0]), eps)

    def test_single_record(self):
        risk, q = robust_risk_chi2(np.array([2.5]), 3.0)
        assert risk == 2.5
        assert q.tolist() == [1.0]

    def test_interior_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(2, 9))
            z = rng.normal(size=n)
            eps = interior_epsilon(z, rng)
            risk, _ = robust_risk_chi2(z, eps)
            formula = z.mean() + math.sqrt(eps * z.var())
            assert risk == pytest.approx(formula, abs=1e-12)
            assert risk == pytest.approx(dro_oracle(z, CHI, eps), abs=1e-4)

    def test_boundary_regime_matches_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            z = rng.normal(size=n) * float(rng.uniform(0.5, 2.0))
            thr = z.var() / (z.mean() - z.min()) ** 2
            eps = thr * float(rng.uniform(1.05, 30.0))
            risk, q = robust_risk_chi2(z, eps)
            assert risk == pytest.approx(dro_oracle(z, CHI, eps), abs=1e-4)
            assert divergence(CHI, q, np.full(n, 1.0 / n)) <= eps + 1e-8
            assert abs(q.sum() - 1.0) < 1e-9

    def test_huge_radius_saturates_at_max(self):
        risk, _ = robust_risk_chi2(np.array([0.3, -0.7, 1.9]), 1e6)
        assert risk == pytest.approx(1.9, abs=1e-12)

    def test_zero_radius_is_the_uniform_face_solve(self):
        # cips's radius 0 runs the face solve on all n losses with beta = 0:
        # the same bits as the plain mean under uniform weights
        rng = np.random.default_rng(45)
        for z in (rng.normal(size=4500), np.full(7, -0.3), np.array([2.5])):
            p = np.full(z.size, 1.0 / z.size)
            risk, q = robust_risk_chi2(z, 0.0)
            assert risk == float(p @ z)
            assert np.array_equal(q, p)

    def test_face_with_the_radius_used_up_is_uniform(self):
        # two of four losses hold half the base mass: uniform weights on
        # them sit exactly at radius 1, the face's one feasible point
        risk, qa = _face(np.array([3.0, 4.0]), np.full(2, 0.25), 4, 1.0)
        assert risk == 3.5
        assert qa.tolist() == [0.5, 0.5]

    def test_face_beyond_the_radius_raises(self):
        # two of four losses hold half the base mass: uniform weights on
        # them already sit at radius 1, so radius 0.5 cannot reach the face
        with pytest.raises(ArithmeticError, match="does not reach the face"):
            _face(np.array([1.0, 2.0]), np.full(2, 0.25), 4, 0.5)

    def test_boundary_solve_runs_on_the_support_in_index_order(self):
        # the sort only chooses the support; the sums run in index order,
        # so the result does not depend on how the sort orders the losses
        rng = np.random.default_rng(44)
        for _ in range(20):
            z = rng.normal(size=50)
            eps = 3.0 * z.var() / (z.mean() - z.min()) ** 2
            risk, q = robust_risk_chi2(z, eps)
            face = q > 0.0
            assert 1 < face.sum() < z.size
            r, qa = _face(z[face], np.full(face.sum(), 1.0 / z.size), z.size, eps)
            assert risk == r and np.array_equal(q[face], qa)


def chi2_loss_vectors(rng):
    """(kind, z) over the shapes the comparison with the loop covers."""
    for n in (1, 2, 3, 5, 17, 100, 400, 2000):
        cluster = -3.0 + 1e-9 * rng.random(n)  # one outlier over a tight cluster
        cluster[rng.integers(n)] = float(rng.uniform(-2.0, 5.0))
        yield from [
            ("normal", rng.normal(size=n)),
            ("exponential", -rng.exponential(size=n)),
            ("clipped ips", -np.minimum(rng.lognormal(0.0, 2.0, n), 20.0)
             * rng.integers(0, 7, n) / 6.0),
            ("integer ties", rng.integers(-3, 1, n).astype(float)),
            ("pareto", -rng.pareto(1.1, n)),
            ("outlier", cluster),
        ]
        if n > 16:  # heavy ties, like logged Hamming costs and binary losses
            yield from [("hamming ties", rng.integers(0, 15, n) / 14.0 - 1.0),
                        ("binary ties", rng.integers(0, 2, n) - 1.0)]


class TestChiSquareAgainstActiveSetLoop:
    def test_matches_the_drop_one_loop(self):
        # Interior results are bit-identical.  Past the interior the sort
        # picks the loop's support, so the risk agrees to roundoff and so
        # do the weights, except on a support whose spread is nonzero but
        # below 1e-9 of its scale: there beta ~ 1e12 amplifies the roundoff
        # in z - mean (on losses -3 + 1e-12 * normal the two versions'
        # weights differ by about 1e-3, their risks by 1e-16).
        rng = np.random.default_rng(2026)
        counts = {"interior": 0, "face": 0, "raise": 0}  # face: weights compared
        for _ in range(4):
            for kind, z in chi2_loss_vectors(rng):
                for eps in 10.0 ** rng.uniform(-9.0, 4.0, size=3):
                    try:
                        ref = robust_risk_chi2_active_set(z, eps)
                    except ArithmeticError:
                        with pytest.raises(ArithmeticError):
                            robust_risk_chi2(z, eps)
                        counts["raise"] += 1
                        continue
                    risk, q = robust_risk_chi2(z, eps)
                    where = (kind, z.size, eps)
                    # the loop's interior test, which returns before any drop
                    if np.ptp(z) <= 1e-14 * max(1.0, np.abs(z).max()) or (
                            1.0 + math.sqrt(eps / z.var()) * (z - z.mean())).min() >= 0.0:
                        assert risk == ref[0] and np.array_equal(q, ref[1]), where
                        counts["interior"] += 1
                        continue
                    assert abs(risk - ref[0]) <= 1e-12 * abs(ref[0]), where
                    support = z[ref[1] > 0.0]
                    if not 0.0 < np.ptp(support) < 1e-9 * np.abs(support).max():
                        assert np.abs(q - ref[1]).max() <= 1e-12, where
                        counts["face"] += 1
        assert counts["interior"] > 100 and counts["face"] > 100, counts


class TestBoltzmann:
    def test_constant_losses_uniform(self):
        assert np.allclose(boltzmann_weights(np.array([3.0, 3.0, 3.0]), 0.5), 1.0 / 3.0)

    def test_log2_example(self):
        w = boltzmann_weights(np.array([math.log(2.0), 0.0]), 1.0)
        assert np.allclose(w, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_low_temperature_concentrates(self):
        w = boltzmann_weights(np.array([10.0, 0.0]), 0.01)
        assert w[0] > 1.0 - 1e-12

    def test_sums_to_one_and_no_nan_at_extreme_ratios(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.uniform(-700.0, 700.0, size=10)
            w = boltzmann_weights(z, 1.0)
            assert np.all(np.isfinite(w))
            assert abs(w.sum() - 1.0) <= 1e-12

    def test_gamma_must_be_positive(self):
        for gamma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ContractViolation, match="gamma must be positive and finite"):
                boltzmann_weights(np.array([1.0, 0.0]), gamma)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=7)
        w1 = boltzmann_weights(z, 0.7)
        w2 = boltzmann_weights(z + 13.0, 0.7)
        assert np.allclose(w1, w2, atol=1e-13)


def klcrm_risk(z, gamma):
    """Risk of the klcrm rule: the tilted mean at a fixed temperature."""
    risk, _, _ = RULES["klcrm"][1](np.asarray(z, dtype=float), gamma)
    return risk


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
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            e = decimal.Decimal(1).exp()
            exact = e / (e + 1)
        assert abs(risk - float(exact)) < 1e-15


class TestKlDual:
    def test_constant_losses(self):
        sol = robust_risk_kl_dual(np.array([4.0, 4.0]), 0.5)
        assert sol.robust_risk == 4.0
        assert sol.gamma is None and np.array_equal(sol.worst_case_weights, [0.5, 0.5])

    def test_two_point_vs_oracle(self):
        z = np.array([1.0, 0.0])
        sol = robust_risk_kl_dual(z, 0.1)
        assert 0.5 <= sol.robust_risk <= 1.0
        assert sol.robust_risk == pytest.approx(dro_oracle(z, KL, 0.1), abs=1e-4)

    def test_huge_radius_saturates(self):
        sol = robust_risk_kl_dual(np.array([1.0, 0.0]), 100.0)
        assert sol.robust_risk == pytest.approx(1.0, abs=1e-12)
        assert sol.saturated
        assert np.allclose(sol.worst_case_weights, [1.0, 0.0])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            z = rng.normal(size=n)
            eps = float(rng.uniform(0.005, 0.4))
            sol = robust_risk_kl_dual(z, eps)
            assert sol.robust_risk == pytest.approx(dro_oracle(z, KL, eps), abs=1e-4)
            assert divergence(KL, sol.worst_case_weights, np.full(n, 1.0 / n)) <= eps + 1e-8

    def test_weights_saturate_radius(self):
        sol = robust_risk_kl_dual(np.array([0.9, -0.2, 0.1, 0.4]), 0.07)
        assert divergence(KL, sol.worst_case_weights, np.full(4, 0.25)) == pytest.approx(
            0.07, abs=1e-7)

    def test_requires_positive_radius(self):
        with pytest.raises(ContractViolation):
            robust_risk_kl_dual(np.array([1.0, 0.0]), 0.0)


class TestKlFixedPoint:
    def test_agrees_with_dual_minimizer(self):
        z = np.array([1.0, 0.0])
        fp = kl_gamma_fixed_point(z, 0.1, 1.0)
        dual = robust_risk_kl_dual(z, 0.1)
        assert fp.converged
        assert fp.gamma == pytest.approx(dual.gamma, rel=1e-5)

    def test_initialization_independent(self):
        z = np.array([1.0, 0.0])
        g1 = kl_gamma_fixed_point(z, 0.1, 1.0).gamma
        g2 = kl_gamma_fixed_point(z, 0.1, 10.0).gamma
        assert g1 == pytest.approx(g2, rel=1e-6)

    def test_shift_leaves_gamma_fixed_and_shifts_risk(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(0.2, 1.0, size=12)
        d1, d2 = robust_risk_kl_dual(z, 0.05), robust_risk_kl_dual(z + 3.0, 0.05)
        assert d2.gamma == pytest.approx(d1.gamma, rel=1e-7)
        assert d2.robust_risk == pytest.approx(d1.robust_risk + 3.0, rel=1e-10)

    def test_fallback_on_divergent_iteration(self):
        # all-negative losses make the literal iteration collapse toward 0;
        # the bisection result is returned flagged
        rng = np.random.default_rng(10)
        z = rng.uniform(-1.0, 0.0, size=50)
        fp = kl_gamma_fixed_point(z, 0.01, 1.0)
        assert fp.fell_back
        dual = robust_risk_kl_dual(z, 0.01)
        assert fp.gamma == pytest.approx(dual.gamma, rel=1e-6)

    def test_rejects_constant_losses(self):
        with pytest.raises(ContractViolation):
            kl_gamma_fixed_point(np.array([1.0, 1.0]), 0.1, 1.0)


class TestGammaStarApprox:
    def test_formula(self):
        z = np.array([2.0, -2.0])  # variance 4, so sqrt(4/(2*2)) = 1
        assert gamma_star_approx(z, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_on_constant(self):
        assert gamma_star_approx(np.array([3.0, 3.0]), 0.5) == 0.0

    def test_radius_must_be_positive_and_finite(self):
        # inf gave gamma 0 as if the losses were constant, nan gave gamma nan
        for epsilon in (0.0, -0.5, math.nan, math.inf):
            with pytest.raises(ContractViolation, match="epsilon must be positive and finite"):
                gamma_star_approx(np.array([1.0, 0.0, 2.0]), epsilon)

    def test_small_radius_accuracy(self):
        z = np.array([1.0, 0.0])
        gamma = gamma_star_approx(z, 0.005)
        assert gamma == pytest.approx(5.0, abs=1e-12)
        exact = kl_gamma_fixed_point(z, 0.005, 1.0).gamma
        assert abs(gamma - exact) / exact < 0.05


class TestOracle:
    def test_zero_radius_returns_mean(self):
        z = np.array([3.0, -1.0, 0.5])
        assert dro_oracle(z, CHI, 0.0) == pytest.approx(z.mean(), abs=1e-15)
        assert dro_oracle(z, KL, 0.0) == pytest.approx(z.mean(), abs=1e-15)

    def test_rejects_large_n(self):
        with pytest.raises(ContractViolation):
            dro_oracle(np.zeros(13) + np.arange(13), CHI, 0.1)

    def test_two_point_chi2(self):
        assert dro_oracle(np.array([1.0, -1.0]), CHI, 0.04) == pytest.approx(0.2, abs=1e-6)

    @pytest.mark.parametrize("reference", ["oracle.py", "chi2_active_set.py", "kl_dual.py"])
    def test_imports_none_of_the_code_it_verifies(self, reference):
        # A reference checks the package only while it computes without it:
        # from the package it may take the error class, nothing else.  None
        # takes the KL dual in kl_dual.py either, which the oracle checks.
        path = os.path.join(os.path.dirname(__file__), reference)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        package_names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "dro_crm" for a in node.names), \
                    "import the allowed names with 'from dro_crm... import'"
                assert not any(a.name.split(".")[0] == "kl_dual" for a in node.names), \
                    "the reference imports the KL dual"
            elif isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in the reference"
                assert node.module.split(".")[0] != "kl_dual", \
                    "the reference imports the KL dual"
                if node.module.split(".")[0] == "dro_crm":
                    package_names |= {a.name for a in node.names}
        assert package_names <= {"ContractViolation"}, \
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
            z = rng.normal(size=n)
            eps_grid = np.sort(rng.uniform(1e-4, 2.0, size=10))
            chi_vals = [robust_risk_chi2(z, e)[0] for e in eps_grid]
            kl_vals = [robust_risk_kl_dual(z, e).robust_risk for e in eps_grid]
            assert all(b >= a - 1e-10 for a, b in zip(chi_vals, chi_vals[1:]))
            assert all(b >= a - 1e-10 for a, b in zip(kl_vals, kl_vals[1:]))

    def test_sandwich_between_mean_and_max(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            z = rng.normal(size=n)
            eps = float(rng.uniform(0.0, 3.0))
            for risk in (robust_risk_chi2(z, eps)[0],
                         robust_risk_kl_dual(z, eps).robust_risk if eps > 0 else None):
                if risk is None:
                    continue
                assert risk >= z.mean() - 1e-10
                assert risk <= z.max() + 1e-10

    def test_shift_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            z = rng.normal(size=6)
            c = float(rng.normal()) * 5.0
            eps = float(rng.uniform(0.01, 0.5))
            r1, _ = robust_risk_chi2(z, eps)
            r2, _ = robust_risk_chi2(z + c, eps)
            assert r2 == pytest.approx(r1 + c, abs=1e-10)
            k1 = robust_risk_kl_dual(z, eps).robust_risk
            k2 = robust_risk_kl_dual(z + c, eps).robust_risk
            assert k2 == pytest.approx(k1 + c, abs=1e-8)

    def test_kl_remainder_with_matched_constant_decays(self):
        # with the curvature-matched constant sqrt(2 eps_n var) the rescaled
        # remainder vanishes as n grows, for a symmetric law
        rng = np.random.default_rng(24)
        meds = []
        for n in (100, 1000, 10000):
            vals = []
            for _ in range(30):
                z = rng.random(n)
                eps_n = 1.0 / n
                r = robust_risk_kl_dual(z, eps_n).robust_risk
                vals.append(math.sqrt(n) * abs(
                    r - z.mean() - math.sqrt(2.0 * eps_n * z.var())))
            meds.append(float(np.median(vals)))
        assert meds[0] > meds[1] > meds[2]
        assert meds[2] < 0.1 * meds[0]
