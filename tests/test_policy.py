import math

import numpy as np
import pytest

from dro_crm import (ContractViolation, PolicyParams, SupervisedDataset,
                     evaluate_policy, generate_bandit_log)
from dro_crm.policy import log_prob_matrix, logits_matrix, sigmoid
from oracle import enumerate_actions


def random_instance(rng, q=3, d=5, sparse=True):
    """(params, x, y): random weights, a feature row (zero outside a random
    support when `sparse`) and a random action."""
    w = rng.normal(size=(q, d))
    if sparse:
        nz = rng.choice(d, size=rng.integers(1, d + 1), replace=False)
        x = np.zeros(d)
        x[np.sort(nz)] = rng.normal(size=nz.size)
    else:
        x = rng.normal(size=d)
    y = rng.integers(0, 2, size=q).astype(np.int8)
    return PolicyParams(w), x, y


def row_logits(params, x):
    return logits_matrix(params, np.asarray(x, dtype=np.float64)[None, :])[0]


def row_log_prob(params, x, y):
    """log pi(y | x) of one record, as a one-row call of the matrix form."""
    X = np.asarray(x, dtype=np.float64)[None, :]
    return float(log_prob_matrix(params, X, np.asarray(y, dtype=np.float64)[None, :])[0])


def one_row(x, y):
    """One-example dataset with features x and labels y."""
    return SupervisedDataset(np.asarray(x, dtype=np.float64)[None, :],
                             np.asarray(y, dtype=np.float64)[None, :])


class TestLogits:
    def test_zero_weights(self):
        params = PolicyParams.zeros(4, 6)
        assert np.all(row_logits(params, np.ones(6)) == 0.0)

    def test_unit_vectors(self):
        w = np.zeros((2, 3))
        w[0, 1] = 1.0
        u = row_logits(PolicyParams(w), np.array([0.0, 1.0, 0.0]))
        assert u[0] == 1.0 and u[1] == 0.0

    def test_matches_dense_product(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            params, x, _ = random_instance(rng)
            assert np.allclose(row_logits(params, x), params.weights @ x, atol=1e-12)

    def test_dimension_check(self):
        with pytest.raises(ContractViolation):
            row_logits(PolicyParams.zeros(2, 3), np.ones(4))


class TestLogProb:
    def test_uniform_at_zero_weights(self):
        params = PolicyParams.zeros(3, 2)
        x = np.array([1.0, -1.0])
        for y in enumerate_actions(3):
            assert row_log_prob(params, x, y) == pytest.approx(math.log(1 / 8), abs=1e-12)

    def test_single_label_even_split(self):
        params = PolicyParams.zeros(1, 1)
        for y in ([0], [1]):
            assert row_log_prob(params, [1.0], y) == pytest.approx(math.log(0.5))

    def test_matches_explicit_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            params, x, _ = random_instance(rng, q=2, d=4)
            u = row_logits(params, x)
            scores = {tuple(y): float(y @ u) for y in enumerate_actions(2)}
            logz = math.log(sum(math.exp(s) for s in scores.values()))
            for y in enumerate_actions(2):
                assert row_log_prob(params, x, y) == pytest.approx(
                    scores[tuple(y)] - logz, abs=1e-10)

    def test_normalizes_over_actions(self):
        rng = np.random.default_rng(3)
        for q in (2, 5, 10):
            params, x, _ = random_instance(rng, q=q, d=4)
            total = sum(math.exp(row_log_prob(params, x, y))
                        for y in enumerate_actions(q))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_never_positive(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            params, x, y = random_instance(rng)
            assert row_log_prob(params, x, y) <= 0.0

    def test_never_positive_under_extreme_weights(self):
        # the +-500 logit clamp must apply to both terms of the sum
        params = PolicyParams(np.array([[1e3], [-1e3]]))
        for y in enumerate_actions(2):
            assert row_log_prob(params, [5.0], y) <= 0.0


class TestSampling:
    """Actions are sampled only when a log is generated; these check the
    sampler through `generate_bandit_log` on one-example datasets."""

    def test_zero_weights_marginals(self):
        n = 100_000
        log = generate_bandit_log(PolicyParams.zeros(3, 2),
                                  one_row([0.5, -0.5], [0, 0, 0]), delta=n, seed=7)
        # each marginal is Bernoulli(0.5): allow 3 sigma
        sigma = math.sqrt(0.25 / n)
        assert np.all(np.abs(log.Y.mean(axis=0) - 0.5) < 3 * sigma + 1e-12)

    def test_saturated_logits(self):
        params = PolicyParams(np.full((4, 1), 50.0))
        log = generate_bandit_log(params, one_row([1.0], [1, 1, 1, 1]), delta=1, seed=0)
        assert np.all(log.Y == 1)
        assert log.propensities[0] == pytest.approx(1.0, abs=1e-10)

    def test_propensity_matches_log_prob(self):
        rng = np.random.default_rng(8)
        for seed in range(50):
            params, x, y = random_instance(rng)
            log = generate_bandit_log(params, one_row(x, y), delta=1, seed=seed)
            prop = log.propensities[0]
            assert prop == pytest.approx(math.exp(row_log_prob(params, x, log.Y[0])),
                                         rel=1e-12)
            assert 0.0 < prop <= 1.0


def greedy_loss(params, x, y):
    """Hamming distance between the greedy action at x and y."""
    return evaluate_policy(params, one_row(x, y), "greedy")


class TestGreedy:
    def test_sign_rule(self):
        params = PolicyParams(np.array([[2.0], [-3.0]]))
        assert greedy_loss(params, [1.0], [1, 0]) == 0.0
        assert greedy_loss(params, [1.0], [0, 1]) == 2.0

    def test_tie_resolves_to_zero(self):
        assert greedy_loss(PolicyParams.zeros(2, 1), [1.0], [0, 0]) == 0.0

    def test_matches_enumeration_argmax(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            params, x, _ = random_instance(rng, q=2, d=3)
            probs = {tuple(y): row_log_prob(params, x, y) for y in enumerate_actions(2)}
            best = max(probs, key=probs.get)
            got = [tuple(y) for y in enumerate_actions(2) if greedy_loss(params, x, y) == 0.0]
            assert len(got) == 1
            assert probs[got[0]] == pytest.approx(probs[best], abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(10)
        params, x, _ = random_instance(rng, sparse=False)
        scaled_w = PolicyParams(params.weights / 3.0)
        for y in enumerate_actions(3):
            assert greedy_loss(params, x, y) == greedy_loss(scaled_w, 3.0 * x, y)


def expected_loss(params, x, y_star):
    """Exact expected Hamming loss of the stochastic policy at x against y_star."""
    return evaluate_policy(params, one_row(x, y_star), "expected")


class TestExpectedHamming:
    def test_uniform_policy_half_q(self):
        for q in (1, 3, 6):
            params = PolicyParams.zeros(q, 2)
            assert expected_loss(params, [1.0, 2.0], np.ones(q)) == pytest.approx(q / 2)

    def test_saturated_perfect(self):
        params = PolicyParams(np.full((3, 1), 600.0))
        assert expected_loss(params, [1.0], np.ones(3)) == pytest.approx(0.0, abs=1e-10)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            params, x, y_star = random_instance(rng, q=2, d=4)
            exact = sum(math.exp(row_log_prob(params, x, y)) * np.abs(y - y_star).sum()
                        for y in enumerate_actions(2))
            assert expected_loss(params, x, y_star) == pytest.approx(exact, abs=1e-10)

    def test_range(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            params, x, y_star = random_instance(rng, q=4)
            val = expected_loss(params, x, y_star)
            assert 0.0 <= val <= 4.0


class TestMatrixForms:
    def test_agree_with_scalar_api(self):
        # a record scored alone (a one-row call) and within a batch agree,
        # and both follow the per-label formula sum_l y_l u_l - log(1 + e^u_l)
        rng = np.random.default_rng(15)
        params, _, _ = random_instance(rng, q=3, d=5)
        X = rng.normal(size=(20, 5))
        Y = rng.integers(0, 2, size=(20, 3)).astype(np.float64)
        U = logits_matrix(params, X)
        LP = log_prob_matrix(params, X, Y)
        for i in range(20):
            u = params.weights @ X[i]
            formula = sum(y * ul - math.log1p(math.exp(ul)) for y, ul in zip(Y[i], u))
            assert np.allclose(U[i], row_logits(params, X[i]), atol=1e-12)
            assert np.allclose(U[i], u, atol=1e-12)
            assert LP[i] == pytest.approx(row_log_prob(params, X[i], Y[i]), abs=1e-12)
            assert LP[i] == pytest.approx(formula, abs=1e-12)

    def test_sigmoid_extremes(self):
        s = sigmoid(np.array([-800.0, 0.0, 800.0]))
        assert np.all(np.isfinite(s))
        assert s[1] == 0.5
