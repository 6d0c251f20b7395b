import math

import numpy as np
import pytest

from dro_crm import (ContractViolation, PolicyParams, evaluate, make_objective,
                     minimize)
from dro_crm import optim
from dro_crm.objectives import RULES
from toy_logs import sample_log


def quadratic(center):
    def fun(x):
        d = x - center
        return 0.5 * float(d @ d), lambda: d
    return fun


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    return f, lambda: np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                                200.0 * (b - a * a)])


def counting(fun):
    """fun, counting the values and the gradients it hands out."""
    def counted(x):
        counted.values += 1
        f, grad = fun(x)

        def gradient():
            counted.grads += 1
            return grad()
        return f, gradient
    counted.values = counted.grads = 0
    return counted


def stiff_quadratic(x):
    """5 x^2, whose gradient is NaN below x = -5: from x = 1 the unit step
    lands at -9, which fails sufficient decrease."""
    return 5.0 * float(x @ x), lambda: np.where(x < -5.0, np.nan, 10.0 * x)


class TestMinimize:
    def test_quadratic_exact(self):
        center = np.array([1.0, -2.0, 3.0, 0.5])
        x, trace = minimize(quadratic(center), np.zeros(4))
        assert np.allclose(x, center, atol=1e-8)
        assert len(trace.iterations) <= center.size + 5

    def test_rosenbrock(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            max_iters=2000, grad_tol=1e-8)
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)

    def test_monotone_accepted_values(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            max_iters=300)
        fs = [rec.f for rec in trace.iterations]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            center = rng.normal(size=6)
            x0 = rng.normal(size=6) * 3.0
            x, _ = minimize(quadratic(center), x0, max_iters=3)
            f0, _ = quadratic(center)(x0)
            f1, _ = quadratic(center)(x)
            assert f1 <= f0

    def test_deterministic_bitwise(self):
        x1, t1 = minimize(rosenbrock, np.array([-1.2, 1.0]))
        x2, t2 = minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert x1.tobytes() == x2.tobytes()
        assert [r.f for r in t1.iterations] == [r.f for r in t2.iterations]

    def test_first_step_descends(self):
        # with the skip rule in force, every accepted step is a descent step
        _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            max_iters=100)
        assert trace.iterations[0].f < rosenbrock(np.array([-1.2, 1.0]))[0]

    def test_nan_objective_aborts(self):
        def fun(x):
            if x[0] < -2.0:
                return np.nan, lambda: np.zeros(1)
            return float(x[0] ** 2), lambda: np.array([2.0 * x[0]])

        def bad(x):
            return np.nan, lambda: np.zeros(1)

        _, trace = minimize(bad, np.array([1.0]))
        assert trace.termination == "nan_objective"
        # from 3 the unit step's trial point, -3, has a NaN value
        x, trace = minimize(fun, np.array([3.0]))
        assert trace.termination == "nan_objective"
        assert x.tolist() == [3.0] and trace.n_evals == 2

    def test_nan_gradient_at_kept_point_aborts(self):
        # the unit step from 1 lands on 0, which is kept, and its gradient is NaN
        def fun(x):
            return 0.5 * float(x @ x), lambda: np.where(x < 0.5, np.nan, x)

        x, trace = minimize(fun, np.array([1.0]))
        assert trace.termination == "nan_objective"
        assert x.tolist() == [1.0]
        assert (trace.n_evals, trace.n_grads) == (2, 2)

    def test_nan_gradient_never_asked_for(self):
        x, trace = minimize(stiff_quadratic, np.array([1.0]))
        assert trace.termination in ("grad_tol", "f_tol")
        assert abs(x[0]) < 1e-6
        assert trace.n_grads < trace.n_evals

    @pytest.mark.parametrize("fun, x0", [
        (rosenbrock, [-1.2, 1.0]), (stiff_quadratic, [1.0]),
        (quadratic(np.array([1.0, -2.0, 3.0])), [0.0, 0.0, 0.0])],
        ids=["rosenbrock", "stiff", "quadratic"])
    def test_gradient_count(self, fun, x0):
        counted = counting(fun)
        _, trace = minimize(counted, np.array(x0))
        assert trace.n_evals == counted.values
        assert trace.n_grads == counted.grads
        assert 1 <= trace.n_grads <= trace.n_evals

    def test_rejected_trial_points_skip_the_gradient(self):
        _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]))
        assert trace.n_grads < trace.n_evals

    def test_failed_steepest_descent_is_not_retried(self):
        # x.x with the gradient's sign flipped: every trial along -g ascends.
        # With no curvature pairs the direction already is -g, so a retry
        # along -g would evaluate the same 40 points again.
        points = []

        def wrong_sign(x):
            points.append(x.tobytes())
            return float(x @ x), lambda: -2.0 * x

        x0 = np.array([1.0, -2.0])
        x, trace = minimize(wrong_sign, x0)
        assert trace.termination == "line_search_failed"
        assert x.tobytes() == x0.tobytes()
        assert trace.n_evals == len(points) == len(set(points)) == 41

    def test_failed_curvature_direction_retries_steepest_descent(self, monkeypatch):
        # the second search, the first along a direction from curvature
        # pairs, is made to fail: minimize searches again along -g
        steepest, line_search = [], optim._line_search

        def failing_second(evaluate, x, p, f0, g0):
            steepest.append(np.array_equal(p, -g0))
            return None if len(steepest) == 2 else line_search(evaluate, x, p, f0, g0)
        monkeypatch.setattr(optim, "_line_search", failing_second)
        _, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=3)
        assert steepest[:3] == [True, False, True]
        assert trace.termination == "max_iters"

    def test_max_iters_termination(self, monkeypatch):
        monkeypatch.setattr(optim, "_F_TOL", 1e-30)
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=2)
        assert trace.termination == "max_iters"
        assert len(trace.iterations) == 2

    def test_gradient_at_solution_small(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            max_iters=2000, grad_tol=1e-8)
        _, grad = rosenbrock(x)
        assert np.abs(grad()).max() < 1e-6

    def test_random_quadratics_reach_floating_point_floor(self, monkeypatch):
        monkeypatch.setattr(optim, "_F_TOL", 1e-16)
        rng = np.random.default_rng(7)
        for _ in range(15):
            dim = int(rng.integers(2, 25))
            a = rng.normal(size=(dim, dim))
            hess = a @ a.T + 1e-3 * np.eye(dim)
            b = rng.normal(size=dim)
            x_star = np.linalg.solve(hess, b)
            f_star = 0.5 * float(x_star @ hess @ x_star) - float(b @ x_star)

            def fun(x, hess=hess, b=b):
                return 0.5 * float(x @ hess @ x) - float(b @ x), lambda: hess @ x - b

            x, _ = minimize(fun, rng.normal(size=dim) * 5.0,
                            max_iters=2000, grad_tol=1e-9)
            gap = fun(x)[0] - f_star
            assert gap <= 1e-10 * max(1.0, abs(f_star))

    def test_config_validation(self):
        for grad_tol in (0.0, -1e-9, math.nan, math.inf):
            with pytest.raises(ContractViolation, match="grad_tol must be positive"):
                minimize(rosenbrock, np.array([-1.2, 1.0]), grad_tol=grad_tol)
        with pytest.raises(ContractViolation, match="max_iters must be positive"):
            minimize(rosenbrock, np.array([-1.2, 1.0]), max_iters=0)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ContractViolation):
            minimize(rosenbrock, np.array([np.inf, 0.0]))


HYPER = {"cips": None, "poem": 0.1, "klcrm": 1.0, "aklcrm": 0.1}


@pytest.mark.parametrize("algorithm", list(RULES))
def test_lazy_objective_follows_the_eager_path(algorithm):
    # the lazy gradient changes which gradients are computed, not the path
    log, _ = sample_log(np.random.default_rng(21), n=40, clip_m=3.0)
    hyper = HYPER[algorithm]
    lazy, shape = make_objective(algorithm, log, hyper)

    def eager(theta):
        report = evaluate(algorithm, PolicyParams(theta.reshape(shape)), log, hyper)
        gradient = report.gradient().ravel()
        return report.risk, lambda: gradient

    x0 = np.zeros(shape[0] * shape[1])
    x_lazy, t_lazy = minimize(lazy, x0)
    x_eager, t_eager = minimize(eager, x0)
    assert x_lazy.tobytes() == x_eager.tobytes()
    assert t_lazy.iterations == t_eager.iterations
    assert (t_lazy.n_evals, t_lazy.n_grads) == (t_eager.n_evals, t_eager.n_grads)


def test_klcrm_fit_at_a_vanishing_temperature_stays_finite():
    # at gamma = 1e-320, z / gamma overflows; the tilt is its gamma -> 0 limit,
    # all weight on the largest losses, so the risk at theta = 0 is max z
    log, _ = sample_log(np.random.default_rng(23), n=30, clip_m=3.0)
    fun, shape = make_objective("klcrm", log, 1e-320)
    x0 = np.zeros(shape[0] * shape[1])
    zero = evaluate("klcrm", PolicyParams(x0.reshape(shape)), log, 1e-320)
    assert zero.risk == zero.losses.max()
    _, trace = minimize(fun, x0, max_iters=20)
    assert trace.termination != "nan_objective"
    assert trace.n_evals > 1


def search(f, df):
    """Line search from x = 0 along p = 1 for f with derivative df; returns
    its result and the trials as (step, whether the gradient was given)."""
    trials = []

    def evaluate(x, rejects):
        a = float(x[0])
        fa = f(a)
        kept = not rejects(fa)
        trials.append((a, kept))
        return fa, np.array([df(a)]) if kept else None

    result = optim._line_search(evaluate, np.zeros(1), np.ones(1), f(0.0),
                                np.array([df(0.0)]))
    return result, trials


class TestLineSearch:
    # every step and value below is binary-exact, so the sequences hold anywhere
    def test_unit_step_accepted(self):
        result, trials = search(lambda a: (a - 1.0) ** 2, lambda a: 2.0 * (a - 1.0))
        assert result[0] == 1.0 and trials == [(1.0, True)]

    def test_doubles_until_curvature_holds(self):
        result, trials = search(lambda a: (a - 100.0) ** 2, lambda a: 2.0 * (a - 100.0))
        assert trials == [(a, True) for a in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert result[0] == 16.0

    def test_overshoot_zooms_back(self):
        result, trials = search(lambda a: -a + 1.5 * max(0.0, a - 3.0) ** 2,
                                lambda a: -1.0 + 3.0 * max(0.0, a - 3.0))
        assert trials == [(a, True) for a in (1.0, 2.0, 4.0, 3.0, 3.5)]
        assert result[0] == 3.5

    def test_rejected_unit_step_halves(self):
        result, trials = search(lambda a: (a - 0.1) ** 2, lambda a: 2.0 * (a - 0.1))
        assert trials == [(1.0, False), (0.5, False), (0.25, False), (0.125, True)]
        assert result[0] == 0.125

    def test_first_trial_accepted_at_equal_value(self):
        # f0 + C1 * d0 rounds to f0, so only the first trial may equal it
        result, trials = search(lambda a: 1.0, lambda a: -1e-20)
        zoom = [1.0 + 2.0 ** -k for k in range(1, 39)]
        assert trials == [(1.0, True), (2.0, False)] + [(a, False) for a in zoom]
        assert len(trials) == optim._MAX_LINE_SEARCH_STEPS
        assert result[0] == 1.0

    def test_no_decrease_exhausts_the_budget(self):
        result, trials = search(lambda a: 1.0 + (a > 0.0), lambda a: -1.0)
        assert result is None
        assert trials == [(2.0 ** -k, False) for k in range(40)]

    def test_ascent_direction_evaluates_nothing(self):
        result, trials = search(lambda a: a, lambda a: 1.0)
        assert result is None and trials == []
