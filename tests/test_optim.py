import math

import numpy as np
import pytest

from dro_crm import ContractViolation, OptimConfig, minimize


def quadratic(center):
    def fun(x):
        d = x - center
        return 0.5 * float(d @ d), d
    return fun


def rosenbrock(x):
    a, b = x
    f = (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2
    g = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a),
                  200.0 * (b - a * a)])
    return f, g


class TestMinimize:
    def test_quadratic_exact(self):
        center = np.array([1.0, -2.0, 3.0, 0.5])
        x, trace = minimize(quadratic(center), np.zeros(4))
        assert np.allclose(x, center, atol=1e-8)
        assert len(trace.iterations) <= center.size + 5

    def test_rosenbrock(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimConfig(max_iters=2000, grad_tol=1e-8))
        assert np.allclose(x, [1.0, 1.0], atol=1e-6)

    def test_monotone_accepted_values(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimConfig(max_iters=300))
        fs = [rec.f for rec in trace.iterations]
        assert all(b <= a + 1e-12 for a, b in zip(fs, fs[1:]))

    def test_never_worse_than_start(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            center = rng.normal(size=6)
            x0 = rng.normal(size=6) * 3.0
            x, _ = minimize(quadratic(center), x0, OptimConfig(max_iters=3))
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
                            OptimConfig(max_iters=100))
        assert trace.iterations[0].f < rosenbrock(np.array([-1.2, 1.0]))[0]

    def test_nan_objective_aborts(self):
        def fun(x):
            if x[0] < -2.0:
                return np.nan, np.zeros(1)
            return float(x[0] ** 2), np.array([2.0 * x[0]])

        def bad(x):
            return np.nan, np.zeros(1)

        _, trace = minimize(bad, np.array([1.0]))
        assert trace.termination == "nan_objective"

    def test_box_projection(self):
        center = np.array([50.0, -50.0])
        x, _ = minimize(quadratic(center), np.zeros(2), OptimConfig(box_bound=10.0))
        assert np.all(np.abs(x) <= 10.0 + 1e-12)

    def test_max_iters_termination(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimConfig(max_iters=2, f_tol=1e-30))
        assert trace.termination == "max_iters"
        assert len(trace.iterations) == 2

    def test_gradient_at_solution_small(self):
        x, trace = minimize(rosenbrock, np.array([-1.2, 1.0]),
                            OptimConfig(max_iters=2000, grad_tol=1e-8))
        _, g = rosenbrock(x)
        assert np.abs(g).max() < 1e-6

    def test_random_quadratics_reach_floating_point_floor(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            dim = int(rng.integers(2, 25))
            a = rng.normal(size=(dim, dim))
            hess = a @ a.T + 1e-3 * np.eye(dim)
            b = rng.normal(size=dim)
            x_star = np.linalg.solve(hess, b)
            f_star = 0.5 * float(x_star @ hess @ x_star) - float(b @ x_star)

            def fun(x, hess=hess, b=b):
                return 0.5 * float(x @ hess @ x) - float(b @ x), hess @ x - b

            x, _ = minimize(fun, rng.normal(size=dim) * 5.0,
                            OptimConfig(max_iters=2000, grad_tol=1e-9,
                                        f_tol=1e-16, box_bound=None))
            gap = fun(x)[0] - f_star
            assert gap <= 1e-10 * max(1.0, abs(f_star))

    def test_config_validation(self):
        for fields in ({"grad_tol": 0.0}, {"grad_tol": math.nan, "f_tol": math.inf},
                       {"grad_tol": math.nan}, {"f_tol": math.inf}, {"f_tol": -1e-9},
                       {"box_bound": math.nan}, {"box_bound": math.inf},
                       {"box_bound": 0.0}):
            with pytest.raises(ContractViolation):
                OptimConfig(**fields)
        OptimConfig(box_bound=None)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(ContractViolation):
            minimize(rosenbrock, np.array([np.inf, 0.0]))
