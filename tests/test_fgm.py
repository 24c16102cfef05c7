import numpy as np

from sqrtminvol.fgm import minimize_fgm


def quad_problem(A, b):
    """0.5 x^T A x - b^T x with exact gradient and Lipschitz constant."""

    def objective(x):
        return 0.5 * float(x @ A @ x) - float(b @ x)

    def gradient(x):
        return A @ x - b

    L = float(np.max(np.linalg.eigvalsh(A)))
    return objective, gradient, L


def step(gradient, L):
    """The engine's forward map ``x - gradient(x) / L``."""
    return lambda x: x - gradient(x) / L


class TestMinimizeFgm:
    def test_unconstrained_quadratic_reaches_solution(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(5, 5))
        A = M @ M.T + np.eye(5)
        b = rng.normal(size=5)
        objective, gradient, L = quad_problem(A, b)
        x, fx = minimize_fgm(
            np.zeros(5), objective, step(gradient, L), lambda v: v, 500, 1e-16
        )
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_nonnegative_constraint_is_respected(self):
        A = np.eye(2)
        b = np.array([-1.0, 2.0])  # unconstrained optimum (-1, 2)
        objective, gradient, L = quad_problem(A, b)
        x, _ = minimize_fgm(
            np.zeros(2),
            objective,
            step(gradient, L),
            lambda v: np.maximum(v, 0.0),
            200,
            1e-16,
        )
        np.testing.assert_allclose(x, [0.0, 2.0], atol=1e-10)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + 0.1 * np.eye(6)
        b = rng.normal(size=6)
        objective, gradient, L = quad_problem(A, b)
        seen = []

        def recording_objective(x):
            val = objective(x)
            return val

        x0 = rng.random(6)
        last = objective(x0)
        x = x0
        # Drive the engine one iteration at a time to observe the value path.
        for _ in range(50):
            x, fx = minimize_fgm(
                x, recording_objective, step(gradient, L), lambda v: v, 1, 1e-300
            )
            assert fx <= last + 1e-12 * abs(last)
            seen.append(fx)
            last = fx
        assert seen[-1] <= seen[0]

    def test_underestimated_lipschitz_still_descends(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(4, 4))
        A = M @ M.T + np.eye(4)
        b = rng.normal(size=4)
        objective, gradient, L = quad_problem(A, b)
        x0 = rng.random(4)
        f0 = objective(x0)
        # Feed a Lipschitz constant 100x too small: the steps are far too
        # long, and the engine must stop rather than ascend.
        x, fx = minimize_fgm(
            x0, objective, step(gradient, L / 100.0), lambda v: v, 100, 1e-16
        )
        assert fx <= f0

    def test_nonpositive_lipschitz_returns_start(self):
        # L <= 0 means a zero gradient: the forward step is the identity.
        # (The block updates return their start before calling the engine.)
        x0 = np.array([1.0, 2.0])
        x, fx = minimize_fgm(
            x0, lambda v: 0.0, lambda v: v + np.zeros(2), lambda v: v, 10, 1e-9
        )
        np.testing.assert_array_equal(x, x0)
        assert fx == 0.0

    def test_start_at_optimum_stays_there(self):
        A = np.diag([1.0, 4.0])
        b = np.array([1.0, 8.0])
        objective, gradient, L = quad_problem(A, b)
        star = np.array([1.0, 2.0])
        x, fx = minimize_fgm(star, objective, step(gradient, L), lambda v: v, 25, 1e-16)
        np.testing.assert_allclose(x, star, atol=1e-12)
