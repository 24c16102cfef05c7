import numpy as np
import pytest

from oracles import jacobi_svd_values
import sqrtminvol.fgm as fgm_mod
from sqrtminvol.errors import NumericalFaultError
from sqrtminvol.fgm import minimize_fgm, solve_block


def quad_problem(A, b):
    """0.5 x^T A x - b^T x as the engine's ``(G, B2, xsq)`` with its objective and L.

    ``xsq + <x, G x - B2>`` with ``G = A / 2`` and ``B2 = b`` is the same
    quadratic, and its gradient ``A x - b`` has Lipschitz constant
    ``s_max(A) = 2 s_max(G)``.
    """

    def objective(x):
        return 0.5 * float(x @ A @ x) - float(b @ x)

    L = float(np.max(np.linalg.eigvalsh(A)))
    return (A / 2.0, b, 0.0), objective, L


def identity(v):
    return v


class TestMinimizeFgm:
    def test_unconstrained_quadratic_reaches_solution(self):
        rng = np.random.default_rng(0)
        M = rng.normal(size=(5, 5))
        A = M @ M.T + np.eye(5)
        b = rng.normal(size=5)
        quad, _, L = quad_problem(A, b)
        x = minimize_fgm(np.zeros(5), *quad, L, identity, 500, 1e-16)
        np.testing.assert_allclose(x, np.linalg.solve(A, b), atol=1e-8)

    def test_nonnegative_constraint_is_respected(self):
        A = np.eye(2)
        b = np.array([-1.0, 2.0])  # unconstrained optimum (-1, 2)
        quad, _, L = quad_problem(A, b)
        x = minimize_fgm(
            np.zeros(2), *quad, L, lambda v: np.maximum(v, 0.0), 200, 1e-16
        )
        np.testing.assert_allclose(x, [0.0, 2.0], atol=1e-10)

    def test_objective_never_increases(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + 0.1 * np.eye(6)
        b = rng.normal(size=6)
        quad, objective, L = quad_problem(A, b)
        x = rng.random(6)
        first = last = objective(x)
        # Drive the engine one iteration at a time to observe the value path.
        for _ in range(50):
            x = minimize_fgm(x, *quad, L, identity, 1, 1e-300)
            fx = objective(x)
            assert fx <= last + 1e-12 * abs(last)
            last = fx
        assert last < first

    def test_underestimated_lipschitz_still_descends(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(4, 4))
        A = M @ M.T + np.eye(4)
        b = rng.normal(size=4)
        quad, objective, L = quad_problem(A, b)
        x0 = rng.random(4)
        # Feed a Lipschitz constant 100x too small: the steps are far too
        # long, and the engine must stop rather than ascend.
        x = minimize_fgm(x0, *quad, L / 100.0, identity, 100, 1e-16)
        assert objective(x) <= objective(x0)

    def test_nonpositive_lipschitz_returns_start(self):
        # L <= 0 means a zero gradient: the start itself comes back.
        x0 = np.array([1.0, 2.0])
        for L in (0.0, -1.0):
            x = minimize_fgm(x0, np.zeros((2, 2)), np.zeros(2), 0.0, L, identity, 10, 1e-9)
            assert x is x0

    def test_subnormal_lipschitz_is_a_fault(self):
        # 2 / 1e-320 overflows: the step is named instead of turning x non-finite.
        message = r"^the gradient step 2/L is not finite \(L = 1e-320\)$"
        with pytest.raises(NumericalFaultError, match=message):
            minimize_fgm(np.zeros(2), np.eye(2), np.ones(2), 0.0, 1e-320, identity, 10, 1e-9)

    def test_start_at_optimum_stays_there(self):
        A = np.diag([1.0, 4.0])
        b = np.array([1.0, 8.0])
        quad, _, L = quad_problem(A, b)
        star = np.array([1.0, 2.0])
        x = minimize_fgm(star, *quad, L, identity, 25, 1e-16)
        np.testing.assert_allclose(x, star, atol=1e-12)


class TestSolveBlock:
    """The step bound ``solve_block`` hands the engine, from one Gram per block."""

    FACTORS = {
        "identity": np.eye(3),
        "diagonal": np.diag([3.0, 1.0, 0.5]),
        "zero": np.zeros((2, 4)),
        # The top singular vector (1, -1) is orthogonal to the all-ones
        # vector, an eigenvector of the smaller singular value 1.
        "signed": np.array([[2.0, -1.0], [-1.0, 2.0]]),
        "3x5": np.random.default_rng(4).random((3, 5)),
        "6x4": np.random.default_rng(5).random((6, 4)),
    }

    @pytest.mark.parametrize("factor", list(FACTORS))
    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_matches_jacobi_svd_oracle(self, monkeypatch, factor, lam):
        # L = 2 (s_max(F)^2 + lam s_max(A)), F with fewer, as many and more
        # rows than columns, and A symmetric positive definite.
        F = self.FACTORS[factor]
        m, r = F.shape
        rng = np.random.default_rng(6)
        M = rng.random((r, r))
        A = M @ M.T + np.eye(r)
        seen = []

        def engine(x0, G, B2, xsq, L, project, iters, tol):
            seen.append(L)
            return x0

        monkeypatch.setattr(fgm_mod, "minimize_fgm", engine)
        solve_block(np.zeros((r, 2)), F, rng.random((m, 2)), identity, 10, 1e-9, "test", lam, A)
        want = 2.0 * (jacobi_svd_values(F)[-1] ** 2 + lam * jacobi_svd_values(A)[-1])
        assert seen == [pytest.approx(want, rel=1e-10)]
