import math

import numpy as np
import pytest

from oracles import (
    fd_grad,
    fgm_gradient_form,
    grad_W,
    jacobi_eigenvalues,
    nnls_capped_oracle,
    proj_capped_cumsum,
)
import sqrtminvol.baseline as baseline_mod
from sqrtminvol.errors import InvalidInputError, NumericalFaultError
from sqrtminvol.linalg import frobenius_norm, shifted_gram
from sqrtminvol.baseline import (
    MinvolConfig,
    block_sweeps,
    lambda_from_init,
    objective_minvol,
)
from sqrtminvol.fgm import solve_block
from sqrtminvol.projections import project_H_columns, project_nonneg
from sqrtminvol.initialization import nnls_capped_simplex, snpa
from sqrtminvol.solver import SqrtConfig, solve

W4 = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


def w_block(X, W, H, A, lam, iters, tol):
    """The baseline's W block: ``solve_block`` on ``W^T``, as the sweeps pose it."""
    return solve_block(W.T, H.T, X.T, project_nonneg, iters, tol, "W-block", lam, A).T


def feasible_H(rng, r, n):
    H = rng.random((r, n))
    return H / (H.sum(axis=0, keepdims=True) + 1.0)


class TestObjective:
    def test_exact_fit_identity_factor(self):
        H = np.array([[0.3, 0.1], [0.2, 0.4], [0.1, 0.2]])
        obj = objective_minvol(H.copy(), np.eye(3), H, lam=1.0, delta=0.1)
        assert obj == pytest.approx(3.0 * math.log(1.1), abs=1e-12)

    def test_zero_weight_is_squared_residual(self):
        rng = np.random.default_rng(9)
        W = rng.random((5, 3))
        H = feasible_H(rng, 3, 7)
        X = rng.random((5, 7))
        obj = objective_minvol(X, W, H, lam=0.0, delta=0.1)
        want = frobenius_norm(X - W @ H) ** 2
        assert obj == pytest.approx(want, rel=1e-12)

    def test_logdet_part_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(15)
        H = feasible_H(rng, 4, 6)
        X = rng.random((4, 6))
        res2 = frobenius_norm(X - W4 @ H) ** 2
        got = objective_minvol(X, W4, H, lam=2.5, delta=0.1)
        eigs = jacobi_eigenvalues(W4.T @ W4 + 0.1 * np.eye(4))
        assert got - res2 == pytest.approx(2.5 * sum(math.log(e) for e in eigs), rel=1e-10)


class TestUpdateH:
    """The H-block update, through its public entry ``nnls_capped_simplex``."""

    def test_projection_is_a_fixed_point(self):
        rng = np.random.default_rng(21)
        X = rng.random((3, 5)) * 2.0
        H_opt = project_H_columns(X)
        H = nnls_capped_simplex(np.eye(3), X, H_opt, iters=50, tol=1e-12)
        np.testing.assert_allclose(H, H_opt, atol=1e-12)

    def test_identity_factor_converges_to_projection(self):
        rng = np.random.default_rng(22)
        X = rng.random((4, 9)) * 1.5
        H = nnls_capped_simplex(np.eye(4), X, np.zeros((4, 9)), iters=80, tol=1e-14)
        np.testing.assert_allclose(H, project_H_columns(X), atol=1e-10)

    def test_small_case_matches_qp_oracle(self):
        rng = np.random.default_rng(30)
        W = rng.random((2, 2)) + 0.2
        X = rng.random((2, 2)) * 1.4
        H = nnls_capped_simplex(W, X, np.zeros((2, 2)), iters=4000, tol=1e-15)
        for j in range(2):
            want = nnls_capped_oracle(W, X[:, j])
            np.testing.assert_allclose(H[:, j], want, atol=1e-8)


class TestUpdateW:
    def test_unpenalized_identity_coefficients_recover_data(self):
        rng = np.random.default_rng(40)
        X = rng.random((4, 4)) + 0.05
        W = w_block(X, np.ones_like(X), X, np.eye(4), 0.0, iters=200, tol=1e-15)
        # H = X here, so the block objective is |X - W X|_F^2; check by value.
        assert frobenius_norm(X - W @ X) <= 1e-6 * frobenius_norm(X)

    def test_ridge_shrinkage_has_closed_form(self):
        rng = np.random.default_rng(41)
        X = rng.random((5, 3)) + 0.1
        lam_eff = 0.7
        W = w_block(
            X, np.zeros_like(X), np.eye(3), np.eye(3), lam_eff, iters=400, tol=1e-15
        )
        np.testing.assert_allclose(W, X / (1.0 + lam_eff), atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        m, r, n = 4, 3, 6
        X = rng.random((m, n))
        H = feasible_H(rng, r, n)
        A_half = rng.random((r, r))
        A = A_half @ A_half.T + np.eye(r)
        lam_eff = 0.3
        W0 = rng.random((m, r)) + 0.5

        def g(W):
            return frobenius_norm(X - W @ H) ** 2 + lam_eff * np.trace(A @ W.T @ W)

        analytic = grad_W(X, W0, H, A, lam_eff)
        numeric = fd_grad(g, W0)
        denom = max(np.max(np.abs(numeric)), 1.0)
        assert np.max(np.abs(analytic - numeric)) / denom <= 1e-5

    def test_strict_minimizer_is_a_fixed_point(self):
        rng = np.random.default_rng(42)
        X = rng.random((4, 4)) + 0.3
        lam_eff = 0.25
        W_star = X / (1.0 + lam_eff)
        W = w_block(X, W_star, np.eye(4), np.eye(4), lam_eff, iters=5, tol=1e-15)
        np.testing.assert_allclose(W, W_star, atol=1e-10)


class TestBlockDescent:
    """Each block update lowers its objective, computed here directly.

    r = 20 on a 25 x 200 matrix is the shape of the uniform-r20 workload
    of the benchmark; r = 4 on 4 x 500 that of paper-4x4.
    """

    SHAPES = {4: (4, 500), 20: (25, 200)}

    def instance(self, r, seed):
        rng = np.random.default_rng(seed)
        m, n = self.SHAPES[r]
        X = rng.random((m, n))
        W = rng.random((m, r))
        A = np.linalg.inv(W.T @ W + 0.1 * np.eye(r))
        return X, W, feasible_H(rng, r, n), 0.5 * (A + A.T)

    @pytest.mark.parametrize("r", [4, 20])
    @pytest.mark.parametrize("lam_eff", [0.0, 0.5])
    def test_sweep_descends_block_by_block(self, r, lam_eff):
        X, W, H, A = self.instance(r, 60 + r)

        def surrogate(Wv):
            return frobenius_norm(X - Wv @ H) ** 2 + lam_eff * np.trace(A @ Wv.T @ Wv)

        W1 = w_block(X, W, H, A, lam_eff, iters=50, tol=1e-7)
        assert surrogate(W1) <= surrogate(W) * (1.0 + 1e-12)
        before = frobenius_norm(X - W1 @ H) ** 2
        H1 = nnls_capped_simplex(W1, X, H, iters=50, tol=1e-7)
        after = frobenius_norm(X - W1 @ H1) ** 2
        assert after <= before * (1.0 + 1e-12)


class TestEngineStep:
    """The block updates follow the gradient-form engine's iterates.

    ``oracles.fgm_gradient_form`` runs from the same start with the
    same budget and tolerance, on the block objective and gradient
    written out here with step 1/L; the library's affine forward steps
    must end at the same block objective, computed directly from each
    final iterate, to 1e-12 relative.
    """

    instance = TestBlockDescent.instance
    SHAPES = TestBlockDescent.SHAPES

    @staticmethod
    def residual(X, W):
        return lambda H: frobenius_norm(X - W @ H) ** 2

    @staticmethod
    def h_block(X, W):
        G, B2, xsq = W.T @ W, 2.0 * (W.T @ X), float(np.sum(X * X))
        L = 2.0 * np.linalg.norm(W, 2) ** 2
        return (
            lambda H: xsq + float(np.vdot(H, G @ H - B2)),
            lambda H: 2.0 * (G @ H) - B2,
            L,
        )

    @staticmethod
    def assert_same_value(value, got, want):
        assert abs(value(got) - value(want)) <= 1e-12 * abs(value(want))

    @pytest.mark.parametrize("r", [4, 20])
    def test_update_H(self, r):
        X, W, H, _ = self.instance(r, 70 + r)
        objective, gradient, L = self.h_block(X, W)
        want, _ = fgm_gradient_form(
            H, objective, gradient, proj_capped_cumsum, L, 50, 1e-7
        )
        got = nnls_capped_simplex(W, X, H, iters=50, tol=1e-7)
        self.assert_same_value(self.residual(X, W), got, want)

    @pytest.mark.parametrize("r", [4, 20])
    def test_nnls_capped_simplex(self, r):
        X, W, _, _ = self.instance(r, 80 + r)
        H0 = np.zeros((r, X.shape[1]))
        objective, gradient, L = self.h_block(X, W)
        want, _ = fgm_gradient_form(
            H0, objective, gradient, proj_capped_cumsum, L, 500, 1e-10
        )
        self.assert_same_value(self.residual(X, W), nnls_capped_simplex(W, X), want)

    @pytest.mark.parametrize("r", [4, 20])
    @pytest.mark.parametrize("lam_eff", [0.0, 0.5])
    def test_update_W(self, r, lam_eff):
        X, W, H, A = self.instance(r, 90 + r)
        M, XHt2 = H @ H.T + lam_eff * A, 2.0 * (X @ H.T)
        xsq = float(np.sum(X * X))
        L = 2.0 * (np.linalg.norm(H, 2) ** 2 + lam_eff * np.linalg.norm(A, 2))

        def surrogate(Wv):
            return frobenius_norm(X - Wv @ H) ** 2 + lam_eff * np.trace(A @ Wv.T @ Wv)

        want, _ = fgm_gradient_form(
            W,
            lambda Wv: xsq + float(np.vdot(Wv, Wv @ M - XHt2)),
            lambda Wv: 2.0 * (Wv @ M) - XHt2,
            lambda Z: np.maximum(Z, 0.0),
            L,
            50,
            1e-7,
        )
        got = w_block(X, W, H, A, lam_eff, iters=50, tol=1e-7)
        self.assert_same_value(surrogate, got, want)

    def test_zero_lipschitz_returns_start(self):
        # A zero gradient (W = 0 for H, H = 0 and no penalty for W) makes
        # L = 0; each block returns its (projected) start.
        X, W, H, A = self.instance(4, 74)
        H_out = solve_block(H, np.zeros_like(W), X, project_H_columns, 50, 1e-7, "H-block")
        np.testing.assert_array_equal(H_out, H)
        W_out = w_block(X, W, np.zeros_like(H), A, 0.0, iters=50, tol=1e-7)
        np.testing.assert_array_equal(W_out, W)

    def test_overflowing_lipschitz_constant_is_a_fault(self):
        # A step bound of inf would make every step zero, or NaN.  Here
        # s_max(W)^2 = 1e308 is finite and twice it is not.
        X, W, H, A = self.instance(4, 75)
        with pytest.raises(NumericalFaultError, match=r"^non-finite H-block Lipschitz"):
            solve_block(H, np.eye(4) * 1e154, X, project_H_columns, 50, 1e-7, "H-block")
        with pytest.raises(NumericalFaultError, match=r"^non-finite W-block Lipschitz"):
            w_block(X, W, H, A, 1e308, iters=50, tol=1e-7)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_gram_is_a_fault(self):
        # W^T W overflows to inf, where eigvalsh fails to converge; the
        # block names the overflow instead of letting LinAlgError out.
        W = np.random.default_rng(76).random((4, 4)) * 1e155
        message = r"^non-finite top eigenvalue of an overflowing Gram \(inf\)$"
        with pytest.raises(NumericalFaultError, match=message):
            nnls_capped_simplex(W, np.ones((4, 5)))


def minvol(X, r, W0, H0, lam, **settings):
    """The baseline's ``(W, H, objectives)`` from ``(W0, H0)``, the objectives
    one per sweep from the start's."""
    W, H, *_, trace = solve(X, r, "minvol-baseline", lam=lam, start=(W0, H0), **settings)
    return W, H, [row.objective for row in trace.rows]


class TestMinvol:
    """The baseline, run through ``solve`` from a given start."""

    def test_separable_unpenalized_fit(self):
        rng = np.random.default_rng(5)
        D = rng.dirichlet(np.ones(4), size=30).T * 0.9
        X = np.hstack([W4, W4 @ D])
        init = snpa(X, 4)
        W, H, _ = minvol(X, 4, init.W0, init.H0, 0.0, max_outer=200, tol=1e-13)
        rel = frobenius_norm(X - W @ H) / frobenius_norm(X)
        assert rel <= 1e-8

    def test_noisy_initscaled_weight_keeps_fit(self):
        rng = np.random.default_rng(19)
        H_star = rng.dirichlet(np.ones(4), size=150).T
        X = W4 @ H_star + 0.01 * rng.random((4, 150))
        init = snpa(X, 4)
        lam = lambda_from_init(X, init.W0, init.H0, 1e-2, 0.1)
        W, H, _ = minvol(X, 4, init.W0, init.H0, lam)
        rel = frobenius_norm(X - W @ H) / frobenius_norm(X)
        assert rel <= 0.1

    def test_history_starts_at_init_and_decreases(self):
        rng = np.random.default_rng(27)
        H_star = rng.dirichlet(np.ones(3), size=60).T
        W_star = rng.random((6, 3)) + 0.1
        X = W_star @ H_star
        init = snpa(X, 3)
        _, _, hist = minvol(X, 3, init.W0, init.H0, 0.05, max_outer=40)
        assert hist[0] == pytest.approx(
            objective_minvol(X, init.W0, init.H0, 0.05, 0.1), rel=1e-12
        )
        assert 2 <= len(hist) <= 40 + 1
        for a, b in zip(hist, hist[1:]):
            assert b <= a

    def test_singular_gram_raises_not_positive_definite(self):
        # Two equal columns and a shift of 1e-300, which rounds away
        # against 1: the shifted Gram has an exactly zero pivot.
        W = np.array([[1.0, 1.0], [0.0, 0.0]])
        H = np.full((2, 3), 0.25)
        with pytest.raises(NumericalFaultError):
            minvol(W @ H, 2, W, H, 1.0, delta=1e-300)

    def test_projects_H_once(self, monkeypatch):
        # Every H after the start is an H-block output, so only the start
        # is projected by the sweeps themselves; the H-block projects inside
        # FGM, so it is handed the real projection and is not counted.
        calls = []

        def counting(H):
            calls.append(H.shape)
            return project_H_columns(H)

        def uncounted(x0, F, Y, project, *args):
            project = project_H_columns if project is counting else project
            return solve_block(x0, F, Y, project, *args)

        monkeypatch.setattr(baseline_mod, "project_H_columns", counting)
        monkeypatch.setattr(baseline_mod, "solve_block", uncounted)
        rng = np.random.default_rng(27)
        X = (rng.random((6, 3)) + 0.1) @ rng.dirichlet(np.ones(3), size=60).T
        init = snpa(X, 3)
        _, _, hist = minvol(X, 3, init.W0, init.H0, 0.05, max_outer=5, tol=1e-300)
        assert len(hist) == 6
        assert calls == [(3, 60)]

    @pytest.mark.parametrize("lam, count", [(0.05, 5), (0.0, 1)], ids=["sweeps", "W-no-op"])
    def test_sweeps_read_their_inputs_and_return_fresh_arrays(self, lam, count):
        # From H = 0 at lam = 0 the W block's Lipschitz constant is 0, so it
        # returns the W it was given; the loop's own copy keeps that W apart
        # from the caller's.
        rng = np.random.default_rng(27)
        X = (rng.random((6, 3)) + 0.1) @ rng.dirichlet(np.ones(3), size=60).T
        init = snpa(X, 3)
        W0, H0 = init.W0, (init.H0 if lam > 0.0 else np.zeros_like(init.H0))
        for M in (X, W0, H0):
            M.flags.writeable = False
        W, H, trace = block_sweeps(X, W0, H0, lam, 0.1, count, 1e-300)
        assert len(trace.rows) == count + 1
        for out in (W, H):
            assert not any(np.shares_memory(out, M) for M in (X, W0, H0))
        if lam == 0.0:
            np.testing.assert_array_equal(W, W0)

    def test_factors_each_iterate_once(self, monkeypatch):
        # The factor that gives an iterate's objective also gives the next
        # sweep's linearization: one Cholesky for the start, one per sweep.
        calls = []
        cholesky = np.linalg.cholesky

        def counting(Q):
            calls.append(Q.shape)
            return cholesky(Q)

        rng = np.random.default_rng(27)
        X = (rng.random((6, 3)) + 0.1) @ rng.dirichlet(np.ones(3), size=60).T
        init = snpa(X, 3)
        monkeypatch.setattr(np.linalg, "cholesky", counting)
        _, _, hist = minvol(X, 3, init.W0, init.H0, 0.05, max_outer=5, tol=1e-300)
        sweeps = len(hist) - 1
        assert sweeps == 5
        assert calls == [(3, 3)] * (1 + sweeps)

    def test_rounding_rise_is_undone(self):
        # The start fits exactly, so the objective is 0.  The first sweep
        # ends at 8.6e-32 by rounding; it is undone, and the sweeps stall.
        X = np.ones((1, 7))
        W, H, _, final_obj, sweeps, trace = solve(X, 1, "minvol-baseline", lam=0.0)
        assert ([row.objective for row in trace.rows], trace.stop) == ([0.0, 0.0], "stalled")
        assert (final_obj, sweeps) == (0.0, 1)
        np.testing.assert_array_equal(W @ H, X)

    def test_a_rounding_rise_in_a_sweep_is_undone(self, monkeypatch):
        # The first sweep reads 1e-11 relative above the start, a rise within
        # 1e-12 of |X|^2: it is undone, its row repeats the start's, and the
        # sweeps stall at the start, H as the sweeps project it.
        objective_at = baseline_mod._objective_at
        values = []

        def risen(*args):
            values.append(objective_at(*args))
            return values[0] * (1.0 + 1e-11) if len(values) == 2 else values[-1]

        monkeypatch.setattr(baseline_mod, "_objective_at", risen)
        rng = np.random.default_rng(27)
        X = (rng.random((6, 3)) + 0.1) @ rng.dirichlet(np.ones(3), size=60).T
        X += 0.01 * rng.random(X.shape)
        init = snpa(X, 3)
        W, H, *_, trace = solve(
            X, 3, "minvol-baseline", lam=0.05, start=(init.W0, init.H0), max_outer=5
        )
        assert values[0] > 0.0
        assert [row.objective for row in trace.rows] == [values[0], values[0]]
        assert trace.stop == "stalled"
        np.testing.assert_array_equal(W, init.W0)
        np.testing.assert_array_equal(H, project_H_columns(init.H0))

    def test_rejects_nonconforming_shapes(self):
        X = np.ones((3, 4))
        with pytest.raises(InvalidInputError):
            minvol(X, 2, np.ones((3, 3)), np.ones((3, 4)) * 0.1, 0.0)
        with pytest.raises(InvalidInputError):
            minvol(X, 2, np.ones((4, 2)), np.ones((2, 4)) * 0.1, 0.0)


class TestLambdaFromInit:
    def test_zero_reference_weight(self):
        rng = np.random.default_rng(2)
        W0 = rng.random((4, 2)) + 0.5
        H0 = feasible_H(rng, 2, 5)
        assert lambda_from_init(rng.random((4, 5)), W0, H0, 0.0, 0.1) == 0.0

    def test_exact_fit_gives_zero(self):
        rng = np.random.default_rng(3)
        W0 = rng.random((4, 2)) + 0.5
        H0 = feasible_H(rng, 2, 5)
        assert lambda_from_init(W0 @ H0, W0, H0, 0.5, 0.1) == 0.0

    def test_recomposition_identity(self):
        rng = np.random.default_rng(44)
        W0 = rng.random((5, 3)) + 0.4
        H0 = feasible_H(rng, 3, 8)
        X = rng.random((5, 8))
        lam = lambda_from_init(X, W0, H0, 0.37, 0.1)
        res2 = frobenius_norm(X - W0 @ H0) ** 2
        assert lam * shifted_gram(W0, 0.1)[0] == pytest.approx(
            0.37 * res2, rel=1e-10
        )

    def test_negative_logdet_gives_positive_weight(self):
        # Columns small next to delta make the shifted-Gram logdet
        # negative; the weight divides by its absolute value.
        rng = np.random.default_rng(45)
        W0 = rng.random((4, 2)) * 0.1
        H0 = feasible_H(rng, 2, 6)
        X = rng.random((4, 6))
        logdet = shifted_gram(W0, 0.1)[0]
        assert logdet < 0.0
        lam = lambda_from_init(X, W0, H0, 0.37, 0.1)
        res2 = frobenius_norm(X - W0 @ H0) ** 2
        assert lam > 0.0
        assert lam * abs(logdet) == pytest.approx(0.37 * res2, rel=1e-10)

    def test_zero_logdet_denominator_raises(self):
        # Pick delta so the 1x1 shifted Gram is exactly 1.0 and its log
        # is exactly zero (the subtraction below is exact in float64).
        w = 0.77
        delta = 1.0 - w * w
        W0 = np.array([[w]])
        H0 = np.array([[0.5, 0.2]])
        X = np.array([[1.0, 0.3]])
        with pytest.raises(NumericalFaultError):
            lambda_from_init(X, W0, H0, 1.0, delta)


class TestConfigValidation:
    def test_bad_delta(self):
        with pytest.raises(InvalidInputError):
            MinvolConfig(lam=0.1, delta=0.0)

    def test_bad_iteration_counts(self):
        with pytest.raises(InvalidInputError):
            MinvolConfig(lam=0.1, max_outer=0)

    @pytest.mark.parametrize("name", ["max_outer"])
    def test_bad_iteration_count_is_named(self, name):
        with pytest.raises(InvalidInputError, match=rf"^{name} must be >= 1, got 0$"):
            MinvolConfig(lam=0.1, **{name: 0})

    @pytest.mark.parametrize("value", [2.5, np.float64(3.0), "3"])
    @pytest.mark.parametrize("name", ["max_outer"])
    @pytest.mark.parametrize("config", [MinvolConfig, SqrtConfig])
    def test_iteration_count_that_is_not_an_integer_is_named(self, config, name, value):
        # A float budget would be truncated, or never met by the loop's k == budget.
        with pytest.raises(InvalidInputError, match=rf"^{name} must be an integer, got "):
            config(lam=0.1, **{name: value})
        assert config(lam=0.1, max_outer=np.int64(3)).max_outer == 3

    def test_bad_tolerance(self):
        with pytest.raises(InvalidInputError):
            MinvolConfig(lam=0.1, tol=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["lam", "delta", "tol"])
    def test_non_finite_setting_is_named(self, name, value):
        settings = {"lam": 0.1, name: value}
        with pytest.raises(InvalidInputError, match=rf"^{name} must be finite"):
            MinvolConfig(**settings)

    def test_negative_weight_is_refused(self):
        # A negative weight would reward volume; both solvers refuse it.
        message = r"^lam must be finite and >= 0, got -0\.2$"
        with pytest.raises(InvalidInputError, match=message):
            MinvolConfig(lam=-0.2)
