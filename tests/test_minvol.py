import math

import numpy as np
import pytest

from oracles import fd_grad, jacobi_eigenvalues, nnls_capped_oracle
from sqrtminvol.errors import (
    DegenerateDenominatorError,
    InvalidInputError,
    InvalidParameterError,
)
from sqrtminvol.linalg import frobenius_norm
from sqrtminvol.baseline import (
    MinvolConfig,
    grad_W,
    lambda_from_init,
    minvol,
    objective_minvol,
    update_H,
    update_W,
)
from sqrtminvol.projections import project_H_columns
from sqrtminvol.initialization import snpa

W4 = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


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
    def test_projection_is_a_fixed_point(self):
        rng = np.random.default_rng(21)
        X = rng.random((3, 5)) * 2.0
        H_opt = project_H_columns(X)
        H = update_H(X, np.eye(3), H_opt, iters=50, tol=1e-12)
        np.testing.assert_allclose(H, H_opt, atol=1e-12)

    def test_identity_factor_converges_to_projection(self):
        rng = np.random.default_rng(22)
        X = rng.random((4, 9)) * 1.5
        H = update_H(X, np.eye(4), np.zeros((4, 9)), iters=80, tol=1e-14)
        np.testing.assert_allclose(H, project_H_columns(X), atol=1e-10)

    def test_small_case_matches_qp_oracle(self):
        rng = np.random.default_rng(30)
        W = rng.random((2, 2)) + 0.2
        X = rng.random((2, 2)) * 1.4
        H = update_H(X, W, np.zeros((2, 2)), iters=4000, tol=1e-15)
        for j in range(2):
            want = nnls_capped_oracle(W, X[:, j])
            np.testing.assert_allclose(H[:, j], want, atol=1e-8)


class TestUpdateW:
    def test_unpenalized_identity_coefficients_recover_data(self):
        rng = np.random.default_rng(40)
        X = rng.random((4, 4)) + 0.05
        W = update_W(X, np.ones_like(X), X, np.eye(4), 0.0, iters=200, tol=1e-15)
        # H = X here, so the block objective is |X - W X|_F^2; check by value.
        assert frobenius_norm(X - W @ X) <= 1e-6 * frobenius_norm(X)

    def test_ridge_shrinkage_has_closed_form(self):
        rng = np.random.default_rng(41)
        X = rng.random((5, 3)) + 0.1
        lam_eff = 0.7
        W = update_W(
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
        W = update_W(X, W_star, np.eye(4), np.eye(4), lam_eff, iters=5, tol=1e-15)
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

        W1 = update_W(X, W, H, A, lam_eff)
        assert surrogate(W1) <= surrogate(W) * (1.0 + 1e-12)
        before = frobenius_norm(X - W1 @ H) ** 2
        after = frobenius_norm(X - W1 @ update_H(X, W1, H)) ** 2
        assert after <= before * (1.0 + 1e-12)


class TestMinvol:
    def test_separable_unpenalized_fit(self):
        rng = np.random.default_rng(5)
        D = rng.dirichlet(np.ones(4), size=30).T * 0.9
        X = np.hstack([W4, W4 @ D])
        init = snpa(X, 4)
        cfg = MinvolConfig(lam=0.0, outer_sweeps=200, tol_rel_obj=1e-13)
        state = minvol(X, 4, init.W0, init.H0, cfg)
        rel = frobenius_norm(X - state.W @ state.H) / frobenius_norm(X)
        assert rel <= 1e-8

    def test_noisy_initscaled_weight_keeps_fit(self):
        rng = np.random.default_rng(19)
        H_star = rng.dirichlet(np.ones(4), size=150).T
        X = W4 @ H_star + 0.01 * rng.random((4, 150))
        init = snpa(X, 4)
        lam = lambda_from_init(X, init.W0, init.H0, 1e-2, 0.1)
        state = minvol(X, 4, init.W0, init.H0, MinvolConfig(lam=lam))
        rel = frobenius_norm(X - state.W @ state.H) / frobenius_norm(X)
        assert rel <= 0.1

    def test_history_starts_at_init_and_decreases(self):
        rng = np.random.default_rng(27)
        H_star = rng.dirichlet(np.ones(3), size=60).T
        W_star = rng.random((6, 3)) + 0.1
        X = W_star @ H_star
        init = snpa(X, 3)
        cfg = MinvolConfig(lam=0.05, outer_sweeps=40)
        state = minvol(X, 3, init.W0, init.H0, cfg)
        hist = state.objective_history
        assert hist[0] == pytest.approx(
            objective_minvol(X, init.W0, init.H0, 0.05, 0.1), rel=1e-12
        )
        assert 2 <= len(hist) <= cfg.outer_sweeps + 1
        for a, b in zip(hist, hist[1:]):
            assert b <= a + 1e-9 * abs(a)

    def test_rejects_nonconforming_shapes(self):
        X = np.ones((3, 4))
        with pytest.raises(InvalidInputError):
            minvol(X, 2, np.ones((3, 3)), np.ones((3, 4)) * 0.1, MinvolConfig(lam=0.0))
        with pytest.raises(InvalidInputError):
            minvol(X, 2, np.ones((4, 2)), np.ones((2, 4)) * 0.1, MinvolConfig(lam=0.0))


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
        from sqrtminvol.linalg import gram_shifted, logdet_spd

        res2 = frobenius_norm(X - W0 @ H0) ** 2
        assert lam * logdet_spd(gram_shifted(W0, 0.1)) == pytest.approx(
            0.37 * res2, rel=1e-10
        )

    def test_negative_logdet_gives_positive_weight(self):
        # Columns small next to delta make the shifted-Gram logdet
        # negative; the weight divides by its absolute value.
        rng = np.random.default_rng(45)
        W0 = rng.random((4, 2)) * 0.1
        H0 = feasible_H(rng, 2, 6)
        X = rng.random((4, 6))
        from sqrtminvol.linalg import gram_shifted, logdet_spd

        logdet = logdet_spd(gram_shifted(W0, 0.1))
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
        with pytest.raises(DegenerateDenominatorError):
            lambda_from_init(X, W0, H0, 1.0, delta)


class TestConfigValidation:
    def test_bad_delta(self):
        with pytest.raises(InvalidParameterError):
            MinvolConfig(lam=0.1, delta=0.0)

    def test_bad_iteration_counts(self):
        with pytest.raises(InvalidParameterError):
            MinvolConfig(lam=0.1, outer_sweeps=0)
        with pytest.raises(InvalidParameterError):
            MinvolConfig(lam=0.1, inner_iters_per_block=0)

    def test_bad_tolerance(self):
        with pytest.raises(InvalidParameterError):
            MinvolConfig(lam=0.1, tol_rel_obj=0.0)

    def test_negative_weight_is_accepted(self):
        cfg = MinvolConfig(lam=-0.2)
        assert cfg.lam == -0.2
