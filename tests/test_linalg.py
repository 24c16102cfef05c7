import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    cofactor_det,
    frob_oracle,
    gauss_solve,
    jacobi_eigenvalues,
)
from sqrtminvol.errors import InvalidInputError, NumericalFaultError
from sqrtminvol.baseline import lambda_from_init, objective_minvol
from sqrtminvol.initialization import nnls_capped_simplex
from sqrtminvol.linalg import as_matrix, frobenius_norm, residual, shifted_gram
from sqrtminvol.solver import f_eps, residual_r

W4 = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)

# W4's Gram worked out entry by entry: each column has two unit entries,
# adjacent columns share exactly one row, opposite columns share none.
W4_GRAM = np.array(
    [
        [2.0, 1.0, 0.0, 1.0],
        [1.0, 2.0, 1.0, 0.0],
        [0.0, 1.0, 2.0, 1.0],
        [1.0, 0.0, 1.0, 2.0],
    ]
)


class TestFrobeniusNorm:
    def test_identity_2x2(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_zero_matrix(self):
        assert frobenius_norm(np.zeros((3, 5))) == 0.0

    def test_matches_summation_oracle(self):
        M = np.random.default_rng(7).random((4, 4))
        assert frobenius_norm(M) == pytest.approx(frob_oracle(M), rel=1e-13)

    def test_rejects_non_finite(self):
        M = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            frobenius_norm(M)


class TestGramShifted:
    """The matrix ``shifted_gram`` factors: ``W^T W + delta I``, made symmetric."""

    def test_zero_W(self):
        logdet, Q_inv = shifted_gram(np.zeros((4, 2)), 0.1)
        assert logdet == pytest.approx(2 * math.log(0.1), rel=1e-15)
        np.testing.assert_allclose(Q_inv, 10.0 * np.eye(2), rtol=1e-15)

    def test_identity_W(self):
        logdet, Q_inv = shifted_gram(np.eye(2), 0.1)
        assert logdet == pytest.approx(2 * math.log(1.1), rel=1e-15)
        np.testing.assert_allclose(Q_inv, np.eye(2) / 1.1, rtol=1e-15)

    def test_fixed_4x4_hand_product(self):
        logdet, Q_inv = shifted_gram(W4, 0.1)
        Q = W4_GRAM + 0.1 * np.eye(4)
        assert logdet == pytest.approx(math.log(cofactor_det(Q)), rel=1e-13)
        np.testing.assert_allclose(Q_inv @ Q, np.eye(4), atol=1e-14)

    def test_rejects_nonpositive_delta(self):
        for delta in (0.0, -0.1):
            with pytest.raises(InvalidInputError):
                shifted_gram(np.eye(2), delta)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 2),
            elements=st.floats(-10, 10, allow_nan=False, width=64),
        )
    )
    def test_symmetric_for_any_W(self, W):
        _, Q_inv = shifted_gram(W, 0.5)
        np.testing.assert_array_equal(Q_inv, Q_inv.T)


class TestCholesky:
    """The one factorization, seen through what it returns and how it fails."""

    def test_scaled_identity(self):
        logdet, Q_inv = shifted_gram(np.zeros((2, 3)), 4.0)
        assert logdet == pytest.approx(3 * math.log(4.0), rel=1e-15)
        np.testing.assert_array_equal(Q_inv, 0.25 * np.eye(3))

    def test_2x2_hand_solution(self):
        # Columns (1, 1, 0) and (1, 0, 1): W^T W + I = [[3, 1], [1, 3]],
        # whose determinant is 8.
        W = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        logdet, Q_inv = shifted_gram(W, 1.0)
        assert logdet == pytest.approx(math.log(8.0), rel=1e-15)
        np.testing.assert_allclose(
            Q_inv, np.array([[3.0, -1.0], [-1.0, 3.0]]) / 8.0, rtol=1e-14
        )

    # Gram matrices that are singular in float64 once a shift of 1e-300 is
    # lost against their entries: the last Cholesky pivot is exactly 0.
    SINGULAR = {
        "singular": np.array([[1.0, 1.0], [0.0, 0.0]]),
        "parallel": np.array([[1.0, 2.0], [0.0, 0.0]]),
    }

    @pytest.mark.parametrize("W", SINGULAR.values(), ids=SINGULAR.keys())
    def test_not_positive_definite_raises(self, W):
        with pytest.raises(NumericalFaultError, match=r"delta=1e-300\b"):
            shifted_gram(W, 1e-300)


class TestLogdetSpd:
    """The log-determinant ``shifted_gram`` returns."""

    def test_scaled_identity(self):
        logdet, _ = shifted_gram(np.zeros((3, 4)), 0.1)
        assert logdet == pytest.approx(4 * math.log(0.1), rel=1e-12)

    def test_identity_any_size(self):
        # W = sqrt(1 - delta) I, so the shifted Gram is I up to rounding.
        for r in (1, 3, 7):
            assert shifted_gram(math.sqrt(0.75) * np.eye(r), 0.25)[0] == pytest.approx(
                0.0, abs=1e-14
            )

    def test_matches_eigenvalue_oracle(self):
        W = np.random.default_rng(3).random((5, 5))
        expected = float(np.sum(np.log(jacobi_eigenvalues(W.T @ W + np.eye(5)))))
        assert shifted_gram(W, 1.0)[0] == pytest.approx(expected, rel=1e-10)

    # A rank-one W with three equal unit columns: W^T W is the all-ones
    # matrix, the shift of 1e-300 is lost against it, and the second
    # Cholesky pivot is exactly 0, so no log-determinant comes back.
    SINGULAR = {"singular": np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])}

    @pytest.mark.parametrize("W", SINGULAR.values(), ids=SINGULAR.keys())
    def test_not_positive_definite_raises(self, W):
        with pytest.raises(NumericalFaultError):
            shifted_gram(W, 1e-300)


class TestShiftedGramFactor:
    # Two equal unit columns: W^T W = [[1, 1], [1, 1]] is singular, a
    # shift of 1e-300 is lost when it is added to 1, and the second
    # Cholesky pivot comes out exactly 0.
    TWIN = np.array([[1.0, 1.0], [0.0, 0.0]])

    def test_same_as_factoring_the_shifted_gram(self):
        # The kernel's steps written out in numpy: the same operations in
        # the same order, so the same bits.
        W = np.random.default_rng(4).random((6, 3))
        G = W.T @ W
        G = 0.5 * (G + G.T)
        G[np.diag_indices_from(G)] += 0.1
        L = np.linalg.cholesky(G)
        Q_inv = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(3)))
        logdet, got = shifted_gram(W, 0.1)
        assert logdet == float(2.0 * np.sum(np.log(np.diag(L))))
        assert got.tobytes() == (0.5 * (Q_inv + Q_inv.T)).tobytes()

    # The two results the solver reads from one call: the inverse that
    # the factor gives and the log-determinant.  Each case id names the
    # kernel that used to compute that result on its own.
    @pytest.mark.parametrize(
        "read",
        [
            pytest.param(lambda out: out[1], id="cholesky_shifted"),
            pytest.param(lambda out: out[0], id="logdet_shifted"),
        ],
    )
    def test_failure_names_delta(self, read):
        with pytest.raises(NumericalFaultError, match=r"delta=1e-300\b"):
            read(shifted_gram(self.TWIN, 1e-300))


class TestSolveSpd:
    """The inverse ``shifted_gram`` returns."""

    def test_identity(self):
        np.testing.assert_array_equal(shifted_gram(np.zeros((2, 3)), 1.0)[1], np.eye(3))

    def test_scaling(self):
        np.testing.assert_allclose(shifted_gram(np.zeros((2, 3)), 2.0)[1], 0.5 * np.eye(3))

    def test_matches_gaussian_elimination(self):
        W = np.random.default_rng(11).random((4, 4))
        Q = W.T @ W + np.eye(4)
        np.testing.assert_allclose(
            shifted_gram(W, 1.0)[1], gauss_solve(Q, np.eye(4)), atol=1e-10
        )


class TestAsMatrix:
    def test_copies_and_casts(self):
        M = as_matrix([[1, 2], [3, 4]], "M")
        assert M.dtype == np.float64
        assert M.shape == (2, 2)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            as_matrix(np.zeros((0, 3)), "M")

    def test_rejects_vector(self):
        with pytest.raises(InvalidInputError):
            as_matrix(np.zeros(3), "M")


class TestResidual:
    """``X - W H`` is formed in one place, which names a shape mismatch."""

    def test_value(self):
        X, W, H = np.ones((2, 3)), np.full((2, 1), 0.5), np.ones((1, 3))
        np.testing.assert_array_equal(residual(X, W, H), np.full((2, 3), 0.5))

    @pytest.mark.parametrize(
        "call",
        [
            # H has 6 columns for the 5 of X.
            lambda: f_eps(np.ones((4, 5)), np.ones((4, 2)), np.full((2, 6), 0.25),
                          1.0, 0.1, 0.1),
            lambda: residual_r(np.ones((4, 5)), np.ones((4, 2)), np.full((2, 6), 0.25), 0.1),
            # W has 3 rows for the 4 of X.
            lambda: objective_minvol(np.ones((4, 5)), np.ones((3, 2)),
                                     np.full((2, 5), 0.25), 1.0, 0.1),
            # H0 has 3 rows for the 2 columns of W0.
            lambda: lambda_from_init(np.ones((4, 5)), np.ones((4, 2)),
                                     np.full((3, 5), 0.25), 0.1, 0.1),
            # H_init has 3 rows for the 2 columns of W.
            lambda: nnls_capped_simplex(np.ones((4, 2)), np.ones((4, 5)),
                                        np.full((3, 5), 0.25)),
        ],
        ids=["f_eps", "residual_r", "objective_minvol",
             "lambda_from_init", "nnls_capped_simplex"],
    )
    def test_mismatched_shapes_raise_invalid_input(self, call):
        # Each of these let numpy's ValueError (a broadcast or matmul error) out.
        with pytest.raises(InvalidInputError, match="shape"):
            call()
