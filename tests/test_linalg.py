import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import frob_oracle, gauss_solve, jacobi_eigenvalues, jacobi_svd_values
from sqrtminvol.errors import (
    InvalidInputError,
    InvalidParameterError,
    NotPositiveDefiniteError,
)
from sqrtminvol.linalg import (
    as_matrix,
    cholesky,
    cholesky_shifted,
    frobenius_norm,
    gram_shifted,
    logdet_shifted,
    logdet_spd,
    solve_spd,
    spectral_norm,
)

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

# Symmetric matrices that are not positive definite.  The singular one
# has an exactly zero last pivot: 1 + 1e-300 rounds to 1.
NOT_SPD = [
    np.array([[1.0, 2.0], [2.0, 1.0]]),
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-300]]),
    -np.eye(3),
]
NOT_SPD_IDS = ["indefinite", "singular", "negative-definite"]


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
    def test_zero_W(self):
        np.testing.assert_allclose(
            gram_shifted(np.zeros((4, 2)), 0.1), 0.1 * np.eye(2), atol=0
        )

    def test_identity_W(self):
        np.testing.assert_allclose(gram_shifted(np.eye(2), 0.1), 1.1 * np.eye(2))

    def test_fixed_4x4_hand_product(self):
        Q = gram_shifted(W4, 0.1)
        np.testing.assert_allclose(Q, W4_GRAM + 0.1 * np.eye(4), atol=1e-14)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(InvalidParameterError):
            gram_shifted(np.eye(2), 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            (3, 2),
            elements=st.floats(-10, 10, allow_nan=False, width=64),
        )
    )
    def test_symmetric_for_any_W(self, W):
        Q = gram_shifted(W, 0.5)
        np.testing.assert_array_equal(Q, Q.T)


class TestCholesky:
    def test_scaled_identity(self):
        F = cholesky(4.0 * np.eye(3))
        np.testing.assert_allclose(F.lower, 2.0 * np.eye(3))

    def test_2x2_hand_solution(self):
        F = cholesky(np.array([[2.0, 1.0], [1.0, 2.0]]))
        expected = np.array(
            [[math.sqrt(2), 0.0], [1.0 / math.sqrt(2), math.sqrt(1.5)]]
        )
        np.testing.assert_allclose(F.lower, expected, rtol=1e-14)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("Q", NOT_SPD, ids=NOT_SPD_IDS)
    def test_not_positive_definite_raises(self, Q):
        with pytest.raises(NotPositiveDefiniteError):
            cholesky(Q)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestLogdetSpd:
    def test_scaled_identity(self):
        assert logdet_spd(0.1 * np.eye(4)) == pytest.approx(4 * math.log(0.1), rel=1e-12)

    def test_identity_any_size(self):
        for r in (1, 3, 7):
            assert logdet_spd(np.eye(r)) == pytest.approx(0.0, abs=1e-14)

    def test_matches_eigenvalue_oracle(self):
        A = np.random.default_rng(3).random((5, 5))
        Q = A.T @ A + np.eye(5)
        expected = float(np.sum(np.log(jacobi_eigenvalues(Q))))
        assert logdet_spd(Q) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("Q", NOT_SPD, ids=NOT_SPD_IDS)
    def test_not_positive_definite_raises(self, Q):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_spd(Q)


class TestShiftedGramFactor:
    # Two equal unit columns: W^T W = [[1, 1], [1, 1]] is singular, a
    # shift of 1e-300 is lost when it is added to 1, and the second
    # Cholesky pivot comes out exactly 0.
    TWIN = np.array([[1.0, 1.0], [0.0, 0.0]])

    def test_same_as_factoring_the_shifted_gram(self):
        W = np.random.default_rng(4).random((6, 3))
        F = cholesky_shifted(W, 0.1)
        assert F.lower.tobytes() == cholesky(gram_shifted(W, 0.1)).lower.tobytes()
        assert logdet_shifted(W, 0.1) == logdet_spd(gram_shifted(W, 0.1))

    @pytest.mark.parametrize("kernel", [cholesky_shifted, logdet_shifted])
    def test_failure_names_delta(self, kernel):
        with pytest.raises(NotPositiveDefiniteError, match=r"delta=1e-300\b"):
            kernel(self.TWIN, 1e-300)


class TestSolveSpd:
    def test_identity(self):
        B = np.arange(6.0).reshape(3, 2)
        F = cholesky(np.eye(3))
        np.testing.assert_allclose(solve_spd(F, B), B)

    def test_scaling(self):
        F = cholesky(2.0 * np.eye(3))
        np.testing.assert_allclose(solve_spd(F, np.eye(3)), 0.5 * np.eye(3))

    def test_matches_gaussian_elimination(self):
        rng = np.random.default_rng(11)
        A = rng.random((4, 4))
        Q = A.T @ A + np.eye(4)
        B = rng.random((4, 2))
        np.testing.assert_allclose(
            solve_spd(cholesky(Q), B), gauss_solve(Q, B), atol=1e-10
        )

    def test_dimension_mismatch(self):
        F = cholesky(np.eye(3))
        with pytest.raises(InvalidInputError):
            solve_spd(F, np.eye(2))


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-10)

    def test_zero(self):
        assert spectral_norm(np.zeros((2, 4))) == 0.0

    def test_matches_jacobi_svd_oracle(self):
        M = np.random.default_rng(5).random((6, 4))
        expected = jacobi_svd_values(M)[-1]
        assert spectral_norm(M) == pytest.approx(expected, rel=1e-8)

    def test_top_direction_orthogonal_to_all_ones(self):
        # The top singular vector (1, -1) is orthogonal to the all-ones
        # vector, which is an eigenvector of the smaller value 1; a power
        # iteration started from all-ones would never leave it.
        assert spectral_norm(np.array([[2.0, -1.0], [-1.0, 2.0]])) == pytest.approx(
            3.0, rel=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(
        arrays(
            np.float64,
            (4, 3),
            elements=st.floats(-5, 5, allow_nan=False, width=64),
        )
    )
    def test_upper_bounds_column_norms(self, M):
        # |M e_j| <= sigma_max for every canonical direction.
        est = spectral_norm(M)
        for j in range(M.shape[1]):
            assert np.linalg.norm(M[:, j]) <= est * (1 + 1e-8) + 1e-12


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
