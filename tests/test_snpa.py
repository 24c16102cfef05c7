import numpy as np
import pytest

from oracles import nnls_capped_oracle
from sqrtminvol.errors import InvalidInputError, InvalidParameterError, NumericalFaultError
from sqrtminvol.linalg import frobenius_norm
from sqrtminvol.initialization import nnls_capped_simplex, snpa

W4 = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


class TestNnlsCappedSimplex:
    def test_self_representation(self):
        rng = np.random.default_rng(42)
        W = rng.random((5, 3)) + 0.1
        H = nnls_capped_simplex(W, W, H_init=np.zeros((3, 3)))
        assert frobenius_norm(W - W @ H) <= 1e-8 * frobenius_norm(W)

    def test_orthonormal_columns_recover_truth(self):
        rng = np.random.default_rng(8)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        H_true = np.array([[0.5, 0.1], [0.2, 0.3], [0.1, 0.2]])
        X = Q @ H_true
        H = nnls_capped_simplex(Q, X, iters=2000, tol=1e-14)
        np.testing.assert_allclose(H, H_true, atol=1e-6)

    def test_scalar_case(self):
        H = nnls_capped_simplex(np.array([[2.0]]), np.array([[1.0]]))
        np.testing.assert_allclose(H, [[0.5]], atol=1e-10)

    def test_matches_exhaustive_qp_oracle(self):
        rng = np.random.default_rng(33)
        W = rng.random((4, 3))
        X = rng.random((4, 6)) * 1.5
        H = nnls_capped_simplex(W, X, iters=3000, tol=1e-15)
        for j in range(X.shape[1]):
            want = nnls_capped_oracle(W, X[:, j])
            np.testing.assert_allclose(H[:, j], want, atol=1e-6)

    def test_rejects_zero_column_in_W(self):
        W = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            nnls_capped_simplex(W, np.ones((2, 2)))

    def test_rejects_row_mismatch(self):
        with pytest.raises(InvalidInputError):
            nnls_capped_simplex(np.ones((3, 2)), np.ones((2, 2)))


class TestSnpa:
    def test_separable_recovers_vertices(self):
        rng = np.random.default_rng(12)
        D = rng.dirichlet(np.ones(4), size=20).T * 0.9
        X = np.hstack([W4, W4 @ D])
        result = snpa(X, 4)
        assert sorted(result.selected_indices) == [0, 1, 2, 3]
        assert result.residual_norms[-1] <= 1e-8 * frobenius_norm(X)
        np.testing.assert_array_equal(result.W0, X[:, result.selected_indices])

    def test_identity_block_found_anywhere(self):
        rng = np.random.default_rng(77)
        blob = rng.dirichlet(np.ones(4), size=30).T * 0.85
        H_star = np.hstack([blob[:, :11], np.eye(4), blob[:, 11:]])
        X = W4 @ H_star
        result = snpa(X, 4)
        assert sorted(result.selected_indices) == [11, 12, 13, 14]

    def test_rank_equals_columns(self):
        X = np.diag([1.0, 2.0, 3.0])
        result = snpa(X, 3)
        assert sorted(result.selected_indices) == [0, 1, 2]
        assert result.residual_norms[-1] <= 1e-12

    def test_ties_resolve_to_smallest_index(self):
        # Two copies of the same extreme column: index 0 must win.
        X = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        result = snpa(X, 2)
        assert 0 in result.selected_indices
        assert 1 not in result.selected_indices

    def test_rejects_negative_data(self):
        with pytest.raises(InvalidInputError):
            snpa(np.array([[1.0, -0.1], [0.5, 0.2]]), 1)

    def test_rejects_rank_out_of_range(self):
        X = np.ones((2, 3))
        with pytest.raises(InvalidParameterError):
            snpa(X, 0)
        with pytest.raises(InvalidParameterError):
            snpa(X, 4)

    def test_rank_beyond_distinct_columns_raises(self):
        X = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidInputError):
            snpa(X, 2)

    def test_result_shapes(self):
        rng = np.random.default_rng(3)
        X = rng.random((5, 12))
        result = snpa(X, 3)
        assert result.W0.shape == (5, 3)
        assert result.H0.shape == (3, 12)
        assert len(result.residual_norms) == 3
        assert len(result.selected_indices) == 3

    @pytest.mark.parametrize("scale", [1e200, 1e155])
    def test_overflowing_scale_is_a_numerical_fault(self, scale):
        # The squared norms overflow; the error must name X's scale, not
        # an H_init the caller never passed.
        rng = np.random.default_rng(4)
        X = W4 @ rng.dirichlet(np.ones(4), size=30).T * scale
        with pytest.raises(NumericalFaultError, match="squared norm of X overflows"):
            snpa(X, 4)

    def test_underflowing_columns_are_a_numerical_fault(self):
        # Each column's squared norm underflows to 0, so no column is
        # selectable; the error names the underflow, not a missing column.
        rng = np.random.default_rng(4)
        X = W4 @ rng.dirichlet(np.ones(4), size=30).T * 1e-200
        with pytest.raises(NumericalFaultError, match="column of X underflows"):
            snpa(X, 4)

    def test_an_underflowing_column_is_skipped_when_enough_are_left(self):
        # The check runs on the failure path only: a usable X is not refused.
        X = np.hstack([np.diag([1.0, 2.0, 3.0]), np.full((3, 1), 1e-200)])
        assert sorted(snpa(X, 3).selected_indices) == [0, 1, 2]
        with pytest.raises(InvalidInputError, match="^rank exceeds"):
            snpa(np.hstack([X[:, :2], np.zeros((3, 2))]), 3)
