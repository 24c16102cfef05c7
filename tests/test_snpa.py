import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import nnls_capped_oracle
import sqrtminvol.initialization as init_mod
from sqrtminvol.datagen import InstanceSpec, make_instance
from sqrtminvol.errors import InvalidInputError, NumericalFaultError
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


@st.composite
def mixtures(draw):
    """A small ``(X, r)``: ``X = W H + N``, H's columns on the unit simplex."""
    m = draw(st.integers(2, 6))
    r = draw(st.integers(1, m))
    n = draw(st.integers(r, 12))
    W = draw(arrays(np.float64, (m, r), elements=st.floats(1e-2, 1.0)))
    H = draw(arrays(np.float64, (r, n), elements=st.floats(1e-3, 1.0)))
    N = draw(arrays(np.float64, (m, n), elements=st.floats(0.0, 1e-3)))
    return W @ (H / H.sum(axis=0)) + N, r


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

    @pytest.mark.parametrize("r", [2.5, 2.0, np.float64(2.0)])
    def test_rank_that_is_not_an_integer_is_named(self, r):
        # Truncated, r = 2.5 would select 2 columns.
        X = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError, match=r"^rank must be an integer, got "):
            snpa(X, r)
        assert snpa(X, np.int64(2)).selected_indices == snpa(X, 2).selected_indices

    def test_rejects_rank_out_of_range(self):
        X = np.ones((2, 3))
        with pytest.raises(InvalidInputError):
            snpa(X, 0)
        with pytest.raises(InvalidInputError):
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

    @settings(max_examples=60, deadline=None)
    @given(mixtures(), st.integers(-40, 40))
    def test_power_of_two_scaling_commutes(self, problem, e):
        # Scaling X by 2^e rounds nothing, and neither may SNPA: it picks the
        # same columns and returns 2^e W0 and the same H0, bit for bit.
        X, r = problem
        c = 2.0 ** e
        base, scaled = snpa(X, r), snpa(c * X, r)
        assert scaled.selected_indices == base.selected_indices
        assert scaled.W0.tobytes() == (c * base.W0).tobytes()
        assert scaled.H0.tobytes() == base.H0.tobytes()


def spy_refits(monkeypatch):
    """Patch SNPA's ``solve_block``; return one ``(iters, projections)`` per refit."""
    real = init_mod.solve_block
    signature = inspect.signature(real)
    refits = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        refit = [bound["iters"], 0]
        refits.append(refit)
        project = bound["project"]

        def counted(Z):
            refit[1] += 1
            return project(Z)

        bound["project"] = counted
        return real(**bound)

    monkeypatch.setattr(init_mod, "solve_block", spy)
    return refits


class TestRefitBudgets:
    """The r - 1 selection refits get SELECT_ITERS, the final refit NNLS_ITERS."""

    def test_selection_refits_get_the_selection_budget(self, monkeypatch):
        assert init_mod.SELECT_ITERS < init_mod.NNLS_ITERS
        refits = spy_refits(monkeypatch)
        _, X = make_instance(InstanceSpec("random-uniform", n=40, sigma=0.0, seed=1, m=8, r=6))
        snpa(X, 6)
        budgets = [iters for iters, _ in refits]
        assert budgets == [init_mod.SELECT_ITERS] * 5 + [init_mod.NNLS_ITERS]

    def test_rank_one_has_only_the_final_refit(self, monkeypatch):
        refits = spy_refits(monkeypatch)
        snpa(np.diag([1.0, 2.0, 3.0]), 1)
        assert [iters for iters, _ in refits] == [init_mod.NNLS_ITERS]

    @pytest.mark.parametrize("sigma", [0.0, 1e-1, 1e-2, 1e-3, 1e-4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_paper_instance_selection_refits_stop_inside_the_budget(
        self, monkeypatch, sigma, seed
    ):
        # A refit that stops on NNLS_TOL before SELECT_ITERS steps returns
        # what a 500-step budget returns, so on the paper's instance the
        # smaller budget leaves every pick, H0 and solve bit for bit as
        # before.  Each step projects at least once, so fewer projections
        # than SELECT_ITERS means the budget never bound.
        refits = spy_refits(monkeypatch)
        _, X = make_instance(InstanceSpec("paper-4x4", n=500, sigma=sigma, seed=seed))
        snpa(X, 4)
        assert len(refits) == 4
        used = [projections for _, projections in refits[:-1]]
        assert max(used) < init_mod.SELECT_ITERS, used

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selection_budget_picks_the_converged_column_set(self, monkeypatch, seed):
        # At r = 20 the late selection refits end on their budget.  The
        # columns picked must still be those of a ten-times longer refit; two
        # adjacent picks may swap order (the model is symmetric under column
        # permutation), so the sets are compared.
        _, X = make_instance(
            InstanceSpec("random-uniform", n=200, sigma=0.0, seed=seed, m=25, r=20)
        )
        picked = snpa(X, 20).selected_indices
        monkeypatch.setattr(init_mod, "SELECT_ITERS", 5000)
        converged = snpa(X, 20).selected_indices
        assert sorted(picked) == sorted(converged)
