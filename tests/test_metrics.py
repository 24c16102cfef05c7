import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import align_brute_force, assignment_brute_force
from sqrtminvol.errors import InvalidInputError
from sqrtminvol.metrics import (
    _min_cost_assignment,
    align_columns,
    rel_rmse_W,
    rel_rmse_X,
)


@st.composite
def cost_matrices(draw, max_r):
    """Square costs, often tied: small integers or spread-out floats,
    sometimes with a zero row and a duplicated column."""
    r = draw(st.integers(1, max_r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        C = rng.integers(0, 4, (r, r)).astype(float)
    else:
        C = rng.random((r, r)) * 10.0 ** draw(st.integers(-6, 6))
    if draw(st.booleans()):
        C[draw(st.integers(0, r - 1))] = 0.0
    if draw(st.booleans()):
        C[:, draw(st.integers(0, r - 1))] = C[:, draw(st.integers(0, r - 1))]
    return C


@st.composite
def column_pairs(draw, max_r):
    """Integer-valued (W_star, W_hat) whose costs tie: W_hat repeats columns
    and may hold a zero column."""
    r = draw(st.integers(1, max_r))
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Ws = rng.integers(0, 3, (m, r)).astype(float)
    Wh = rng.integers(0, 3, (m, r)).astype(float)
    Wh[:, draw(st.integers(0, r - 1))] = Wh[:, draw(st.integers(0, r - 1))]
    if draw(st.booleans()):
        Wh[:, draw(st.integers(0, r - 1))] = 0.0
    return Ws, Wh


def matched_cost(C, cols):
    assert sorted(cols.tolist()) == list(range(C.shape[0]))
    return float(C[np.arange(C.shape[0]), cols].sum())


class TestRelRmseX:
    def test_exact_factorization(self):
        rng = np.random.default_rng(0)
        W = rng.random((4, 2))
        H = rng.random((2, 6)) * 0.4
        assert rel_rmse_X(W @ H, W, H) == 0.0

    def test_known_perturbation(self):
        X = np.eye(3)
        W = np.eye(3)
        H = np.eye(3) * 0.99  # residual 0.01 per diagonal entry
        want = math.sqrt(3 * 0.01**2) / math.sqrt(3.0)
        assert rel_rmse_X(X, W, H) == pytest.approx(want, rel=1e-12)

    def test_zero_reference_raises(self):
        with pytest.raises(InvalidInputError):
            rel_rmse_X(np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 2)))

    def test_shape_mismatch_raises(self):
        # W H is 2 x 3; numpy used to fail broadcasting it against X* with ValueError.
        message = r"^X_star has shape \(2, 2\) but W H has \(2, 3\)$"
        with pytest.raises(InvalidInputError, match=message):
            rel_rmse_X(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 3)))


class TestAlignment:
    def test_identity_match(self):
        rng = np.random.default_rng(1)
        W = rng.random((5, 4))
        res = align_columns(W, W)
        np.testing.assert_array_equal(res.permutation, np.arange(4))
        assert res.cost == pytest.approx(0.0, abs=1e-12)

    def test_recovers_a_shuffle(self):
        rng = np.random.default_rng(2)
        W = rng.random((6, 4))
        perm = np.array([2, 0, 3, 1])
        shuffled = W[:, perm]
        res = align_columns(W, shuffled)
        # W_hat[:, permutation] must reproduce W_star's column order.
        np.testing.assert_array_equal(shuffled[:, res.permutation], W)

    def test_cost_matches_brute_force_over_many_seeds(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            Ws = rng.random((5, 4))
            Wh = rng.random((5, 4))
            res = align_columns(Ws, Wh)
            assert res.cost == pytest.approx(
                align_brute_force(Ws, Wh)[1], rel=1e-10, abs=1e-12
            )

    @settings(max_examples=200, deadline=None)
    @given(column_pairs(max_r=7))
    def test_tied_costs_match_brute_force_exactly(self, pair):
        Ws, Wh = pair
        res = align_columns(Ws, Wh)
        assert sorted(res.permutation.tolist()) == list(range(Ws.shape[1]))
        # Integer entries make every cost an exact small integer.
        assert res.cost == align_brute_force(Ws, Wh)[1]
        assert res.cost == float(np.sum((Ws - Wh[:, res.permutation]) ** 2))

    @settings(max_examples=200, deadline=None)
    @given(cost_matrices(max_r=7))
    def test_assignment_is_optimal_against_brute_force(self, C):
        got = matched_cost(C, _min_cost_assignment(C))
        assert got == pytest.approx(assignment_brute_force(C), rel=1e-12, abs=0.0)

    def test_assignment_matches_scipy(self):
        # The package does not depend on scipy; check against it where present.
        optimize = pytest.importorskip("scipy.optimize")

        @settings(max_examples=100, deadline=None)
        @given(cost_matrices(max_r=25))
        def check(C):
            rows, cols = optimize.linear_sum_assignment(C)
            got = matched_cost(C, _min_cost_assignment(C))
            assert got == pytest.approx(float(C[rows, cols].sum()), rel=1e-12, abs=0.0)

        check()

    def test_shape_mismatch_raises(self):
        with pytest.raises(InvalidInputError):
            align_columns(np.ones((3, 2)), np.ones((3, 3)))


class TestRelRmseW:
    def test_shuffled_copy_scores_zero(self):
        rng = np.random.default_rng(3)
        W = rng.random((5, 4))
        assert rel_rmse_W(W, W[:, [3, 1, 0, 2]]) == pytest.approx(0.0, abs=1e-14)

    def test_analytic_perturbation(self):
        rng = np.random.default_rng(4)
        W = rng.random((6, 3)) + 1.0  # well-separated columns
        E = rng.normal(size=(6, 3)) * 1e-3
        perm = np.array([1, 2, 0])
        got = rel_rmse_W(W, (W + E)[:, perm])
        want = float(np.linalg.norm(E) / np.linalg.norm(W))
        assert got == pytest.approx(want, rel=1e-9)

    def test_zero_reference_raises(self):
        with pytest.raises(InvalidInputError):
            rel_rmse_W(np.zeros((3, 2)), np.ones((3, 2)))
