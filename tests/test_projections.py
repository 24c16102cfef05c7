import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import clamp_oracle, proj_capped_cumsum, proj_capped_oracle
from sqrtminvol.errors import InvalidInputError
from sqrtminvol.projections import (
    SORTING_NETWORKS,
    project_H_columns,
    project_nonneg,
    require_feasible,
)


# Exact binary fractions, so ties and column sums of exactly 1 survive
# floating point: [0.5, 0.5] and [0.25] * 4 sit on the cap.  Both signed
# zeros tie with each other.
TIE_VALUES = (-1.0, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0)


@st.composite
def h_matrices(draw, max_r=6):
    """r x n matrices, r in 1..max_r and n in 1..8, mixing column kinds.

    Each column is drawn free, from a few tied values, all negative, or
    with 1, 2, 4, 8 or 16 equal entries summing to exactly 1 and the
    rest nonpositive, so the comparisons cover ties, columns that clamp
    to zero and columns on the cap.
    """
    r = draw(st.integers(1, max_r))
    n = draw(st.integers(1, 8))
    free = st.floats(-3, 3, allow_nan=False, width=64)
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(("free", "tied", "negative", "unit_sum")))
        if kind == "free":
            col = draw(arrays(np.float64, r, elements=free))
        elif kind == "tied":
            col = draw(arrays(np.float64, r, elements=st.sampled_from(TIE_VALUES)))
        elif kind == "negative":
            col = draw(arrays(np.float64, r, elements=st.floats(-3, -1e-3, width=64)))
        else:
            k = draw(st.sampled_from([k for k in (1, 2, 4, 8, 16) if k <= r]))
            col = draw(arrays(np.float64, r, elements=st.floats(-3, 0, width=64)))
            col[draw(st.permutations(range(r)))[:k]] = 1.0 / k
        cols.append(col)
    return np.column_stack(cols)


class TestProjectNonneg:
    def test_mixed_signs(self):
        M = np.array([[-1.0, 2.0], [0.0, -3.0]])
        np.testing.assert_array_equal(project_nonneg(M), [[0.0, 2.0], [0.0, 0.0]])

    def test_nonnegative_unchanged(self):
        M = np.array([[0.5, 0.0], [1.5, 2.0]])
        np.testing.assert_array_equal(project_nonneg(M), M)

    def test_matches_entrywise_oracle(self):
        M = np.random.default_rng(9).normal(size=(5, 7))
        np.testing.assert_array_equal(project_nonneg(M), clamp_oracle(M))


def project_capped_simplex(v):
    """One vector through the column projection."""
    return project_H_columns(v[:, None])[:, 0]


class TestProjectCappedSimplex:
    def test_interior_point_unchanged(self):
        np.testing.assert_allclose(
            project_capped_simplex(np.array([0.2, 0.3])), [0.2, 0.3]
        )

    def test_single_active_coordinate(self):
        np.testing.assert_allclose(project_capped_simplex(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_hyperplane_shift(self):
        # Both coordinates stay positive; the excess (1.7 - 1)/2 = 0.35
        # is removed from each.
        np.testing.assert_allclose(
            project_capped_simplex(np.array([0.9, 0.8])), [0.55, 0.45], atol=1e-15
        )

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(1, 6),
            elements=st.floats(-3, 3, allow_nan=False, width=64),
        )
    )
    def test_matches_exhaustive_qp_oracle(self, v):
        got = project_capped_simplex(v)
        want = proj_capped_oracle(v)
        np.testing.assert_allclose(got, want, atol=1e-10)

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            4,
            elements=st.floats(-5, 5, allow_nan=False, width=64),
        )
    )
    def test_output_feasible(self, v):
        x = project_capped_simplex(v)
        assert x.min() >= 0.0
        assert x.sum() <= 1.0 + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(np.float64, 3, elements=st.floats(-4, 4, allow_nan=False, width=64)),
        arrays(np.float64, 3, elements=st.floats(-4, 4, allow_nan=False, width=64)),
    )
    def test_nonexpansive(self, u, v):
        pu = project_capped_simplex(u)
        pv = project_capped_simplex(v)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            v = rng.normal(size=5)
            once = project_capped_simplex(v)
            np.testing.assert_allclose(project_capped_simplex(once), once, atol=1e-12)


class TestSortingNetworks:
    def test_sizes_are_optimal(self):
        # Fewest comparators that sort r values (Knuth, TAOCP 5.3.4).
        sizes = {r: len(net) for r, net in SORTING_NETWORKS.items()}
        assert sizes == {1: 0, 2: 1, 3: 3, 4: 5, 5: 9}

    @pytest.mark.parametrize("r", sorted(SORTING_NETWORKS))
    def test_sorts_every_zero_one_vector(self, r):
        # 0-1 principle: a comparator network sorts every input iff it
        # sorts all 2^r vectors of 0s and 1s.
        for bits in itertools.product((0, 1), repeat=r):
            v = list(bits)
            for i, j in SORTING_NETWORKS[r]:
                assert 0 <= i < j < r
                v[i], v[j] = min(v[i], v[j]), max(v[i], v[j])
            assert v == sorted(bits), bits


class TestProjectHColumns:
    def test_feasible_unchanged(self):
        H = np.array([[0.2, 0.5], [0.3, 0.5]])
        np.testing.assert_array_equal(project_H_columns(H), H)

    def test_only_offending_column_changes(self):
        H = np.array([[0.2, 0.9], [0.3, 0.8]])
        P = project_H_columns(H)
        np.testing.assert_array_equal(P[:, 0], H[:, 0])
        np.testing.assert_allclose(P[:, 1], [0.55, 0.45], atol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(h_matrices())
    def test_matches_per_column_oracle(self, H):
        P = project_H_columns(H)
        for j in range(H.shape[1]):
            np.testing.assert_allclose(P[:, j], proj_capped_oracle(H[:, j]), atol=1e-10)

    @settings(max_examples=300, deadline=None)
    @given(h_matrices(max_r=24))
    def test_bitwise_equal_to_cumsum_reference(self, H):
        # The suffix sums repeat the cumulative sum's additions in order.
        assert project_H_columns(H).tobytes() == proj_capped_cumsum(H).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda r: arrays(
                np.float64,
                st.tuples(st.just(r), st.integers(1, 8)),
                # Entries up to 0.9/r keep every column sum below 1 with
                # room for rounding, so each column is strictly feasible.
                elements=st.floats(0.0, 0.9 / r, width=64),
            )
        )
    )
    def test_feasible_matrix_is_bitwise_unchanged(self, H):
        P = project_H_columns(H)
        assert P.tobytes() == H.tobytes()

    @pytest.mark.parametrize("r", [5, 6])
    def test_ties_and_unit_sum_bitwise_on_both_sides_of_cutoff(self, r):
        # r = 5 sorts by network, r = 6 by column; columns hold tied
        # entries, signed zeros, an exact unit sum and an overfull tie.
        H = np.array(
            [
                [0.25, 0.5, -0.0, 0.5, 2.0, -1.0],
                [0.25, -0.0, 0.0, 0.5, 2.0, 0.25],
                [0.25, 0.5, -0.0, 0.5, -0.25, -0.0],
                [0.25, 0.0, 0.0, 0.5, 2.0, 0.25],
                [0.0, -0.25, -0.0, 0.5, 0.5, 0.5],
                [-0.0, 0.0, 0.0, 0.5, 2.0, 0.0],
            ]
        )[:r]
        assert H[:4, 0].sum() == 1.0
        assert project_H_columns(H).tobytes() == proj_capped_cumsum(H).tobytes()
        np.testing.assert_array_equal(project_H_columns(H)[:, 0], H[:, 0])

    def test_unit_sum_columns_are_bitwise_unchanged(self):
        H = np.zeros((4, 3))
        H[:2, 0] = 0.5
        H[:, 1] = 0.25
        H[2, 2] = 1.0
        np.testing.assert_array_equal(project_H_columns(H), H)

    def test_consistent_with_vector_version(self):
        rng = np.random.default_rng(17)
        H = rng.normal(size=(5, 40))
        P = project_H_columns(H)
        for j in range(40):
            np.testing.assert_array_equal(P[:, j], project_capped_simplex(H[:, j]))


class TestRequireFeasible:
    def test_accepts_feasible_pair(self):
        W = np.abs(np.random.default_rng(0).normal(size=(3, 2)))
        H = np.full((2, 4), 0.4)
        require_feasible(W, H, "test")

    def test_rejects_negative_W(self):
        W = np.array([[1.0, -0.1], [0.0, 1.0]])
        H = np.full((2, 3), 0.3)
        with pytest.raises(InvalidInputError):
            require_feasible(W, H, "test")

    def test_rejects_overweight_column(self):
        W = np.ones((2, 2))
        H = np.array([[0.8], [0.8]])
        with pytest.raises(InvalidInputError):
            require_feasible(W, H, "test")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            require_feasible(np.ones((2, 3)), np.ones((2, 4)) * 0.1, "test")
