import numpy as np
import pytest

from oracles import cofactor_det
from sqrtminvol.datagen import (
    GENERATOR_NAMES,
    InstanceSpec,
    add_uniform_noise,
    dirichlet_H,
    fixed_W4,
    make_instance,
    random_uniform_W,
)
from sqrtminvol.errors import InvalidInputError


class TestFixedW4:
    def test_frozen_values(self):
        want = np.array(
            [
                [1.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 1.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(fixed_W4(), want)

    def test_column_sums_are_two(self):
        np.testing.assert_array_equal(fixed_W4().sum(axis=0), [2.0, 2.0, 2.0, 2.0])

    def test_gram_is_singular(self):
        W = fixed_W4()
        assert cofactor_det(W.T @ W) == pytest.approx(0.0, abs=1e-12)

    def test_returns_a_fresh_copy(self):
        A = fixed_W4()
        A[0, 0] = 99.0
        assert fixed_W4()[0, 0] == 1.0


class TestDirichletH:
    def test_columns_live_on_the_simplex(self):
        H = dirichlet_H(4, 200, 1.0, 123)
        assert H.shape == (4, 200)
        assert np.min(H) >= 0.0
        np.testing.assert_allclose(H.sum(axis=0), 1.0, atol=1e-12)

    def test_large_alpha_concentrates_at_center(self):
        H = dirichlet_H(4, 50, 1e6, 5)
        np.testing.assert_allclose(H, 0.25, atol=2e-3)

    def test_rank_one_is_all_ones(self):
        np.testing.assert_allclose(dirichlet_H(1, 7, 1.0, 0), np.ones((1, 7)), atol=1e-12)

    def test_seed_determinism(self):
        np.testing.assert_array_equal(
            dirichlet_H(3, 20, 0.5, 42), dirichlet_H(3, 20, 0.5, 42)
        )
        assert not np.array_equal(dirichlet_H(3, 20, 0.5, 42), dirichlet_H(3, 20, 0.5, 43))


class TestRandomUniformW:
    def test_support_and_mean(self):
        W = random_uniform_W(20, 10, 17)
        assert W.shape == (20, 10)
        assert np.min(W) >= 0.0 and np.max(W) < 1.0
        assert abs(W.mean() - 0.5) <= 0.06

    def test_seed_determinism(self):
        np.testing.assert_array_equal(random_uniform_W(6, 3, 9), random_uniform_W(6, 3, 9))


class TestAddUniformNoise:
    def test_zero_sigma_is_exact(self):
        rng = np.random.default_rng(0)
        X = rng.random((5, 8))
        Y = add_uniform_noise(X, 0.0, 11)
        np.testing.assert_array_equal(Y, X)
        assert Y is not X

    def test_noise_support(self):
        rng = np.random.default_rng(1)
        X = rng.random((30, 40))
        Y = add_uniform_noise(X, 0.2, 12)
        E = Y - X
        assert np.min(E) >= 0.0 and np.max(E) < 0.2

    def test_noise_mean_is_half_sigma(self):
        sigma = 0.3
        X = np.zeros((100, 100))
        E = add_uniform_noise(X, sigma, 13)
        se = sigma / np.sqrt(12.0 * X.size)
        assert abs(E.mean() - sigma / 2.0) <= 4.0 * se

    def test_negative_sigma_raises(self):
        with pytest.raises(InvalidInputError):
            add_uniform_noise(np.ones((2, 2)), -0.1, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: dirichlet_H(0, 5, 1.0, 0), "r and n must be >= 1, got r=0, n=5"),
        (lambda: dirichlet_H(3, 5, 0.0, 0), "alpha must be > 0, got 0.0"),
        (lambda: random_uniform_W(0, 3, 0), "m and r must be >= 1, got m=0, r=3"),
        (
            lambda: InstanceSpec("random-uniform", n=10, sigma=0.0, seed=0, m=0, r=3),
            "m and r must be >= 1",
        ),
    ],
    ids=["dirichlet-r", "dirichlet-alpha", "uniform-m", "spec-m"],
)
def test_bad_size_or_concentration_is_named(call, message):
    with pytest.raises(InvalidInputError, match=rf"^{message}$"):
        call()


class TestInstanceSpec:
    def test_generator_names(self):
        assert GENERATOR_NAMES == ("paper-4x4", "random-uniform")

    def test_paper_shape_is_fixed(self):
        spec = InstanceSpec("paper-4x4", n=500, sigma=0.0, seed=0)
        assert spec.rank == 4 and spec.rows == 4
        with pytest.raises(InvalidInputError):
            InstanceSpec("paper-4x4", n=10, sigma=0.0, seed=0, m=5)

    def test_random_uniform_needs_dimensions(self):
        with pytest.raises(InvalidInputError):
            InstanceSpec("random-uniform", n=10, sigma=0.0, seed=0)
        spec = InstanceSpec("random-uniform", n=10, sigma=0.0, seed=0, m=25, r=20)
        assert spec.rows == 25 and spec.rank == 20

    def test_rejects_unknown_generator(self):
        with pytest.raises(InvalidInputError):
            InstanceSpec("chessboard", n=10, sigma=0.0, seed=0)

    def test_rejects_bad_scalars(self):
        with pytest.raises(InvalidInputError):
            InstanceSpec("paper-4x4", n=0, sigma=0.0, seed=0)
        with pytest.raises(InvalidInputError):
            InstanceSpec("paper-4x4", n=10, sigma=-1.0, seed=0)
        with pytest.raises(InvalidInputError):
            InstanceSpec("paper-4x4", n=10, sigma=0.0, seed=0, alpha=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", -1), ("sigma", np.inf), ("sigma", np.nan), ("alpha", np.inf)],
    )
    def test_rejects_negative_seed_and_non_finite_scalars(self, field, value):
        # Each would otherwise fail deep inside the draw, or draw a non-finite X.
        kwargs = {"n": 10, "sigma": 0.0, "seed": 0, field: value}
        with pytest.raises(InvalidInputError, match=rf"^{field} must be"):
            InstanceSpec("paper-4x4", **kwargs)

    @pytest.mark.parametrize(
        "field, value", [("n", 20.5), ("seed", 1.5), ("m", 5.0), ("r", 2.5), ("n", "20")]
    )
    def test_count_that_is_not_an_integer_is_named(self, field, value):
        # Truncated, n = 20.5 would build 20 columns and seed = 1.5 draw seed 1.
        kwargs = {"n": 20, "sigma": 0.0, "seed": 0, "m": 5, "r": 3, field: value}
        with pytest.raises(InvalidInputError, match=rf"^{field} must be an integer, got "):
            InstanceSpec("random-uniform", **kwargs)

    def test_numpy_integers_are_counts(self):
        spec = InstanceSpec(
            "random-uniform", n=np.int64(20), sigma=0.0, seed=np.uint32(1),
            m=np.int16(5), r=np.int64(3),
        )
        _, X = make_instance(spec)
        _, X_int = make_instance(InstanceSpec("random-uniform", 20, 0.0, 1, m=5, r=3))
        np.testing.assert_array_equal(X, X_int)


class TestMakeInstance:
    def test_paper_instance_shapes_and_consistency(self):
        gt, X = make_instance(InstanceSpec("paper-4x4", n=500, sigma=0.0, seed=3))
        assert gt.W_star.shape == (4, 4)
        assert gt.H_star.shape == (4, 500)
        assert X.shape == (4, 500)
        np.testing.assert_array_equal(gt.X_star, gt.W_star @ gt.H_star)
        np.testing.assert_array_equal(X, gt.X_star)

    def test_large_instance_shapes(self):
        spec = InstanceSpec("random-uniform", n=10000, sigma=0.0, seed=1, m=25, r=20)
        gt, X = make_instance(spec)
        assert gt.W_star.shape == (25, 20)
        assert X.shape == (25, 10000)

    def test_noise_bounded_by_sigma(self):
        gt, X = make_instance(InstanceSpec("paper-4x4", n=300, sigma=0.1, seed=5))
        E = X - gt.X_star
        assert 0.0 < np.max(E) <= 0.1
        assert np.min(E) >= 0.0

    def test_ground_truth_is_feasible(self):
        gt, _ = make_instance(InstanceSpec("random-uniform", n=50, sigma=0.0, seed=2, m=6, r=3))
        assert np.min(gt.W_star) >= 0.0
        assert np.min(gt.H_star) >= 0.0
        np.testing.assert_allclose(gt.H_star.sum(axis=0), 1.0, atol=1e-12)

    def test_bit_determinism(self):
        spec = InstanceSpec("paper-4x4", n=100, sigma=0.01, seed=8)
        _, X1 = make_instance(spec)
        _, X2 = make_instance(spec)
        np.testing.assert_array_equal(X1, X2)

    def test_truth_is_shared_across_noise_levels(self):
        a, _ = make_instance(InstanceSpec("paper-4x4", n=100, sigma=0.1, seed=8))
        b, _ = make_instance(InstanceSpec("paper-4x4", n=100, sigma=0.001, seed=8))
        np.testing.assert_array_equal(a.H_star, b.H_star)
        np.testing.assert_array_equal(a.X_star, b.X_star)

    def test_rejects_raw_tuples(self):
        with pytest.raises(InvalidInputError):
            make_instance(("paper-4x4", 100, 0.0, 1))
