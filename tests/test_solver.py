import csv
import io
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import f_eps_grad, fd_grad, frob_oracle, jacobi_eigenvalues, surrogate_g
from sqrtminvol.datagen import InstanceSpec, make_instance
from sqrtminvol.errors import InvalidInputError, NumericalFaultError
import sqrtminvol.baseline as baseline_mod
import sqrtminvol.solver as solver_mod
from sqrtminvol.baseline import MinvolConfig, block_sweeps, lambda_from_init
from sqrtminvol.initialization import snpa
from sqrtminvol.matrixio import write_table
from sqrtminvol.sweep import ExperimentSpec
from sqrtminvol.solver import (
    INNER_SWEEPS,
    INNER_TOL,
    SqrtConfig,
    TraceRow,
    f_eps,
    lambda_k,
    residual_r,
    solve,
    sqrt_minvol,
)

W4 = np.array(
    [
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 1.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    ]
)


def feasible_pair(rng, m, r, n, scale=1.0):
    W = rng.random((m, r)) * scale
    H = rng.random((r, n))
    H /= H.sum(axis=0, keepdims=True) + 0.5
    return W, H


def separable_X(rng, n_extra=26):
    D = rng.dirichlet(np.ones(4), size=n_extra).T * 0.9
    return np.hstack([W4, W4 @ D])


class TestResidualR:
    def test_exact_fit_leaves_epsilon(self):
        H = np.array([[0.4, 0.2], [0.3, 0.3]])
        assert residual_r(H.copy(), np.eye(2), H, 0.25) == pytest.approx(0.25, abs=0)

    def test_zero_factors_give_data_energy(self):
        X = np.array([[1.0, 2.0], [0.5, 1.5]])
        r = residual_r(X, np.zeros((2, 2)), np.zeros((2, 2)), 0.1)
        assert r == pytest.approx(frob_oracle(X) ** 2 + 0.1, rel=1e-14)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(4)
        X = rng.random((5, 7))
        W, H = feasible_pair(rng, 5, 3, 7)
        want = frob_oracle(X - W @ H) ** 2 + 0.01
        assert residual_r(X, W, H, 0.01) == pytest.approx(want, rel=1e-13)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(InvalidInputError):
            residual_r(np.ones((2, 2)), np.ones((2, 1)), np.ones((1, 2)) * 0.4, 0.0)


class TestLambdaK:
    def test_quarter_residual_unit_weight(self):
        assert lambda_k(0.25, 1.0) == pytest.approx(1.0, abs=0)

    def test_zero_weight(self):
        assert lambda_k(0.37, 0.0) == 0.0

    def test_smoothing_floor_value(self):
        assert lambda_k(0.1, 0.8) == pytest.approx(1.6 * math.sqrt(0.1), rel=1e-15)

    def test_rejects_nonpositive_residual(self):
        with pytest.raises(InvalidInputError):
            lambda_k(0.0, 1.0)


class TestRmsResidual:
    """The trace's ``rms_residual`` is ``sqrt(r_k / (m n))``, read off a one-row solve."""

    @staticmethod
    def first_row(X, W, H):
        settings = dict(lam=0.0, epsilon=0.1, max_outer=1)
        return solve(X, W.shape[1], "sqrt-minvol", start=(W, H), **settings)[1].rows[0]

    def test_exact_fit_floor(self):
        X = np.full((10, 10), 0.05)
        got = self.first_row(X, np.eye(10), X.copy()).rms_residual
        assert got == pytest.approx(math.sqrt(0.1 / 100.0), rel=1e-15)

    def test_random_case(self):
        rng = np.random.default_rng(6)
        X = rng.random((4, 6))
        W, H = feasible_pair(rng, 4, 2, 6)
        want = math.sqrt((frob_oracle(X - W @ H) ** 2 + 0.1) / 24.0)
        assert self.first_row(X, W, H).rms_residual == pytest.approx(want, rel=1e-13)


class TestFEps:
    def test_identity_factor_closed_form(self):
        H = np.array([[0.3, 0.1], [0.2, 0.4], [0.1, 0.2]])
        got = f_eps(H.copy(), np.eye(3), H, lam=1.0, delta=0.1, epsilon=0.01)
        assert got == pytest.approx(0.1 + 3.0 * math.log(1.1), rel=1e-13)

    def test_zero_weight_is_smoothed_root(self):
        rng = np.random.default_rng(10)
        X = rng.random((4, 5))
        W, H = feasible_pair(rng, 4, 2, 5)
        want = math.sqrt(frob_oracle(X - W @ H) ** 2 + 0.05)
        assert f_eps(X, W, H, 0.0, 0.1, 0.05) == pytest.approx(want, rel=1e-13)

    def test_matches_independent_oracles(self):
        rng = np.random.default_rng(21)
        X = rng.random((5, 8))
        W, H = feasible_pair(rng, 5, 3, 8)
        res2 = frob_oracle(X - W @ H) ** 2
        eigs = jacobi_eigenvalues(W.T @ W + 0.1 * np.eye(3))
        want = math.sqrt(res2 + 0.2) + 0.7 * sum(math.log(e) for e in eigs)
        assert f_eps(X, W, H, 0.7, 0.1, 0.2) == pytest.approx(want, rel=1e-10)

    def test_rejects_infeasible_pair(self):
        X = np.ones((2, 2))
        H_bad = np.array([[0.8, 0.2], [0.5, 0.2]])  # first column sums to 1.3
        with pytest.raises(InvalidInputError):
            f_eps(X, np.ones((2, 2)), H_bad, 1.0, 0.1, 0.1)


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        m, r, n = 4, 3, 6
        X = rng.random((m, n))
        W, H = feasible_pair(rng, m, r, n, scale=1.2)
        W += 0.3  # keep clear of the nonnegativity boundary
        lam, delta, eps = 0.4, 0.1, 0.05
        Gw, Gh = f_eps_grad(X, W, H, lam, delta, eps)

        num_W = fd_grad(lambda V: f_eps(X, V, H, lam, delta, eps), W)
        num_H = fd_grad(lambda V: f_eps(X, W, V, lam, delta, eps), H)
        for got, want in ((Gw, num_W), (Gh, num_H)):
            denom = max(np.max(np.abs(want)), 1.0)
            assert np.max(np.abs(got - want)) / denom <= 1e-6

    def test_zero_weight_drops_volume_term(self):
        rng = np.random.default_rng(14)
        X = rng.random((3, 4))
        W, H = feasible_pair(rng, 3, 2, 4)
        Gw, _ = f_eps_grad(X, W, H, 0.0, 0.1, 0.1)
        E = W @ H - X
        sr = math.sqrt(np.sum(E * E) + 0.1)
        np.testing.assert_allclose(Gw, (E @ H.T) / sr, rtol=1e-13)


class TestSurrogate:
    def test_tangent_at_anchor(self):
        rng = np.random.default_rng(50)
        for _ in range(20):
            X = rng.random((4, 6))
            W, H = feasible_pair(rng, 4, 3, 6)
            f = f_eps(X, W, H, 0.6, 0.1, 0.1)
            g = surrogate_g(W, H, W, H, X, 0.6, 0.1, 0.1)
            assert abs(g - f) <= 1e-12 * abs(f)

    def test_dominates_everywhere(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            X = rng.random((4, 6)) * 2.0
            Wk, Hk = feasible_pair(rng, 4, 3, 6, scale=1.5)
            W, H = feasible_pair(rng, 4, 3, 6, scale=1.5)
            lam = rng.random() * 2.0
            f = f_eps(X, W, H, lam, 0.1, 0.1)
            g = surrogate_g(W, H, Wk, Hk, X, lam, 0.1, 0.1)
            assert g >= f - 1e-10

    def test_scalar_root_bound(self):
        # With lam = 0 the surrogate is the tangent to sqrt at r_k, which
        # lies above sqrt(r_new) for any other residual.
        X = np.array([[1.0]])
        Wk, Hk = np.array([[0.5]]), np.array([[0.4]])
        W, H = np.array([[2.0]]), np.array([[0.3]])
        rk = (1.0 - 0.2) ** 2 + 0.1
        rnew = (1.0 - 0.6) ** 2 + 0.1
        want = math.sqrt(rk) + (rnew - rk) / (2.0 * math.sqrt(rk))
        got = surrogate_g(W, H, Wk, Hk, X, 0.0, 0.1, 0.1)
        assert got == pytest.approx(want, rel=1e-13)
        assert got >= math.sqrt(rnew)


class TestSqrtMinvol:
    def test_separable_zero_weight_fits(self):
        rng = np.random.default_rng(1)
        X = separable_X(rng)
        cfg = SqrtConfig(lam=0.0, epsilon=1e-12, max_outer=60)
        pair, trace = solve(X, 4, "sqrt-minvol", **asdict(cfg))
        res = np.linalg.norm(X - pair.W @ pair.H) / np.linalg.norm(X)
        assert res <= 1e-6
        assert pair.config == cfg

    def test_trace_is_monotone_and_consistent(self):
        rng = np.random.default_rng(2)
        H_star = rng.dirichlet(np.ones(4), size=120).T
        X = W4 @ H_star + 0.01 * rng.random((4, 120))
        pair, trace = solve(X, 4, "sqrt-minvol", lam=0.5, max_outer=40)
        rows = trace.rows
        assert rows[0].k == 1 and rows[-1].k == len(rows)
        for a, b in zip(rows, rows[1:]):
            assert b.f_eps <= a.f_eps + 1e-9 * abs(a.f_eps)
        for row in rows:
            assert row.lambda_k == pytest.approx(
                2.0 * 0.5 * math.sqrt(row.r_k), rel=1e-14
            )
            assert row.rms_residual == pytest.approx(
                math.sqrt(row.r_k / (4 * 120)), rel=1e-14
            )
            assert row.rel_rmse_X is None and row.rel_rmse_W is None

    def test_ground_truth_fills_metric_columns(self):
        rng = np.random.default_rng(3)
        H_star = rng.dirichlet(np.ones(4), size=80).T
        X_star = W4 @ H_star
        _, trace = solve(
            X_star, 4, "sqrt-minvol", lam=0.1, max_outer=5, ground_truth=(W4, X_star)
        )
        for row in trace.rows:
            assert row.rel_rmse_X is not None and row.rel_rmse_X >= 0.0
            assert row.rel_rmse_W is not None and row.rel_rmse_W >= 0.0

    def test_single_outer_iteration_returns_init(self):
        rng = np.random.default_rng(4)
        X = separable_X(rng)
        pair, trace = solve(X, 4, "sqrt-minvol", lam=0.3, max_outer=1)
        init = snpa(X, 4)
        np.testing.assert_array_equal(pair.W, init.W0)
        np.testing.assert_array_equal(pair.H, init.H0)
        assert len(trace.rows) == 1

    @pytest.mark.parametrize("max_outer", [1, 2, 3])
    @pytest.mark.parametrize("with_truth", [False, True])
    def test_last_row_is_the_public_formulas_bitwise(self, max_outer, with_truth):
        truth, X = make_instance(InstanceSpec("paper-4x4", n=120, sigma=1e-3, seed=4))
        cfg = SqrtConfig(lam=0.5, epsilon=1e-9, max_outer=max_outer)
        gt = (truth.W_star, truth.X_star) if with_truth else None
        pair, trace = solve(X, 4, "sqrt-minvol", ground_truth=gt, **asdict(cfg))
        W, H, last = pair.W, pair.H, trace.rows[-1]
        assert last.k == max_outer
        rk = residual_r(X, W, H, cfg.epsilon)
        assert last.f_eps == f_eps(X, W, H, cfg.lam, cfg.delta, cfg.epsilon)
        assert last.r_k == rk
        assert last.lambda_k == lambda_k(rk, cfg.lam)
        assert last.rms_residual == math.sqrt(rk / X.size)

    @staticmethod
    def replay_minvol_chain(lam):
        """The square-root solve against the design it replaced, one baseline solve per step.

        Returns the factors and trace rows (less the metric and wall-time
        columns) of both.
        """
        rng = np.random.default_rng(5)
        X = separable_X(rng, n_extra=16)
        cfg = SqrtConfig(lam=lam, max_outer=6)
        pair, trace = solve(X, 4, "sqrt-minvol", **asdict(cfg))
        got = [(r.k, r.f_eps, r.r_k, r.lambda_k, r.rms_residual) for r in trace.rows]

        init = snpa(X, 4)
        W, H = init.W0, init.H0
        rows = []
        for k in range(1, cfg.max_outer + 1):
            rk = residual_r(X, W, H, cfg.epsilon)
            fk = f_eps(X, W, H, lam, cfg.delta, cfg.epsilon)
            rows.append((k, fk, rk, lambda_k(rk, lam), math.sqrt(rk / X.size)))
            if k > 1 and abs(fk - rows[-2][1]) <= cfg.tol * max(abs(rows[-2][1]), 1e-300):
                break
            if k == cfg.max_outer:
                break
            factors, _ = solve(
                X, 4, "minvol-baseline",
                lam=lambda_k(rk, lam),
                start=(W, H),
                delta=cfg.delta,
                max_outer=INNER_SWEEPS,
                tol=INNER_TOL,
            )
            W, H = factors.W, factors.H
        return (pair.W, pair.H, got), (W, H, rows)

    def test_zero_weight_equals_replayed_inner_chain(self):
        (W, H, rows), (W_ref, H_ref, rows_ref) = self.replay_minvol_chain(0.0)
        np.testing.assert_array_equal(W, W_ref)
        np.testing.assert_array_equal(H, H_ref)
        assert rows == rows_ref

    def test_weighted_equals_replayed_inner_chain(self):
        # At lam > 0 every step's sweep weight 2 lam sqrt(r_k) differs.
        (W, H, rows), (W_ref, H_ref, rows_ref) = self.replay_minvol_chain(0.5)
        assert len(rows) >= 3 and len({row[3] for row in rows}) == len(rows)
        np.testing.assert_array_equal(W, W_ref)
        np.testing.assert_array_equal(H, H_ref)
        assert rows == rows_ref

    def test_every_inner_sweep_history_descends(self, monkeypatch):
        histories = []

        def recording(*args):
            out = block_sweeps(*args)
            histories.append([row.objective for row in out[2].rows])
            return out

        monkeypatch.setattr(solver_mod, "block_sweeps", recording)
        _, X = make_instance(InstanceSpec("paper-4x4", n=120, sigma=1e-3, seed=4))
        _, trace = solve(X, 4, "sqrt-minvol", lam=0.5, epsilon=1e-9, max_outer=8)
        assert len(histories) == len(trace.rows) - 1 >= 2
        for history in histories:
            assert 2 <= len(history) <= INNER_SWEEPS + 1
            # Both loops undo every rise, so no sweep raises the objective.
            for a, b in zip(history, history[1:]):
                assert b <= a

    def test_huge_weight_stays_finite(self):
        rng = np.random.default_rng(6)
        X = separable_X(rng)
        pair, trace = solve(X, 4, "sqrt-minvol", lam=1e3, max_outer=30)
        assert all(np.isfinite(row.f_eps) for row in trace.rows)
        assert np.all(np.isfinite(pair.W)) and np.all(np.isfinite(pair.H))

    def test_trace_csv_layout(self):
        rng = np.random.default_rng(7)
        X = separable_X(rng)
        _, trace = solve(X, 4, "sqrt-minvol", lam=0.2, max_outer=4)
        buf = io.StringIO()
        write_table(buf, TraceRow, trace.rows)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "k,f_eps,r_k,lambda_k,rms_residual,rel_rmse_X,rel_rmse_W,wall_ms"
        reader = csv.DictReader(io.StringIO(buf.getvalue()))
        parsed = list(reader)
        assert len(parsed) == len(trace.rows)
        for i, rec in enumerate(parsed):
            assert int(rec["k"]) == i + 1
            assert rec["rel_rmse_X"] == "" and rec["rel_rmse_W"] == ""
            float(rec["f_eps"])
            assert "." in rec["wall_ms"]


class TestOnePath:
    """``solve`` is the one way to run a solver: ``(factors, trace)`` for both."""

    @staticmethod
    def rows(trace):
        return [{k: v for k, v in vars(r).items() if k != "wall_ms"} for r in trace.rows]

    @pytest.mark.parametrize("seed", range(3))
    def test_solve_is_the_square_root_loop_bitwise(self, seed):
        truth, X = make_instance(InstanceSpec("paper-4x4", n=120, sigma=1e-3, seed=seed))
        cfg = SqrtConfig(lam=0.5, epsilon=1e-9, max_outer=6)
        gt = (truth.W_star, truth.X_star)
        factors, trace = solve(X, 4, "sqrt-minvol", ground_truth=gt, **asdict(cfg))
        pair, loop = sqrt_minvol(X, 4, cfg, ground_truth=gt)
        assert factors.config == pair.config == cfg
        assert factors.W.tobytes() == pair.W.tobytes()
        assert factors.H.tobytes() == pair.H.tobytes()
        assert self.rows(trace) == self.rows(loop)
        assert (trace.stop, trace.objective) == (loop.stop, loop.objective)
        assert trace.objective == trace.rows[-1].f_eps

    def test_baseline_config_holds_the_rescaled_weight(self):
        _, X = make_instance(InstanceSpec("paper-4x4", n=60, sigma=1e-3, seed=1))
        init = snpa(X, 4)
        factors, trace = solve(X, 4, "minvol-baseline", lambda_tilde=0.01, max_outer=5)
        lam = lambda_from_init(X, init.W0, init.H0, 0.01, MinvolConfig.delta)
        assert factors.config == MinvolConfig(lam=lam, max_outer=5)
        assert trace.objective == trace.rows[-1].objective

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_fault_trace_has_no_objective(self, solver):
        _, X = make_instance(InstanceSpec("paper-4x4", n=60, sigma=1e-2, seed=0))
        with pytest.raises(NumericalFaultError) as info:
            solve(X, 4, solver, lam=1e308, max_outer=5)
        trace = info.value.trace
        assert trace.rows and (trace.stop, trace.objective) == (None, None)


class TestStopReason:
    """Why the outer loop ended: stalled, converged or budget, in that order."""

    @staticmethod
    def run(**settings):
        # A small paper-4x4 draw whose inner solves stop making progress
        # after some 30 outer iterations, so f_eps repeats exactly.
        _, X = make_instance(InstanceSpec("paper-4x4", n=20, sigma=0.0, seed=4))
        _, trace = solve(X, 4, "sqrt-minvol", lam=1.0, epsilon=1e-12, **settings)
        return trace.rows[-1].k, trace

    def test_exact_repeat_is_a_stall_not_convergence(self):
        # The old rule stopped here too, calling it convergence.
        iters, trace = self.run(tol=1e-300, max_outer=80)
        assert trace.stop == "stalled"
        assert iters < 80
        assert trace.rows[-1].f_eps == trace.rows[-2].f_eps
        f = [row.f_eps for row in trace.rows]
        assert all(a != b for a, b in zip(f, f[1:-1]))

    def test_stall_on_the_last_iteration_is_still_a_stall(self):
        stalled_at, _ = self.run(tol=1e-300, max_outer=80)
        iters, trace = self.run(tol=1e-300, max_outer=stalled_at)
        assert (iters, trace.stop) == (stalled_at, "stalled")

    def test_converged(self):
        iters, trace = self.run()
        assert trace.stop == "converged"
        a, b = trace.rows[-2].f_eps, trace.rows[-1].f_eps
        assert a != b and abs(b - a) <= 1e-9 * abs(a)

    def test_a_rounding_rise_is_undone_and_stalls(self, monkeypatch):
        # Sweeps that keep the pair and a residual 1e-13 larger after the
        # start raise f_eps by rounding; the step is undone: its row repeats
        # the start's (r_k too), and the solve returns the start.
        residuals = []

        def grown(Xm, W, H, epsilon):
            residuals.append(residual_r(Xm, W, H, epsilon))
            return residuals[-1] * (1.0 + (1e-13 if len(residuals) > 1 else 0.0))

        monkeypatch.setattr(solver_mod, "residual_r", grown)
        monkeypatch.setattr(
            solver_mod, "block_sweeps", lambda Xm, W, H, *args: (W, H, None)
        )
        _, X = make_instance(InstanceSpec("paper-4x4", n=20, sigma=1e-2, seed=4))
        init = snpa(X, 4)
        factors, trace = solve(X, 4, "sqrt-minvol", lam=1.0, max_outer=5)
        assert (trace.rows[-1].k, trace.stop) == (2, "stalled")
        first, second = trace.rows
        assert second == replace(first, k=2, wall_ms=second.wall_ms)
        assert trace.objective == first.f_eps
        np.testing.assert_array_equal(factors.W, init.W0)
        np.testing.assert_array_equal(factors.H, init.H0)

    def test_a_rise_past_rounding_is_a_fault(self, monkeypatch):
        # Sweeps that halve H raise f_eps far past rounding, as no MM step
        # can: a fault that keeps both rows, not a stall.
        monkeypatch.setattr(
            solver_mod, "block_sweeps", lambda Xm, W, H, *args: (W, 0.5 * H, None)
        )
        _, X = make_instance(InstanceSpec("paper-4x4", n=20, sigma=0.0, seed=4))
        with pytest.raises(NumericalFaultError) as info:
            solve(X, 4, "sqrt-minvol", lam=1.0, max_outer=5)
        first, second = info.value.trace.rows
        assert second.f_eps > first.f_eps
        assert str(info.value) == (
            f"f_eps rose from {first.f_eps} to {second.f_eps} at outer iteration 2"
        )

    def test_budget(self):
        iters, trace = self.run(max_outer=3)
        assert (iters, trace.stop) == (3, "budget")
        assert self.run(max_outer=1)[1].stop == "budget"

    @pytest.mark.parametrize(
        "settings, stop",
        [({"tol": 1e-300, "max_outer": 200}, "stalled"), ({}, "converged"),
         ({"max_outer": 3}, "budget")],
        ids=["stalled", "converged", "budget"],
    )
    def test_baseline_stops_by_the_same_rule(self, settings, stop):
        _, X = make_instance(InstanceSpec("paper-4x4", n=20, sigma=0.0, seed=4))
        init = snpa(X, 4)
        _, started = solve(
            X, 4, "minvol-baseline", lam=1.0, start=(init.W0, init.H0), **settings
        )
        _, trace = solve(X, 4, "minvol-baseline", lam=1.0, **settings)
        iters = trace.rows[-1].k
        assert trace.stop == started.stop == stop
        assert trace.rows == started.rows
        a, b = (row.objective for row in started.rows[-2:])
        if stop == "stalled":
            assert a == b and iters < settings["max_outer"]
        elif stop == "converged":
            assert a != b and abs(b - a) <= MinvolConfig.tol * abs(a)
        else:
            assert iters == settings["max_outer"]


class TestNumericalFaults:
    """A quantity that overflows in a solve is a fault that names it.

    The data are a paper-4x4 draw (n = 60, sigma = 1e-2, seed 0).  Before
    these checks, ``lam = 1e308`` failed as bad input naming an internal
    matrix, and ``lam = 1e306`` ended as a stalled square-root solve at
    f_eps = -9.2e306, its W steps zero under an infinite step bound.
    """

    @staticmethod
    def data():
        return make_instance(InstanceSpec("paper-4x4", n=60, sigma=1e-2, seed=0))[1]

    @pytest.mark.parametrize(
        "scale, settings, message, rows",
        [
            (1.0, {"lam": 1e308}, "lambda_k (inf) at outer iteration 1", 1),
            (1.0, {"lam": 1e306},
             "W-block Lipschitz constant (inf) at sweep 1 at outer iteration 3", 2),
            (1e-3, {"lam": 8e307, "epsilon": 1e-12}, "f_eps (-inf) at outer iteration 1", 1),
            (1e160, {"lam": 1.0, "start": True}, "r_k (inf) at outer iteration 1", 1),
        ],
        ids=["lambda_k", "lipschitz", "f_eps", "r_k"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_square_root_solve_names_it_and_keeps_its_trace(
        self, scale, settings, message, rows
    ):
        X = self.data()
        if settings.pop("start", False):
            init = snpa(X, 4)
            settings["start"] = (init.W0, init.H0)
        with pytest.raises(NumericalFaultError) as info:
            solve(X * scale, 4, "sqrt-minvol", max_outer=5, **settings)
        assert str(info.value) == f"non-finite {message}"
        trace = info.value.trace
        assert [row.k for row in trace.rows] == list(range(1, rows + 1))
        # Every row before the faulting one is finite.
        for row in trace.rows[:-1]:
            assert all(np.isfinite([row.f_eps, row.r_k, row.lambda_k]))

    @pytest.mark.parametrize(
        "settings, message, finite",
        [
            ({"lam": 1e308}, "W-block Lipschitz constant (inf) at sweep 1", True),
            ({"lam": 1e307, "delta": 1e4}, "sweep objective (inf) at sweep 0", False),
        ],
        ids=["lipschitz", "objective"],
    )
    def test_baseline_names_it(self, settings, message, finite):
        # The trace holds every sweep measured, k = 0 the start: the W block
        # overflows making sweep 1 from a finite start, and the start's own
        # objective is inf.
        with pytest.raises(NumericalFaultError) as info:
            solve(self.data(), 4, "minvol-baseline", max_outer=5, **settings)
        assert str(info.value) == f"non-finite {message}"
        trace = info.value.trace
        assert [row.k for row in trace.rows] == [0]
        assert math.isfinite(trace.rows[0].objective) == finite
        assert trace.stop is None

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_underflowing_data_is_named(self, solver):
        # Every squared column norm of X x 1e-200 underflows to 0.  SNPA used
        # to report it as bad input: "rank exceeds the number of selectable
        # nonzero columns".
        message = "^the squared norm of a nonzero column of X underflows"
        with pytest.raises(NumericalFaultError, match=message) as info:
            solve(self.data() * 1e-200, 4, solver, lam=0.1)
        assert info.value.trace is None

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_a_subnormal_lipschitz_constant_is_named(self, solver):
        # At X x 1e-160 the SNPA refit's L = 2 s_max(W)^2 is subnormal and the
        # step 2/L overflows; H used to turn non-finite and be reported as bad
        # input: "H_init contains non-finite entries".
        message = r"^the gradient step 2/L is not finite \(L = 3.37e-320\)$"
        with pytest.raises(NumericalFaultError, match=message) as info:
            solve(self.data() * 1e-160, 4, solver, lam=0.1)
        assert info.value.trace is None

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_an_ascent_is_a_fault_not_a_stall(self, monkeypatch, solver):
        # A broken W block: its step moves every entry up by one.
        solve_block = baseline_mod.solve_block

        def broken(*args):
            x = solve_block(*args)
            return x + 1.0 if args[6] == "W-block" else x

        monkeypatch.setattr(baseline_mod, "solve_block", broken)
        with pytest.raises(NumericalFaultError, match="^sweep objective rose from ") as info:
            solve(self.data(), 4, solver, lam=0.5, max_outer=5)
        if solver == "sqrt-minvol":
            assert str(info.value).endswith(" at sweep 1 at outer iteration 2")
            assert len(info.value.trace.rows) == 1
        else:
            assert str(info.value).endswith(" at sweep 1")
            assert [row.k for row in info.value.trace.rows] == [0, 1]


@pytest.mark.parametrize(
    "draw, solver, weight, suffix",
    [
        ((20, 1e-4, 0), "sqrt-minvol", "lam", r" at sweep \d+ at outer iteration \d+"),
        ((20, 1e-4, 0), "minvol-baseline", "lam", r" at sweep \d+"),
        # SNPA's start on this draw has rank 3, so its own Gram does not
        # factor: the fault names the first row, and no row was measured.
        ((60, 0.0, 3), "sqrt-minvol", "lam", " at outer iteration 1"),
        ((60, 0.0, 3), "minvol-baseline", "lam", " at sweep 0"),
        # Rescaling lambda_tilde factors the same start before the sweeps.
        ((60, 0.0, 3), "minvol-baseline", "lambda_tilde", " at sweep 0"),
    ],
    ids=["sqrt", "baseline", "sqrt-start", "baseline-start", "baseline-tilde-start"],
)
def test_too_small_delta_is_named_in_the_error(draw, solver, weight, suffix):
    # A failed Cholesky factor inside a loop is reported like any other
    # fault there: with its row, and carrying the rows measured before it.
    n, sigma, seed = draw
    _, X = make_instance(InstanceSpec("paper-4x4", n=n, sigma=sigma, seed=seed))
    with pytest.raises(NumericalFaultError, match=rf"delta=1e-300\b.*{suffix}$") as info:
        solve(X, 4, solver, delta=1e-300, max_outer=3, **{weight: 1.0})
    assert bool(info.value.trace.rows) == (seed != 3)


class TestSqrtConfig:
    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidInputError, match=r"^lam must be finite and >= 0"):
            SqrtConfig(lam=-0.1)

    def test_rejects_bad_smoothing(self):
        with pytest.raises(InvalidInputError):
            SqrtConfig(lam=0.1, epsilon=0.0)
        with pytest.raises(InvalidInputError):
            SqrtConfig(lam=0.1, delta=-1.0)

    def test_rejects_bad_budgets(self):
        with pytest.raises(InvalidInputError):
            SqrtConfig(lam=0.1, max_outer=0)
        with pytest.raises(InvalidInputError):
            SqrtConfig(lam=0.1, tol=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("name", ["lam", "delta", "epsilon", "tol"])
    def test_non_finite_setting_is_named(self, name, value):
        settings = {"lam": 0.1, name: value}
        with pytest.raises(InvalidInputError, match=rf"^{name} must be finite"):
            SqrtConfig(**settings)


class TestSolveSettings:
    """``solve`` takes the weight exactly once and no setting of the other solver."""

    @pytest.fixture(scope="class")
    def X(self):
        return make_instance(InstanceSpec("paper-4x4", n=60, sigma=1e-3, seed=0))[1]

    @pytest.mark.parametrize(
        "solver, weights, message",
        [
            ("sqrt-minvol", {"lambda_tilde": 0.1}, "lambda_tilde is for solver minvol-baseline"),
            ("sqrt-minvol", {}, "sqrt-minvol needs lam$"),
            ("minvol-baseline", {}, "minvol-baseline needs lam or lambda_tilde$"),
            ("sqrt-minvol", {"lam": 0.1, "lambda_tilde": 5.0}, "lambda_tilde is for solver"),
            ("minvol-baseline", {"lam": 0.1, "lambda_tilde": 0.01}, "give either lam or"),
        ],
        ids=["tilde-only-sqrt", "no-weight-sqrt", "no-weight-baseline", "both-sqrt",
             "both-baseline"],
    )
    def test_rejected(self, X, solver, weights, message):
        with pytest.raises(InvalidInputError, match=message):
            solve(X, 4, solver, max_outer=2, **weights)

    @pytest.mark.parametrize(
        "solver, weights",
        [
            ("minvol-baseline", {"lam": -0.05}),
            ("minvol-baseline", {"lambda_tilde": -0.01}),
            ("sqrt-minvol", {"lam": -0.05}),
        ],
        ids=["baseline-lam", "baseline-lambda-tilde", "sqrt-lam"],
    )
    def test_negative_weight_is_refused(self, X, solver, weights):
        # lam >= 0 is the one weight rule of both solvers.
        [(name, value)] = weights.items()
        message = rf"^{name} must be finite and >= 0, got {value}$"
        with pytest.raises(InvalidInputError, match=message):
            solve(X, 4, solver, max_outer=2, **weights)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_lambda_tilde(self, X, value):
        with pytest.raises(InvalidInputError, match="^lambda_tilde must be finite"):
            solve(X, 4, "minvol-baseline", lambda_tilde=value, max_outer=2)

    def test_unknown_solver(self, X):
        with pytest.raises(InvalidInputError, match="unknown solver 'mu'"):
            solve(X, 4, "mu", lam=0.1)

    @pytest.mark.parametrize("name", ["max_outter", "inner_iters"])
    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_misspelled_setting_is_a_type_error(self, X, solver, name):
        # The FGM budget of a block update is a constant, not a setting, of
        # a solve and of a sweep's spec alike.
        with pytest.raises(TypeError, match=name):
            solve(X, 4, solver, lam=0.1, **{name: 5})
        generator = InstanceSpec("paper-4x4", n=40, sigma=0.0, seed=0)
        with pytest.raises(TypeError, match=name):
            ExperimentSpec(
                generator=generator,
                solver=solver,
                sigma_grid=(0.0,),
                lambda_grid=(0.1,),
                base_seed=0,
                **{name: 5},
            )

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_shared_settings_reach_the_config(self, X, solver):
        weight = "lam" if solver == "sqrt-minvol" else "lambda_tilde"
        settings = dict(delta=0.2, max_outer=3, tol=1e-300)
        factors, trace = solve(X, 4, solver, **{weight: 0.1}, **settings)
        assert {key: getattr(factors.config, key) for key in settings} == settings
        assert trace.rows[-1].k == 3


class TestSolveStart:
    """``start=(W0, H0)`` replaces the SNPA start and nothing else."""

    @pytest.fixture(scope="class")
    def instance(self):
        return make_instance(InstanceSpec("paper-4x4", n=60, sigma=1e-3, seed=2))

    @staticmethod
    def answer(result):
        factors, trace = result
        rows = [{k: v for k, v in vars(r).items() if k != "wall_ms"} for r in trace.rows]
        return (
            factors.W.tobytes(), factors.H.tobytes(), factors.config, rows, trace.stop,
            trace.objective,
        )

    @pytest.mark.parametrize(
        "solver, settings",
        [
            ("sqrt-minvol", {"lam": 0.5, "epsilon": 1e-9}),
            ("minvol-baseline", {"lambda_tilde": 0.01}),
            ("minvol-baseline", {"lam": 0.05}),
        ],
        ids=["sqrt", "baseline-tilde", "baseline-lam"],
    )
    def test_snpa_start_is_bitwise_the_default(self, instance, solver, settings):
        gt, X = instance
        init = snpa(X, 4)
        start = (init.W0.copy(), init.H0.copy())
        for M in start:
            M.setflags(write=False)  # the solver reads the start, never writes it
        settings = dict(settings, max_outer=5)
        if solver == "sqrt-minvol":
            settings["ground_truth"] = (gt.W_star, gt.X_star)
        default = solve(X, 4, solver, **settings)
        started = solve(X, 4, solver, start=start, **settings)
        assert self.answer(started) == self.answer(default)

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    @pytest.mark.parametrize(
        "bad",
        ["W-columns", "W-rows", "H-columns", "W-negative", "H-negative", "H-overfull", "W-nan"],
    )
    def test_bad_start_raises(self, instance, solver, bad):
        _, X = instance
        init = snpa(X, 4)
        W0, H0 = init.W0.copy(), init.H0.copy()
        if bad == "W-columns":
            W0, H0 = W0[:, :3], H0[:3]
        elif bad == "W-rows":
            W0 = W0[:3]
        elif bad == "H-columns":
            H0 = H0[:, :-1]
        elif bad == "W-negative":
            W0[0, 0] = -1e-3
        elif bad == "H-negative":
            H0[0, 0] = -1e-3
        elif bad == "H-overfull":
            H0[:, 0] = 0.5
        else:
            W0[1, 1] = np.nan
        weight = {"lam": 0.5} if solver == "sqrt-minvol" else {"lambda_tilde": 0.01}
        with pytest.raises(InvalidInputError, match="start"):
            solve(X, 4, solver, start=(W0, H0), max_outer=2, **weight)

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_rank_that_is_not_an_integer_is_named(self, instance, solver, start):
        # Neither SNPA nor a given start may truncate a rank of 3.5 to 3.
        _, X = instance
        init = snpa(X, 3)
        start = (init.W0, init.H0) if start else None
        with pytest.raises(InvalidInputError, match=r"^rank must be an integer, got 3\.5$"):
            solve(X, 3.5, solver, lam=0.5, start=start, max_outer=2)

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_negative_X_is_refused_from_either_start(self, solver, start):
        X = np.random.default_rng(0).random((4, 20))
        init = snpa(X, 4)
        X[0, 0] = -0.5
        start = (init.W0, init.H0) if start else None
        with pytest.raises(InvalidInputError, match=r"^X has negative entries$"):
            solve(X, 4, solver, lam=0.5, start=start, max_outer=2)


class TestColumnPermutation:
    """Permuting X's columns permutes H and leaves W as it was.

    FGM sums the objective over the columns in another order, so the two
    answers agree to rounding, not bitwise.  The bound and the seeds were
    fixed before the first run.
    """

    BOUND = 1e-6

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "solver, weight",
        [("sqrt-minvol", {"lam": 0.5, "epsilon": 1e-9}), ("minvol-baseline", {"lambda_tilde": 0.01})],
        ids=["sqrt", "baseline"],
    )
    def test_permuted_columns_permute_H(self, solver, weight, seed):
        _, X = make_instance(InstanceSpec("paper-4x4", n=80, sigma=1e-2, seed=seed, alpha=0.05))
        perm = np.random.default_rng(seed).permutation(X.shape[1])
        factors, _ = solve(X, 4, solver, max_outer=5, **weight)
        permuted, _ = solve(X[:, perm], 4, solver, max_outer=5, **weight)
        W, H, W_p, H_p = factors.W, factors.H, permuted.W, permuted.H
        assert np.max(np.abs(W_p - W)) <= self.BOUND * np.max(np.abs(W))
        assert np.max(np.abs(H_p - H[:, perm])) <= self.BOUND


@st.composite
def small_problems(draw):
    """A positive X of at most 10 x 10 and a rank 1 <= r <= min(m, n)."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    r = draw(st.integers(1, min(m, n)))
    X = draw(arrays(np.float64, (m, n), elements=st.floats(1e-3, 1e2, width=64)))
    return X, r


class TestRandomInstances:
    """On random small positive data both solvers stay feasible and never ascend."""

    @staticmethod
    def assert_feasible(W, H):
        assert W.min() >= 0.0 and H.min() >= 0.0
        assert H.sum(axis=0).max() <= 1.0 + 1e-12

    @staticmethod
    def assert_descends(values):
        # Both loops undo every rise, so the objective never rises at all.
        for a, b in zip(values, values[1:]):
            assert b <= a

    @settings(max_examples=60, deadline=None)
    @given(small_problems(), st.sampled_from([0.0, 0.01, 1.0]))
    def test_square_root(self, problem, lam):
        X, r = problem
        factors, trace = solve(X, r, "sqrt-minvol", lam=lam, max_outer=4)
        self.assert_feasible(factors.W, factors.H)
        self.assert_descends([row.f_eps for row in trace.rows])

    @settings(max_examples=60, deadline=None)
    @given(small_problems(), st.sampled_from([0.0, 0.01, 1.0]))
    # An exact fit, where the first sweep's objective rose from 0 by rounding.
    @example((np.ones((1, 7)), 1), 0.0)
    def test_baseline(self, problem, lam):
        X, r = problem
        factors, trace = solve(X, r, "minvol-baseline", lam=lam, max_outer=6)
        self.assert_feasible(factors.W, factors.H)
        self.assert_descends([row.objective for row in trace.rows])
