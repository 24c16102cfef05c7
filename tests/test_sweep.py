import io
from pathlib import Path

import numpy as np
import pytest

import sqrtminvol.sweep as sweep_mod
from sqrtminvol.datagen import InstanceSpec
from sqrtminvol.errors import InvalidInputError, InvalidParameterError, NumericalFaultError
from sqrtminvol.sweep import (
    ExperimentSpec,
    SweepRecord,
    cell_seed,
    parse_experiment_config,
    parse_generator_config,
    run_cell,
    run_sweep,
    summarize,
    write_summary_csv,
    write_sweep_csv,
)
from sqrtminvol.solver import solve


def tiny_spec(**overrides):
    kwargs = dict(
        generator=InstanceSpec("paper-4x4", n=40, sigma=0.0, seed=0),
        solver="sqrt-minvol",
        sigma_grid=(0.0, 0.01),
        lambda_grid=(0.1, 0.01),
        replicates=2,
        base_seed=5,
        max_outer=8,
        inner_iters=10,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestCellSeed:
    def test_deterministic(self):
        assert cell_seed(7, 1, 2) == cell_seed(7, 1, 2)

    def test_distinct_across_axes(self):
        seeds = {cell_seed(7, rep, si) for rep in range(4) for si in range(4)}
        assert len(seeds) == 16

    def test_independent_of_lambda_by_construction(self):
        # The derivation takes no lambda argument at all; the same
        # instance is reused for every lambda in a row of the grid.
        spec = tiny_spec()
        a = run_cell(spec, 0, 0, 0)
        b = run_cell(spec, 0, 0, 1)
        assert a.seed == b.seed


class TestExperimentSpec:
    def test_rejects_unknown_solver(self):
        with pytest.raises(InvalidParameterError):
            tiny_spec(solver="multiplicative")

    def test_rejects_empty_grids(self):
        with pytest.raises(InvalidParameterError):
            tiny_spec(sigma_grid=())
        with pytest.raises(InvalidParameterError):
            tiny_spec(lambda_grid=())

    def test_rejects_bad_grid_values(self):
        with pytest.raises(InvalidParameterError):
            tiny_spec(sigma_grid=(-0.1,))
        with pytest.raises(InvalidParameterError):
            tiny_spec(lambda_grid=(0.0,))

    def test_rejects_bad_replicates(self):
        with pytest.raises(InvalidParameterError):
            tiny_spec(replicates=0)

    def test_rejects_epsilon_for_baseline(self):
        assert tiny_spec(solver="minvol-baseline").epsilon is None
        with pytest.raises(InvalidParameterError, match="epsilon"):
            tiny_spec(solver="minvol-baseline", epsilon=1e-3)

    def test_solve_rejects_epsilon_for_baseline(self):
        X = np.random.default_rng(3).random((4, 12))
        with pytest.raises(InvalidParameterError, match="epsilon"):
            solve(X, 2, "minvol-baseline", lam=0.1, epsilon=1e-3)

    def test_solve_rank_falls_back_to_generator(self):
        assert tiny_spec().solve_rank == 4
        assert tiny_spec(rank=3).solve_rank == 3


class TestRunCell:
    def test_ok_cell_fills_fields(self):
        rec = run_cell(tiny_spec(), 1, 0, 0)
        assert rec.status == "ok"
        assert rec.solver == "sqrt-minvol"
        assert rec.sigma == 0.01 and rec.lam == 0.1
        assert rec.rel_rmse_X >= 0.0 and rec.rel_rmse_W >= 0.0
        assert rec.outer_iters >= 1
        assert np.isfinite(rec.final_obj)

    def test_baseline_cell_runs(self):
        spec = tiny_spec(solver="minvol-baseline", baseline_sweeps=10)
        rec = run_cell(spec, 0, 1, 1)
        assert rec.status == "ok"
        assert rec.outer_iters >= 1

    def test_baseline_cell_honours_tol(self):
        def cell(tol):
            spec = tiny_spec(solver="minvol-baseline", baseline_sweeps=50, tol=tol)
            return run_cell(spec, 1, 0, 0)

        default, pinned, loose = cell(None), cell(1e-7), cell(0.1)
        # Unset means the baseline's own default of 1e-7 ...
        assert (default.final_obj, default.outer_iters) == (
            pinned.final_obj,
            pinned.outer_iters,
        )
        # ... and a loose tolerance stops the sweeps early.
        assert loose.status == "ok"
        assert loose.outer_iters < default.outer_iters

    def test_fault_is_recorded_not_raised(self, monkeypatch):
        def boom(spec, X, gt, lam):
            raise NumericalFaultError("synthetic blow-up")

        monkeypatch.setattr(sweep_mod, "_solve_cell", boom)
        rec = run_cell(tiny_spec(), 0, 0, 0)
        assert rec.status == "fault:NumericalFaultError"
        assert rec.rel_rmse_X is None and rec.final_obj is None


class TestRunSweep:
    def test_grid_order(self):
        spec = tiny_spec(max_outer=2, inner_iters=5)
        records = run_sweep(spec, jobs=1)
        keys = [(r.sigma, r.replicate, r.lam) for r in records]
        want = [
            (s, rep, l)
            for s in spec.sigma_grid
            for rep in range(spec.replicates)
            for l in spec.lambda_grid
        ]
        assert keys == want

    def test_fault_does_not_stop_the_sweep(self, monkeypatch):
        real = sweep_mod._solve_cell

        def sometimes(spec, X, gt, lam):
            if lam == 0.01:
                raise NumericalFaultError("synthetic blow-up")
            return real(spec, X, gt, lam)

        monkeypatch.setattr(sweep_mod, "_solve_cell", sometimes)
        records = run_sweep(tiny_spec(max_outer=2, inner_iters=5), jobs=1)
        by_lam = {lam: [r.status for r in records if r.lam == lam] for lam in (0.1, 0.01)}
        assert all(s == "ok" for s in by_lam[0.1])
        assert all(s == "fault:NumericalFaultError" for s in by_lam[0.01])

    def test_parallel_matches_serial_excluding_wall(self):
        spec = tiny_spec(max_outer=4, inner_iters=8)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)

        def strip_wall(records):
            buf = io.StringIO()
            write_sweep_csv(buf, records)
            lines = buf.getvalue().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(serial) == strip_wall(parallel)


class TestSummarize:
    def make_records(self):
        def rec(sigma, lam, rep, rx, rw, status="ok"):
            return SweepRecord(
                solver="sqrt-minvol",
                sigma=sigma,
                lam=lam,
                replicate=rep,
                seed=1,
                rel_rmse_X=rx,
                rel_rmse_W=rw,
                final_obj=0.0,
                outer_iters=1,
                status=status,
            )

        # Values picked to make the replicate means exact in binary
        # floating point, so the X tie is a true tie.
        return [
            rec(0.1, 1.0, 0, 0.25, 0.500),
            rec(0.1, 1.0, 1, 0.75, 0.500),
            rec(0.1, 0.5, 0, 0.50, 0.125),
            rec(0.1, 0.5, 1, 0.50, 0.375),
            rec(0.2, 1.0, 0, None, None, status="fault:NumericalFaultError"),
            rec(0.2, 0.5, 0, None, None, status="fault:NumericalFaultError"),
        ]

    def test_replicate_means_and_tie_break(self):
        rows = summarize(self.make_records(), (0.1, 0.2), (1.0, 0.5))
        first = rows[0]
        # Means tie at 0.5 for X; the earliest lambda in grid order wins.
        assert first.min_rel_rmse_X == 0.5
        assert first.argmin_lambda_X == 1.0
        assert first.min_rel_rmse_W == 0.25
        assert first.argmin_lambda_W == 0.5

    def test_all_faulted_sigma_has_empty_minima(self):
        rows = summarize(self.make_records(), (0.1, 0.2), (1.0, 0.5))
        second = rows[1]
        assert second.min_rel_rmse_X is None
        assert second.argmin_lambda_X is None

    def test_matches_recomputation_from_csv_roundtrip(self):
        records = self.make_records()
        rows = summarize(records, (0.1, 0.2), (1.0, 0.5))
        ok = [r for r in records if r.status == "ok" and r.sigma == 0.1]
        best = min(
            set(r.lam for r in ok),
            key=lambda lam: (
                np.mean([r.rel_rmse_X for r in ok if r.lam == lam]),
            ),
        )
        assert rows[0].min_rel_rmse_X == pytest.approx(
            float(np.mean([r.rel_rmse_X for r in ok if r.lam == best]))
        )


class TestCsvWriters:
    def test_sweep_csv_layout(self):
        buf = io.StringIO()
        write_sweep_csv(
            buf,
            [
                SweepRecord(
                    solver="sqrt-minvol",
                    sigma=0.01,
                    lam=0.5,
                    replicate=0,
                    seed=123,
                    rel_rmse_X=0.25,
                    rel_rmse_W=0.5,
                    final_obj=1.5,
                    outer_iters=7,
                    status="ok",
                    wall_ms=12.3456,
                )
            ],
        )
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "solver,sigma,lambda,replicate,seed,rel_rmse_X,rel_rmse_W,"
            "final_obj,outer_iters,status,wall_ms"
        )
        assert lines[1] == "sqrt-minvol,0.01,0.5,0,123,0.25,0.5,1.5,7,ok,12.346"

    def test_summary_csv_handles_missing_cells(self):
        rows = summarize([], (0.3,), (1.0,))
        buf = io.StringIO()
        write_summary_csv(buf, rows)
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "sigma,min_rel_rmse_X,argmin_lambda_X,min_rel_rmse_W,argmin_lambda_W"
        )
        assert lines[1] == "0.29999999999999999,,,,"


class TestConfigParsing:
    def test_generator_roundtrip(self, tmp_path):
        path = tmp_path / "gen.ini"
        path.write_text(
            "[generator]\n"
            "name = paper-4x4\n"
            "n = 250\n"
            "sigma = 0.01  # inline comment\n"
            "seed = 42\n"
        )
        spec = parse_generator_config(str(path))
        assert spec == InstanceSpec("paper-4x4", n=250, sigma=0.01, seed=42)

    def test_generator_requires_sigma_and_seed(self, tmp_path):
        path = tmp_path / "gen.ini"
        path.write_text("[generator]\nname = paper-4x4\nn = 100\nseed = 1\n")
        with pytest.raises(InvalidInputError, match="sigma"):
            parse_generator_config(str(path))

    def test_experiment_roundtrip_with_overrides(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[generator]\n"
            "name = random-uniform\n"
            "n = 80\n"
            "m = 6\n"
            "r = 3\n"
            "[sweep]\n"
            "solver = sqrt-minvol\n"
            "sigmas = 0.1 0.01\n"
            "lambdas = 1 0.1 0.01\n"
            "replicates = 2\n"
            "base_seed = 9\n"
            "out = runs/demo\n"
            "[solver]\n"
            "max_outer = 30\n"
            "epsilon = 1e-12\n"
        )
        spec = parse_experiment_config(str(path))
        assert spec.generator.name == "random-uniform"
        assert spec.sigma_grid == (0.1, 0.01)
        assert spec.lambda_grid == (1.0, 0.1, 0.01)
        assert spec.replicates == 2
        assert spec.base_seed == 9
        assert spec.out_dir == "runs/demo"
        assert spec.max_outer == 30
        assert spec.epsilon == 1e-12
        assert spec.delta == 0.1  # untouched default

    def test_baseline_accepts_either_grid_spelling(self, tmp_path):
        body = (
            "[generator]\nname = paper-4x4\nn = 50\n"
            "[sweep]\nsolver = minvol-baseline\nsigmas = 0.1\n{grid}\nbase_seed = 1\n"
        )
        a = tmp_path / "a.ini"
        a.write_text(body.format(grid="lambda_tildes = 0.1 0.01"))
        b = tmp_path / "b.ini"
        b.write_text(body.format(grid="lambdas = 0.1 0.01"))
        assert parse_experiment_config(str(a)).lambda_grid == (0.1, 0.01)
        assert parse_experiment_config(str(b)).lambda_grid == (0.1, 0.01)

    def test_baseline_rejects_solver_epsilon(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[generator]\nname = paper-4x4\nn = 50\n"
            "[sweep]\nsolver = minvol-baseline\nsigmas = 0.1\n"
            "lambda_tildes = 0.1\nbase_seed = 1\n"
            "[solver]\nepsilon = 5\n"
        )
        with pytest.raises(InvalidInputError, match="epsilon"):
            parse_experiment_config(str(path))

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        spec = parse_experiment_config(str(path))
        assert spec.sigma_grid == (1e-1, 1e-2, 1e-3)
        assert spec.lambda_grid == (1.0, 0.5, 0.1)

    def test_missing_file_mentions_path(self, tmp_path):
        missing = tmp_path / "nope.ini"
        with pytest.raises(InvalidInputError, match="nope.ini"):
            parse_generator_config(str(missing))

    def test_missing_section_mentions_section(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[generator]\nname = paper-4x4\nn = 50\n")
        with pytest.raises(InvalidInputError, match=r"\[sweep\]"):
            parse_experiment_config(str(path))

    def test_bad_value_mentions_key(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[generator]\nname = paper-4x4\nn = 50\n"
            "[sweep]\nsolver = sqrt-minvol\nsigmas = 0.1 oops\n"
            "lambdas = 0.1\nbase_seed = 1\n"
        )
        with pytest.raises(InvalidInputError, match="sigmas"):
            parse_experiment_config(str(path))

    def test_bad_generator_name_wrapped_with_path(self, tmp_path):
        path = tmp_path / "gen.ini"
        path.write_text(
            "[generator]\nname = unknown-gen\nn = 50\nsigma = 0\nseed = 1\n"
        )
        with pytest.raises(InvalidInputError, match="gen.ini"):
            parse_generator_config(str(path))
