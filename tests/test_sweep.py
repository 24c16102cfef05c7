import dataclasses
import io
import multiprocessing
import re
from pathlib import Path

import numpy as np
import pytest

import sqrtminvol.solver as solver_mod
import sqrtminvol.sweep as sweep_mod
from sqrtminvol.cli import main
from sqrtminvol.datagen import InstanceSpec
from sqrtminvol.errors import InvalidInputError, NumericalFaultError
from sqrtminvol.matrixio import format_value, write_table
from sqrtminvol.sweep import (
    ExperimentSpec,
    SummaryRow,
    SweepRecord,
    cell_seed,
    parse_experiment_config,
    parse_generator_config,
    run_cell,
    run_sweep,
    summarize,
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
    )
    kwargs.update(overrides)
    if kwargs["solver"] == "sqrt-minvol":
        kwargs.setdefault("max_outer", 8)
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
    def test_setting_fields_are_exactly_the_solver_settings(self):
        # A setting added to SqrtConfig but not here would break every spec
        # when it is built; this names the missing field instead.
        own = {"generator", "solver", "sigma_grid", "lambda_grid", "base_seed",
               "replicates"}
        settings = [f for f in dataclasses.fields(ExperimentSpec) if f.name not in own]
        assert {f.name: f.type for f in settings} == solver_mod.SETTINGS
        assert all(f.default is None for f in settings)

    def test_rejects_unknown_solver(self):
        with pytest.raises(InvalidInputError):
            tiny_spec(solver="multiplicative")

    def test_rejects_empty_grids(self):
        with pytest.raises(InvalidInputError):
            tiny_spec(sigma_grid=())
        with pytest.raises(InvalidInputError):
            tiny_spec(lambda_grid=())

    def test_rejects_bad_grid_values(self):
        with pytest.raises(InvalidInputError):
            tiny_spec(sigma_grid=(-0.1,))
        with pytest.raises(InvalidInputError):
            tiny_spec(lambda_grid=(0.0,))

    @pytest.mark.parametrize(
        "grid, values",
        [("sigma", (np.nan, 0.01)), ("sigma", (np.inf,)), ("lambda", (np.inf,))],
    )
    def test_rejects_non_finite_grid_values(self, grid, values):
        # A non-finite value would fault its cells and still exit 0.
        with pytest.raises(InvalidInputError, match=f"{grid}_grid values"):
            tiny_spec(**{f"{grid}_grid": values})

    def test_rejects_bad_replicates(self):
        with pytest.raises(InvalidInputError):
            tiny_spec(replicates=0)

    @pytest.mark.parametrize(
        "field, value", [("replicates", 1.5), ("replicates", 2.0), ("base_seed", 0.5)]
    )
    def test_count_that_is_not_an_integer_is_named(self, field, value):
        # replicates = 1.5 would build, then fail in run_sweep with a TypeError.
        with pytest.raises(InvalidInputError, match=rf"^{field} must be an integer, got "):
            tiny_spec(**{field: value})
        spec = tiny_spec(replicates=np.int64(2), base_seed=np.uint64(5))
        assert (spec.replicates, spec.base_seed) == (2, 5)

    def test_rejects_a_negative_base_seed(self):
        with pytest.raises(InvalidInputError, match="base_seed must be >= 0"):
            tiny_spec(base_seed=-5)

    @pytest.mark.parametrize("setting", [{"max_outer": 0}, {"tol": -1.0}, {"delta": 0.0}])
    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_rejects_a_bad_solver_setting_when_built(self, solver, setting):
        # Every cell would fault on it; the spec refuses it instead.
        with pytest.raises(InvalidInputError):
            tiny_spec(solver=solver, **setting)

    def test_rejects_epsilon_for_baseline(self):
        assert tiny_spec(solver="minvol-baseline").epsilon is None
        with pytest.raises(InvalidInputError, match="epsilon"):
            tiny_spec(solver="minvol-baseline", epsilon=1e-3)

    def test_max_outer_budgets_the_baseline(self):
        spec = tiny_spec(solver="minvol-baseline", max_outer=1)
        assert run_cell(spec, 1, 0, 0).outer_iters == 1

    def test_rejects_baseline_sweeps_for_sqrt(self):
        # max_outer is the one budget name; the old baseline-only one is gone.
        for solver in ("sqrt-minvol", "minvol-baseline"):
            with pytest.raises(TypeError, match="baseline_sweeps"):
                tiny_spec(solver=solver, baseline_sweeps=5)

    def test_solve_rejects_epsilon_for_baseline(self):
        X = np.random.default_rng(3).random((4, 12))
        with pytest.raises(InvalidInputError, match="epsilon"):
            solve(X, 2, "minvol-baseline", lam=0.1, epsilon=1e-3)

    def test_rank_is_the_generators(self):
        # Any other rank would fault every cell in rel_rmse_W (shapes differ).
        with pytest.raises(TypeError, match="rank"):
            tiny_spec(rank=3)

    @pytest.mark.parametrize(
        "generator, fits",
        [
            (dict(name="random-uniform", m=3, r=5, n=40), dict(m=5)),
            (dict(name="random-uniform", m=6, r=4, n=3), dict(n=4)),
            (dict(name="paper-4x4", n=3), dict(n=4)),
        ],
        ids=["above-rows", "above-n", "paper-4x4-above-n"],
    )
    def test_rejects_a_rank_out_of_range(self, generator, fits):
        # Every cell's SNPA would refuse it; the spec refuses it instead.
        too_big = InstanceSpec(sigma=0.0, seed=0, **generator)
        top = min(too_big.rows, too_big.n)
        with pytest.raises(InvalidInputError, match=rf"r = {too_big.rank} exceeds min\(m, n\) = {top}"):
            tiny_spec(generator=too_big)
        # At r = min(m, n) the spec is built.
        tiny_spec(generator=dataclasses.replace(too_big, **fits))


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
        spec = tiny_spec(solver="minvol-baseline", max_outer=10)
        rec = run_cell(spec, 0, 1, 1)
        assert rec.status == "ok"
        assert rec.outer_iters >= 1

    def test_baseline_cell_honours_tol(self):
        def cell(tol):
            spec = tiny_spec(solver="minvol-baseline", max_outer=50, tol=tol)
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

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_too_small_delta_is_a_numerical_fault(self, solver):
        # A failed Cholesky factor is a numerical fault like any other.
        rec = run_cell(tiny_spec(solver=solver, delta=1e-300, max_outer=3), 1, 0, 0)
        assert (rec.status, rec.stop) == ("fault:NumericalFaultError", None)

    def test_fault_is_recorded_not_raised(self, monkeypatch):
        def boom(spec, X, gt, lam, start):
            raise NumericalFaultError("synthetic blow-up")

        monkeypatch.setattr(sweep_mod, "_solve_cell", boom)
        rec = run_cell(tiny_spec(), 0, 0, 0)
        assert rec.status == "fault:NumericalFaultError"
        assert rec.rel_rmse_X is None and rec.final_obj is None


class TestRunSweep:
    def test_grid_order(self):
        spec = tiny_spec(max_outer=2)
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

        def sometimes(spec, X, gt, lam, start):
            if lam == 0.01:
                raise NumericalFaultError("synthetic blow-up")
            return real(spec, X, gt, lam, start)

        monkeypatch.setattr(sweep_mod, "_solve_cell", sometimes)
        records = run_sweep(tiny_spec(max_outer=2), jobs=1)
        by_lam = {
            lam: [(r.status, r.stop) for r in records if r.lam == lam] for lam in (0.1, 0.01)
        }
        # A solved cell records why its solve stopped; a faulted one has no stop.
        assert all(s == ("ok", "budget") for s in by_lam[0.1])
        assert all(s == ("fault:NumericalFaultError", None) for s in by_lam[0.01])

    def test_parallel_matches_serial_excluding_wall(self):
        spec = tiny_spec(max_outer=4)
        serial = run_sweep(spec, jobs=1)
        parallel = run_sweep(spec, jobs=2)

        def strip_wall(records):
            buf = io.StringIO()
            write_table(buf, SweepRecord, records)
            lines = buf.getvalue().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_wall(serial) == strip_wall(parallel)


class InProcessPool:
    """Stands in for the process pool: records its size, runs the tasks here."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return map(fn, tasks)


class TestPoolSize:
    """A sweep starts at most one worker per task, and jobs below 1 is refused."""

    @pytest.mark.parametrize(
        "grid, jobs, workers",
        [
            # One cell: one task, where the pool used to start all 4 workers.
            ({"sigma_grid": (0.01,), "lambda_grid": (0.1,), "replicates": 1}, 4, 1),
            # 4 rows of 2 cells split into 8 one-cell tasks.
            ({}, 64, 8),
            # The benchmark's sweep shape: 8 rows on 2 workers keeps 2.
            # A numpy integer is a count like any other.
            ({"sigma_grid": (0.1, 0.01, 0.001, 0.0001)}, np.int64(2), 2),
        ],
        ids=["one-cell", "more-jobs-than-cells", "fewer-jobs-than-rows"],
    )
    def test_workers_are_capped_by_tasks(self, monkeypatch, grid, jobs, workers):
        monkeypatch.setattr(InProcessPool, "sizes", [])
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InProcessPool)
        spec = tiny_spec(max_outer=2, **grid)
        records = run_sweep(spec, jobs=jobs)
        assert InProcessPool.sizes == [workers]
        serial = run_sweep(spec, jobs=1)
        assert InProcessPool.sizes == [workers]  # jobs = 1 runs without a pool

        def fields(rec):
            values = dataclasses.asdict(rec)
            del values["wall_ms"]
            return values

        assert [fields(r) for r in records] == [fields(r) for r in serial]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_is_refused(self, monkeypatch, jobs):
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(sweep_mod, "run_cell", None)  # nothing may run
        with pytest.raises(InvalidInputError, match=rf"^jobs must be >= 1, got {jobs}$"):
            run_sweep(tiny_spec(), jobs=jobs)

    @pytest.mark.parametrize("jobs", [1.5, np.float64(2.0)])
    def test_jobs_that_is_not_an_integer_is_refused(self, monkeypatch, jobs):
        # 1.5 used to pass the jobs < 1 test and run int(1.5) = 1 worker.
        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(sweep_mod, "run_cell", None)  # nothing may run
        message = rf"^jobs must be an integer, got {re.escape(repr(jobs))}$"
        with pytest.raises(InvalidInputError, match=message):
            run_sweep(tiny_spec(), jobs=jobs)


class TestRowSharing:
    """A (sigma, replicate) row builds its instance and SNPA start once."""

    @staticmethod
    def one_row(**overrides):
        grid = (1.0, 0.5, 0.1, 0.05, 0.01, 0.005)
        return tiny_spec(sigma_grid=(0.01,), replicates=1, lambda_grid=grid, **overrides)

    def test_one_instance_and_start_per_row(self, monkeypatch):
        calls = {"snpa": 0, "make_instance": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        snpa = counting("snpa", solver_mod.snpa)
        for module in (solver_mod, sweep_mod):
            monkeypatch.setattr(module, "snpa", snpa, raising=False)
        make_instance = counting("make_instance", sweep_mod.make_instance)
        monkeypatch.setattr(sweep_mod, "make_instance", make_instance)
        records = run_sweep(tiny_spec(max_outer=2), jobs=1)
        # 2 sigmas x 2 replicates = 4 rows of 2 lambdas each.
        assert len(records) == 8 and all(r.status == "ok" for r in records)
        assert calls == {"snpa": 4, "make_instance": 4}

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("grid", ["rows", "one-row"])
    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_records_equal_cells_run_alone(self, solver, grid, jobs):
        settings = dict(solver=solver, max_outer=3)
        spec = self.one_row(**settings) if grid == "one-row" else tiny_spec(**settings)
        alone = [
            run_cell(spec, si, rep, li)
            for si in range(len(spec.sigma_grid))
            for rep in range(spec.replicates)
            for li in range(len(spec.lambda_grid))
        ]

        def fields(rec):
            values = dataclasses.asdict(rec)
            del values["wall_ms"]
            return values

        assert all(r.status == "ok" for r in alone)
        assert [fields(r) for r in run_sweep(spec, jobs=jobs)] == [fields(r) for r in alone]

    def test_few_rows_are_split_into_chunks(self):
        def chunks(spec, jobs):
            return [(si, rep, list(lis)) for si, rep, lis in sweep_mod._tasks(spec, jobs)]

        spec = self.one_row()
        assert chunks(spec, 1) == [(0, 0, [0, 1, 2, 3, 4, 5])]
        assert chunks(spec, 2) == [(0, 0, [0, 1, 2]), (0, 0, [3, 4, 5])]
        assert chunks(spec, 4) == [(0, 0, [0]), (0, 0, [1, 2]), (0, 0, [3]), (0, 0, [4, 5])]
        assert len(chunks(spec, 64)) == 6  # never more chunks than cells
        # As many rows as jobs or more: one task per row.
        assert chunks(tiny_spec(), 4) == [
            (si, rep, [0, 1]) for si in range(2) for rep in range(2)
        ]
        assert len(chunks(tiny_spec(), 5)) == 8

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the pool workers must inherit the patched task function",
    )
    def test_one_row_runs_on_two_workers(self, monkeypatch):
        # Each task waits until the other has started, so the sweep only
        # finishes if its two chunks run at the same time on two workers.
        barrier = multiprocessing.Barrier(2)
        real = sweep_mod._run_task

        def meet_then_run(*args):
            barrier.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(sweep_mod, "_run_task", meet_then_run)
        records = run_sweep(self.one_row(max_outer=2), jobs=2)
        assert [r.status for r in records] == ["ok"] * 6

    @pytest.mark.parametrize("where", ["make_instance", "snpa"])
    def test_a_row_fault_marks_that_row_only(self, monkeypatch, where):
        calls = []
        real = getattr(sweep_mod, where)

        def second_row_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NumericalFaultError("synthetic blow-up")
            return real(*args)

        monkeypatch.setattr(sweep_mod, where, second_row_fails)
        records = run_sweep(tiny_spec(max_outer=2), jobs=1)
        fault = "fault:NumericalFaultError"
        assert [r.status for r in records] == ["ok"] * 2 + [fault] * 2 + ["ok"] * 4
        assert len(calls) == 4  # the fault is kept for the row, not rebuilt
        assert all(r.rel_rmse_X is None for r in records if r.status == fault)


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
        write_table(
            buf,
            SweepRecord,
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
                    stop="converged",
                    wall_ms=12.3456,
                )
            ],
        )
        lines = buf.getvalue().splitlines()
        assert lines[0] == (
            "solver,sigma,lambda,replicate,seed,rel_rmse_X,rel_rmse_W,"
            "final_obj,outer_iters,status,stop,wall_ms"
        )
        assert lines[1] == "sqrt-minvol,0.01,0.5,0,123,0.25,0.5,1.5,7,ok,converged,12.346"

    def test_summary_csv_handles_missing_cells(self):
        rows = summarize([], (0.3,), (1.0,))
        buf = io.StringIO()
        write_table(buf, SummaryRow, rows)
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
            "sigma_grid = 0.1 0.01\n"
            "lambda_grid = 1 0.1 0.01\n"
            "replicates = 2\n"
            "base_seed = 9\n"
            "max_outer = 30\n"
            "epsilon = 1e-12\n"
        )
        spec = parse_experiment_config(str(path))
        assert spec.generator.name == "random-uniform"
        assert spec.sigma_grid == (0.1, 0.01)
        assert spec.lambda_grid == (1.0, 0.1, 0.01)
        assert spec.replicates == 2
        assert spec.base_seed == 9
        assert spec.max_outer == 30
        assert spec.epsilon == 1e-12
        assert spec.delta is None  # unset: the solver takes MinvolConfig.delta

    def test_sweep_keys_are_the_spec_fields(self):
        # A new spec field is a new key with no edit to the parser.
        assert set(sweep_mod.INI_KEYS) == {"generator", "sweep"}
        assert set(sweep_mod.INI_KEYS["generator"]) == {
            f.name for f in dataclasses.fields(InstanceSpec)
        }
        assert set(sweep_mod.INI_KEYS["sweep"]) == {
            f.name for f in dataclasses.fields(ExperimentSpec)
        } - {"generator"}

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_every_field_round_trips(self, tmp_path, solver):
        spec = ExperimentSpec(
            generator=InstanceSpec(
                "random-uniform", n=30, sigma=0.25, seed=7, m=6, r=3, alpha=0.05
            ),
            solver=solver,
            sigma_grid=(0.1, 1e-3, 0.0),
            lambda_grid=(0.3, 1 / 3, 1e-5),
            base_seed=9,
            replicates=2,
            delta=0.2,
            # The one setting a baseline spec refuses is left unset.
            epsilon=1e-12 if solver == "sqrt-minvol" else None,
            max_outer=30,
            tol=1e-5,
        )

        def section(name, obj):
            lines = [f"[{name}]"]
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if f.name == "generator" or value is None:
                    continue
                if isinstance(value, tuple):
                    text = " ".join(format_value(f.name, v) for v in value)
                else:
                    text = format_value(f.name, value)
                lines.append(f"{f.name} = {text}")
            return lines

        unset = {f.name for f in dataclasses.fields(spec) if getattr(spec, f.name) is None}
        assert unset == (set() if solver == "sqrt-minvol" else {"epsilon"})
        path = tmp_path / "exp.ini"
        lines = section("generator", spec.generator) + section("sweep", spec)
        path.write_text("\n".join(lines) + "\n")
        assert parse_experiment_config(str(path)) == spec

    def test_baseline_rejects_solver_epsilon(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[generator]\nname = paper-4x4\nn = 50\n"
            "[sweep]\nsolver = minvol-baseline\nsigma_grid = 0.1\n"
            "lambda_grid = 0.1\nbase_seed = 1\n"
            "epsilon = 5\n"
        )
        with pytest.raises(InvalidInputError, match="epsilon"):
            parse_experiment_config(str(path))

    @staticmethod
    def experiment_ini(
        tmp_path,
        solver,
        extra="",
        generator="name = paper-4x4\nn = 40\n",
        grids="sigma_grid = 0.01\nlambda_grid = 0.1\n",
    ):
        """An experiment INI file: ``extra`` ends its [sweep] section."""
        path = tmp_path / "exp.ini"
        path.write_text(
            f"[generator]\n{generator}"
            f"[sweep]\nsolver = {solver}\n{grids}base_seed = 1\n" + extra
        )
        return path

    @pytest.mark.parametrize(
        "solver, extra, where, ini",
        [
            # max_outer budgets both solvers; the old baseline-only key is unknown.
            (
                "minvol-baseline",
                "baseline_sweeps = 1\n",
                r"\[sweep\] unknown key 'baseline_sweeps'",
                {},
            ),
            (
                "sqrt-minvol",
                "baseline_sweeps = 1\n",
                r"\[sweep\] unknown key 'baseline_sweeps'",
                {},
            ),
            ("sqrt-minvol", "max_outter = 1\n", r"\[sweep\] unknown key 'max_outter'", {}),
            ("sqrt-minvol", "replicate = 3\n", r"\[sweep\] unknown key 'replicate'", {}),
            ("sqrt-minvol", "[solvr]\nmax_outer = 1\n", r"unknown section \[solvr\]", {}),
            # The generator's rank is the only one a sweep can score.
            ("sqrt-minvol", "rank = 4\n", r"\[sweep\] unknown key 'rank'", {}),
            # The FGM budget of a block update is a constant, not a setting.
            ("sqrt-minvol", "inner_iters = 10\n", r"\[sweep\] unknown key 'inner_iters'", {}),
            # Where a run writes is only ever said by --out.
            ("sqrt-minvol", "out = runs/demo\n", r"\[sweep\] unknown key 'out'", {}),
            # A line configparser cannot parse: one line, naming the file once.
            (
                "sqrt-minvol",
                "max_outer\n",
                r"^\S*exp\.ini: line 9: 'max_outer\\n' is not key = value$",
                {},
            ),
            # The keys are the spec's fields: the old grid spellings are unknown.
            (
                "sqrt-minvol",
                "",
                r"\[sweep\] unknown key 'sigmas'",
                {"grids": "sigmas = 0.01\nlambda_grid = 0.1\n"},
            ),
            (
                "sqrt-minvol",
                "",
                r"\[sweep\] unknown key 'lambdas'",
                {"grids": "sigma_grid = 0.01\nlambdas = 0.1\n"},
            ),
            # Read as a grid, a lambda-tilde would run as the raw weight lam = 0.3.
            (
                "sqrt-minvol",
                "",
                r"\[sweep\] unknown key 'lambda_tildes'",
                {"grids": "sigma_grid = 0.01\nlambda_tildes = 0.3\n"},
            ),
            (
                "minvol-baseline",
                "",
                r"\[sweep\] unknown key 'lambda_tildes'",
                {"grids": "sigma_grid = 0.01\nlambda_tildes = 0.3\n"},
            ),
            # The solver settings are [sweep] keys, as ExperimentSpec's fields.
            ("sqrt-minvol", "[solver]\nmax_outer = 1\n", r"unknown section \[solver\]", {}),
        ],
        ids=[
            "baseline_sweeps-baseline",
            "baseline_sweeps-sqrt",
            "typo",
            "sweep-key",
            "section",
            "rank",
            "inner_iters",
            "out",
            "no-equals",
            "sigmas",
            "lambdas",
            "lambda_tildes-sqrt",
            "lambda_tildes-baseline",
            "solver-section",
        ],
    )
    def test_unknown_key_or_section_exits_2(
        self, tmp_path, capsys, solver, extra, where, ini
    ):
        path = self.experiment_ini(tmp_path, solver, extra, **ini)
        with pytest.raises(InvalidInputError, match=where) as info:
            parse_experiment_config(str(path))
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert "exp.ini" in str(info.value)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n = 40\n[generator]\n", "line 1: 'n = 40\\n' comes before any section"),
            ("[generator]\nn = 40\n[generator]\n", "[generator] line 3: section repeated"),
            ("[generator]\nn = 40\nn = 50\n", "[generator] line 3: key 'n' repeated"),
        ],
        ids=["no-section", "section-twice", "key-twice"],
    )
    def test_other_parse_errors_are_one_line_naming_the_file_once(
        self, tmp_path, text, message
    ):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as info:
            parse_experiment_config(str(path))
        assert str(info.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "solver, extra, where, ini",
        [
            ("minvol-baseline", "max_outer = 0\n", r"\[sweep\] max_outer must be >= 1, got 0", {}),
            (
                "sqrt-minvol",
                "",
                r"\[generator\] r = 5 exceeds min\(m, n\) = 3",
                {"generator": "name = random-uniform\nn = 40\nm = 3\nr = 5\n"},
            ),
            ("minvol-baseline", "", r"\[generator\] r = 4 exceeds min\(m, n\) = 3", {"generator": "name = paper-4x4\nn = 3\n"}),
            ("minvol-baseline", "epsilon = 5\n", r"\[sweep\] epsilon is for", {}),
            # The spec's own checks come before the solver's.
            ("sqrt-minvol", "replicates = 0\nmax_outer = 0\n", r"\[sweep\] replicates", {}),
            # The weight grid has one key, whichever the solver.
            (
                "minvol-baseline",
                "",
                r"\[sweep\] missing key 'lambda_grid'$",
                {"grids": "sigma_grid = 0.01\n"},
            ),
            # A '%' is not interpolated; it used to end in a traceback.
            ("sqrt-minvol", "replicates = 2%\n", r"\[sweep\] replicates = '2%'", {}),
        ],
        ids=[
            "max_outer", "rank-above-rows", "rank-above-n", "epsilon", "sweep-key",
            "missing-grid", "percent",
        ],
    )
    def test_setting_error_names_its_section(self, tmp_path, capsys, solver, extra, where, ini):
        path = self.experiment_ini(tmp_path, solver, extra, **ini)
        with pytest.raises(InvalidInputError, match=where):
            parse_experiment_config(str(path))
        assert main(["sweep", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_generator_rejects_unknown_key(self, tmp_path):
        path = tmp_path / "gen.ini"
        path.write_text("[generator]\nname = paper-4x4\nn = 50\nsigma = 0\nseed = 1\nsead = 2\n")
        with pytest.raises(InvalidInputError, match=r"\[generator\] unknown key 'sead'"):
            parse_generator_config(str(path))

    def test_readme_example_parses(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.ini"
        path.write_text(block)
        spec = parse_experiment_config(str(path))
        assert spec.sigma_grid == (1e-1, 1e-2, 1e-3)
        assert spec.lambda_grid == (1.0, 0.5, 0.1)
        assert parse_generator_config(str(path)).seed == 3

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
            "[sweep]\nsolver = sqrt-minvol\nsigma_grid = 0.1 oops\n"
            "lambda_grid = 0.1\nbase_seed = 1\n"
        )
        with pytest.raises(InvalidInputError, match="sigma_grid"):
            parse_experiment_config(str(path))

    @pytest.mark.parametrize(
        "section, key, value, says",
        [
            ("generator", "seed", "-1", "must be >= 0, got -1"),
            ("generator", "sigma", "inf", "must be finite and >= 0, got inf"),
            ("generator", "alpha", "inf", "must be finite and > 0, got inf"),
            ("sweep", "base_seed", "-5", "must be >= 0, got -5"),
            ("sweep", "sigma_grid", "nan 0.01", "values must be finite and >= 0, got nan"),
            ("sweep", "lambda_grid", "inf", "values must be finite and > 0, got inf"),
            ("sweep", "sigma_grid", "", "must be non-empty"),
        ],
        ids=[
            "generator-seed--1", "generator-sigma-inf", "generator-alpha-inf",
            "sweep-base_seed--5", "sweep-sigma_grid-nan 0.01", "sweep-lambda_grid-inf",
            "sweep-sigma_grid-empty",
        ],
    )
    def test_negative_seed_or_non_finite_value_names_its_key(
        self, tmp_path, section, key, value, says
    ):
        ini = {
            "generator": dict(name="paper-4x4", n="50", sigma="0", seed="1"),
            "sweep": dict(
                solver="sqrt-minvol", sigma_grid="0.1", lambda_grid="0.1", base_seed="1"
            ),
        }
        ini[section][key] = value
        path = tmp_path / "exp.ini"
        path.write_text(
            "".join(
                f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                for name, keys in ini.items()
            )
        )
        parse = parse_generator_config if section == "generator" else parse_experiment_config
        with pytest.raises(InvalidInputError, match=rf"\[{section}\] {key}\b.*{says}$"):
            parse(str(path))

    def test_bad_generator_name_wrapped_with_path(self, tmp_path):
        path = tmp_path / "gen.ini"
        path.write_text(
            "[generator]\nname = unknown-gen\nn = 50\nsigma = 0\nseed = 1\n"
        )
        with pytest.raises(InvalidInputError, match="gen.ini"):
            parse_generator_config(str(path))
