import csv
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from sqrtminvol.cli import _flag, build_parser, main
from sqrtminvol.matrixio import read_matrix, write_matrix
from sqrtminvol.solver import SETTINGS
from sqrtminvol.sweep import parse_generator_config

GEN_INI = "[generator]\nname = paper-4x4\nn = 60\nsigma = 0\nseed = 3\n"

SWEEP_INI = (
    "[generator]\n"
    "name = paper-4x4\n"
    "n = 40\n"
    "[sweep]\n"
    "solver = sqrt-minvol\n"
    "sigma_grid = 0.01\n"
    "lambda_grid = 0.1 0.01\n"
    "replicates = 2\n"
    "base_seed = 11\n"
    "max_outer = 6\n"
)


def write_ini(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def strip_wall(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


@pytest.fixture()
def instance_dir(tmp_path):
    ini = write_ini(tmp_path, GEN_INI)
    out = tmp_path / "inst"
    assert main(["generate", ini, "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_all_files(self, tmp_path, instance_dir, capsys):
        for name in ("X.txt", "X_star.txt", "W_star.txt", "H_star.txt", "manifest.ini"):
            assert (instance_dir / name).exists()

    def test_noiseless_data_equals_truth_bytes(self, instance_dir):
        assert (instance_dir / "X.txt").read_bytes() == (
            instance_dir / "X_star.txt"
        ).read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path, instance_dir):
        ini = write_ini(tmp_path, GEN_INI, "again.ini")
        out2 = tmp_path / "inst2"
        assert main(["generate", ini, "--out", str(out2)]) == 0
        for name in ("X.txt", "W_star.txt", "H_star.txt"):
            assert (out2 / name).read_bytes() == (instance_dir / name).read_bytes()

    def test_seed_flag_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # The INI file's seed is the one seed of an instance.
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as info:
            main(["generate", write_ini(tmp_path, GEN_INI), "--out", str(out), "--seed", "9"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_parses_back(self, instance_dir):
        spec = parse_generator_config(str(instance_dir / "manifest.ini"))
        assert (spec.name, spec.n, spec.sigma, spec.seed) == ("paper-4x4", 60, 0.0, 3)

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        ini = write_ini(tmp_path, "[generator]\nname = paper-4x4\n")
        assert main(["generate", ini, "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "nope.ini"), "--out", "o"]) == 2

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("seed = 3", "seed = -1", "[generator] seed must be >= 0, got -1"),
            ("sigma = 0", "sigma = inf", "[generator] sigma must be finite"),
            ("sigma = 0", "sigma = nan", "[generator] sigma must be finite"),
            ("sigma = 0", "sigma = 0\nalpha = inf", "[generator] alpha must be finite"),
        ],
        ids=["ini-seed", "inf-sigma", "nan-sigma", "inf-alpha"],
    )
    def test_bad_value_exits_2_and_writes_nothing(self, tmp_path, capsys, old, new, message):
        ini = write_ini(tmp_path, GEN_INI.replace(old, new))
        out = tmp_path / "o"
        assert main(["generate", ini, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSolveSqrt:
    def test_solve_writes_factors_and_trace(self, tmp_path, instance_dir, capsys):
        out = tmp_path / "sol"
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--lambda",
                "0.1",
                "--max-outer",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "solver=sqrt-minvol" in text
        assert f"epsilon={0.1:.17g}" in text  # SqrtConfig's default, no flag given
        assert "outer_iters=" in text
        assert text.splitlines()[-1].split()[-1] in (
            "stop=stalled",
            "stop=converged",
            "stop=budget",
        )
        W = read_matrix(out / "W.txt")
        H = read_matrix(out / "H.txt")
        assert W.shape == (4, 4) and H.shape == (4, 60)
        with open(out / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and rows[0]["k"] == "1"

    def test_ground_truth_flags_report_metrics(self, tmp_path, instance_dir, capsys):
        out = tmp_path / "sol2"
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--lambda",
                "0.05",
                "--max-outer",
                "6",
                "--w-star",
                str(instance_dir / "W_star.txt"),
                "--x-star",
                str(instance_dir / "X_star.txt"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "rel_rmse_X=" in text and "rel_rmse_W=" in text

    def test_missing_lambda_exits_2(self, tmp_path, instance_dir, capsys):
        code = main(
            ["solve", str(instance_dir / "X.txt"), "--rank", "4", "--out", str(tmp_path / "s")]
        )
        assert code == 2

    def test_negative_lambda_exits_2(self, tmp_path, instance_dir, capsys):
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--lambda",
                "-0.5",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == 2

    def test_lambda_tilde_is_rejected_for_sqrt_solver(self, tmp_path, instance_dir, capsys):
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--solver",
                "sqrt-minvol",
                "--lambda",
                "0.5",
                "--lambda-tilde",
                "0.01",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == 2
        assert "--lambda-tilde" in capsys.readouterr().err

    def test_overflowing_data_exits_3(self, tmp_path, instance_dir, capsys):
        X = read_matrix(instance_dir / "X.txt") * 1e200
        write_matrix(tmp_path / "huge.txt", X)
        code = main(
            [
                "solve",
                str(tmp_path / "huge.txt"),
                "--rank",
                "4",
                "--lambda",
                "0.1",
                "--out",
                str(tmp_path / "s"),
            ]
        )
        assert code == 3
        assert "squared norm of X overflows" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weight", [["--lambda", "1"], ["--solver", "minvol-baseline", "--lambda-tilde", "0.01"]]
    )
    def test_too_small_delta_exits_3_naming_it(self, tmp_path, instance_dir, capsys, weight):
        argv = ["solve", str(instance_dir / "X.txt"), "--rank", "4", *weight]
        argv += ["--delta", "1e-300", "--max-outer", "3", "--out", str(tmp_path / "s")]
        assert main(argv) == 3
        assert "delta=1e-300" in capsys.readouterr().err

    def test_budget_stop_is_printed(self, tmp_path, instance_dir, capsys):
        argv = ["solve", str(instance_dir / "X.txt"), "--rank", "4", "--lambda", "1"]
        assert main(argv + ["--max-outer", "2", "--out", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(" stop=budget")

    @pytest.mark.parametrize("bad", ["missing-data", "out-is-a-file", "out-under-a-file"])
    def test_unusable_path_exits_2(self, tmp_path, instance_dir, capsys, bad):
        data, out = instance_dir / "X.txt", tmp_path / "s"
        if bad == "missing-data":
            data = tmp_path / "absent.txt"
            message = f"{data}: No such file or directory"
        else:
            # Refused before X is read, rather than after a whole solve.
            (tmp_path / "s").write_text("a file, not a directory\n")
            if bad == "out-under-a-file":
                out = out / "sub"
            message = f"--out {out}: {tmp_path / 's'} is not a directory"
        argv = ["solve", str(data), "--rank", "4", "--lambda", "0.1", "--max-outer", "2"]
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "solver=" not in captured.out


class TestSolveBaseline:
    def test_lambda_tilde_echoes_rescaling(self, tmp_path, instance_dir, capsys):
        out = tmp_path / "bl"
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--solver",
                "minvol-baseline",
                "--lambda-tilde",
                "0.01",
                "--max-outer",
                "20",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "solver=minvol-baseline" in text
        assert "from lambda_tilde=0.01" in text
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "k,objective"
        assert lines[1].startswith("0,")

    def test_direct_lambda_runs(self, tmp_path, instance_dir, capsys):
        out = tmp_path / "bl2"
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--solver",
                "minvol-baseline",
                "--lambda",
                "0.05",
                "--max-outer",
                "15",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "from lambda_tilde" not in capsys.readouterr().out

    def test_stop_is_printed(self, tmp_path, instance_dir, capsys):
        argv = ["solve", str(instance_dir / "X.txt"), "--rank", "4"]
        argv += ["--solver", "minvol-baseline", "--lambda", "0.05", "--max-outer", "2"]
        assert main(argv + ["--out", str(tmp_path / "s")]) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith(" stop=budget")

    def test_epsilon_is_rejected_for_baseline(self, tmp_path, instance_dir, capsys):
        out = tmp_path / "bl3"
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--solver",
                "minvol-baseline",
                "--lambda",
                "0.05",
                "--epsilon",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        assert "--epsilon" in capsys.readouterr().err
        assert not (out / "W.txt").exists()

    def test_both_weight_flags_exit_2(self, tmp_path, instance_dir, capsys):
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--solver",
                "minvol-baseline",
                "--lambda",
                "0.1",
                "--lambda-tilde",
                "0.1",
            ]
        )
        assert code == 2

    def test_neither_weight_flag_exits_2(self, tmp_path, instance_dir):
        code = main(
            [
                "solve",
                str(instance_dir / "X.txt"),
                "--rank",
                "4",
                "--solver",
                "minvol-baseline",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value, name",
        [("--lambda", "-0.05", "lam"), ("--lambda-tilde", "-0.01", "lambda_tilde")],
        ids=["lambda", "lambda-tilde"],
    )
    def test_negative_weight_exits_2_and_writes_nothing(
        self, tmp_path, instance_dir, capsys, flag, value, name
    ):
        # lam >= 0 is the one weight rule; a negative one would reward volume.
        out = tmp_path / "bl3"
        argv = ["solve", str(instance_dir / "X.txt"), "--rank", "4",
                "--solver", "minvol-baseline", flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {name} must be finite and >= 0, got {value}\n"
        )
        assert not out.exists()

    def test_zero_weight_runs_without_warning(self, tmp_path, instance_dir, capsys):
        # lam = 0 drops the volume term; there is nothing to warn about.
        out = tmp_path / "bl0"
        argv = ["solve", str(instance_dir / "X.txt"), "--rank", "4",
                "--solver", "minvol-baseline", "--lambda", "0", "--max-outer", "5",
                "--out", str(out)]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert (out / "W.txt").exists()



class TestSolveGroundTruthShapes:
    """A ground-truth file of the wrong shape exits 2 before the solve, writing
    nothing.  A wrong --x-star used to die in numpy with exit 1, after the
    baseline had written its outputs; a wrong --w-star let the baseline solve
    and write everything before it exited 2."""

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    @pytest.mark.parametrize(
        "flag, name, message",
        [
            ("--x-star", "W_star.txt", "--x-star has shape (4, 4), expected (4, 60)"),
            ("--w-star", "X_star.txt", "--w-star has shape (4, 60), expected (4, 4)"),
        ],
        ids=["x-star", "w-star"],
    )
    def test_wrong_shape_exits_2_and_writes_nothing(
        self, tmp_path, instance_dir, capsys, solver, flag, name, message
    ):
        out = tmp_path / "s"
        argv = ["solve", str(instance_dir / "X.txt"), "--rank", "4", "--solver", solver,
                "--lambda", "0.05", "--max-outer", "3", flag, str(instance_dir / name),
                "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestSolveNonFiniteSettings:
    """A non-finite setting exits 2 naming it, and nothing is written."""

    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--lambda", "0.1", "--delta", "inf"], "delta"),
            (["--lambda", "0.1", "--epsilon", "inf"], "epsilon"),
            (["--lambda", "inf"], "lam"),
            (["--lambda", "nan"], "lam"),
            (["--lambda", "0.1", "--tol", "inf"], "tol"),
            (["--solver", "minvol-baseline", "--lambda", "inf"], "lam"),
            (["--solver", "minvol-baseline", "--lambda-tilde", "inf"], "lambda_tilde"),
            (["--solver", "minvol-baseline", "--lambda", "0.05", "--delta", "inf"], "delta"),
        ],
        ids=["sqrt-delta", "sqrt-epsilon", "sqrt-lambda-inf", "sqrt-lambda-nan", "sqrt-tol",
             "baseline-lambda", "baseline-lambda-tilde", "baseline-delta"],
    )
    def test_exits_2_naming_it(self, tmp_path, instance_dir, capsys, flags, name):
        out = tmp_path / "s"
        argv = ["solve", str(instance_dir / "X.txt"), "--rank", "4", *flags, "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must be finite")
        assert not out.exists()


class TestSolveNumericalFaults:
    """A weight that overflows inside the sweeps, or data whose squared norms
    underflow, exits 3 naming the quantity."""

    @pytest.fixture()
    def noisy_dir(self, tmp_path):
        text = "[generator]\nname = paper-4x4\nn = 60\nsigma = 1e-2\nseed = 0\n"
        ini = write_ini(tmp_path, text, "noisy.ini")
        out = tmp_path / "noisy"
        assert main(["generate", ini, "--out", str(out)]) == 0
        return out

    @pytest.mark.parametrize(
        "solver, message",
        [
            ("sqrt-minvol", "non-finite lambda_k (inf) at outer iteration 1"),
            ("minvol-baseline", "non-finite W-block Lipschitz constant (inf) at sweep 1"),
        ],
    )
    def test_lambda_1e308_exits_3(self, tmp_path, noisy_dir, capsys, solver, message):
        out = tmp_path / "s"
        argv = ["solve", str(noisy_dir / "X.txt"), "--rank", "4", "--solver", solver,
                "--lambda", "1e308", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "W.txt").exists()
        header, *rows = (out / "trace.csv").read_text().splitlines()
        if solver == "minvol-baseline":
            # The start's objective, the one row made before the fault.
            assert header == "k,objective"
            assert len(rows) == 1
            k, objective = rows[0].split(",")
            assert k == "0" and math.isfinite(float(objective))
            return
        assert header.startswith("k,f_eps,r_k,lambda_k,")
        assert len(rows) == 1
        k, f, r_k, lambda_k = rows[0].split(",")[:4]
        assert (k, lambda_k) == ("1", "inf")
        assert math.isfinite(float(f)) and math.isfinite(float(r_k))

    def test_underflowing_data_exits_3(self, tmp_path, noisy_dir, capsys):
        # Every squared column norm of X x 1e-200 underflows to 0; this used
        # to exit 2 with "rank exceeds the number of selectable nonzero columns".
        write_matrix(tmp_path / "tiny.txt", read_matrix(noisy_dir / "X.txt") * 1e-200)
        out = tmp_path / "s"
        argv = ["solve", str(tmp_path / "tiny.txt"), "--rank", "4", "--lambda", "0.1",
                "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the squared norm of a nonzero column of X underflows")
        assert err.endswith("; rescale X\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--lambda", "0.1"], ["--solver", "minvol-baseline", "--lambda-tilde", "0.01"]],
        ids=["sqrt-minvol", "minvol-baseline"],
    )
    def test_subnormal_lipschitz_constant_exits_3(self, tmp_path, noisy_dir, capsys, flags):
        # At X x 1e-160 the step 2/L of the SNPA refit overflows; this used to
        # exit 2 with "H_init contains non-finite entries".
        write_matrix(tmp_path / "tiny.txt", read_matrix(noisy_dir / "X.txt") * 1e-160)
        out = tmp_path / "s"
        argv = ["solve", str(tmp_path / "tiny.txt"), "--rank", "4", *flags,
                "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: the gradient step 2/L is not finite (L = 3.37e-320)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("solver", ["sqrt-minvol", "minvol-baseline"])
    def test_too_small_delta_writes_the_rows_before_the_fault(
        self, tmp_path, noisy_dir, capsys, solver
    ):
        out = tmp_path / "s"
        argv = ["solve", str(noisy_dir / "X.txt"), "--rank", "4", "--solver", solver,
                "--lambda", "1", "--delta", "1e-300", "--max-outer", "3", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert "delta=1e-300; use a larger delta at sweep " in capsys.readouterr().err
        assert not (out / "W.txt").exists()
        assert len((out / "trace.csv").read_text().splitlines()) >= 2

    @pytest.mark.parametrize(
        "solver, weight, where",
        [
            ("sqrt-minvol", ["--lambda", "1"], "outer iteration 1"),
            ("minvol-baseline", ["--lambda", "1"], "sweep 0"),
            # Rescaling the weight factors the same start before the sweeps.
            ("minvol-baseline", ["--lambda-tilde", "0.01"], "sweep 0"),
        ],
        ids=["sqrt-minvol-outer iteration 1", "minvol-baseline-sweep 0",
             "minvol-baseline-lambda-tilde-sweep 0"],
    )
    def test_a_start_that_does_not_factor_writes_the_header(
        self, tmp_path, instance_dir, capsys, solver, weight, where
    ):
        # SNPA's start on this draw has rank 3, so its Gram plus 1e-300 I
        # does not factor: no row is measured, and trace.csv is its header.
        out = tmp_path / "s"
        argv = ["solve", str(instance_dir / "X.txt"), "--rank", "4", "--solver", solver,
                *weight, "--delta", "1e-300", "--max-outer", "3", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err.endswith(f"; use a larger delta at {where}\n")
        assert not (out / "W.txt").exists()
        assert len((out / "trace.csv").read_text().splitlines()) == 1

    def test_lambda_1e306_keeps_the_rows_before_the_fault(self, tmp_path, noisy_dir, capsys):
        # This solve used to end "stalled" at f_eps = -9.2e306.
        out = tmp_path / "s"
        argv = ["solve", str(noisy_dir / "X.txt"), "--rank", "4", "--lambda", "1e306",
                "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: non-finite W-block Lipschitz constant (inf) at sweep 1 at outer iteration 3\n"
        )
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2"]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(",")[1:5])


class TestSolveFlagChecks:
    """The solve flags are checked before any data is read, with fixed messages."""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (
                ["--lambda", "0.5", "--lambda-tilde", "0.01"],
                "--lambda-tilde is for --solver minvol-baseline only",
            ),
            (
                ["--solver", "minvol-baseline", "--lambda", "0.1", "--epsilon", "5"],
                "--epsilon is for --solver sqrt-minvol only",
            ),
            (
                ["--solver", "minvol-baseline", "--lambda", "0.1", "--lambda-tilde", "0.1"],
                "give either --lambda or --lambda-tilde, not both",
            ),
            ([], "sqrt-minvol needs --lambda"),
            (["--solver", "minvol-baseline"], "minvol-baseline needs --lambda or --lambda-tilde"),
            (["--lambda", "1", "--delta", "-1"], "delta must be finite and > 0, got -1.0"),
            (["--lambda", "1", "--epsilon", "0"], "epsilon must be finite and > 0, got 0.0"),
            (["--lambda", "1", "--max-outer", "0"], "max_outer must be >= 1, got 0"),
            (["--lambda", "1", "--tol", "-1"], "tol must be finite and > 0, got -1.0"),
        ],
        ids=[
            "tilde-for-sqrt", "epsilon-for-baseline", "both", "none-sqrt", "none-baseline",
            "delta", "epsilon", "max-outer", "tol",
        ],
    )
    def test_message_comes_before_reading_data(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        argv = ["solve", str(tmp_path / "missing.txt"), "--rank", "4", "--out", str(out)]
        assert main(argv + flags) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("name", ["lam", "lambda_tilde", *SETTINGS])
def test_each_weight_and_setting_parses_from_its_flag(name):
    # The flags are read off SETTINGS: a new solve setting needs no CLI edit.
    flag = {"lam": "--lambda"}.get(name, "--" + name.replace("_", "-"))
    assert _flag(name) == flag
    args = build_parser().parse_args(["solve", "X.txt", "--rank", "4", flag, "7"])
    kind = SETTINGS.get(name, float)
    assert type(getattr(args, name)) is kind and getattr(args, name) == 7


class TestSweep:
    def test_end_to_end_and_parallel_determinism(self, tmp_path, capsys):
        ini = write_ini(tmp_path, SWEEP_INI, "sweep.ini")
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["sweep", ini, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["sweep", ini, "--out", str(out2), "--jobs", "2"]) == 0
        for name in ("sweep.csv", "summary.csv"):
            assert (out1 / name).exists() and (out2 / name).exists()
        assert strip_wall(out1 / "sweep.csv") == strip_wall(out2 / "sweep.csv")
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        header = (out1 / "sweep.csv").read_text().splitlines()[0]
        assert header.startswith("solver,sigma,lambda,replicate,seed,")

    def test_out_of_range_rank_exits_2(self, tmp_path, capsys):
        # paper-4x4 has rank 4, so 3 columns would fault every cell in SNPA.
        ini = write_ini(tmp_path, SWEEP_INI.replace("n = 40\n", "n = 3\n"), "sweep.ini")
        out = tmp_path / "out"
        assert main(["sweep", ini, "--out", str(out)]) == 2
        assert "[generator] r = 4 exceeds min(m, n) = 3" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()
        # Any other solve rank would fault every cell in rel_rmse_W.
        ini = write_ini(tmp_path, SWEEP_INI + "rank = 4\n", "sweep.ini")
        assert main(["sweep", ini, "--out", str(out)]) == 2
        assert "[sweep] unknown key 'rank'" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("base_seed = 11", "base_seed = -5", "[sweep] base_seed must be >= 0"),
            (
                "sigma_grid = 0.01",
                "sigma_grid = nan 0.01",
                "[sweep] sigma_grid values must be finite and >= 0, got nan",
            ),
            (
                "lambda_grid = 0.1 0.01",
                "lambda_grid = inf",
                "[sweep] lambda_grid values must be finite and > 0, got inf",
            ),
        ],
        ids=["ini-seed", "nan-sigma", "inf-lambda"],
    )
    def test_bad_value_exits_2_and_writes_nothing(self, tmp_path, capsys, old, new, message):
        ini = write_ini(tmp_path, SWEEP_INI.replace(old, new), "sweep.ini")
        out = tmp_path / "out"
        assert main(["sweep", ini, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "solver, line",
        [
            ("sqrt-minvol", "delta = inf"),
            ("sqrt-minvol", "epsilon = inf"),
            ("sqrt-minvol", "tol = inf"),
            ("minvol-baseline", "delta = inf"),
            ("minvol-baseline", "tol = nan"),
        ],
    )
    def test_non_finite_solver_setting_exits_2(self, tmp_path, capsys, solver, line):
        text = SWEEP_INI.replace("sqrt-minvol", solver) + line + "\n"
        out = tmp_path / "out"
        assert main(["sweep", write_ini(tmp_path, text, "sweep.ini"), "--out", str(out)]) == 2
        key = line.split()[0]
        assert f"[sweep] {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_and_writes_nothing(self, tmp_path, capsys, jobs):
        # These used to run the sweep serially and exit 0.
        ini = write_ini(tmp_path, SWEEP_INI, "sweep.ini")
        out = tmp_path / "out"
        assert main(["sweep", ini, "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_no_output_directory_exits_2(self, tmp_path, capsys, monkeypatch):
        ini = write_ini(tmp_path, SWEEP_INI, "sweep.ini")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["sweep", ini])
        assert info.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.ini"]

    def test_seed_flag_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # The INI file's base_seed is the one seed of a sweep.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["sweep", write_ini(tmp_path, SWEEP_INI), "--out", str(out), "--seed", "9"])
        assert info.value.code == 2
        assert "unrecognized arguments: --seed 9" in capsys.readouterr().err
        assert not out.exists()

    def test_out_key_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # Where a sweep writes is not part of what it computes.
        named = tmp_path / "named"
        ini = write_ini(tmp_path, SWEEP_INI + f"out = {named}\n")
        assert main(["sweep", ini, "--out", str(tmp_path / "out")]) == 2
        assert "[sweep] unknown key 'out'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["config.ini"]


@pytest.mark.parametrize("command", ["generate", "sweep", "solve"])
def test_file_that_is_not_text_exits_2_and_writes_nothing(tmp_path, capsys, command):
    # A 0xE9 byte, as a Latin-1 editor writes an accented letter.
    text = {"generate": GEN_INI, "sweep": SWEEP_INI, "solve": "1 2\n1 2\n"}[command]
    path = tmp_path / "input"
    path.write_bytes(text.encode() + b"# caf\xe9\n")
    out = tmp_path / "out"
    argv = [command, str(path), "--out", str(out)]
    if command == "solve":
        argv += ["--rank", "1", "--lambda", "1"]
    assert main(argv) == 2
    encoding = "ascii" if command == "solve" else "utf-8"
    line = text.count("\n") + 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:{line}: byte 0xe9 is not {encoding} text\n"
    assert captured.out == ""
    assert not out.exists()


def library_modules():
    """Every module of the package but ``cli``, by name."""
    import sqrtminvol

    names = [i.name for i in pkgutil.iter_modules(sqrtminvol.__path__) if i.name != "cli"]
    return {name: importlib.import_module(f"sqrtminvol.{name}") for name in names}


class TestImports:
    @staticmethod
    def fresh(code):
        """What ``code`` prints in a fresh interpreter, so nothing the test run
        imported can leak in."""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_package_does_not_load_scipy(self):
        code = (
            "import sqrtminvol.cli, sqrtminvol.solver, sqrtminvol.sweep, sqrtminvol.metrics\n"
            "print('scipy' in sys.modules)\n"
        )
        assert self.fresh(code) == "False"

    LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'sqrtminvol')))\n"

    def test_bare_import_loads_no_numpy_and_no_submodule(self):
        assert self.fresh("import sqrtminvol\n" + self.LOADED) == "['sqrtminvol']"

    @pytest.mark.parametrize(
        "code", ["import sqrtminvol\nsqrtminvol.InvalidInputError", "from sqrtminvol import errors"]
    )
    def test_an_error_class_loads_only_errors(self, code):
        assert self.fresh(code + "\n" + self.LOADED) == "['sqrtminvol', 'sqrtminvol.errors']"

    def test_every_public_name_is_the_package_attribute(self):
        import sqrtminvol

        modules = library_modules()
        assert sorted(modules) == sorted(sqrtminvol._MODULES)
        declared = [(m, name) for m in modules.values() for name in m.__all__]
        for module, name in declared:
            assert getattr(sqrtminvol, name) is getattr(module, name), name
        assert sorted(sqrtminvol.__all__) == sorted([n for _, n in declared] + ["__version__"])
        assert dir(sqrtminvol) == sorted(sqrtminvol.__all__)

    def test_each_name_is_declared_once_by_its_defining_module(self):
        declared = [(m, name) for m in library_modules().values() for name in m.__all__]
        twice = [name for name, count in Counter(n for _, n in declared).items() if count > 1]
        assert twice == []
        for module, name in declared:
            # Constants (a tuple, a dict) carry no __module__ of their own.
            owner = getattr(getattr(module, name), "__module__", module.__name__)
            assert owner == module.__name__, name

    @pytest.mark.parametrize("name", ["no_such_name", "build_parser"])
    def test_unknown_name_raises_attribute_error(self, name):
        # build_parser is cli's: cli is not searched, as importing it sets the
        # BLAS thread variables.
        import sqrtminvol

        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(sqrtminvol, name)
