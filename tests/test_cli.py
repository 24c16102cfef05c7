import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqrtminvol.cli import main
from sqrtminvol.matrixio import read_matrix, write_matrix
from sqrtminvol.sweep import parse_generator_config

GEN_INI = "[generator]\nname = paper-4x4\nn = 60\nsigma = 0\nseed = 3\n"

SWEEP_INI = (
    "[generator]\n"
    "name = paper-4x4\n"
    "n = 40\n"
    "[sweep]\n"
    "solver = sqrt-minvol\n"
    "sigmas = 0.01\n"
    "lambdas = 0.1 0.01\n"
    "replicates = 2\n"
    "base_seed = 11\n"
    "[solver]\n"
    "max_outer = 6\n"
    "inner_iters = 10\n"
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

    def test_seed_override_changes_data(self, tmp_path, instance_dir):
        ini = write_ini(tmp_path, GEN_INI, "seeded.ini")
        out2 = tmp_path / "inst3"
        assert main(["generate", ini, "--out", str(out2), "--seed", "9"]) == 0
        assert (out2 / "X.txt").read_bytes() != (instance_dir / "X.txt").read_bytes()
        assert "seed = 9" in (out2 / "manifest.ini").read_text()

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
        "old, new, flags, message",
        [
            ("seed = 3", "seed = -1", [], "[generator] seed must be >= 0, got -1"),
            ("", "", ["--seed", "-1"], "--seed: [generator] seed must be >= 0, got -1"),
            ("sigma = 0", "sigma = inf", [], "[generator] sigma must be finite"),
            ("sigma = 0", "sigma = nan", [], "[generator] sigma must be finite"),
            ("sigma = 0", "sigma = 0\nalpha = inf", [], "[generator] alpha must be finite"),
        ],
        ids=["ini-seed", "flag-seed", "inf-sigma", "nan-sigma", "inf-alpha"],
    )
    def test_bad_value_exits_2_and_writes_nothing(
        self, tmp_path, capsys, old, new, flags, message
    ):
        ini = write_ini(tmp_path, GEN_INI.replace(old, new))
        out = tmp_path / "o"
        assert main(["generate", ini, "--out", str(out), *flags]) == 2
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

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["solve", str(tmp_path / "absent.txt"), "--rank", "2", "--lambda", "0.1"]
        )
        assert code == 2
        assert "absent.txt" in capsys.readouterr().err


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
            ("minvol-baseline", "non-finite W-block Lipschitz constant (inf)"),
        ],
    )
    def test_lambda_1e308_exits_3(self, tmp_path, noisy_dir, capsys, solver, message):
        out = tmp_path / "s"
        argv = ["solve", str(noisy_dir / "X.txt"), "--rank", "4", "--solver", solver,
                "--lambda", "1e308", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        if solver == "minvol-baseline":
            assert not out.exists()  # the baseline keeps no trace
            return
        header, *rows = (out / "trace.csv").read_text().splitlines()
        assert header.startswith("k,f_eps,r_k,lambda_k,")
        assert len(rows) == 1
        k, f, r_k, lambda_k = rows[0].split(",")[:4]
        assert (k, lambda_k) == ("1", "inf")
        assert math.isfinite(float(f)) and math.isfinite(float(r_k))
        assert not (out / "W.txt").exists()

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

    def test_lambda_1e306_keeps_the_rows_before_the_fault(self, tmp_path, noisy_dir, capsys):
        # This solve used to end "stalled" at f_eps = -9.2e306.
        out = tmp_path / "s"
        argv = ["solve", str(noisy_dir / "X.txt"), "--rank", "4", "--lambda", "1e306",
                "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: non-finite W-block Lipschitz constant (inf) at outer iteration 2\n"
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
        ],
        ids=["tilde-for-sqrt", "epsilon-for-baseline", "both", "none-sqrt", "none-baseline"],
    )
    def test_message_comes_before_reading_data(self, tmp_path, capsys, flags, message):
        code = main(["solve", str(tmp_path / "missing.txt"), "--rank", "4", *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


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

    def test_seed_override_changes_records(self, tmp_path):
        ini = write_ini(tmp_path, SWEEP_INI, "sweep.ini")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", ini, "--out", str(out1)]) == 0
        assert main(["sweep", ini, "--out", str(out2), "--seed", "99"]) == 0
        assert strip_wall(out1 / "sweep.csv") != strip_wall(out2 / "sweep.csv")

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
        assert "[solver] unknown key 'rank'" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "old, new, flags, message",
        [
            ("base_seed = 11", "base_seed = -5", [], "[sweep] base_seed must be >= 0"),
            ("", "", ["--seed", "-5"], "--seed: [sweep] base_seed must be >= 0"),
            ("sigmas = 0.01", "sigmas = nan 0.01", [], "[sweep] sigmas = 'nan 0.01'"),
            ("lambdas = 0.1 0.01", "lambdas = inf", [], "[sweep] lambdas = 'inf'"),
        ],
        ids=["ini-seed", "flag-seed", "nan-sigma", "inf-lambda"],
    )
    def test_bad_value_exits_2_and_writes_nothing(
        self, tmp_path, capsys, old, new, flags, message
    ):
        ini = write_ini(tmp_path, SWEEP_INI.replace(old, new), "sweep.ini")
        out = tmp_path / "out"
        assert main(["sweep", ini, "--out", str(out), *flags]) == 2
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
        assert f"[solver] {key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2_and_writes_nothing(self, tmp_path, capsys, jobs):
        # These used to run the sweep serially and exit 0.
        ini = write_ini(tmp_path, SWEEP_INI, "sweep.ini")
        out = tmp_path / "out"
        assert main(["sweep", ini, "--out", str(out), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_no_output_directory_exits_2(self, tmp_path, capsys):
        ini = write_ini(tmp_path, SWEEP_INI, "sweep.ini")
        assert main(["sweep", ini]) == 2
        assert "output directory" in capsys.readouterr().err


class TestImports:
    def test_package_does_not_load_scipy(self):
        # A fresh interpreter, so nothing imported by the test run can leak in.
        code = (
            "import sys\n"
            "import sqrtminvol.cli, sqrtminvol.solver, sqrtminvol.sweep, sqrtminvol.metrics\n"
            "print('scipy' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
