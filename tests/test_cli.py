import csv

import numpy as np
import pytest

from sqrtminvol.cli import main
from sqrtminvol.matrixio import read_matrix, write_matrix

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

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        ini = write_ini(tmp_path, "[generator]\nname = paper-4x4\n")
        assert main(["generate", ini, "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "nope.ini"), "--out", "o"]) == 2


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

    def test_negative_weight_warns_but_succeeds(self, tmp_path, instance_dir, capsys):
        # The baseline tolerates a nonpositive effective weight (it can
        # come out of the init rescaling); it warns and keeps going.
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
                "-0.05",
                "--max-outer",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "warning:" in capsys.readouterr().err


class TestPca:
    def test_overlay_of_identical_factors(self, tmp_path, instance_dir, capsys):
        out_csv = tmp_path / "view.csv"
        code = main(
            [
                "pca",
                str(instance_dir / "X.txt"),
                "--w-star",
                str(instance_dir / "W_star.txt"),
                "--w-hat",
                str(instance_dir / "W_star.txt"),
                "--out",
                str(out_csv),
            ]
        )
        assert code == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        star = [(r["pc1"], r["pc2"]) for r in rows if r["set"] == "W_star"]
        hat = [(r["pc1"], r["pc2"]) for r in rows if r["set"] == "W_hat"]
        assert star and star == hat

    def test_data_only_projection(self, tmp_path, instance_dir):
        out_csv = tmp_path / "x_only.csv"
        assert main(["pca", str(instance_dir / "X.txt"), "--out", str(out_csv)]) == 0
        with open(out_csv) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["set"] for r in rows} == {"X"}
        assert len(rows) == 60

    def test_dimension_mismatch_exits_2(self, tmp_path, instance_dir, capsys):
        bad = tmp_path / "bad_W.txt"
        write_matrix(bad, np.ones((3, 2)))
        code = main(
            [
                "pca",
                str(instance_dir / "X.txt"),
                "--w-star",
                str(bad),
                "--out",
                str(tmp_path / "v.csv"),
            ]
        )
        assert code == 2


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

    def test_no_output_directory_exits_2(self, tmp_path, capsys):
        ini = write_ini(tmp_path, SWEEP_INI, "sweep.ini")
        assert main(["sweep", ini]) == 2
        assert "output directory" in capsys.readouterr().err
