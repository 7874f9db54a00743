"""End-to-end runs of the command line interface, in process."""

import csv
import io
import subprocess
import sys

import numpy as np
import pytest

from tentqmc.cli import (
    ExperimentPlan,
    fit_convergence,
    load_plan_file,
    main,
    run_experiment,
    write_experiment_csv,
)
from tentqmc.nets import load_spec_file, matrices_from_poly, net_from_matrices
from tentqmc.sobolev import (
    KernelParams,
    ProductWeights,
    bound_B,
    calibrate_c_walsh,
    wce_squared,
)

REF_SPEC = "b=2\nm=2\nn=2\np=1,1,1\nq1=1\nq2=0,1\n"
GRID_SPEC = "b=2\nm=2\nn=2\np=0,0,1\nq1=1\n"
S3_SPEC = "b=2\nm=6\nn=6\np=1,1,0,0,0,0,1\nq1=1\nq2=1,1,0,1\nq3=1,0,1,1,1\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_plain_points(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", REF_SPEC)
        code, out, _ = run_main(["gen", spec], capsys)
        assert code == 0
        rows = [r for r in csv.reader(io.StringIO(out)) if r]
        net = net_from_matrices(matrices_from_poly(load_spec_file(spec)))
        got = np.array([[float(v) for v in r] for r in rows])
        assert np.array_equal(got, net.points)
        assert got[:, 0].tolist() == [0.0, 0.25, 0.75, 0.5]

    def test_folded_grid(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", GRID_SPEC)
        code, out, _ = run_main(["gen", spec, "--fold"], capsys)
        assert code == 0
        vals = [float(r[0]) for r in csv.reader(io.StringIO(out)) if r]
        assert vals == [0.0, 0.5, 1.0, 0.5]

    def test_digit_column(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", GRID_SPEC)
        code, out, _ = run_main(["gen", spec, "--digits"], capsys)
        rows = [r for r in csv.reader(io.StringIO(out)) if r]
        assert code == 0
        assert rows[1][1] == "01(0)"  # 1/4 unshifted, tail zero

    def test_shift_is_reproducible(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", REF_SPEC)
        _, out1, _ = run_main(["gen", spec, "--shift", "9"], capsys)
        _, out2, _ = run_main(["gen", spec, "--shift", "9"], capsys)
        _, out3, _ = run_main(["gen", spec, "--shift", "10"], capsys)
        assert out1 == out2 and out1 != out3

    def test_output_file(self, tmp_path, capsys):
        spec = write(tmp_path, "spec.txt", REF_SPEC)
        dest = tmp_path / "pts.csv"
        code, out, _ = run_main(["gen", spec, "--out", str(dest)], capsys)
        assert code == 0 and out == ""
        assert len(dest.read_text().strip().splitlines()) == 4


class TestSearch:
    def test_ranking_csv(self, capsys):
        code, out, _ = run_main(
            ["search", "--base", "2", "--m", "2", "--n", "2", "--s", "1",
             "--cwalsh", "0.28", "--truncation", "6"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["rank", "q1", "bound", "T", "c_walsh", "seconds"]
        body = rows[1:]
        assert [r[0] for r in body] == ["1", "2", "3", "4"]
        bounds = [float(r[2]) for r in body]
        assert bounds == sorted(bounds)
        assert body[-1][1] == "0"  # the zero polynomial ranks last

    def test_random_mode_draws(self, capsys):
        code, out, _ = run_main(
            ["search", "--base", "2", "--m", "2", "--n", "3", "--s", "2",
             "--mode", "random", "--k", "7", "--seed", "4",
             "--cwalsh", "0.28", "--truncation", "5"],
            capsys,
        )
        assert code == 0
        assert len(list(csv.reader(io.StringIO(out)))) == 8


class TestBound:
    def test_matches_library(self, tmp_path, capsys):
        spec_path = write(tmp_path, "spec.txt", REF_SPEC)
        code, out, _ = run_main(
            ["bound", spec_path, "--cwalsh", "0.28", "--truncation", "6"],
            capsys,
        )
        assert code == 0
        head, row = list(csv.reader(io.StringIO(out)))
        spec = load_spec_file(spec_path)
        params = KernelParams(2, 2, 0.28)
        w = ProductWeights((1.0, 1.0))
        fom = bound_B(spec, params, w, T=6)
        assert float(row[head.index("bound")]) == fom.value
        assert float(row[head.index("existence_bound")]) > 0
        assert head[-2:] == ["tail_note", "c_walsh_source"]
        assert row[-2:] == [fom.tail_note, "given"]

    def test_calibrated_constant_is_labelled(self, tmp_path, capsys):
        spec_path = write(tmp_path, "spec.txt", REF_SPEC)
        code, out, _ = run_main(["bound", spec_path, "--truncation", "6"], capsys)
        assert code == 0
        head, row = list(csv.reader(io.StringIO(out)))
        assert float(row[head.index("c_walsh")]) == calibrate_c_walsh(2, 2)
        assert row[head.index("c_walsh_source")] == "calibrated"
        assert row[head.index("tail_note")].startswith("omitted multiples of b^6")

    def test_three_coordinates_at_default_truncation(self, tmp_path, capsys):
        # the L^s dual box of 512^3 vectors used to exceed the default cap
        spec_path = write(tmp_path, "spec.txt", S3_SPEC)
        code, out, _ = run_main(["bound", spec_path, "--cwalsh", "0.28"], capsys)
        assert code == 0
        head, row = list(csv.reader(io.StringIO(out)))
        fom = bound_B(load_spec_file(spec_path), KernelParams(2, 2, 0.28),
                      ProductWeights((1.0,) * 3))
        assert int(row[head.index("T")]) == 10
        assert float(row[head.index("bound")]) == fom.value

    def test_capacity_refusal_names_the_setting(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setenv("TENTQMC_CAP", "1000")  # below the 2^10 index scan
        spec_path = write(tmp_path, "spec.txt", S3_SPEC)
        code, out, err = run_main(["bound", spec_path, "--cwalsh", "0.28"], capsys)
        assert code == 3 and out == ""
        assert "TENTQMC_CAP" in err


class TestWce:
    def test_matches_library(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        pts = rng.random((6, 2))
        path = tmp_path / "pts.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["%.17g" % v for v in row] for row in pts])
        code, out, _ = run_main(
            ["wce", str(path), "--base", "2", "--s", "2"], capsys
        )
        assert code == 0
        want = wce_squared(
            np.array([[float("%.17g" % v) for v in row] for row in pts]),
            KernelParams(2, 2),
            ProductWeights((1.0, 1.0)),
        )
        assert float(out.strip()) == pytest.approx(want, rel=1e-15)


PLAN = """\
base=2
alpha=2
s=1
m_min=2
m_max=4
replicates=4
candidates=2
seed=1
truncation=8
cwalsh=0.27729166848792114
"""


class TestExperiment:
    def test_plan_file_parsing(self, tmp_path):
        plan = load_plan_file(write(tmp_path, "plan.txt", PLAN))
        assert plan == ExperimentPlan(
            base=2, alpha=2, s=1, m_min=2, m_max=4, replicates=4,
            candidates=2, seed=1, truncation=8,
            cwalsh=0.27729166848792114,
        )

    def test_rows_and_slope(self, tmp_path):
        plan = load_plan_file(write(tmp_path, "plan.txt", PLAN))
        rows = run_experiment(plan)
        assert [r["m"] for r in rows] == [2, 3, 4]
        assert all(r["N"] == 2 ** r["m"] for r in rows)
        for r in rows:
            assert r["rmse_estimate"] >= 0.0
            assert r["theorem_bound"] > 0.0
        assert rows[-1]["slope_so_far"] != ""
        slope, _, r2 = fit_convergence(
            [r["m"] for r in rows], [r["rmse_estimate"] for r in rows], 2
        )
        assert slope == pytest.approx(rows[-1]["slope_so_far"], abs=1e-12)
        assert 0.0 <= r2 <= 1.0

    def test_cli_run_deterministic(self, tmp_path, capsys):
        plan = write(tmp_path, "plan.txt", PLAN)
        code, out1, _ = run_main(["experiment", plan], capsys)
        _, out2, _ = run_main(["experiment", plan], capsys)
        assert code == 0 and out1 == out2
        rows = list(csv.reader(io.StringIO(out1)))
        assert rows[0][:3] == ["m", "N", "rmse_estimate"]
        assert len(rows) == 4

    def test_classic_flag_changes_rule(self, tmp_path, capsys):
        plan = write(tmp_path, "plan.txt", PLAN)
        _, out1, _ = run_main(["experiment", plan], capsys)
        _, out2, _ = run_main(["experiment", plan, "--classic"], capsys)
        assert out1 != out2

    def test_csv_writer_blank_slope(self):
        buf = io.StringIO()
        write_experiment_csv(
            [{"m": 2, "N": 4, "rmse_estimate": 0.5, "stderr": 0.1,
              "theorem_bound": 1.0, "slope_so_far": "", "clamped": 0}],
            buf,
        )
        assert buf.getvalue().splitlines()[1].split(",")[5] == ""

    def test_fit_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_convergence([2, 3], [0.1, 0.05], 2)


class TestExitCodes:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_main(["gen", "/nonexistent/spec.txt"], capsys)
        assert code == 4 and "error" in err

    def test_validation_error(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.txt", "b=2\nm=3\nn=2\np=1,1,1\nq1=1\n")
        code, _, err = run_main(["gen", bad], capsys)
        assert code == 2 and "error" in err

    def test_capacity_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TENTQMC_CAP", "4")
        spec = write(tmp_path, "spec.txt", REF_SPEC)
        code, _, err = run_main(["gen", spec], capsys)
        assert code == 3 and "cap" in err


def test_console_script_installed(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(REF_SPEC)
    proc = subprocess.run(
        [sys.executable, "-m", "tentqmc.cli", "gen", str(spec)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 4
