"""End-to-end tests of the command-line surface and its exit codes.

Contract: 0 success, 1 flag/validation failure, 2 runtime failure; a
training breakdown is a logged result and still exits 0.
"""

import json
import math

import numpy as np
import pytest

from periscore import scorefn
from periscore.cli import KIND_NAMES, main
from periscore.scorefn import DenominatorNearZero

from score_reference import ref_gradcheck


def _run(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


# -- curves ------------------------------------------------------------


def test_curves_writes_csv_and_meta(tmp_path):
    out = tmp_path / "curve.csv"
    code = _run(["curves", "--fn", "sin-softmax", "--m", "2.0",
                 "--x-min", "-3.0", "--x-max", "3.0", "--steps", "11",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,y"
    assert len(lines) == 12
    meta = json.loads((tmp_path / "curve.csv.meta.json").read_text())
    assert meta["params"]["M"] == 2.0


def test_curves_prenorm_flag(tmp_path):
    out = tmp_path / "pre.csv"
    code = _run(["curves", "--fn", "softmax", "--prenorm",
                 "--dim", "16", "--var", "4.0",
                 "--x-min", "-2.0", "--x-max", "2.0", "--steps", "5",
                 "--out", str(out)])
    assert code == 0
    # Whitening with variance 4 compresses the argument and scales the
    # gradient by (d-1)/(d*sigma): check one point against the library.
    from periscore.analysis import diag_gradient_fixed_m
    from periscore.scorefn import SOFTMAX
    x, y = out.read_text().splitlines()[1].split(",")
    want = diag_gradient_fixed_m(SOFTMAX, 1.0,
                                 np.array([float(x) / 2.0]))[0] * 15 / 32
    assert float(y) == pytest.approx(want, rel=1e-12)


def test_curves_invalid_range_exits_1(tmp_path):
    code = _run(["curves", "--fn", "softmax", "--x-min", "2.0",
                 "--x-max", "-2.0", "--out", str(tmp_path / "c.csv")])
    assert code == 1


def test_curves_unknown_kind_exits_1(tmp_path):
    code = _run(["curves", "--fn", "warp-max", "--x-min", "0", "--x-max", "1",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 1


def test_curves_all_guard_points_exits_2(tmp_path):
    # A range entirely inside the siren-max pole window.
    lo = math.pi / 2 - 1e-4
    hi = math.pi / 2 + 1e-4
    code = _run(["curves", "--fn", "siren-max", "--x-min", repr(lo),
                 "--x-max", repr(hi), "--steps", "5",
                 "--out", str(tmp_path / "c.csv")])
    assert code == 2


def test_curves_off_sum_whose_square_overflows_exits_2(tmp_path, capsys):
    # Every point's (M + f)^2 overflows: a guard, not an all-zero curve.
    out = tmp_path / "c.csv"
    code = _run(["curves", "--fn", "softmax", "--m", "1e160",
                 "--x-min", "-1", "--x-max", "1", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: every point hit a guard"]
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--dim", "0"], ["--dim", "1"], ["--var", "-1"], ["--var", "0"],
    ["--var", "inf"], ["--x-max", "inf"],
    ["--steps", "0"], ["--steps", "1"]], ids=" ".join)
def test_curves_prenorm_bad_argument_exits_2(tmp_path, capsys, flags):
    out = tmp_path / "c.csv"
    code = _run(["curves", "--fn", "softmax", "--prenorm", "--x-min", "-1",
                 "--x-max", "1", "--out", str(out)] + flags)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: need ")
    assert not out.exists()


# -- gradcheck ---------------------------------------------------------


def test_gradcheck_all_kinds_passes(capsys):
    code = _run(["gradcheck", "--fn", "all", "--dim", "4", "--trials", "10"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 11
    assert "FAIL" not in out


def test_gradcheck_impossible_tolerance_exits_2():
    code = _run(["gradcheck", "--fn", "softmax", "--trials", "5",
                 "--tol", "1e-18"])
    assert code == 2


def test_gradcheck_bad_dim_exits_1():
    assert _run(["gradcheck", "--fn", "softmax", "--dim", "1"]) == 1


def test_gradcheck_without_trials_exits_1(capsys):
    # Zero trials would check nothing, so they cannot PASS.
    assert _run(["gradcheck", "--fn", "softmax", "--trials", "0"]) == 1
    assert "PASS" not in capsys.readouterr().out


def test_gradcheck_kind_whose_every_trial_hit_a_guard_fails(monkeypatch,
                                                             capsys):
    def guarded(kind, x):
        raise DenominatorNearZero("stub guard", index=0, value=0.0)

    monkeypatch.setattr(scorefn, "jacobian", guarded)
    assert _run(["gradcheck", "--fn", "softmax", "--trials", "3"]) == 2
    out = capsys.readouterr().out
    assert "skipped   3" in out and "FAIL" in out and "PASS" not in out


def test_gradcheck_nan_error_fails(monkeypatch, capsys):
    jacobian = scorefn.jacobian

    def one_nan_entry(kind, x):
        j = jacobian(kind, x)
        j.entries.flat[0] = math.nan
        return j

    monkeypatch.setattr(scorefn, "jacobian", one_nan_entry)
    assert _run(["gradcheck", "--fn", "softmax", "--trials", "3"]) == 2
    out = capsys.readouterr().out
    assert "max rel err nan" in out and "FAIL" in out and "PASS" not in out


@pytest.mark.parametrize("fn, seed, dim, skipped", [
    ("all", 42, 8, 0), ("all", 0, 8, 1),
    ("siren-max", 0, 8, 2), ("siren-max", 0, 64, 3)])
def test_gradcheck_is_the_per_trial_reference(capsys, fn, seed, dim, skipped):
    # The siren-max runs skip trials on real pole guards, so blocks are
    # halved down to the guarded trials.
    assert _run(["gradcheck", "--fn", fn, "--seed", str(seed),
                 "--dim", str(dim)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = KIND_NAMES if fn == "all" else [fn]
    assert lines == ref_gradcheck(names, dim, 100, seed)
    assert sum(int(l.split()[6]) for l in lines) == skipped


# -- analyze -----------------------------------------------------------


def test_analyze_saturation_report(tmp_path):
    out = tmp_path / "sat.csv"
    assert _run(["analyze", "--report", "saturation",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,fraction_saturated,sample_count,skipped_rows"
    assert len(lines) == 12  # header + all 11 kinds
    rows = {l.split(",")[0]: float(l.split(",")[1]) for l in lines[1:]}
    assert rows["softmax"] > 5 * rows["sin-softmax"]


def test_analyze_extremum_vs_m_report(tmp_path):
    out = tmp_path / "ext.csv"
    assert _run(["analyze", "--report", "extremum-vs-m",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,m,extremum"
    assert len(lines) == 1 + 11 * 5  # every kind at five values of M
    rows = {(l.split(",")[0], float(l.split(",")[1])): l.split(",")[2]
            for l in lines[1:]}
    assert len(rows) == 55
    assert float(rows[("softmax", 1.0)]) == pytest.approx(0.25, abs=1e-9)


def test_analyze_submersion_report(tmp_path):
    out = tmp_path / "sub.csv"
    assert _run(["analyze", "--report", "submersion", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "d,mean_max_abs_dev"
    ys = [float(l.split(",")[1]) for l in lines[1:]]
    assert ys == sorted(ys, reverse=True)


def test_analyze_unknown_report_exits_1(tmp_path):
    assert _run(["analyze", "--report", "entropy",
                 "--out", str(tmp_path / "x.csv")]) == 1


# -- train and taps ----------------------------------------------------


def test_train_synthetic_writes_log(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    code = _run(["train", "--score", "softmax", "--steps", "5",
                 "--out", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 6
    assert all("loss" in l for l in lines[:5])
    assert "final_eval_accuracy" in lines[-1]
    assert "final eval accuracy" in capsys.readouterr().out
    # Taps are off by default, so no histogram CSV is written.
    assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]


def test_train_breakdown_still_exits_0(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    code = _run(["train", "--score", "sin-max", "--depth", "2",
                 "--steps", "40", "--out", str(out)])
    assert code == 0
    assert "breakdown" in capsys.readouterr().out
    terminal = json.loads(out.read_text().splitlines()[-1])
    assert "breakdown" in terminal


def test_train_missing_cifar_path_exits_2(tmp_path):
    assert _run(["train", "--score", "softmax",
                 "--dataset", f"cifar100:{tmp_path}/absent.bin:64",
                 "--out", str(tmp_path / "run.jsonl")]) == 2


def test_train_bad_cifar_length_exits_2(tmp_path, capsys):
    # 5000 bytes is not a whole number of 3074-byte records.
    data = tmp_path / "bad.bin"
    data.write_bytes(bytes(5000))
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "softmax",
                 "--dataset", f"cifar100:{data}:16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "3074" in err and "Traceback" not in err
    assert not out.exists()


def test_train_negative_tap_every_exits_2(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "softmax", "--tap-every", "-1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "tap_every" in err[0]
    assert not list(tmp_path.iterdir())


def test_train_bad_dataset_string_exits_1(tmp_path):
    assert _run(["train", "--score", "softmax", "--dataset", "imagenet",
                 "--out", str(tmp_path / "run.jsonl")]) == 1


def test_train_malformed_cifar_dataset_string_exits_1(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "softmax",
                 "--dataset", f"cifar100:{tmp_path}/data.bin",
                 "--out", str(out)]) == 1
    assert "cifar100:<path>:<subset>" in capsys.readouterr().err
    assert not out.exists()


def test_taps_pipeline(tmp_path):
    run = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "sin-softmax", "--steps", "4",
                 "--tap-every", "2", "--out", str(run)]) == 0
    lines = (tmp_path / "run.jsonl.taps.csv").read_text().splitlines()
    assert lines[0] == "step,layer,x_center,mean_abs_grad,count"
    # Two tapped steps, one attention layer, 40 bins each.
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2 * 40
    assert [int(r[0]) for r in rows] == [2] * 40 + [4] * 40
    assert float(rows[0][2]) == -9.75 and float(rows[39][2]) == 9.75
    # Every score input of a step is counted: 16 rows, 2 heads, 16 x 16.
    assert sum(int(r[4]) for r in rows[:40]) == 16 * 2 * 16 * 16


# -- parser ------------------------------------------------------------


def test_unknown_subcommand_exits_1():
    assert _run(["frobnicate"]) == 1


def test_missing_required_flag_exits_1():
    assert _run(["curves", "--fn", "softmax"]) == 1
