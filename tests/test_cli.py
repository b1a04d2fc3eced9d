"""End-to-end tests of the command-line surface and its exit codes.

Contract: 0 success, 1 flag/validation failure, 2 runtime failure; a
training breakdown is a logged result and still exits 0.
"""

import json
import math

import numpy as np
import pytest

from periscore.cli import main


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


def test_train_bad_dataset_string_exits_1(tmp_path):
    assert _run(["train", "--score", "softmax", "--dataset", "imagenet",
                 "--out", str(tmp_path / "run.jsonl")]) == 1


def test_taps_pipeline(tmp_path):
    run = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "sin-softmax", "--steps", "4",
                 "--tap-every", "2", "--tap-cap", "20",
                 "--out", str(run)]) == 0
    assert (tmp_path / "run.jsonl.taps.jsonl").is_file()
    hist = tmp_path / "hist.csv"
    assert _run(["taps", "--run", str(run), "--bins", "8",
                 "--x-min", "-5", "--x-max", "5", "--out", str(hist)]) == 0
    lines = hist.read_text().splitlines()
    assert lines[0] == "step,layer,x_center,mean_abs_grad,count"
    # Two tapped steps, one attention layer, eight bins each.
    assert len(lines) == 1 + 2 * 8
    counts = sum(int(l.split(",")[4]) for l in lines[1:])
    assert counts == 2 * 20


def test_taps_without_sidecar_exits_1(tmp_path):
    run = tmp_path / "run.jsonl"
    run.write_text("{}\n")
    assert _run(["taps", "--run", str(run),
                 "--out", str(tmp_path / "h.csv")]) == 1


@pytest.mark.parametrize("record", [
    {"step": 1, "layer": 0, "cap": 2, "samples": [[0.1, 0.2, 0.3]]},
    {"step": 1, "layer": 0, "cap": 2, "samples": [0.5, 0.7]},
    {"step": 1, "layer": 0, "samples": [[0.1, 0.2]]},
], ids=["triple-samples", "scalar-samples", "missing-cap"])
def test_taps_malformed_sidecar_exits_2(tmp_path, capsys, record):
    run = tmp_path / "run.jsonl"
    (tmp_path / "run.jsonl.taps.jsonl").write_text(json.dumps(record) + "\n")
    assert _run(["taps", "--run", str(run),
                 "--out", str(tmp_path / "h.csv")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "h.csv").exists()


def test_taps_bad_bins_exits_1(tmp_path):
    assert _run(["taps", "--run", str(tmp_path / "run.jsonl"), "--bins", "1",
                 "--out", str(tmp_path / "h.csv")]) == 1


# -- parser ------------------------------------------------------------


def test_unknown_subcommand_exits_1():
    assert _run(["frobnicate"]) == 1


def test_missing_required_flag_exits_1():
    assert _run(["curves", "--fn", "softmax"]) == 1
