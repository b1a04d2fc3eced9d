"""End-to-end tests of the command-line surface and its exit codes.

Contract: 0 success, 1 flag/validation failure, 2 runtime failure; a
training breakdown is a logged result and still exits 0.
"""

import json
import math

import numpy as np
import pytest

from periscore import harness, scorefn
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
def test_curves_prenorm_bad_argument_exits_1(tmp_path, capsys, flags):
    out = tmp_path / "c.csv"
    code = _run(["curves", "--fn", "softmax", "--prenorm", "--x-min", "-1",
                 "--x-max", "1", "--out", str(out)] + flags)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: need ")
    assert not out.exists()


@pytest.mark.parametrize("m", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("prenorm", [[], ["--prenorm"]],
                         ids=["plain", "prenorm"])
def test_curves_non_finite_m_exits_1(tmp_path, capsys, m, prenorm):
    out = tmp_path / "c.csv"
    code = _run(["curves", "--fn", "softmax", f"--m={m}", "--x-min", "-1",
                 "--x-max", "1", "--out", str(out)] + prenorm)
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: need ")
    assert not out.exists()
    assert not (tmp_path / "c.csv.meta.json").exists()


def test_curves_bad_kind_parameter_exits_1(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert _run(["curves", "--fn", "sm-softmax", "--margin", "-1",
                 "--x-min", "-1", "--x-max", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "margin" in err[0]
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


@pytest.mark.parametrize("tol", ["nan", "-1", "-0.5"])
def test_gradcheck_nan_or_negative_tolerance_exits_1(capsys, tol):
    # No error is <= a NaN or negative tolerance, so every kind would FAIL.
    assert _run(["gradcheck", "--fn", "all", "--tol", tol]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: need ")


@pytest.mark.parametrize("fn", ["sm-softmax", "all"])
def test_gradcheck_bad_margin_exits_1(capsys, fn):
    # Every kind is built before the first is checked, so nothing prints.
    assert _run(["gradcheck", "--fn", fn, "--margin", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "margin" in err[0]


@pytest.mark.parametrize("tol", ["0", "inf"])
def test_gradcheck_zero_or_infinite_tolerance_runs(capsys, tol):
    code = _run(["gradcheck", "--fn", "softmax", "--trials", "3",
                 "--tol", tol])
    assert code == (0 if tol == "inf" else 2)
    assert capsys.readouterr().out.count("softmax") == 1


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


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 671. GiB", "error: Unable to allocate 671. GiB"),
    ("", "error: MemoryError")], ids=["numpy", "bare"])
def test_gradcheck_out_of_memory_exits_2(monkeypatch, capsys, message, line):
    def refuse(kind, x):
        raise MemoryError(message)

    monkeypatch.setattr(scorefn, "jacobian", refuse)
    assert _run(["gradcheck", "--fn", "softmax", "--trials", "1"]) == 2
    out, err = capsys.readouterr()
    assert err.splitlines() == [line] and "PASS" not in out


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


def test_gradcheck_siren_max_near_its_pole_passes(capsys):
    # A trial of this seed has min 1 - sin(x) just above EPS_POLE, where
    # the finite-difference step must shrink with the distance to the pole.
    assert _run(["gradcheck", "--fn", "siren-max", "--dim", "64",
                 "--seed", "42"]) == 0
    assert capsys.readouterr().out.split()[-1] == "PASS"


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


@pytest.mark.parametrize("argv", [
    ["curves", "--fn", "softmax", "--x-min", "-1", "--x-max", "1",
     "--steps", "5"],
    ["analyze", "--report", "submersion"],
    ["train", "--score", "softmax", "--steps", "2"],
], ids=["curves", "analyze", "train"])
def test_unwritable_out_exits_2_with_one_line(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out.csv"
    assert _run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_unwritable_out_fails_before_training(tmp_path, capsys, monkeypatch):
    def must_not_train(cfg):
        raise AssertionError("harness.train ran before --out was opened")

    monkeypatch.setattr(harness, "train", must_not_train)
    out = tmp_path / "missing" / "r.jsonl"
    assert _run(["train", "--score", "cos-max", "--depth", "4",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_train_bad_cifar_length_exits_2(tmp_path, capsys):
    # 5000 bytes is not a whole number of CIFAR_RECORD_BYTES records.
    data = tmp_path / "bad.bin"
    data.write_bytes(bytes(5000))
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "softmax",
                 "--dataset", f"cifar100:{data}:16", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "3074" in err and "Traceback" not in err
    assert not out.exists()


def test_train_on_cifar_records_exits_0(tmp_path, capsys):
    # 20 records: 16 training images fill one batch.  Fine labels run up
    # to 99, which only a demo with Cifar100Spec's 100 classes admits.
    recs = scorefn.seeded_rng(0).integers(
        0, 256, size=(20, harness.CIFAR_RECORD_BYTES), dtype=np.uint8)
    recs[:, 1] = np.arange(80, 100)
    recs[:, 0] = recs[:, 1] // 5
    data = tmp_path / "data.bin"
    data.write_bytes(recs.tobytes())
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "sin-softmax", "--steps", "2",
                 "--dataset", f"cifar100:{data}:20", "--out", str(out)]) == 0
    assert "final eval accuracy" in capsys.readouterr().out
    log = harness.read_run_log(out)
    assert [r.step for r in log.records] == [1, 2]
    assert log.breakdown is None


def test_train_cifar_subset_below_one_exits_1(tmp_path, capsys):
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(4 * harness.CIFAR_RECORD_BYTES))
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "softmax",
                 "--dataset", f"cifar100:{data}:-1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "subset_size" in err[0]
    assert not out.exists()


def test_train_cifar_subset_smaller_than_a_batch_exits_2(tmp_path, capsys):
    # 10 records split into 8 training and 2 eval images; a batch is 16.
    data = tmp_path / "data.bin"
    data.write_bytes(bytes(10 * harness.CIFAR_RECORD_BYTES))
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "softmax",
                 "--dataset", f"cifar100:{data}:10", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "8 training images" in err[0] and "batch of 16" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--tap-every", "-1"], ["--steps", "0"], ["--depth", "0"]], ids=" ".join)
def test_train_bad_argument_exits_1(tmp_path, capsys, flags):
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "softmax", "--out", str(out)]
                + flags) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert flags[0][2:].replace("-", "_") in err[0]
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
    # The histograms are tap records of the log; no other file is written.
    assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]
    assert not (tmp_path / "run.jsonl.taps.csv").exists()
    taps = [json.loads(l)["tap"] for l in run.read_text().splitlines()
            if l.startswith('{"tap"')]
    # Two tapped steps, one attention layer, 40 bins each.
    assert [(t["step"], t["layer_index"]) for t in taps] == [(2, 0), (4, 0)]
    bins = [b for t in taps for b in t["bins"]]
    assert len(bins) == 2 * 40
    assert bins[0]["x_center"] == -9.75 and bins[39]["x_center"] == 9.75
    # Every score input of a step is counted: 16 rows, 2 heads, 16 x 16.
    assert sum(b["count"] for b in bins[:40]) == 16 * 2 * 16 * 16


@pytest.mark.parametrize("margin", ["-1", "nan", "inf"])
def test_train_bad_margin_exits_1_and_leaves_no_log(tmp_path, capsys,
                                                    margin):
    out = tmp_path / "run.jsonl"
    assert _run(["train", "--score", "sm-softmax", f"--margin={margin}",
                 "--steps", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "margin" in err[0]
    assert not list(tmp_path.iterdir())


# -- parser ------------------------------------------------------------


def test_unknown_subcommand_exits_1():
    assert _run(["frobnicate"]) == 1


def test_missing_required_flag_exits_1():
    assert _run(["curves", "--fn", "softmax"]) == 1
