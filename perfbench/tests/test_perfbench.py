"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import importlib
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def ps():
    # The modules as already imported: no purge, so other tests in the
    # same session keep seeing the same classes.
    return SimpleNamespace(**{m: importlib.import_module("periscore." + m)
                              for m in workloads.MODULES})


def _span(name, start, end, parent):
    return [name, start, end, parent, None, None]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        _span("op", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.inner", 15, 25, 1),
        _span("b", 50, 60, 0),
        _span("next-op", 100, 130, -1),
    ]
    assert spans.self_times(recorded) == [60, 20, 10, 10, 30]


def test_tracer_nests_spans_by_call_order():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        tracer.step = 3
        with tracer.span("inner"):
            pass
    names = [(s[spans.NAME], s[spans.PARENT], s[spans.STEP])
             for s in tracer.spans]
    assert names == [("outer", -1, None), ("inner", 0, 3)]
    outer, inner = tracer.spans
    assert outer[spans.START] <= inner[spans.START] <= inner[spans.END] \
        <= outer[spans.END]


def test_untraced_run_calls_the_original_functions(ps):
    tracer = spans.Tracer()
    targets = [(owner, attr) for owner, attr, _ in spans._patches(tracer, ps)]
    originals = [vars(owner)[attr] for owner, attr in targets]

    with spans.installed(tracer, ps):
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
        ps.scorefn.scores(ps.scorefn.SOFTMAX, np.array([0.0, 1.0]))
    assert [s[spans.NAME] for s in tracer.spans] == ["scorefn.scores"]

    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(targets, originals))
    wl = workloads.Submersion(3, None)
    wl.setup(ps)
    assert wl.check(wl.run()) is None
    assert len(tracer.spans) == 1


def test_traced_training_attributes_steps_and_regions(ps):
    wl = workloads.TrainD4(0, None)
    wl.setup(ps)
    wl.cfg.steps = 2
    tracer = spans.Tracer()
    with spans.installed(tracer, ps), tracer.span(spans.OP):
        log = wl.run()
    assert log.breakdown is None and len(log.records) == 2

    m = spans.layer_metrics(tracer, True, [1.0], [1.0])
    demo = wl.cfg.demo
    tokens = (8 // demo.patch_size) ** 2
    per_step = (wl.cfg.batch_size * demo.attention.num_heads * tokens
                * tokens * demo.depth)
    assert m["model.score_rows.elements"] == per_step
    assert m["model.score_rows.fwd.calls"] == demo.depth
    assert m["harness.optimizer.calls"] == 1
    assert m["harness.eval.calls"] == 1
    assert m["autodiff.graph_nodes"] > 0
    assert 0.5 < m["trace.coverage"] <= 1.0
    assert m["trace.overhead_frac"] == 0.0
    assert set(m) == set(spans.metric_units())


def test_cifar_records_are_a_function_of_the_seed():
    a = workloads.cifar_records(5, count=8)
    assert len(a) == 8 * workloads.CIFAR_RECORD_BYTES
    assert a == workloads.cifar_records(5, count=8)
    assert a != workloads.cifar_records(6, count=8)


def test_cifar_records_load_through_the_harness(ps, tmp_path):
    path = tmp_path / "records.bin"
    path.write_bytes(workloads.cifar_records(1, count=10))
    data = ps.harness.load_cifar100(str(path), 10)
    assert data.images.shape == (10, 32, 32, 3)
    assert data.labels.max() < 100
    assert 0.0 <= data.images.min() and data.images.max() <= 1.0


def test_checks_reject_wrong_outputs(ps):
    grad = workloads.Gradcheck(0, None)
    grad.setup(ps)
    kinds = len(ps.scorefn.ALL_KINDS)
    passing = "".join(f"k{i} max rel err 0  skipped 0  PASS\n"
                      for i in range(kinds))
    assert grad.check((0, passing)) is None
    assert grad.check((2, passing.replace("PASS", "FAIL", 1))) is not None

    ext = workloads.Extremum(0, None)
    good = {tag: list(ys) for tag, ys in workloads.EXTREMUM_REF.items()}
    assert ext.check(good) is None
    good["softmax"][0] *= 1.001
    assert ext.check(good) is not None


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "train-d4",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
