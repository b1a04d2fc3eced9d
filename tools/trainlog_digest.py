"""Digests of seeded training logs, for checking that a change leaves
training bitwise unchanged.

For each config below it trains 150 steps at seed 1 (Adam at its
defaults) with gradient taps every 50 steps (every 5 for sin-max d2,
which breaks down at step 10) and prints two lines. The
first gives the outcome and a SHA-256 over every step's loss, accuracy
and gradient norm, the final eval accuracy and the breakdown. The second gives a SHA-256 over every
tap histogram: its step and layer, and each bin's centre, mean |grad|
and count. The histograms digested are the tap records that
read_run_log reads back from the written run log, so the digest also
shows that the records lose nothing. Floats are written exactly (hex).
The training bits and the tap histograms are digested apart, so a
change to the histograms cannot hide a change to training.
The configs are the 8x8 synthetic task at several kinds and depths, and
a 32x32x3 one that is the benchmark's own: perfbench.workloads.TrainSeq64's
config at seed 1 and 150 steps (sin-softmax depth 1 on the CIFAR-format
records that cifar_records(1) makes), with taps every 50 steps.  NumPy and
BLAS choose code paths by array size, so bitwise equality on the 8x8
configs does not carry over to 64-token rows.
It then prints the cos-max depth-4 outcome of the acceptance gate 9
config (500 steps) on seeds 0-31, one line per seed, and the count of
breakdowns.  One tests/ensemble.train_all call trains all 40 runs on up
to two worker processes; the lines print once every run has ended.

Run it against two source trees and diff the outputs:

    export OMP_NUM_THREADS=1
    PYTHONPATH=<old>/src python tools/trainlog_digest.py > old.txt
    PYTHONPATH=<new>/src python tools/trainlog_digest.py > new.txt
    diff old.txt new.txt
"""

import dataclasses
import hashlib
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

from periscore import (
    COS_MAX,
    SIN_MAX,
    SIN_SOFTMAX,
    SIREN_MAX,
    SOFTMAX,
    TAYLOR_SOFTMAX,
    cli,
    harness,
    read_run_log,
    scorefn,
    write_run_log,
)
from periscore.scorefn import ScoreFunctionKind

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.workloads import TrainSeq64  # noqa: E402
from tests.ensemble import (desk_config, outcome,  # noqa: E402
                            seed_line, train_all)

SWEEP_SEEDS = 32

# (label, kind, depth, prenorm, tap_every).  The soft-margin config has a
# non-zero margin: at margin 0 it would run the softmax config's
# arithmetic.
CONFIGS = (
    ("siren-max d4 + prenorm", SIREN_MAX, 4, True, 50),
    ("sin-softmax d1", SIN_SOFTMAX, 1, False, 50),
    ("softmax d2", SOFTMAX, 2, False, 50),
    ("cos-max d4", COS_MAX, 4, False, 50),
    ("sm-softmax margin 1 d2", ScoreFunctionKind("sm-softmax", margin=1.0),
     2, False, 50),
    ("sin-max d2", SIN_MAX, 2, False, 5),
    ("taylor-softmax d1 + prenorm", TAYLOR_SOFTMAX, 1, True, 50),
)


def _sha256(lines):
    h = hashlib.sha256()
    for values in lines:
        h.update(" ".join(v.hex() if isinstance(v, float) else str(v)
                          for v in values).encode() + b"\n")
    return h.hexdigest()


def _records_digest(log):
    return _sha256([*map(dataclasses.astuple, log.records),
                    ("eval", log.final_eval_accuracy),
                    ("breakdown", log.breakdown)])


def _taps_digest(log):
    return _sha256((t.step, t.layer_index, b["x_center"], b["mean_abs_grad"],
                    b["count"]) for t in log.taps for b in t.bins)


def _read_back(log):
    """log as read_run_log reads it from a run log that holds it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        with open(path, "w") as fh:
            write_run_log(log, fh)
        return read_run_log(path)


def main():
    labels = [label for label, *_ in CONFIGS] + ["sin-softmax d1 32x32x3"]
    # The benchmark's modules namespace, bound to the periscore imported
    # above: perfbench.workloads.load_periscore would import it afresh.
    ps = SimpleNamespace(cli=cli, harness=harness, scorefn=scorefn)
    with tempfile.TemporaryDirectory() as tmp:
        seq64 = TrainSeq64(1, Path(tmp)).config(ps, 1, 150)
        logs = train_all(
            [desk_config(kind, depth, prenorm, 150, 1, tap_every)
             for _, kind, depth, prenorm, tap_every in CONFIGS]
            + [dataclasses.replace(seq64, tap_every=50)]
            + [desk_config(COS_MAX, 4, False, steps=500, seed=seed)
               for seed in range(SWEEP_SEEDS)])
    for label, log in zip(labels, logs):
        print(f"{label}: {len(log.records)} steps, {outcome(log)}, "
              f"sha256 {_records_digest(log)}")
        back = _read_back(log)
        print(f"{label}: {len(back.taps)} tap histograms, "
              f"taps sha256 {_taps_digest(back)}")
    sweep = logs[len(labels):]
    for seed, log in enumerate(sweep):
        print(f"{seed_line('cos-max d4', seed, log)}, "
              f"sha256 {_records_digest(log)}")
    broke = sum(log.breakdown is not None for log in sweep)
    print(f"cos-max d4: {broke}/{SWEEP_SEEDS} broke down")


if __name__ == "__main__":
    main()
