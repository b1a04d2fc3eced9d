"""Seed ensembles for acceptance gate 9 and tools/trainlog_digest.py."""

import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from periscore import SyntheticSpec, TrainConfig, train
from periscore.cli import default_demo_config


def desk_config(kind, depth, prenorm, steps, seed, tap_every=0):
    """The 8x8x1 synthetic task with 10 classes, at the demo's defaults."""
    demo = default_demo_config(kind, depth, (8, 8, 1), prenorm,
                               "inv_dmodel", 10)
    return TrainConfig(demo=demo, dataset=SyntheticSpec(), steps=steps,
                       seed=seed, tap_every=tap_every)


def outcome(log):
    if log.breakdown is not None:
        return f"breakdown@{log.breakdown.step}({log.breakdown.cause})"
    return f"acc {log.final_eval_accuracy:.4f}"


def seed_line(label, seed, log):
    peak = max((r.grad_norm for r in log.records), default=0.0)
    return f"{label} seed {seed:2d}: {outcome(log)}, peak grad norm {peak:.3g}"


def train_all(configs):
    """[train(cfg) for cfg in configs] on at most two worker processes.
    A run's exception is raised here; no worker outlives the call.  The
    workers fork, so they inherit the caller's monkeypatches and warning
    filters, pytest's error::RuntimeWarning too; spawn and forkserver, the
    Linux default from Python 3.14, would not."""
    workers = min(2, len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        return list(pool.map(train, configs))
