"""Command-line surface: curves, gradcheck, analyze, train.

Exit codes: 0 success, 1 flag/validation failure, 2 runtime failure.
A training breakdown is a result, not a failure, and exits 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import analysis, harness, scorefn
from .model import AttentionConfig, DemoConfig
from .scorefn import ScoreError, ScoreFunctionKind

KIND_NAMES = [kind.tag for kind in scorefn.ALL_KINDS]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _invalid(err):
    """Report a flag or validation failure; its exit code is 1."""
    print(f"error: {err}", file=sys.stderr)
    return 1


def _kind_from_flags(name, args):
    return ScoreFunctionKind(name, taylor_order=args.taylor_order,
                             margin=args.margin, phase=args.phase)


def _add_kind_params(p):
    k = ScoreFunctionKind  # the kind parameters' defaults
    p.add_argument("--taylor-order", type=int, default=k.taylor_order,
                   help="order n of the taylor kinds (default %(default)s)")
    p.add_argument("--margin", type=float, default=k.margin,
                   help="soft margin m for the sm kinds (default %(default)s)")
    p.add_argument("--phase", type=float, default=k.phase,
                   help="phase for sin2-max-shifted (default %(default).4g)")


def cmd_curves(args):
    try:  # the curve functions raise ValueError only for their arguments
        kind = _kind_from_flags(args.fn, args)
        if args.prenorm:
            curve = analysis.prenorm_gradient_curve(
                kind, args.m, args.x_min, args.x_max, args.steps, args.dim,
                args.var)
        else:
            curve = analysis.gradient_curve(kind, args.m, args.x_min,
                                            args.x_max, args.steps)
    except ValueError as err:
        return _invalid(err)
    if np.all(np.isnan(curve.y_values)):
        print("error: every point hit a guard", file=sys.stderr)
        return 2
    curve.to_csv(args.out)
    print(f"wrote {args.steps} points to {args.out}")
    return 0


def _rel_errors(kind, xs):
    """max|jacobian - finite_diff_jacobian| / max(|entries|, 1) of each
    trial row of xs that the guards admit.  A block that raises is halved
    until the guarded trial stands alone; that trial contributes nothing."""
    try:
        a = scorefn.jacobian(kind, xs).entries
        f = scorefn.finite_diff_jacobian(kind, xs).entries
    except ScoreError:
        if len(xs) == 1:
            return np.empty(0)
        half = len(xs) // 2
        return np.concatenate([_rel_errors(kind, xs[:half]),
                               _rel_errors(kind, xs[half:])])
    scale = np.maximum(np.abs(a), np.abs(f)).max(axis=(-2, -1), initial=1.0)
    return np.abs(a - f).max(axis=(-2, -1)) / scale


def cmd_gradcheck(args):
    if (args.dim < 2 or args.trials < 1 or not args.tol >= 0
            or not 0 <= args.seed < 2 ** 128):
        return _invalid("need --dim >= 2, --trials >= 1, --tol >= 0 and "
                        "--seed in 0 .. 2**128 - 1")
    names = KIND_NAMES if args.fn == "all" else [args.fn]
    try:
        kinds = [_kind_from_flags(name, args) for name in names]
    except ValueError as err:
        return _invalid(err)
    rng = scorefn.seeded_rng(args.seed)
    # A trial's finite-difference stack holds 2 * dim**2 elements.
    step = max(1, analysis.BLOCK_ELEMENTS // (2 * args.dim ** 2))
    all_pass = True
    for name, kind in zip(names, kinds):
        errs = np.concatenate([
            _rel_errors(kind, rng.normal(
                0.0, 1.0, size=(min(step, args.trials - i), args.dim)))
            for i in range(0, args.trials, step)])
        skipped = args.trials - errs.size
        # np.max, unlike max(), lets a NaN error through to FAIL.
        worst = float(np.max(errs, initial=0.0))
        ok = worst <= args.tol and skipped < args.trials
        all_pass &= ok
        print(f"{name:20s} max rel err {worst:.3e}  skipped {skipped:3d}  "
              f"{'PASS' if ok else 'FAIL'}")
    return 0 if all_pass else 2


def cmd_analyze(args):
    with open(args.out, "w") as fh:
        if args.report == "saturation":
            fh.write("kind,fraction_saturated,sample_count,skipped_rows\n")
            for kind in scorefn.ALL_KINDS:
                rep = analysis.saturation_fraction(
                    kind, dim=64, trials=1000, input_scale=8.0,
                    epsilon=1e-4, seed=7)
                fh.write(f"{kind.tag},{rep.fraction_saturated!r},"
                         f"{rep.sample_count},{rep.skipped_rows}\n")
        elif args.report == "extremum-vs-m":
            fh.write("kind,m,extremum\n")
            for kind in scorefn.ALL_KINDS:
                curve = analysis.extremum_vs_m_curve(
                    kind, [0.5, 1.0, 2.0, 5.0, 10.0])
                for m, y in zip(curve.x_values, curve.y_values):
                    field = "" if math.isnan(y) else repr(float(y))
                    fh.write(f"{kind.tag},{float(m)!r},{field}\n")
        else:  # submersion
            curve = analysis.submersion_curve([4, 16, 64, 256])
            fh.write("d,mean_max_abs_dev\n")
            for d, y in zip(curve.x_values, curve.y_values):
                fh.write(f"{int(d)},{float(y)!r}\n")
    print(f"wrote {args.report} report to {args.out}")
    return 0


def _parse_dataset(text):
    if text == "synthetic":
        return harness.SyntheticSpec()
    if text.startswith("cifar100:"):
        # The path runs to the last colon; a POSIX path may hold colons.
        path, sep, subset = text[len("cifar100:"):].rpartition(":")
        if not sep:
            raise ValueError("expected cifar100:<path>:<subset>")
        try:
            size = int(subset)
        except ValueError:
            raise ValueError(f"subset {subset!r} is not an integer") from None
        return harness.Cifar100Spec(path=path, subset_size=size)
    raise ValueError(f"unknown dataset {text!r}")


def default_demo_config(kind, depth, input_shape, prenorm, scale,
                        num_classes):
    small = input_shape == harness.SyntheticSpec.input_shape
    embed, heads, patch = (32, 2, 2) if small else (64, 4, 4)
    attn = AttentionConfig(embed_dim=embed, num_heads=heads, score_kind=kind,
                           score_scale=scale, prenormalize=prenorm)
    return DemoConfig(depth=depth, attention=attn, patch_size=patch,
                      input_shape=input_shape, num_classes=num_classes)


def cmd_train(args):
    try:
        dataset = _parse_dataset(args.dataset)
        demo = default_demo_config(
            _kind_from_flags(args.score, args), args.depth,
            dataset.input_shape, args.prenorm, args.scale, dataset.num_classes)
        cfg = harness.TrainConfig(demo=demo, dataset=dataset,
                                  steps=args.steps, seed=args.seed,
                                  tap_every=args.tap_every)
    except ValueError as err:
        return _invalid(err)
    # Open the log first, so that an unwritable --out fails before step 1.
    with open(args.out, "w") as fh:
        try:
            log = harness.train(cfg)
        except BaseException:
            # A run that ended in an error leaves no log behind.
            fh.close()
            os.remove(args.out)
            raise
        harness.write_run_log(log, fh)
    if log.breakdown is not None:
        print(f"breakdown at step {log.breakdown.step}: "
              f"{log.breakdown.cause} (logged to {args.out})")
    else:
        print(f"final eval accuracy {log.final_eval_accuracy:.4f} "
              f"(logged to {args.out})")
    return 0


def build_parser():
    parser = _Parser(prog="periscore",
                     description="Periodic score functions for attention: "
                                 "curves, gradient checks, analysis sweeps, "
                                 "desk-scale training with gradient-tap "
                                 "histograms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curves", help="emit a gradient curve CSV")
    p.add_argument("--fn", required=True, choices=KIND_NAMES)
    p.add_argument("--m", type=float, default=1.0, help="fixed off-sum M")
    p.add_argument("--x-min", type=float, required=True)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=1001)
    p.add_argument("--prenorm", action="store_true")
    p.add_argument("--dim", type=int, default=64,
                   help="row dimension for the prenorm curve")
    p.add_argument("--var", type=float, default=1.0,
                   help="input variance for the prenorm curve")
    p.add_argument("--out", required=True)
    _add_kind_params(p)
    p.set_defaults(fn_impl=cmd_curves)

    p = sub.add_parser("gradcheck",
                       help="analytic vs finite-difference Jacobians")
    p.add_argument("--fn", required=True, choices=KIND_NAMES + ["all"])
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=1e-6)
    _add_kind_params(p)
    p.set_defaults(fn_impl=cmd_gradcheck)

    p = sub.add_parser("analyze", help="saturation / extremum / submersion")
    p.add_argument("--report", required=True,
                   choices=["saturation", "extremum-vs-m", "submersion"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn_impl=cmd_analyze)

    p = sub.add_parser("train", help="train the demo, log JSONL")
    p.add_argument("--score", required=True, choices=KIND_NAMES)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--dataset", default="synthetic",
                   help="'synthetic' or 'cifar100:<path>:<subset>'")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--prenorm", action="store_true")
    p.add_argument("--scale", default="inv_dmodel",
                   choices=["inv_dmodel", "inv_sqrt_dmodel"])
    p.add_argument("--tap-every", type=int, default=0,
                   help="every N-th step, bin each block's score-input "
                        "gradients into tap records of the log "
                        "(default 0: off)")
    p.add_argument("--out", required=True)
    _add_kind_params(p)
    p.set_defaults(fn_impl=cmd_train)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn_impl(args)
    except (OSError, ValueError, MemoryError) as err:
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        code = 2
    raise SystemExit(code)


if __name__ == "__main__":
    main()
