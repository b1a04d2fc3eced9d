"""Acceptance gates for the whole package.

Each test checks one numbered claim, prints a single PASS/FAIL line with
the measured numbers, and enforces both the numeric tolerance and the
runtime budget.  Frozen values come from the seeded reference runs in
this repository; they are regression anchors, not tunables.

Gate 9 is the exception: training a breaking config for 500 steps is
chaotic, so the last-ulp rounding of SIMD transcendentals and BLAS decides
a single run's outcome.  It is a claim about a seed ensemble instead, with
the seeds and thresholds declared as constants before any run.
"""

import math
import time

import numpy as np
import pytest

from periscore import (
    ALL_KINDS,
    COS_MAX,
    SIN2_MAX_SHIFTED,
    SIN_MAX,
    SIN_SOFTMAX,
    SIREN_MAX,
    SOFTMAX,
    AttentionConfig,
    DemoConfig,
    ScoreError,
    build_demo,
    cosmax_extremum_interval,
    cross_entropy,
    finite_diff_jacobian,
    jacobian,
    saturation_fraction,
    scores,
    submersion_curve,
)
from periscore.analysis import extreme_diag_gradient
from periscore.harness import load_cifar100
from periscore.scorefn import ScoreFunctionKind, f_and_fp

from ensemble import desk_config, seed_line, train_all

# Kinds whose scores are invariant under x -> x + 2*pi.
PERIODIC_TAGS = frozenset(
    {"sin-max-constant", "sin-max", "cos-max", "sin2-max",
     "sin2-max-shifted", "sin-softmax", "siren-max"}
)


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({detail}, {elapsed:.1f}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.1f}s"


def test_criterion_01_gradient_oracle():
    t0 = time.perf_counter()
    rng = _rng(42)
    worst = 0.0
    skipped = 0
    for kind in ALL_KINDS:
        for dim in (2, 8, 64):
            for _ in range(100):
                x = rng.normal(0.0, 1.0, size=dim)
                try:
                    a = jacobian(kind, x).entries
                    f = finite_diff_jacobian(kind, x).entries
                except ScoreError:
                    skipped += 1
                    continue
                scale = max(np.abs(f).max(), np.abs(a).max(), 1.0)
                worst = max(worst, float(np.abs(a - f).max() / scale))
    _report(1, "gradient-oracle", worst <= 1e-6,
            f"max rel err {worst:.3e}, skipped {skipped}",
            time.perf_counter() - t0, 30.0)


def test_criterion_02_softmax_extremum():
    t0 = time.perf_counter()
    worst = 0.0
    for m in (0.5, 1.0, 10.0, 100.0):
        val = extreme_diag_gradient(SOFTMAX, m, mode="max")
        worst = max(worst, abs(val - 0.25))
    _report(2, "softmax-extremum", worst <= 1e-6,
            f"max |extremum - 0.25| = {worst:.3e}",
            time.perf_counter() - t0, 5.0)


def test_criterion_03_cosmax_interval():
    t0 = time.perf_counter()
    ok = True
    details = []
    for m in (0.5, 2.0, 5.0, 10.0, -5.0):
        interval = cosmax_extremum_interval(m)
        val = extreme_diag_gradient(COS_MAX, m, mode="max")
        inside = interval.unbounded or \
            (interval.lower - 1e-6 <= val <= interval.upper + 1e-6)
        ok &= inside
        details.append(f"M={m:g}:{val:.4f}"
                       f"{'∈' if inside else '∉'}"
                       f"[{interval.lower:.4f},{interval.upper:.4f}]")
    _report(3, "cosmax-interval", ok, "; ".join(details),
            time.perf_counter() - t0, 10.0)


def test_criterion_04_sinsoftmax_bound():
    t0 = time.perf_counter()
    x = _rng(13).normal(0.0, 3.0, size=10_000)
    f, _ = f_and_fp(SIN_SOFTMAX, x)
    lo, hi = float(f.min()), float(f.max())
    e = math.e
    ok = (lo >= 1.0 / e - 1e-12 and hi <= e + 1e-12
          and hi / lo <= e * e + 1e-9)
    _report(4, "sin-softmax-bound", ok,
            f"range [{lo:.6f}, {hi:.6f}], ratio {hi / lo:.6f} <= e^2={e*e:.6f}",
            time.perf_counter() - t0, 5.0)


def test_criterion_05_normalization_invariants():
    t0 = time.perf_counter()
    rng = _rng(11)
    worst_sum = 0.0
    worst_col = 0.0
    worst_per = 0.0
    worst_phase = 0.0
    skipped = 0
    for kind in ALL_KINDS:
        for _ in range(1000):
            x = rng.normal(0.0, 1.0, size=8)
            try:
                s = scores(kind, x)
                jm = jacobian(kind, x)
            except ScoreError:
                skipped += 1
                continue
            worst_sum = max(worst_sum, abs(math.fsum(s) - 1.0))
            worst_col = max(worst_col,
                            float(np.abs(jm.entries.sum(axis=0)).max()))
            if kind.tag in PERIODIC_TAGS:
                # The shift x + 2*pi itself rounds by one ulp; rows with
                # large scores (near-singular normalization) amplify that
                # input error, so periodicity is measured relative to the
                # score magnitude.
                shifted = scores(kind, x + 2.0 * math.pi)
                scale = max(1.0, float(np.abs(s).max()))
                worst_per = max(worst_per,
                                float(np.abs(shifted - s).max()) / scale)
            if kind.tag == "sin2-max-shifted":
                plain = scores(ScoreFunctionKind("sin2-max"), x + kind.phase)
                worst_phase = max(worst_phase,
                                  float(np.abs(plain - s).max()))
    ok = (worst_sum <= 1e-12 and worst_col <= 1e-9
          and worst_per <= 1e-12 and worst_phase <= 1e-12)
    _report(5, "normalization-invariants", ok,
            f"sum {worst_sum:.2e}, col {worst_col:.2e}, "
            f"period {worst_per:.2e}, phase {worst_phase:.2e}, "
            f"skipped {skipped}",
            time.perf_counter() - t0, 10.0)


def test_criterion_06_saturation_contrast():
    t0 = time.perf_counter()

    def frac(kind):
        return saturation_fraction(kind, dim=64, trials=1000,
                                   input_scale=8.0, epsilon=1e-4,
                                   seed=7).fraction_saturated

    soft = frac(SOFTMAX)
    sins = frac(SIN_SOFTMAX)
    sin2 = frac(SIN2_MAX_SHIFTED)
    frozen = (0.8681875, 0.008203125, 0.002125)
    ok = (soft == pytest.approx(frozen[0], abs=1e-12)
          and sins == pytest.approx(frozen[1], abs=1e-12)
          and sin2 == pytest.approx(frozen[2], abs=1e-12)
          and soft >= 5.0 * sins and soft >= 5.0 * sin2)
    _report(6, "saturation-contrast", ok,
            f"softmax {soft:.6f} vs sin-softmax {sins:.6f}, "
            f"sin2-max-shifted {sin2:.6f}",
            time.perf_counter() - t0, 10.0)


def test_criterion_07_information_submersion():
    t0 = time.perf_counter()
    curve = submersion_curve([4, 16, 64, 256], trials=1000, seed=7)
    ys = curve.y_values
    ok = bool(np.all(np.diff(ys) < 0))
    _report(7, "information-submersion", ok,
            "mean max dev " + " > ".join(f"{y:.4f}" for y in ys),
            time.perf_counter() - t0, 10.0)


def _micro_gradcheck(kind, prenorm):
    """Worst rel. err between backprop and central FD over all parameters."""
    attn = AttentionConfig(embed_dim=16, num_heads=2, score_kind=kind,
                           prenormalize=prenorm)
    cfg = DemoConfig(depth=1, attention=attn, patch_size=2,
                     input_shape=(8, 8, 1), num_classes=3)
    model = build_demo(cfg, seed=3)
    images = _rng(5).normal(0.0, 1.0, size=(2, 8, 8, 1))
    labels = np.array([0, 2])

    def loss_value():
        return float(cross_entropy(model.forward(images), labels).data)

    loss = cross_entropy(model.forward(images), labels)
    loss.backward()
    h = 1e-4
    worst = 0.0
    for p in model.parameters():
        grad = p.grad if p.grad is not None else np.zeros_like(p.data)
        flat = p.data.ravel()
        fd = np.empty_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = loss_value()
            flat[i] = keep - h
            down = loss_value()
            flat[i] = keep
            fd[i] = (up - down) / (2.0 * h)
        fd = fd.reshape(p.data.shape)
        scale = max(np.abs(fd).max(), np.abs(grad).max(), 1.0)
        worst = max(worst, float(np.abs(grad - fd).max() / scale))
    return worst


def test_criterion_08_end_to_end_autodiff():
    t0 = time.perf_counter()
    cases = [(SOFTMAX, False), (SIN_SOFTMAX, False),
             (SIN2_MAX_SHIFTED, False), (SIREN_MAX, True)]
    ok = True
    details = []
    for kind, prenorm in cases:
        err = _micro_gradcheck(kind, prenorm)
        ok &= err <= 1e-4
        label = kind.tag + ("+prenorm" if prenorm else "")
        details.append(f"{label} {err:.2e}")
    _report(8, "end-to-end-autodiff", ok, ", ".join(details),
            time.perf_counter() - t0, 60.0)


# Gate 9 ensemble, fixed before any run.  Sin-max must break down in every
# seed.  Cos-max at depth 4 breaks down in about a third of its runs (24
# of seeds 0-63, 5 of seeds 0-15 on one AVX512 host), and which seeds break
# down moves with last-ulp changes anywhere in the graph, so the gate asks
# for a rate below that: at a true rate of 24/64 the chance that fewer
# than 4 of 16 seeds break down is 9.5 %.  Each entry: (label, kind,
# depth, prenorm, seeds, fewest breakdowns), and a control (None) must
# train without a breakdown.  Sin-max runs at depth 2.  At depth 1 its
# gradient norm also passes the runaway norm (15-26 steps on seeds 0-3),
# but under Adam never for ten consecutive steps, so the run ends without
# a breakdown, at eval accuracy 0.37-0.72.
BREAKDOWN_SEEDS = tuple(range(16))
CONTROL_SEEDS = tuple(range(8))
CONTROL_MIN_ACCURACY = 0.9
GATE_9_ENSEMBLES = (
    ("sin-max d2", SIN_MAX, 2, False, BREAKDOWN_SEEDS, len(BREAKDOWN_SEEDS)),
    ("cos-max d4", COS_MAX, 4, False, BREAKDOWN_SEEDS, 4),
    ("softmax", SOFTMAX, 1, False, CONTROL_SEEDS, None),
    ("sin-softmax", SIN_SOFTMAX, 1, False, CONTROL_SEEDS, None),
    ("sin2-max-shifted", SIN2_MAX_SHIFTED, 1, False, CONTROL_SEEDS, None),
    ("siren-max+prenorm", SIREN_MAX, 1, True, CONTROL_SEEDS, None),
)


def test_criterion_09_breakdown_reproduction():
    t0 = time.perf_counter()
    logs = iter(train_all([desk_config(kind, depth, prenorm, 500, seed)
                           for _, kind, depth, prenorm, seeds, _
                           in GATE_9_ENSEMBLES for seed in seeds]))
    ok = True
    details = []
    for label, _, _, _, seeds, need in GATE_9_ENSEMBLES:
        runs = [next(logs) for _ in seeds]
        for seed, log in zip(seeds, runs):
            print("  " + seed_line(label, seed, log))
        broke = sum(log.breakdown is not None for log in runs)
        detail = f"{label} {broke}/{len(runs)} broke down"
        if need is None:
            worst = min((log.final_eval_accuracy for log in runs
                         if log.breakdown is None), default=0.0)
            ok &= broke == 0 and worst >= CONTROL_MIN_ACCURACY
            details.append(f"{detail}, min acc {worst:.4f}")
        else:
            ok &= broke >= need
            details.append(f"{detail} (need {need})")
    _report(9, "breakdown-reproduction", ok, "; ".join(details),
            time.perf_counter() - t0, 600.0)


def test_criterion_10_cifar_loader_and_scope(tmp_path):
    # Full-dataset accuracy comparisons across score functions are NOT
    # reproducible at this scale: the desk-scale runs above record the
    # synthetic-task accuracies instead, and the binary loader below is
    # verified bit-exactly for anyone training at full scale.
    t0 = time.perf_counter()
    rng = _rng(3)
    n = 4
    coarse = rng.integers(0, 20, size=n, dtype=np.uint8)
    fine = rng.integers(0, 100, size=n, dtype=np.uint8)
    pixels = rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8)
    blob = bytearray()
    for i in range(n):
        blob.append(int(coarse[i]))
        blob.append(int(fine[i]))
        blob.extend(pixels[i].tobytes())
    path = tmp_path / "train.bin"
    path.write_bytes(bytes(blob))

    data = load_cifar100(str(path), subset_size=n)
    expected = pixels.transpose(0, 2, 3, 1).astype(np.float64) / 255.0
    ok = (np.array_equal(data.labels, fine.astype(np.int64))
          and np.array_equal(data.images, expected))
    _report(10, "cifar-loader-bit-exact", ok,
            f"{n} records round-trip, full-scale accuracy out of scope",
            time.perf_counter() - t0, 1.0)
