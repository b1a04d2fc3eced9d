"""The benchmark's workloads: inputs made from the seed, set-up, the timed
operation, and the checks on its outputs.

Each workload is driven as a closed loop with one caller: `run()` is the
operation, called again only after the previous call returned.  Checks
run outside the timed region.  Reference values were recorded from the
package as it stood when this benchmark was added (Python 3.11 /
numpy 2.4, x86-64 with AVX-512) and are compared with a relative
tolerance that allows last-digit arithmetic drift but not a change of
result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import sys
from types import SimpleNamespace

import numpy as np

MODULES = ("scorefn", "analysis", "autodiff", "model", "harness", "cli")

DEFAULT_SEED = 7        # the seed `periscore train` and TrainConfig default to
CIFAR_RECORD_BYTES = 3074
CIFAR_RECORDS = 512     # Cifar100Spec's default subset size
REF_RTOL = 1e-6         # step-1 loss and gradient norm
ANALYSIS_RTOL = 1e-8    # extremum and submersion outputs
D4_ACCURACY_FLOOR = 0.5  # ten classes: chance is 0.1

# Step 1 of harness.train at DEFAULT_SEED, before any update: (loss,
# global gradient norm).  The train-seq64 values use the CIFAR-format
# records cifar_records(DEFAULT_SEED).
TRAIN_D4_STEP1 = (5.8799754293237045, 769.1226922099879)
TRAIN_SEQ64_STEP1 = (4.777747112796725, 3.1394232320463487)

# extremum_vs_m_curve(kind, EXTREMUM_M).y_values for every kind.  Values
# above GUARD_LIMITED are blow-ups where M + f(x) crosses zero: the search
# stops at the |denominator| >= EPS_DEN guard and the last digits of x
# decide the value, so only their size is checked.
EXTREMUM_M = (0.5, 1.0, 2.0, 5.0, 10.0)
GUARD_LIMITED = 1e6
EXTREMUM_REF = {
    "softmax": (0.25, 0.25, 0.24999999999999994, 0.24999999999999997, 0.25),
    "taylor-softmax": (0.22963966338592293, 0.25, 0.23237900077244505,
                       0.17803396631832732, 0.13498731178900975),
    "sm-softmax": (0.25, 0.25, 0.24999999999999994, 0.24999999999999997,
                   0.25),
    "sm-taylor-softmax": (0.22963966338592293, 0.25, 0.23237900077244505,
                          0.17803396631832732, 0.13498731178900975),
    "sin-max-constant": (0.6234148460704638, 0.4237432928062354,
                         0.27831734347385706, 0.1468310725705699,
                         0.08402213040646951),
    "sin-max": (4327412519397093.5, 1414213500768.6416, 0.8474865856124708,
                0.21669066684904978, 0.10202039826827328),
    "cos-max": (4317420256781029.5, 1414212678718.9856, 0.8474865856124708,
                0.21669066684904978, 0.10202039826827328),
    "sin2-max": (0.8474865856124709, 0.5566346869477141, 0.34670506695847964,
                 0.16804426081293902, 0.0911152360780473),
    "sin2-max-shifted": (0.8474865856124709, 0.556634686947714,
                         0.34670506695847964, 0.168044260812939,
                         0.0911152360780473),
    "sin-softmax": (0.2307196515294984, 0.25000000000000006,
                    0.2307196515294984, 0.16237955965476403,
                    0.10527836282178112),
    "siren-max": (0.5000000000000002, 0.556634686947714, 0.7103103550200691,
                  1.0627975411572141, 1.477123920439216),
}

# submersion_curve(SUBMERSION_D, seed=DEFAULT_SEED).y_values
SUBMERSION_D = (4, 16, 64, 256)
SUBMERSION_REF = (0.22332566789112232, 0.06847745287121498,
                  0.01666145596830716, 0.004039460970284207)


def load_periscore():
    """Import periscore afresh and return its modules as a namespace.

    Earlier imports are dropped from sys.modules first, so the import
    runs the package's module code again.
    """
    for name in [m for m in sys.modules
                 if m == "periscore" or m.startswith("periscore.")]:
        del sys.modules[name]
    importlib.import_module("periscore")
    return SimpleNamespace(**{m: importlib.import_module("periscore." + m)
                              for m in MODULES})


def cifar_records(seed, count=CIFAR_RECORDS):
    """`count` CIFAR-100 binary records made from the raw Philox stream.

    Each record is a coarse label byte, a fine label byte and 3x32x32
    pixel bytes.  The raw counter stream is the same on every platform
    and numpy version, so a seed always gives the same bytes.
    """
    size = count * CIFAR_RECORD_BYTES
    words = np.random.Philox(key=seed).random_raw(-(-size // 8))
    raw = np.frombuffer(words.astype("<u8").tobytes()[:size], np.uint8)
    recs = raw.reshape(count, CIFAR_RECORD_BYTES).copy()
    recs[:, 1] %= 100
    recs[:, 0] = recs[:, 1] // 5
    return recs.tobytes()


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _extremum_matches(y, ref):
    if ref > GUARD_LIMITED:
        return y > GUARD_LIMITED
    return _close(y, ref, ANALYSIS_RTOL)


# -- training ------------------------------------------------------------


class _Train:
    """harness.train on a demo config; one operation is one train call."""

    unit = "step"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.ps = None
        self.cfg = None

    def config(self, ps, seed, steps):
        raise NotImplementedError

    def setup(self, ps):
        """Bind freshly imported modules, build the dataset and the model."""
        self.ps = ps
        self.cfg = self.config(ps, self.seed, self.steps)
        ps.harness.build_dataset(self.cfg.dataset, self.seed)
        ps.model.DemoModel(self.cfg.demo, self.seed)

    def run(self):
        return self.ps.harness.train(self.cfg)

    def units(self, log):
        return len(log.records)

    def check(self, log):
        if log.breakdown is not None:
            return (f"breakdown at step {log.breakdown.step}: "
                    f"{log.breakdown.cause}")
        if len(log.records) != self.cfg.steps:
            return f"{len(log.records)} of {self.cfg.steps} steps logged"
        if not all(math.isfinite(r.loss) for r in log.records):
            return "non-finite loss"
        return None

    def reference_checks(self):
        ref = self.reference
        log = self.ps.harness.train(self.config(self.ps, DEFAULT_SEED, 1))
        rec = log.records[0]
        ok = _close(rec.loss, ref[0], REF_RTOL) and \
            _close(rec.grad_norm, ref[1], REF_RTOL)
        return [("step-1 loss and gradient norm at seed "
                 f"{DEFAULT_SEED}", None if ok else
                 f"got ({rec.loss!r}, {rec.grad_norm!r}), "
                 f"recorded {ref!r}")]


class TrainD4(_Train):
    """Deep graph of small ops: siren-max through the pole, depth 4."""

    steps = 50
    reference = TRAIN_D4_STEP1

    def config(self, ps, seed, steps):
        demo = ps.cli.default_demo_config(
            ps.scorefn.SIREN_MAX, depth=4, input_shape=(8, 8, 1),
            prenorm=True, scale="inv_dmodel", num_classes=10)
        return ps.harness.TrainConfig(
            demo=demo, dataset=ps.harness.SyntheticSpec(),
            optimizer=ps.harness.AdamSpec(), steps=steps, seed=seed)

    def check(self, log):
        failure = super().check(log)
        if failure is None and log.final_eval_accuracy < D4_ACCURACY_FLOOR:
            failure = (f"eval accuracy {log.final_eval_accuracy} below "
                       f"{D4_ACCURACY_FLOOR}")
        return failure


class TrainSeq64(_Train):
    """Width instead of depth: 64 tokens, sin-softmax, CIFAR loader."""

    steps = 20
    reference = TRAIN_SEQ64_STEP1

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.paths = {}
        for s in {seed, DEFAULT_SEED}:
            path = workdir / f"cifar-seed{s}.bin"
            path.write_bytes(cifar_records(s))
            self.paths[s] = str(path)

    def config(self, ps, seed, steps):
        demo = ps.cli.default_demo_config(
            ps.scorefn.SIN_SOFTMAX, depth=1, input_shape=(32, 32, 3),
            prenorm=False, scale="inv_dmodel", num_classes=100)
        return ps.harness.TrainConfig(
            demo=demo,
            dataset=ps.harness.Cifar100Spec(self.paths[seed], CIFAR_RECORDS),
            optimizer=ps.harness.AdamSpec(), steps=steps, seed=seed)


# -- analysis ------------------------------------------------------------


class _Analysis:
    """One stability-analysis job; one operation is one job call."""

    unit = "job"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.ps = None

    def setup(self, ps):
        self.ps = ps

    def units(self, result):
        return 1

    def reference_checks(self):
        return []


class Gradcheck(_Analysis):
    """`periscore gradcheck --fn all`: analytic vs finite differences."""

    def run(self):
        out = io.StringIO()
        code = None
        with contextlib.redirect_stdout(out):
            try:
                self.ps.cli.main(["gradcheck", "--fn", "all",
                                  "--seed", str(self.seed)])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, result):
        code, text = result
        lines = text.splitlines()
        kinds = len(self.ps.scorefn.ALL_KINDS)
        if code != 0 or len(lines) != kinds:
            return f"exit code {code}, {len(lines)} lines for {kinds} kinds"
        failing = [ln.split()[0] for ln in lines if not ln.endswith("PASS")]
        return f"not PASS: {failing}" if failing else None


class Saturation(_Analysis):
    """`analyze --report saturation` parameters, with the workload seed."""

    DIM, TRIALS, SCALE, EPSILON = 64, 1000, 8.0, 1e-4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.expected = None

    def run(self):
        return [self.ps.analysis.saturation_fraction(
            kind, dim=self.DIM, trials=self.TRIALS, input_scale=self.SCALE,
            epsilon=self.EPSILON, seed=self.seed)
            for kind in self.ps.scorefn.ALL_KINDS]

    def _recount(self, kind):
        """(fraction, samples, skipped rows) from jacobian diagonals."""
        sf = self.ps.scorefn
        rows = np.random.Generator(np.random.Philox(key=self.seed)).normal(
            0.0, self.SCALE, size=(self.TRIALS, self.DIM))
        diags, skipped = [], 0
        for row in rows:
            try:
                diags.append(np.diag(sf.jacobian(kind, row).entries))
            except sf.ScoreError:
                skipped += 1
        d = np.concatenate(diags) if diags else np.empty(0)
        frac = float(np.mean(np.abs(d) < self.EPSILON)) if d.size else 0.0
        return frac, int(d.size), skipped

    def reference_checks(self):
        self.expected = [self._recount(k) for k in self.ps.scorefn.ALL_KINDS]
        return [("saturation agrees with a recount from scorefn.jacobian",
                 self.check(self.run()))]

    def check(self, reports):
        got = [(r.fraction_saturated, r.sample_count, r.skipped_rows)
               for r in reports]
        bad = [r.kind.tag for r, g, e in zip(reports, got, self.expected)
               if g[1:] != e[1:] or abs(g[0] - e[0]) > 1e-12]
        return f"saturation differs from recount: {bad}" if bad else None


class Extremum(_Analysis):
    """`analyze --report extremum-vs-m`: grid plus golden-section search."""

    def run(self):
        return {kind.tag: self.ps.analysis.extremum_vs_m_curve(
            kind, EXTREMUM_M).y_values
            for kind in self.ps.scorefn.ALL_KINDS}

    def check(self, curves):
        bad = [tag for tag, ys in curves.items()
               if len(ys) != len(EXTREMUM_REF.get(tag, ()))
               or not all(_extremum_matches(float(y), r)
                          for y, r in zip(ys, EXTREMUM_REF[tag]))]
        return f"extremum differs from recorded: {bad}" if bad else None


class Submersion(_Analysis):
    """`analyze --report submersion`, with the workload seed."""

    def run(self):
        return self.ps.analysis.submersion_curve(list(SUBMERSION_D),
                                                 seed=self.seed)

    def check(self, curve):
        ys = [float(y) for y in curve.y_values]
        if not all(0.0 < y < 1.0 for y in ys):
            return f"deviation outside (0, 1): {ys}"
        if any(b >= a for a, b in zip(ys, ys[1:])):
            return f"deviation does not shrink with d: {ys}"
        return None

    def reference_checks(self):
        ys = self.ps.analysis.submersion_curve(
            list(SUBMERSION_D), seed=DEFAULT_SEED).y_values
        ok = len(ys) == len(SUBMERSION_REF) and all(
            _close(float(y), r, ANALYSIS_RTOL)
            for y, r in zip(ys, SUBMERSION_REF))
        return [(f"submersion at seed {DEFAULT_SEED} matches recorded",
                 None if ok else f"got {list(map(float, ys))}")]


WORKLOADS = {
    "train-d4": TrainD4,
    "train-seq64": TrainSeq64,
    "analysis-gradcheck": Gradcheck,
    "analysis-saturation": Saturation,
    "analysis-extremum": Extremum,
    "analysis-submersion": Submersion,
}
