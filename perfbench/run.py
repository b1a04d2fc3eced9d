"""Run one periscore benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-d4 --seed 0 --seconds 15 \
        --trace 0

One process, one caller, closed loop: each operation starts when the
previous one has returned, for --seconds of wall time.  --trace 0 prints
the end-to-end metrics; --trace 1 alternates untraced and traced
operations and prints the per-layer metrics from the traced ones.  The
last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / ".work"

# BLAS threads, pinned before numpy loads.  The demo's matrices are at
# most 64 wide, where a second thread gives no measured gain and adds
# scheduling noise.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 15

# glibc returns numpy temporaries above its mmap threshold to the kernel
# and faults them in again on the next allocation.  The threshold moves
# with the allocation history, so the same extremum job took 1.0 s in one
# process and 1.4 s in the next.  Fixed thresholds keep freed memory in
# the heap.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_MMAP_BYTES = 32 << 20    # glibc's largest allowed mmap threshold
MALLOC_TRIM_BYTES = 256 << 20

# The host is shared, and the same code runs up to 40 % slower for
# minutes at a time while neighbours are busy.  Right after each
# operation and each set-up the benchmark times a fixed kernel of Python
# and numpy work that does not touch periscore, and rescales that wall
# time to a machine on which the kernel takes CAL_NOMINAL_S.  Raw wall
# times are printed too.
CAL_NOMINAL_S = 0.0055
CAL_SHARE = 0.1  # calibration time as a share of the operation time
CAL_MIN_KERNELS = 3


def calibration_kernel(np, arrays):
    """Fixed work in five parts of about equal time: interpreter
    arithmetic, object allocation, small-array numpy calls, and numpy
    math on 64 KiB and on 1 MiB arrays.  The numpy parts work in place
    on `arrays` (from calibration_arrays), so the kernel does not grow
    the heap and move the peak resident set."""
    s = 0
    for i in range(15000):
        s += i * i
    d = {}
    for i in range(1500):
        d[str(i)] = [i, (i, i + 1), {"k": i}]
    for (x, tmp), rounds in zip(arrays, (300, 10, 1)):
        x.fill(0.5)
        for _ in range(rounds):
            np.sin(x, out=tmp)
            tmp *= 0.5
            x += tmp
    return s, len(d)


def calibration_arrays(np):
    return [(np.empty(n), np.empty(n)) for n in (64, 8192, 131072)]


def _pin_malloc():
    """Fix glibc's malloc thresholds; returns them, or None off glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if not (mallopt(M_MMAP_THRESHOLD, MALLOC_MMAP_BYTES)
            and mallopt(M_TRIM_THRESHOLD, MALLOC_TRIM_BYTES)):
        return None
    return {"mmap_threshold": MALLOC_MMAP_BYTES,
            "trim_threshold": MALLOC_TRIM_BYTES}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _package_version():
    import tomllib
    try:
        with open(ROOT / "pyproject.toml", "rb") as fh:
            return tomllib.load(fh)["project"]["version"]
    except (OSError, KeyError, tomllib.TOMLDecodeError):
        return "unknown"


def environment(malloc):
    """What the numbers depend on beyond the code: versions, BLAS, SIMD."""
    import platform

    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "periscore": _package_version(),
        "git_commit": _git_commit(),
        "blas": {"name": blas.get("name", "unknown"),
                 "version": blas.get("version", "unknown"),
                 "threads": {k: os.environ.get(k) for k in BLAS_ENV}},
        "simd": {"baseline": list(umath.__cpu_baseline__),
                 "found": [f for f in umath.__cpu_dispatch__
                           if umath.__cpu_features__.get(f)]},
        "malloc": malloc,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Loop:
    """Outcomes of the operations of one run."""

    def __init__(self, np):
        self.np = np
        self.arrays = calibration_arrays(np)
        self.attempted = 0
        self.failed = 0
        self.op_s = []       # wall time of each checked untraced operation
        self.units = []      # steps or jobs completed by each
        self.op_cal_s = []   # calibration kernel time right after each
        self.traced_op_s = []
        self.cal_s = []      # every calibration kernel time

    def calibrate(self, seconds):
        """Time the calibration kernel for about `seconds`, at least
        CAL_MIN_KERNELS times; returns the median kernel time."""
        times = []
        end = time.perf_counter() + seconds
        while len(times) < CAL_MIN_KERNELS or time.perf_counter() < end:
            t0 = time.perf_counter()
            calibration_kernel(self.np, self.arrays)
            times.append(time.perf_counter() - t0)
        self.cal_s.extend(times)
        return statistics.median(times)

    def fail(self, what, detail):
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {what}: {detail}", file=sys.stderr)

    def op(self, wl, run, times):
        """One operation through `run`, checked outside the timing."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = run()
            dt = time.perf_counter() - t0
            cal = self.calibrate(CAL_SHARE * dt)
            failure = wl.check(result)
        except Exception:  # a failing operation is counted, not fatal
            self.fail("operation", traceback.format_exc())
            return
        if failure is not None:
            self.fail("check", failure)
            return
        if times is self.op_s:
            self.units.append(wl.units(result))
            self.op_cal_s.append(cal)
        if times is not None:
            times.append(dt)


def _rescaled(times, cal_s):
    """Median of wall times, each rescaled by the kernel time beside it."""
    return statistics.median(t / c for t, c in zip(times, cal_s)) \
        * CAL_NOMINAL_S


def main(argv=None):
    args = _parse(argv)
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    malloc = _pin_malloc()
    # Set-up times the import from cached bytecode, as an installed
    # package is imported, whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    src = ROOT / "src"
    if not (src / "periscore" / "__init__.py").is_file():
        print(f"error: no periscore sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads  # imports numpy, so after the BLAS pinning

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = WORKDIR / f"inputs-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workloads, inputs, malloc)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def _run(args, workloads, inputs, malloc):
    env = environment(malloc)

    ps = workloads.load_periscore()  # first import: untimed
    if Path(ps.harness.__file__).resolve().parents[2] != ROOT:
        print("error: periscore was not imported from this checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, inputs)  # inputs
    wl.setup(ps)

    loop = Loop(workloads.np)
    setup_s, setup_cal_s = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # each re-import leaves the previous modules' cycles
        t0 = time.perf_counter()
        wl.setup(workloads.load_periscore())
        setup_s.append(time.perf_counter() - t0)
        setup_cal_s.append(loop.calibrate(CAL_SHARE * setup_s[-1]))
    try:
        checks = wl.reference_checks()
    except Exception:  # counted like a failing operation
        checks = [("reference checks", traceback.format_exc())]
    for what, failure in checks:
        loop.attempted += 1
        if failure is not None:
            loop.fail(what, failure)
    loop.op(wl, wl.run, None)  # warm-up: caches, lazy initialisation
    # Peak resident set through set-up and the first operation.  Later
    # operations only add heap fragmentation, which made the end-of-run
    # peak jump by 10 % between runs of the same seed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = spans.Tracer() if args.trace else None

    def traced():
        with spans.installed(tracer, wl.ps), tracer.span(spans.OP):
            return wl.run()

    deadline = time.perf_counter() + args.seconds
    while True:
        loop.op(wl, wl.run, loop.op_s)
        if tracer is not None:
            loop.op(wl, traced, loop.traced_op_s)
        if time.perf_counter() >= deadline:
            break

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    if tracer is None:
        metrics = _end_to_end(wl, loop, setup_s, setup_cal_s, peak_rss_mb)
    else:
        metrics = _per_layer(wl, loop, tracer, env, args)
    print(f"failed_frac failed/attempted {loop.failed}/{loop.attempted}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def _end_to_end(wl, loop, setup_s, setup_cal_s, peak_rss_mb):
    n = len(loop.op_s)
    if not n:
        return {}
    per_unit = [t / u for t, u in zip(loop.op_s, loop.units)]
    metrics = {
        "setup_s": (_rescaled(setup_s, setup_cal_s), "s"),
        "op_ms": (_rescaled(per_unit, loop.op_cal_s) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"setup_s": f"median of {len(setup_s)} set-ups, rescaled",
             "op_ms": f"median ms per {wl.unit} over {n} operations, "
                      "rescaled",
             "peak_rss_mb": "peak resident set through the first operation"}
    for name, (value, unit) in metrics.items():
        print(f"{name} {unit} {value!r}  # {notes[name]}")
    print(f"calibration_ms ms {statistics.median(loop.cal_s) * 1e3!r}  "
          f"# median of {len(loop.cal_s)} kernels; nominal "
          f"{CAL_NOMINAL_S * 1e3:g} ms")
    print(f"raw_setup_s s {statistics.median(setup_s)!r}  "
          "# wall time, not rescaled")
    if wl.unit == "step":
        rate = sum(loop.units) / sum(loop.op_s)
        print(f"train_steps_per_s steps/s {rate!r}  # {sum(loop.units)} "
              f"steps / wall time of {n} train calls, not rescaled")
    else:
        job = type(wl).__name__.lower()
        print(f"{job}_s s {statistics.median(loop.op_s)!r}  "
              f"# median wall time of {n} calls, not rescaled")
    return metrics


def _per_layer(wl, loop, tracer, env, args):
    if not loop.traced_op_s or not loop.op_s:
        return {}
    values = spans.layer_metrics(tracer, wl.unit == "step",
                                 loop.traced_op_s, loop.op_s)
    units = spans.metric_units()
    out = WORKDIR / f"trace-{args.workload}.json"
    with open(out, "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "fields": spans.FIELDS, "spans": tracer.spans,
                   "counts": dict(tracer.counts)}, fh)
    print(f"# {len(tracer.spans)} spans from {len(loop.traced_op_s)} traced "
          f"operations written to {out.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"{name} {unit} {values[name]!r}")
    return {name: (values[name], unit) for name, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
