"""Run one batchlab benchmark workload; the last line of stdout is its result.

    python3 bench/run.py --workload mc_sweep --seed 1 --seconds 30 --trace 0

Run it from the repository root: it imports batchlab from ``src/`` beside
this directory and exits with an error if that is missing.

Load model: one caller in one process making sequential calls, each waiting
for the previous one (a closed loop), with at most two threads.  A pass calls
every operation of the workload once.

``--trace 0`` runs threads=1 passes for about ``seconds`` and measures the
end-to-end metrics:

* ``setup_s``: median over three fresh processes of the time from process
  start to the first timed pass (imports, input generation, one warm-up call);
* ``wall_s``: 80th percentile of the pass times (see ``WALL_QUANTILE``);
* ``peak_rss_mb``: peak resident memory of this process after its first pass.

``--trace 1`` repeats untraced threads=1, traced threads=1 and traced
threads=2 passes and reports the per-layer metrics (medians over traced
passes; the rng layer from threads=2, every other layer from threads=1) and
the tracing overhead.

The outputs of one pass are checked against independent computations; every
other pass, at either thread count and traced or not, must reproduce them
exactly.  Result and trace files go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# At most two threads: the program's own threads=2 passes.  BLAS stays on one.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("mc_sweep", "per_vector", "series")
#: Quantile of a run's pass times reported as ``wall_s``.  The host runs
#: this machine's cores at speeds up to 1.5x apart, in stretches of seconds
#: to minutes, so a run's median reads whichever speed held most of the run.
#: Nearly every run spends a fifth of its passes or more at a slower speed,
#: and the 80th percentile reads that speed: over three sets of ten seeds
#: it spread 0.05-0.12 (IQR / median) where the median spread 0.03-0.16.
WALL_QUANTILE = 0.8


def import_program():
    """Import batchlab from this checkout's src/, never from elsewhere."""
    if not (SRC / "batchlab" / "__init__.py").is_file():
        raise SystemExit(f"batchlab sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import batchlab
    if Path(batchlab.__file__).resolve().parent != SRC / "batchlab":
        raise SystemExit(f"imported batchlab from {batchlab.__file__}, not {SRC}")
    import workloads
    return workloads


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until it is ready to time."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"set-up probe failed (exit code {code})")
    return elapsed


class Passes:
    """Runs passes, times them and compares every output with the first."""

    def __init__(self, wl, workloads):
        self.wl = wl
        self.fingerprint = workloads.fingerprint
        self.first = None
        self.first_prints = None
        self.count = 0
        self.mismatches = []

    def run(self, threads: int, label: str) -> float:
        t0 = time.perf_counter()
        outputs = self.wl.run_pass(threads)
        elapsed = time.perf_counter() - t0
        prints = [self.fingerprint(o) for o in outputs]
        if self.first is None:
            self.first, self.first_prints = outputs, prints
        else:
            for (name, _), a, b in zip(self.wl.ops, self.first_prints, prints):
                if a != b:
                    self.mismatches.append(f"{name}: {label} pass differs")
        self.count += 1
        return elapsed


def percentile(values, q: float) -> float:
    """The ``q`` quantile of ``values``, interpolating between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    return s[lo] + (pos - lo) * (s[min(lo + 1, len(s) - 1)] - s[lo])


def run_until(deadline: float, step) -> list:
    """Call ``step`` at least once, and again while it ends nearer ``deadline``.

    A step is a whole pass, so the run stops early rather than late when
    less than half the last step's time is left.
    """
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        if deadline - time.perf_counter() < 0.5 * (time.perf_counter() - t0):
            return results


def measure(wl, workloads, seconds: float) -> tuple[Passes, dict, dict]:
    """Run threads=1 passes for about ``seconds``."""
    passes = Passes(wl, workloads)
    peak_mb = []

    def step():
        elapsed = passes.run(1, "threads=1")
        if not peak_mb:     # every later pass repeats the first: this is the peak
            peak_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return elapsed

    t1 = run_until(time.perf_counter() + seconds, step)
    print(f"passes: {len(t1)} at threads=1")
    return passes, {"wall_s": (percentile(t1, WALL_QUANTILE), "s"),
                    "peak_rss_mb": (peak_mb[0], "MB")}, {"threads=1": t1}


def measure_traced(wl, workloads, seconds: float, trace_file: Path):
    import layertrace as trace
    passes = Passes(wl, workloads)
    tracer = trace.Tracer()

    def traced(threads):
        tracer.reset()
        tracer.install()
        try:
            elapsed = passes.run(threads, f"traced threads={threads}")
        finally:
            tracer.uninstall()
        return elapsed, trace.per_layer_metrics(tracer), list(tracer.spans)

    def cycle():
        plain = passes.run(1, "threads=1")
        return plain, traced(1), traced(2)

    cycles = run_until(time.perf_counter() + seconds, cycle)
    plain = statistics.median(c[0] for c in cycles)
    with_trace = statistics.median(c[1][0] for c in cycles)
    overhead = with_trace / plain - 1.0
    metrics = {}
    for name in cycles[0][1][1]:
        side = 2 if name.startswith("rng.") else 1
        unit = trace.unit_of(name)
        middle = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (middle(c[side][1][name] for c in cycles), unit)
    print(f"passes: {len(cycles)} cycles of untraced threads=1, traced "
          f"threads=1 and traced threads=2")
    print(f"tracing overhead: {100.0 * overhead:+.2f}% (traced threads=1 pass "
          f"{with_trace:.4f} s vs untraced {plain:.4f} s, median of {len(cycles)})")

    def dump(spans):
        t0 = min((s.start for s in spans), default=0.0)
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "start_s": s.start - t0, "end_s": s.end - t0} for s in spans]

    trace_file.write_text(json.dumps({
        "overhead": overhead, "untraced_wall_s": plain, "traced_wall_s": with_trace,
        "per_pass": [{"threads=1": c[1][1], "threads=2": c[2][1]} for c in cycles],
        "spans_threads1": dump(cycles[0][1][2]),
        "spans_threads2": dump(cycles[0][2][2]),
    }, indent=1) + "\n")
    return passes, metrics, {"threads=1": [c[0] for c in cycles],
                             "traced threads=1": [c[1][0] for c in cycles],
                             "traced threads=2": [c[2][0] for c in cycles]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set up, warm up, print 'ready' and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.probe:
        workloads = import_program()
        workloads.WORKLOADS[args.workload](args.seed).warm_up()
        print("ready", flush=True)
        return 0

    workloads = import_program()
    setup = ([setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
             if not args.trace else [])
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.warm_up()

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        passes, metrics, pass_times = measure_traced(
            wl, workloads, args.seconds, OUT / f"trace-{stem}.json")
    else:
        passes, metrics, pass_times = measure(wl, workloads, args.seconds)
        metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}

    verdicts = wl.check(passes.first)
    errors = [f"{name}: {v}" for (name, _), v in zip(wl.ops, verdicts)
              if v not in (None, workloads.FAILED)] + passes.mismatches
    failed_ops = [name for (name, _), v in zip(wl.ops, verdicts)
                  if v == workloads.FAILED]
    for (name, _), v in zip(wl.ops, verdicts):
        print(f"check {name}: {'ok' if v is None else v}")
    for e in passes.mismatches:
        print(f"check {e}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")

    result = {
        "correct": not errors,
        "attempted": passes.count * len(wl.ops),
        "failed": passes.count * len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(
        {**result, "setup_probes_s": setup, "pass_times_s": pass_times,
         "failed_operations": failed_ops, "errors": errors}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
