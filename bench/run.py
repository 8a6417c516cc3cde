"""branelab benchmark runner.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``, ``pass_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones from the
outside-in tracer, and the spans are written to ``.bench_out/``.

``--workload all`` runs every workload, untraced and traced, each in its
own process, and prints every metric by name with its unit and sample
count, then the per-layer -> end-to-end -> workload map.

Closed loop, one client: the operations of a pass are issued back to back
from one single-threaded process.  A warm-up pass runs first and is not
timed.  Passes then repeat until the next one would end after ``--seconds``
(at least ``MIN_PASSES``).  Every result is checked; a failing or raising
operation is counted, never fatal.

Times are normalized to a fixed machine speed (see ``speed.py``): the
reference kernel runs before the first operation and after each one,
outside the timed operations, and a pass's wall time is scaled by
``REFERENCE_S`` over the median kernel time of that pass.  The ``detail``
line also gives the raw wall-time medians.
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

# jet_matinv calls batched np.linalg.inv; one BLAS/OpenMP thread keeps runs
# comparable.  Pinned before numpy loads, here and in every child process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import metrics  # noqa: E402
import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(metrics.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


class Tally:
    """Operations attempted and failed; the first few failures by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, name, error):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{name}: {error}")


class Pass:
    """One pass over the operations: their wall time, the median
    reference-kernel time around them, and the repr of each result."""

    def __init__(self, ops, tally):
        done, self.results, kernel = {}, [], [speed.kernel_seconds()]
        self.wall_s = 0.0
        for op in ops:
            start = time.perf_counter()
            try:
                value = op.call()
                error = op.check(value, done)
            except Exception as ex:  # counted as a failed operation
                value, error = None, f"{type(ex).__name__}: {ex}"
            self.wall_s += time.perf_counter() - start
            kernel.append(speed.kernel_seconds())
            done[op.name] = value
            self.results.append(repr(value))
            tally.record(op.name, error)
        self.kernel_s = statistics.median(kernel)

    @property
    def normalized_s(self):
        return self.wall_s * speed.REFERENCE_S / self.kernel_s


def _setup_samples(workload, seed):
    """``import branelab`` plus input building, each in a fresh process:
    (wall seconds, reference-kernel seconds) per probe."""
    probe = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        samples.append(tuple(float(x) for x in done.stdout.split()[-2:]))
    return samples


def _untraced(ops, tally, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(Pass(ops, tally))
        elapsed = time.perf_counter() - start
        if (len(passes) >= MIN_PASSES
                and elapsed * (1 + 1 / len(passes)) > seconds):
            return passes


def _traced(ops, tally, seconds, reference, spans_path):
    """Pairs of one untraced and one traced pass, alternating which runs
    first; per-layer medians over the traced passes.  Each traced pass is
    also a self-test of the tracer: its results must be bit-identical to the
    warm-up pass and every patched name must be bound to its original
    object afterwards."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, per_pass = [], [], []

    def untraced_pass():
        run = Pass(ops, tally)
        plain.append(run.normalized_s)
        tally.record("untraced-results", None if run.results == reference
                     else "results differ from the warm-up pass")

    def traced_pass():
        try:
            tracer.install()
            tracer.reset_maxima()
            before = tracer.snapshot()
            run = Pass(ops, tally)
            after = tracer.snapshot()
        finally:
            tracer.uninstall()
        traced.append(run.normalized_s)
        per_pass.append(metrics.layer_values(before, after, tracer.maxima,
                                             run.wall_s))
        left = tracer.leftovers()
        tally.record("tracer-self-test",
                     f"still patched: {left}" if left
                     else None if run.results == reference
                     else "traced results differ from untraced ones")

    start = time.perf_counter()
    while True:
        pair = (untraced_pass, traced_pass)
        for step in pair if len(traced) % 2 == 0 else reversed(pair):
            step()
        elapsed = time.perf_counter() - start
        if len(traced) >= MIN_PASSES and elapsed * (1 + 1 / len(traced)) > seconds:
            break
    values = {name: statistics.median(p[name] for p in per_pass)
              for name in per_pass[0]}
    values["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
    OUT.mkdir(exist_ok=True)
    tracer.write(spans_path, {"passes": len(traced), "metrics": values})
    return values, len(traced)


def run_workload(args):
    setup = [] if args.trace else _setup_samples(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    import workloads

    ops = workloads.build(args.workload, args.seed)
    tally = Tally()
    reference = Pass(ops, tally).results        # warm-up, not timed
    if args.trace:
        spans = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        values, samples = _traced(ops, tally, args.seconds, reference, spans)
        detail = {"traced_passes": samples, "spans": str(spans.relative_to(ROOT))}
    else:
        passes = _untraced(ops, tally, args.seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": statistics.median(wall * speed.REFERENCE_S / kernel
                                               for wall, kernel in setup),
                  "pass_s": statistics.median(p.normalized_s for p in passes),
                  "peak_rss_mb": peak}
        detail = {"pass_samples": len(passes), "setup_samples": len(setup),
                  "pass_wall_s": statistics.median(p.wall_s for p in passes),
                  "setup_wall_s": statistics.median(wall for wall, _k in setup),
                  "kernel_s": statistics.median(p.kernel_s for p in passes)}
    detail["ops_failed_frac"] = tally.failed / tally.attempted
    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    print("detail " + json.dumps(detail))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": metrics.unit_of(name)}
                    for name, value in values.items()},
    }


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in metrics.WORKLOADS:
        entry = report["workloads"][workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                  timeout=CHILD_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            detail = json.loads(lines[-2].removeprefix("detail "))
            result = json.loads(lines[-1])
            entry["traced" if trace else "untraced"] = dict(result, detail=detail)
            print(f"{workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"ops_failed_frac={detail['ops_failed_frac']:.4g} "
                  + " ".join(f"{k}={v}" for k, v in detail.items()
                             if k != "ops_failed_frac"))
            for name, m in result["metrics"].items():
                print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    report["map"] = {name: {"moves": spec[3], "on": spec[4]}
                     for name, spec in metrics.LAYER_METRICS.items()}
    print("per-layer metric -> end-to-end metric on workloads:")
    for name, spec in metrics.LAYER_METRICS.items():
        print(f"  {name:42s} -> {spec[3]} on {', '.join(spec[4])}")
    return report


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "branelab" / "__init__.py").is_file():
        print(f"error: no branelab sources under {SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
