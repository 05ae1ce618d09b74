#!/usr/bin/env python3
"""ntconsensus benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload design_batch --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src``.  The
workload is set up SETUP_REPEATS times (inputs drawn from ``--seed``, graph
files written, warm-up requests served), then requests are served back to
back for ``--seconds`` of wall time.  Every output is checked against the
independent oracle in ``oracle.py``; the checks and the drawing of inputs are
not timed.  Each human-readable line names a metric, its value and unit; the
last line is the JSON result.

Times are reported at reference machine speed: each request, each set-up
and the imports are scaled by the workload's calibration kernel run around
them (see ``calib.py``); the wall-clock figures are printed on the
human-readable lines.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` requests alternate in blocks of four between untraced and
traced (every public package function wrapped, see ``tracing.py``); the result
holds the per-layer metrics of the traced requests, in wall-clock time, and
the tracing overhead, the ratio of traced to untraced median latency.  Spans are saved under
``.perfbench-out/``.

BLAS and OpenMP run single-threaded (recorded on the output): with threaded
OpenBLAS the tail latency of the small design requests measures the
scheduler rather than the program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
TRACE_BLOCK = 4      # fixed_large cycles a pool of 4 networks; design_batch alternates V1 specs

END_TO_END = (
    ("setup_s", "s"),
    ("req_p50_ms", "ref_ms"),
    ("req_p90_ms", "ref_ms"),
    ("throughput_rps", "1/ref_s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def percentile(values, q):
    """Linear-interpolated q-th percentile (0-100)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def emit(name, value, unit):
    print(f"{name} {value:.6g} {unit}")


def serve(workload, seconds, tracer, cal):
    """Closed loop for ``seconds`` of wall time.  Returns one (latency,
    local calibration time, traced) triple per request and the number of
    failed requests."""
    samples, failed = [], 0
    k = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        req = workload.request(k)
        tracing = tracer is not None and (k // TRACE_BLOCK) % 2 == 1
        if tracing:
            tracer.install(k)
        before = cal.measure()
        t0 = perf_counter()
        try:
            result, error = workload.run(req), None
        except Exception as exc:  # a failed request is counted, not fatal
            result, error = None, exc
        dt = perf_counter() - t0
        after = cal.measure()
        if tracing:
            tracer.remove()
        samples.append((dt, (before + after) / 2.0, tracing))
        if error is None:
            try:
                workload.check(req, result)
            except Exception as exc:  # any oracle disagreement fails the request
                error = exc
        if error is not None:
            failed += 1
            if failed <= 3:
                print(f"request {k} failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
        k += 1
    return samples, failed


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ntconsensus" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(1, str(ROOT / "src"))

    t0 = perf_counter()
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import ntconsensus.cli  # noqa: F401
    import_s = perf_counter() - t0

    import calib
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cal = calib.Calibration(args.workload)
    import_ref = import_s * cal.reference_s / statistics.median(cal.measure() for _ in range(5))
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        setups, setups_ref = [], []
        for _ in range(SETUP_REPEATS):
            before = cal.measure()
            t0 = perf_counter()
            workload.setup()
            setups.append(perf_counter() - t0)
            setups_ref.append(setups[-1] * 2.0 * cal.reference_s / (before + cal.measure()))
        tracer = tracing.Tracer() if args.trace else None
        samples, failed = serve(workload, args.seconds, tracer, cal)

    attempted = len(samples)
    print(f"workload {args.workload} seed {args.seed} blas_threads {BLAS_THREADS} "
          f"requests {attempted} failed {failed}")
    raw = [dt for dt, _, traced in samples if not traced]
    ref = [dt * cal.reference_s / c for dt, c, traced in samples if not traced]
    cal_ms = statistics.median(c for _, c, _ in samples) * 1e3
    print(f"calibration median {cal_ms:.4g} ms, reference {cal.reference_s * 1e3:.4g} ms")
    if args.trace:
        ref_on = [dt * cal.reference_s / c for dt, c, traced in samples if traced]
        overhead = statistics.median(ref_on) / statistics.median(ref)
        metrics = tracer.metrics(len(ref_on), overhead)
        tracer.save(OUT / f"spans-{args.workload}.npz")
        print(f"traced {len(ref_on)} untraced {len(ref)} requests")
        units = dict(tracing.PER_LAYER)
    else:
        p90 = percentile(ref, 90)
        metrics = {
            "setup_s": import_ref + statistics.median(setups_ref),
            "req_p50_ms": percentile(ref, 50) * 1e3,
            "req_p90_ms": p90 * 1e3,
            "throughput_rps": len(ref) / sum(ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_ratio": 1.0 - failed / attempted,
        }
        print(f"wall clock setup: import {import_s:.4g} s, repeats "
              + ", ".join(f"{s:.4g}" for s in setups) + " s")
        print(f"samples {len(ref)}, {sum(1 for x in ref if x > p90)} beyond p90; "
              f"failed_ratio {failed / attempted:.6g}")
        print(f"wall clock: p50 {percentile(raw, 50) * 1e3:.4g} ms, "
              f"p90 {percentile(raw, 90) * 1e3:.4g} ms, "
              f"throughput {len(raw) / sum(raw):.4g} 1/s")
        units = dict(END_TO_END)
    for name, value in metrics.items():
        emit(name, value, units[name])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
