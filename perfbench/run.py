"""Closed-loop benchmark of wrearr: one client, one process, seeded inputs.

    python3 perfbench/run.py --workload spectral-blocks --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
request is issued only after the previous one returned.  After the timed
loop every output is checked against an independent numpy reference.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Times in the JSON line are rescaled to
a reference machine speed (see ``speed.py``); the summary above it also
prints them as measured.  A traced run measures half its time untraced and
half traced, and writes its spans to ``perfbench/out/``.
"""

import os
import sys
import time

import speed

# The machine's speed just before the imports, to rescale their time; the
# set-up time is counted from here.
PRE_IMPORT_FACTOR = speed.factor_now()
PROCESS_START = time.perf_counter()
# Set before numpy loads: the load stays single-threaded, and the library's
# default cross-route tolerance is the one measured.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("WREARR_TOLERANCE", None)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ["spectral-blocks", "orlicz-multipliers", "verify-suite"]
SETUP_REPEATS = 5
WORKLOAD_TIMEOUT_S = 170


@dataclasses.dataclass
class Record:
    request: object
    seconds: float
    output: object  # the request's result, or the exception it raised
    reference_seconds: float = 0.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def set_up(workloads, name, seed):
    """Build the seeded pool and warm up on its first request."""
    workload = workloads.WORKLOADS[name]
    pool = workload.build_pool(seed)
    attempt(workload, pool[0])
    return workload, pool


def attempt(workload, req):
    """One timed request, as a :class:`Record`."""
    t0 = time.perf_counter()
    try:
        out = workload.request(req.inputs, req.reference)
    except Exception as exc:  # counted as a failed request, never retried
        out = exc
    return Record(req, time.perf_counter() - t0, out)


def closed_loop(workload, pool, seconds, on_request=None):
    """Issue requests back to back, starting at the pool's first, until
    ``seconds`` have passed and a cycle is complete, so that every run
    measures the same mix.  The calibration kernel runs before each request."""
    records, kernel_times = [], []
    deadline = time.perf_counter() + seconds
    while True:
        kernel_times.append(speed.kernel_seconds())
        if on_request is not None:
            on_request(len(records))
        records.append(attempt(workload, pool[len(records) % len(pool)]))
        if len(records) % workload.cycle == 0 and time.perf_counter() >= deadline:
            break
    kernel_times.append(speed.kernel_seconds())
    for record, factor in zip(records, speed.factors(kernel_times, len(records))):
        record.reference_seconds = record.seconds * factor
    return records


def check_all(workloads, workload, records):
    """(accuracy digits of each correct request, failure messages)."""
    accuracy, failures = [], []
    for record in records:
        if isinstance(record.output, Exception):
            failures.append(f"{type(record.output).__name__}: {record.output}")
            continue
        try:
            accuracy.append(workload.check(record.request.reference, record.output))
        except workloads.CheckFailed as exc:
            failures.append(f"check failed: {exc}")
    return accuracy, failures


def measured_set_up(workloads, name, seed):
    """Set up ``SETUP_REPEATS`` times in this process and return the
    workload, its pool and the set-up seconds, as measured and at the
    reference speed.  The set-up time is the imports, timed once from process
    start, plus the median set-up; each part is rescaled by the calibration
    kernel runs on either side of it."""
    imports_s = time.perf_counter() - PROCESS_START
    factors, readings = [speed.factor_now()], []
    for _ in range(SETUP_REPEATS):
        pool = None  # one pool at a time, so peak memory is that of one
        t0 = time.perf_counter()
        workload, pool = set_up(workloads, name, seed)
        readings.append(time.perf_counter() - t0)
        factors.append(speed.factor_now())
    raw = imports_s + statistics.median(readings)
    reference = imports_s * (PRE_IMPORT_FACTOR + factors[0]) / 2 + statistics.median(
        seconds * (factors[i] + factors[i + 1]) / 2 for i, seconds in enumerate(readings))
    return workload, pool, (raw, reference)


def _latency_ms(records, field):
    import numpy as np

    p50, p90 = np.percentile([1e3 * getattr(r, field) for r in records], [50, 90])
    return float(p50), float(p90)


def end_to_end(records, accuracy, failures, setup):
    correct = len(records) - len(failures)
    p50, p90 = _latency_ms(records, "reference_seconds")
    raw_p50, raw_p90 = _latency_ms(records, "seconds")
    raw_rps = correct / sum(r.seconds for r in records)
    print(f"as measured: throughput {raw_rps:.4g}/s, latency p50 {raw_p50:.4g} ms, "
          f"p90 {raw_p90:.4g} ms, set-up {setup[0]:.4g} s")
    return {
        "throughput_rps": (correct / sum(r.reference_seconds for r in records), "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "accuracy_digits": (min(accuracy) if accuracy else 0.0, "digits"),
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workloads, workload, pool, seconds):
    """Half the time untraced, half traced; per-layer metrics from the spans."""
    import numpy as np

    import tracing

    plain = closed_loop(workload, pool, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced_workload = dataclasses.replace(
            workload, request=tracer.span(tracing.REQUEST, workload.request))

        def on_request(i):
            tracer.request_id = i

        traced = closed_loop(traced_workload, pool, seconds / 2, on_request)
    finally:
        tracer.uninstall()
    spans = tracer.arrays()
    OUT_DIR.mkdir(exist_ok=True)
    np.savez(OUT_DIR / f"spans-{workload.name}.npz", **spans)
    scale = [r.reference_seconds / r.seconds for r in traced]
    metrics = tracing.layer_metrics(spans, scale, tracer.n3_sum)
    # Both halves start at the pool's first request; compare them on the
    # requests both completed, so the request mix cancels out.
    common = min(len(plain), len(traced))
    plain_s = sum(r.reference_seconds for r in plain[:common])
    traced_s = sum(r.reference_seconds for r in traced[:common])
    metrics["trace.overhead"] = (plain_s / traced_s, "ratio")
    shares = tracing.self_time_shares(spans)
    print("self-time shares: " + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    return plain + traced, metrics


def run_one(args):
    sys.path.insert(0, str(SRC))
    import workloads

    if args.trace:
        workload, pool = set_up(workloads, args.workload, args.seed)
        records, metrics = traced_run(workloads, workload, pool, args.seconds)
        _, failures = check_all(workloads, workload, records)
    else:
        workload, pool, setup = measured_set_up(workloads, args.workload, args.seed)
        records = closed_loop(workload, pool, args.seconds)
        accuracy, failures = check_all(workloads, workload, records)
        metrics = end_to_end(records, accuracy, failures, setup)
    print("env: " + json.dumps(environment()))
    for message in failures[:5]:
        print(f"FAILED {message}")
    print(f"{args.workload}: attempted={len(records)} failed={len(failures)} "
          f"error_rate={len(failures) / len(records):.6g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so peak memory stays per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=WORKLOAD_TIMEOUT_S + 2 * args.seconds,
        )
        status = status or child.returncode
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wrearr" / "__init__.py").is_file():
        print(f"cannot find the library sources in {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
