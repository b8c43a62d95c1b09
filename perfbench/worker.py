"""One workload in one fresh interpreter; started by run.py, not by hand.

Protocol on stdout: the line READY once the first pass's inputs exist (the
end of set-up), then, unless --setup-only, one JSON line with the run's
measurements.  Nothing else is written to stdout.

Untraced, the worker runs round(--seconds / pass_seconds) whole passes over
the workload's box (at least one), pass_seconds being the workload's nominal
pass time.  The work is thus fixed by the arguments, never by the speed of
the code, so two commits always time the same instances.  Traced, it runs
exactly one pass, so the work counters describe the seeded box itself.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import tracer as tracing
import workloads
from speed import Speedometer, reference_loop

DIGESTS = Path(__file__).with_name("digests.json")


def percentile_ms(ordered: list[float], pct: float) -> float:
    """Nearest-rank percentile of sorted seconds, in ms."""
    return 1000 * ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def run_pass(work, inputs, tracer=None, speed: Speedometer | None = None) -> dict:
    """Time every instance of one pass.  Caches start empty, as in a fresh
    process; exceptions are recorded per instance and the pass goes on.
    Probe time is taken out of each instance, and the pass's wall time is
    the sum of its instance times."""
    tracing.clear_caches()
    results, latencies = [], []
    with tracer or nullcontext(), speed or nullcontext():
        for inst in inputs.instances:
            probed = speed.spent if speed else 0.0
            ti = time.perf_counter()
            try:
                results.append(work.run(inst, inputs.state))
            except Exception:  # counted as a failed instance, the run goes on
                traceback.print_exc(file=sys.stderr)
                results.append(None)
            elapsed = time.perf_counter() - ti
            latencies.append(elapsed - ((speed.spent if speed else 0.0) - probed))
        caches = tracer.cache_deltas() if tracer else None
    return {"results": results, "latencies": latencies, "wall": sum(latencies), "caches": caches}


def check_pass(work, inputs, results, expected: list[str] | None) -> list[int]:
    """Indices of failed instances: an exception, a failed check, or an
    output whose digest differs from the stored one."""
    failed = []
    for k, (inst, report) in enumerate(zip(inputs.instances, results)):
        ok = report is not None and work.check(inst, report)
        if ok and expected is not None:
            ok = k < len(expected) and workloads.digest(work.output(report)) == expected[k]
        if not ok:
            failed.append(k)
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--limit", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    work = workloads.WORKLOADS[args.workload]
    inputs = work.make_pass(args.seed, 0, args.limit)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ref_start = reference_loop()
    # traced spans would count probe time, and per-layer times are not scaled
    tracer, speed = (tracing.Tracer(), None) if args.trace else (None, Speedometer())
    count = 1 if args.trace else max(1, round(args.seconds / work.pass_seconds))
    passes = []
    for pass_no in range(count):
        if pass_no:
            inputs = work.make_pass(args.seed, pass_no, args.limit)
        passes.append((inputs, run_pass(work, inputs, tracer, speed)))
    timed = sum(measured["wall"] for _, measured in passes)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ref_end = reference_loop()

    stored = json.loads(DIGESTS.read_text())[work.name] if args.seed == 0 else None
    failed = 0
    latencies = []
    slowest = (-1.0, 0, 0)
    for pass_no, (inputs, measured) in enumerate(passes):
        failed += len(check_pass(work, inputs, measured["results"], stored if pass_no == 0 else None))
        latencies += measured["latencies"]
        top = max(range(len(measured["latencies"])), key=measured["latencies"].__getitem__)
        if measured["latencies"][top] > slowest[0]:
            slowest = (measured["latencies"][top], pass_no, top)

    ordered = sorted(latencies)
    out = {
        "attempted": len(latencies),
        "failed": failed,
        "end_to_end": {
            "instances_per_s": len(latencies) / timed,
            "latency_p50_ms": 1000 * statistics.median(ordered),
            "latency_tail_ms": percentile_ms(ordered, work.tail_percentile),
            "peak_rss_mb": peak_rss_mb,
        },
        "diagnostics": {
            "workload": work.name,
            "seed": args.seed,
            "passes": len(passes),
            "timed_s": timed,
            "fail_ratio": failed / len(latencies),
            "tail_percentile": work.tail_percentile,
            "slowest": {
                "workload": work.name,
                "seed": args.seed,
                "pass": slowest[1],
                "index": slowest[2],
                "ms": 1000 * slowest[0],
            },
            "reference_loop": {
                "start_wall_s": ref_start[0],
                "start_cpu_s": ref_start[1],
                "end_wall_s": ref_end[0],
                "end_cpu_s": ref_end[1],
            },
        },
    }
    if speed is not None:
        out["speed_factor"] = speed.factor
        out["diagnostics"]["probes"] = len(speed.samples)
    if tracer is not None:
        measured = passes[0][1]
        cost = tracing.span_cost_s()
        overhead = tracer.span_count * cost
        layer = tracer.metrics(measured["caches"])
        layer["trace.spans"] = tracer.span_count
        layer["trace.wall_s"] = measured["wall"]
        layer["trace.overhead_pct"] = 100 * overhead / max(measured["wall"] - overhead, 1e-9)
        out["per_layer"] = layer
    print(json.dumps(out), flush=True)
    return 0


def record_digests() -> dict[str, list[str]]:
    """Digests of every exact output at seed 0, pass 0, for digests.json."""
    out = {}
    for name, work in workloads.WORKLOADS.items():
        inputs = work.make_pass(0, 0, 10**9)
        results = run_pass(work, inputs)["results"]
        if None in results or check_pass(work, inputs, results, None):
            raise SystemExit(f"{name}: refusing to record digests of failed instances")
        out[name] = [workloads.digest(work.output(r)) for r in results]
    return out


if __name__ == "__main__":
    if sys.argv[1:] == ["--record-digests"]:
        DIGESTS.write_text(json.dumps(record_digests(), indent=1) + "\n")
        sys.exit(0)
    sys.exit(main())
