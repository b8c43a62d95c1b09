"""cmreg benchmark: one workload per call, each in fresh interpreters.

    python3 perfbench/run.py --workload audit_sweep --seed 0 --seconds 25 --trace 0

Run from the repository root.  The workload runs in a child interpreter
(worker.py) with `src` on its path.  Set-up (interpreter start, `import
cmreg`, input generation) is timed from spawn to the child's READY line, in
SETUP_SAMPLES separate children, and reported as their median.  The last
stdout line is the result JSON; the lines before it name every metric with
its unit.  Exit status: 0 when every instance is correct, 1 when any failed,
2 when the benchmark could not run (no result line then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole call, set-up samples included
WORKLOADS = ("audit_sweep", "sections", "quotient_audit")
E2E_UNITS = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def _spawn(args, extra: list[str], deadline: float) -> tuple[float, str]:
    """Start one worker; return (seconds from spawn to READY, rest of stdout)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--limit", str(args.limit),
        *extra,
    ]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"worker failed (exit {code}) for {' '.join(extra) or 'the run'}")
    return setup, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="0 reproduces the acceptance boxes")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--limit", type=int, default=10**9, help="cap instances per pass (self-test)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cmreg" / "__init__.py").is_file():
        print(f"run.py: no cmreg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [_spawn(args, ["--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, rest = _spawn(args, [], deadline)
        result = json.loads(rest.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    setups.append(setup)

    if args.trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in result["per_layer"].items()}
    else:
        # times are scaled to the reference speed (see worker.Speedometer);
        # the measured values go to the diagnostics line
        raw = dict(result["end_to_end"], setup_s=statistics.median(setups))
        f = result["speed_factor"]
        values = {
            "instances_per_s": raw["instances_per_s"] * f,
            "latency_p50_ms": raw["latency_p50_ms"] / f,
            "latency_tail_ms": raw["latency_tail_ms"] / f,
            "setup_s": raw["setup_s"] / f,
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in E2E_UNITS}
        result["diagnostics"].update(speed_factor=f, measured=raw)
    correct = result["failed"] == 0
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print("diagnostics " + json.dumps(dict(result["diagnostics"], setup_samples_s=setups)))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
