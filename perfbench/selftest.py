"""Self-test of the benchmark at a tiny size (a few instances per workload).

    python3 perfbench/selftest.py

Checks that run.py prints every metric BENCHMARK.json names, with its unit,
traced and untraced; that a changed output fails the digest check; that the
tracer puts every original function back; and that the work counters repeat
exactly between two traced passes.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

LIMIT = 3


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_printed_metrics(spec: dict) -> None:
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, metrics in wanted.items():
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "0",
                   "--seconds", "0", "--trace", str(trace), "--limit", str(LIMIT)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
            label = f"{w['name']} --trace {trace}"
            require(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-500:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{label} not correct: {result['attempted']} attempted, {result['failed']} failed")
            printed = {ln.split()[0]: ln.split()[-1] for ln in lines[:-1] if not ln.startswith("diagnostics")}
            require(set(result["metrics"]) == {m["name"] for m in metrics}, f"{label} metric names")
            for m in metrics:
                got = result["metrics"][m["name"]]
                require(got["unit"] == m["unit"] and printed.get(m["name"]) == m["unit"],
                        f"{label} unit of {m['name']}")
                require(isinstance(got["value"], (int, float)), f"{label} value of {m['name']}")


def check_digest_detects_change() -> None:
    stored = json.loads(worker.DIGESTS.read_text())
    tamper = {
        "audit_sweep": lambda r: r.computed.__setitem__("regularity", r.computed["regularity"] + 1),
        "sections": lambda r: setattr(r, "mu_star", r.mu_star + 1),
        "quotient_audit": lambda r: r.computed.__setitem__("multiplicity", r.computed["multiplicity"] + 1),
    }
    for name, work in workloads.WORKLOADS.items():
        inputs = work.make_pass(0, 0, LIMIT)
        results = worker.run_pass(work, inputs)["results"]
        require(worker.check_pass(work, inputs, results, stored[name]) == [], f"{name} digests match")
        tamper[name](results[0])
        failed = worker.check_pass(work, inputs, results, stored[name])
        require(failed == [0], f"{name}: a changed output must fail the digest check, got {failed}")


def _namespaces() -> dict[tuple[str, str], object]:
    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if name == "cmreg" or name.startswith("cmreg.")
        for attr, val in vars(mod).items()
        if callable(val)
    }


def check_tracer_restores() -> None:
    before = _namespaces()
    t = tracing.Tracer()
    with t:
        during = _namespaces()
        patched = {k for k in before if during[k] is not before[k]}
        # `from .groebner import ...` copies must be patched, not just the home module
        for key in [("cmreg.groebner", "syzygies_of"), ("cmreg.modops", "syzygies_of"),
                    ("cmreg.invariants", "minimalize_resolution"), ("cmreg.verify", "ring_invariants"),
                    ("cmreg.verify", "main_bound")]:
            require(key in patched, f"tracer did not patch {key}")
    after = _namespaces()
    require(all(after[k] is before[k] for k in before), "tracer left a wrapper behind")


def check_counters_repeat() -> None:
    seen = []
    for _ in range(2):
        counts = {}
        for name in ("sections", "quotient_audit"):
            work = workloads.WORKLOADS[name]
            t = tracing.Tracer()
            measured = worker.run_pass(work, work.make_pass(0, 0, LIMIT), t)
            layer = t.metrics(measured["caches"])
            counts[name] = {k: v for k, v in layer.items() if not k.endswith("_s")}
        seen.append(counts)
    require(seen[0] == seen[1], "work counters differ between two traced passes")
    require(seen[0]["sections"]["modops.h0_profile.rounds"] > 0, "h0_profile rounds not counted")
    require(seen[0]["quotient_audit"]["cli.parse_file.calls"] == LIMIT, "parse_file calls not counted")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_tracer_restores()
    check_digest_detects_change()
    check_counters_repeat()
    check_printed_metrics(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
