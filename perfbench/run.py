#!/usr/bin/env python3
"""The manyaccess benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload joint_n4096 --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

Run from anywhere; the package is taken from src/ next to this
directory.  With --trace 0 the last stdout line carries the end-to-end
metrics, with --trace 1 the per-layer ones from a traced run.  Lines
before it list every metric with its unit and sample count, the
correctness checks and the machine facts.  The exit code is 0 when a
result was printed, whether or not its checks passed ("correct").

set-up time is the median over fresh interpreters: SETUP_PROBES that
stop after their first operation, plus the measuring one.  Everything
this script starts is waited for before it exits.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("joint_n4096", "joint_n256", "ortho_l1024", "partition_grid")
SETUP_PROBES = 2
# a run must end within 180 s; no single child may use more than this
CHILD_TIMEOUT_S = 170


class RunError(Exception):
    pass


def spawn(args: list[str]) -> dict:
    """Run the worker in a fresh interpreter; return its last stdout line as JSON."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(WORKER), *args, "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise RunError(f"worker timed out after {CHILD_TIMEOUT_S} s: {' '.join(args)}") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    common = ["--workload", name, "--seed", str(seed)]
    probes = [] if trace else [spawn([*common, "--setup-only"]) for _ in range(SETUP_PROBES)]
    out = spawn([*common, "--seconds", str(seconds), "--trace", str(trace)])
    if not trace:
        setups = [*probes, out]
        raw = statistics.median(p["setup_raw_s"] for p in setups)
        out["metrics"]["setup_s"] = {
            "value": statistics.median(p["setup_s"] for p in setups),
            "unit": "s",
            "samples": f"median of {len(setups)} fresh processes (raw {raw:.4g} s)",
        }
    return out


def print_details(name: str, out: dict) -> None:
    print(f"== {name}  attempted={out['attempted']} failed={out['failed']}")
    for metric, m in sorted(out["metrics"].items()):
        print(f"  {metric:<38} {m['value']:>14.6g} {m['unit']:<6} {m.get('samples', '')}")
    # reported but not gated: zero on most workloads, and any change in
    # the abort rate already fails the budget_aborts check
    for metric, m in out.get("reported", {}).items():
        print(f"  {metric:<38} {m['value']:>14.6g} {m['unit']:<6} {m['samples']} (reported only)")
    for key, value in out.get("details", {}).items():
        print(f"  {key}: {json.dumps(value)}")
    for check, result in out["checks"].items():
        status = {True: "ok", False: "FAILED"}[result["ok"]] if "ok" in result else \
            f"flag={result['flag']}"
        extra = {k: v for k, v in result.items() if k not in ("ok", "flag")}
        print(f"  check {check}: {status} {json.dumps(extra)}")
    for err in out.get("errors", []):
        print(f"  error: {err}")
    print(f"  machine: {json.dumps(out['machine'])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="manyaccess benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "manyaccess" / "__init__.py").is_file():
        print(f"perfbench: no manyaccess package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    except RunError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    metrics = {}
    for name, out in results.items():
        print_details(name, out)
        prefix = "" if len(results) == 1 else f"{name}."
        for metric, m in out["metrics"].items():
            metrics[prefix + metric] = {"value": m["value"], "unit": m["unit"]}
    checks = [c["ok"] for out in results.values() for c in out["checks"].values() if "ok" in c]
    print(json.dumps({
        "correct": all(checks),
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": sum(out["failed"] for out in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
