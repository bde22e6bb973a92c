#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, written as BENCH_<PR>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload partition_grid --seeds 101-110 --seconds 50 \\
        --label "what the change does" --out BENCH_10.json

For each seed, `perfbench/run.py --workload W --seed S --seconds T` runs
once in each checkout: the parent first on even pair indices, the change
first on odd ones, so a slow drift of the host does not favour one side.
Every run is a fresh process and is waited for before the next starts.

For each end-to-end metric that BENCHMARK.json (in the change checkout)
declares, the file records both sides' runs, medians and quartiles, how
many pairs the change won in the declared direction, whether the
medians differ by more than the parent's interquartile range, and
whether the change's median is within the declared `bound` (a fraction
of the parent's median) of being worse; each workload lists the metrics
outside their bound under `outside_bound`.  It also
records every run's `correct` flag and failed operations, and the
machine facts perfbench prints.  If OUT exists, the workloads measured
now are added to it, replacing any of the same name.  Uses the standard
library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    """'101-110' or '1,4,9' (or a mix) as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run: its final JSON line plus the machine facts it printed."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    for line in lines:
        if line.strip().startswith("machine:"):
            out["machine"] = json.loads(line.split("machine:", 1)[1])
    return out


def quartiles(xs: list[float]) -> list[float]:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q3]


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    pq = quartiles(parent)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    bound = metric["bound"]
    within = c_med <= p_med * (1 + bound) if lower else c_med >= p_med * (1 - bound)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "parent_median": p_med,
        "change_median": c_med,
        "change_over_parent": c_med / p_med if p_med else None,
        "parent_quartiles": pq,
        "change_quartiles": quartiles(change),
        "change_wins": wins,
        "median_gap_exceeds_parent_iqr": abs(c_med - p_med) > pq[1] - pq[0],
        "bound": bound,
        "within_bound": within,
        "parent_runs": parent,
        "change_runs": change,
    }


def bench_workload(parent: Path, change: Path, workload: str, seeds: list[int],
                   seconds: float, metrics: list[dict]) -> tuple[dict, dict]:
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(parent if side == "parent" else change, workload, seed, seconds)
            runs[side].append(out)
            wall = out["metrics"].get("wall_s", {}).get("value")
            print(f"{workload} seed {seed} {side}: wall_s {wall} correct {out['correct']} "
                  f"failed {out['failed']}", file=sys.stderr, flush=True)
    summaries = {
        m["name"]: summarize(
            m,
            [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
            [r["metrics"][m["name"]]["value"] for r in runs["change"]],
        )
        for m in metrics
    }
    entry = {
        "pairs": len(seeds),
        "seeds": seeds,
        "order": "parent first on even pair indices, change first on odd",
        "correct_runs": {side: sum(r["correct"] for r in rs) for side, rs in runs.items()},
        "failed_ops": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "outside_bound": [name for name, s in summaries.items() if not s["within_bound"]],
        "metrics": summaries,
    }
    return entry, runs["change"][-1].get("machine", {})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating parent/change perfbench pairs")
    ap.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True, action="append", help="repeat for several")
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 1,4,9")
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--label", default="", help="one line on what the change does")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = parse_seeds(args.seeds)

    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.setdefault("workloads", {})
    if args.label:
        report["change"] = args.label
    report["command"] = (f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g}"
                         " in each checkout, alternating (tools/bench_pairs.py)")
    for workload in args.workload:
        entry, machine = bench_workload(parent, change, workload, seeds, args.seconds, metrics)
        report["workloads"][workload] = entry
        report["machine"] = machine
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
