"""Regenerate reference.json, the outputs the benchmark checks against.

    python3 perfbench/pin.py            # a few minutes on two cores

It pins the calibration kernel's time (see speed.py).  For each
simulation workload it runs REFERENCE_TRIALS trials of the
default seed through harness.estimate_error and pins the error counts,
the per-trial ape mean and spread, the count of trials in each stratum
(the weights of the stratified mean per-trial time) and the sha256 of
the per-trial CSV of the leading `prefix` trials.  For the partition
grid it pins the sha256 of partition_to_json for every cell.  Re-pin only
in a change that says why the outputs moved.
"""

import hashlib
import json
import statistics
import sys
from collections import Counter

import worker

REFERENCE_TRIALS = {"joint_n4096": 3000, "joint_n256": 20000, "ortho_l1024": 4000}


def pin_simulation(w: worker.Simulation) -> dict:
    cfg = w.cfg(0, trials=REFERENCE_TRIALS[w.name])
    records = worker.harness.estimate_error(cfg, threads=worker.NPROC).records
    apes = [r.stats.ape for r in records]
    return {
        "trials": len(records),
        "joint_errors": sum(r.stats.joint_error for r in records),
        "budget_aborts": sum(r.budget_abort for r in records),
        "ape_mean": statistics.fmean(apes),
        "ape_sd": statistics.stdev(apes),
        "strata": dict(sorted(Counter(w.stratum(r) for r in records).items())),
        "prefix_trials": w.prefix,
        "prefix_sha256": hashlib.sha256(worker.csv_bytes(records[: w.prefix])).hexdigest(),
    }


def pin_grid(w: worker.PartitionGrid) -> dict:
    digests = {}
    for cell in w.cells:
        _, ok, digest = worker.partition_op(cell)
        if not ok:
            raise SystemExit(f"partition {cell} fails verification; nothing pinned")
        digests[worker.cell_key(cell)] = digest
    return {"digests": digests}


def main() -> int:
    # the kernel time that defines "reference speed" for normalized times
    ref = {"calibration_s": statistics.median(worker.kernel_seconds() for _ in range(100))}
    for name, w in worker.WORKLOADS.items():
        print(f"pinning {name}", file=sys.stderr)
        ref[name] = pin_simulation(w) if isinstance(w, worker.Simulation) else pin_grid(w)
    worker.REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
