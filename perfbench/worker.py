"""Runs one benchmark workload against the checkout's manyaccess sources.

run.py starts this script in a fresh interpreter, so the time from the
spawn to the end of the first operation is the set-up a user pays:
interpreter start, imports, config and schedule build, and lazy caches
such as detection._candidate_matrix.  The last stdout line is one JSON
object with metrics, checks and machine facts.

The library is used as a library: operations are calls into its public
functions, timed from here with one clock pair per call, and nothing in
src/ is edited.  End-to-end times are normalized for host speed (see
speed.py).  A traced run instruments the library from outside (see
spans.py) and restores it afterwards.
"""

import argparse
import collections
import ctypes
import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from manyaccess import channel, decoding, detection, harness, partition  # noqa: E402

import stats  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import Speed, kernel_seconds  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
NPROC = os.cpu_count() or 1
# `simulate` run size behind wall_s of a simulation point (criterion 11 runs 1000 trials)
SIMULATE_TRIALS = 1000
# share of a traced run spent on the untraced pass that the traced pass repeats
UNTRACED_SHARE = 0.45
# seconds of trials, at the untraced rate, behind harness.thread_speedup
THREAD_SECONDS = 3.0

END_TO_END = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_tail": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.self_ms_per_trial": "ms",
    "harness.thread_speedup": "ratio",
    "rng.ms_per_trial": "ms",
    "model.sample_messages_ms_per_trial": "ms",
    "model.schedule_ms_per_trial": "ms",
    "codebooks.gen_ms_per_trial": "ms",
    "codebooks.words_per_trial": "count",
    "codebooks.distinct_book_ratio": "ratio",
    "channel.plan_self_ms_per_trial": "ms",
    "channel.transmit_ms_per_trial": "ms",
    "channel.awgn_ms_per_trial": "ms",
    "detection.ls_ms_per_call": "ms",
    "detection.ls_candidates_per_call": "count",
    "detection.exact_support_ratio": "ratio",
    "detection.pilot_calls_per_trial": "count",
    "decoding.joint_ml_ms_per_call": "ms",
    "decoding.joint_ml_ms_tail": "ms",
    "decoding.joint_ml_tuples_per_call": "count",
    "decoding.budget_aborts": "count",
    "decoding.ppm_calls_per_trial": "count",
    "decoding.receive_self_ms_per_trial": "ms",
    "decoding.score_ms_per_trial": "ms",
    "decoding.user_success_ratio": "ratio",
    "bounds.analytic_budget_ms": "ms",
    "partition.enumerate_s": "s",
    "partition.greedy_code_s": "s",
    "partition.build_self_s": "s",
    "partition.verify_s": "s",
    "partition.members": "count",
    "partition.pairs_checked": "count",
    "trace.overhead_share": "ratio",
}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Simulation:
    """Monte Carlo trials at one fixed point, run as `simulate` runs them.

    The run's master seed is base_seed + --seed, so the default seed 0
    reproduces the published master seed.  Joint-scheme trial cost is
    set by the detected-user count k (the decoder scores M^k tuples), so
    the mean per-trial time is stratified by it.
    """

    name: str
    config: dict  # the documented `simulate` JSON schema, without master_seed
    base_seed: int
    M: int  # expected message count, checked against the built config
    tail_pct: float  # pinned tail percentile, at least 10 trials beyond at this commit
    prefix: int  # leading trials of the default seed whose CSV digest is pinned

    def cfg(self, seed: int, trials: int = 1) -> harness.ExperimentConfig:
        cfg = harness.config_from_dict(
            {**self.config, "master_seed": self.base_seed + seed, "trials": trials}
        )
        if cfg.M != self.M:
            raise RuntimeError(f"{self.name}: config gives M = {cfg.M}, expected {self.M}")
        return cfg

    def stratum(self, rec) -> str:
        if self.config["scheme"] != "joint":
            return "all"
        return "abort" if rec.budget_abort else f"k{rec.d_hat_weight}"

    def outcome(self, rec) -> tuple[str, bool, bool, float]:
        """What the metrics and checks need of a trial, small enough to keep
        for every trial without the run's memory growing with its length."""
        return self.stratum(rec), rec.stats.joint_error, rec.budget_abort, rec.stats.ape


@dataclasses.dataclass(frozen=True)
class PartitionGrid:
    """Build and verify every (ell, M, t) type-class partition of a grid.

    The grid has no random input, so the seed is not used.  Passes run
    the cells in one fixed order, so every cell follows the same
    neighbour, whose leftover garbage and cache state it inherits, in
    every run.  wall_s sums each cell's mean time, so a run may end
    inside a pass.
    """

    name: str
    cells: tuple
    tail_pct: float


WORKLOADS = {
    w.name: w
    for w in (
        Simulation(
            name="joint_n4096",
            config={"scheme": "joint", "n": 4096, "ell": 16, "alpha": 2 / 16, "N0": 2.0,
                    "b": 0.5, "M": 10, "xi": 8},
            base_seed=1113, M=10, tail_pct=95.0, prefix=25,
        ),
        Simulation(
            name="joint_n256",
            config={"scheme": "joint", "n": 256, "ell": 7, "alpha": 2 / 7, "N0": 2.0,
                    "b": 0.5, "M": 3, "xi": 8},
            # p99.9 of 0.5 ms trials tracks host jitter, not the program
            base_seed=1111, M=3, tail_pct=99.0, prefix=200,
        ),
        Simulation(
            name="ortho_l1024",
            config={"scheme": "ortho", "n": 65536, "ell": 1024, "alpha": 0.05, "N0": 2.0,
                    "t": 0.5, "R_dot_nats": 0.125},
            base_seed=77, M=11, tail_pct=99.0, prefix=100,
        ),
        PartitionGrid(
            name="partition_grid",
            # criterion 08 without its (ell=8, M=3) row, which alone takes most of its time
            cells=tuple(
                (ell, M, t)
                for ell in range(5, 9)
                for M in (2, 3)
                if (ell, M) != (8, 3)
                for t in range(1, ell + 1)
            ),
            tail_pct=75.0,
        ),
    )
}


def cell_key(cell) -> str:
    return ",".join(map(str, cell))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def timed_trials(cfg, seconds: float | None = None, count: int | None = None, keep=None,
                 speed: Speed | None = None):
    """Trials 0, 1, ... until `seconds` pass or `count` are done.

    Returns ((start, seconds) per trial, records or keep(record), errors);
    a trial that raises counts as failed and has no record or time.
    `speed`, if given, is ticked between trials.
    """
    times, records, errors = [], [], []
    deadline = time.perf_counter() + seconds if seconds is not None else math.inf
    for i in itertools.count() if count is None else range(count):
        if speed is not None:
            speed.tick()
        if time.perf_counter() >= deadline:
            break
        t0 = time.perf_counter()
        try:
            rec = harness.run_trial(cfg, i)
        except Exception:
            errors.append(f"trial {i}: {traceback.format_exc(limit=3)}")
            continue
        times.append((t0, time.perf_counter() - t0))
        records.append(rec if keep is None else keep(rec))
    return times, records, errors


def partition_op(cell) -> tuple[float, bool, str]:
    """Build and verify one partition: (seconds, report.ok, sha256 of its JSON)."""
    ell, M, t = cell
    t0 = time.perf_counter()
    p = partition.build_partition(ell, M, t)
    report = partition.verify_partition(p, ell)
    elapsed = time.perf_counter() - t0
    digest = hashlib.sha256(partition.partition_to_json(p, report).encode()).hexdigest()
    return elapsed, report.ok, digest


def grid_pass(cells, samples: dict, deadline: float = math.inf, speed: Speed | None = None):
    """Run cells in order into samples[cell] as (start, seconds); stop
    early once past the deadline with every cell measured.  A cell that
    raises gets the sample None.  Returns (ok flags, digests, errors)."""
    oks, digests, errors = {}, {}, []
    for cell in cells:
        if speed is not None:
            speed.tick()
        if time.perf_counter() >= deadline and all(samples.values()):
            break
        t0 = time.perf_counter()
        try:
            elapsed, ok, digest = partition_op(cell)
        except Exception:
            errors.append(f"cell {cell}: {traceback.format_exc(limit=3)}")
            samples[cell].append(None)
            continue
        samples[cell].append((t0, elapsed))
        oks[cell] = ok
        digests[cell] = digest
    return oks, digests, errors


def warm_up(w) -> None:
    """The first operation, fixed per workload so set-up time does not depend on the seed."""
    if isinstance(w, Simulation):
        harness.run_trial(w.cfg(0), 0)
    else:
        partition_op(w.cells[0])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def csv_bytes(records) -> bytes:
    """The per-trial CSV `simulate --trials-csv` writes for these records."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trials-{os.getpid()}.csv"
    try:
        harness.write_trials_csv(path, tuple(records))
        return path.read_bytes()
    finally:
        path.unlink(missing_ok=True)


def rate_check(hits: int, n: int, ref_hits: int, ref_n: int) -> dict:
    run = harness.wilson_interval(hits, n, stats.Z_CHECK)
    ref = harness.wilson_interval(ref_hits, ref_n, stats.Z_CHECK)
    return {"ok": stats.overlap(run, ref), "run": [hits, n, *run], "ref": [ref_hits, ref_n, *ref]}


def simulation_checks(w: Simulation, ref: dict, outcomes) -> dict:
    """Error rates against the pinned reference, and the byte-identity flag."""
    n = len(outcomes)
    apes = [o[3] for o in outcomes]
    ape_mean = statistics.fmean(apes)
    ape_sd = statistics.stdev(apes) if n > 1 else math.inf
    run_ape = stats.mean_interval(ape_mean, ape_sd, n)
    ref_ape = stats.mean_interval(ref["ape_mean"], ref["ape_sd"], ref["trials"])
    prefix = harness.estimate_error(w.cfg(0, trials=w.prefix))
    digest = hashlib.sha256(csv_bytes(prefix.records)).hexdigest()
    return {
        "joint_err": rate_check(sum(o[1] for o in outcomes), n,
                                ref["joint_errors"], ref["trials"]),
        "budget_aborts": rate_check(sum(o[2] for o in outcomes), n,
                                    ref["budget_aborts"], ref["trials"]),
        "ape": {"ok": stats.overlap(run_ape, ref_ape), "run": [ape_mean, n, *run_ape],
                "ref": [ref["ape_mean"], ref["trials"], *ref_ape]},
        # a flag, not a gate: a change may alter the CSVs if it says why
        "outputs_identical": {"flag": digest == ref["prefix_sha256"], "trials": w.prefix},
    }


def grid_checks(w: PartitionGrid, ref: dict, oks: dict, digests: dict) -> dict:
    bad_ok = [cell_key(c) for c, ok in oks.items() if not ok]
    bad_digest = [cell_key(c) for c, d in digests.items() if d != ref["digests"][cell_key(c)]]
    return {
        "reports_ok": {"ok": not bad_ok, "failed_cells": bad_ok},
        "digests": {"ok": not bad_digest and len(digests) == len(w.cells),
                    "mismatched_cells": bad_digest, "cells": len(digests)},
    }


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(name: str, value, samples: str) -> dict:
    return {"value": value, "unit": END_TO_END[name], "samples": samples}


def stratified(w, spans, keys, weights, unit_name: str, speed: Speed) -> tuple[dict, dict, float]:
    """Timing metrics, details and mean ms of one run from its (start, seconds) spans.

    keys[i] is the stratum of spans[i].  Times are normalized by `speed`;
    the raw mean goes with the details.
    """
    strata: dict = {}
    for (start, t), key in zip(spans, keys):
        strata.setdefault(key, []).append(1000.0 * speed.factor(start, t) * t)
    mean_ms, missing = stats.stratified_mean(strata, weights)
    pct, tail_ms, beyond = stats.tail(strata, weights, w.tail_pct)
    n = len(spans)
    raw_ms = 1000.0 * sum(t for _, t in spans) / n
    count = f"{n} {unit_name}"
    metrics = {
        "trials_per_s": metric("trials_per_s", 1000.0 / mean_ms,
                               f"{count}, mean over {len(strata)} strata"),
        "trial_ms_p50": metric("trial_ms_p50", stats.quantile(strata, weights, 50)[0], count),
        "trial_ms_tail": metric("trial_ms_tail", tail_ms, f"p{pct:g} of {count}, {beyond} beyond"),
    }
    details = {
        "speed_factor": speed.median_factor(),
        "raw_ms_mean": raw_ms,
        "strata_missing": [str(s) for s in missing],
    }
    return metrics, details, mean_ms


def measure_simulation(w: Simulation, ref: dict, seed: int, seconds: float, speed: Speed) -> dict:
    times, outcomes, errors = timed_trials(w.cfg(seed), seconds=seconds, keep=w.outcome,
                                           speed=speed)
    rss = peak_rss_mb()
    metrics, details, mean_ms = stratified(w, times, [o[0] for o in outcomes], ref["strata"],
                                           "trials", speed)
    aborts = sum(o[2] for o in outcomes)
    attempted = len(outcomes) + len(errors)
    metrics["wall_s"] = metric("wall_s", SIMULATE_TRIALS * mean_ms / 1000.0,
                               f"{SIMULATE_TRIALS}-trial simulate at the mean cost per trial")
    metrics["peak_rss_mb"] = metric("peak_rss_mb", rss, "ru_maxrss of the worker")
    details["strata_trials"] = dict(sorted(collections.Counter(o[0] for o in outcomes).items()))
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "metrics": metrics,
        "reported": {
            "failed_share": {"value": (aborts + len(errors)) / attempted, "unit": "ratio",
                             "samples": f"{aborts} budget aborts + {len(errors)} exceptions "
                                        f"of {attempted} trials"},
        },
        "details": details,
        "checks": simulation_checks(w, ref, outcomes),
    }


def measure_grid(w: PartitionGrid, ref: dict, seconds: float, speed: Speed) -> dict:
    samples = {cell: [] for cell in w.cells}
    oks, digests, errors = {}, {}, []
    deadline = time.perf_counter() + seconds
    passes = 0
    while time.perf_counter() < deadline or not all(samples.values()):
        o, d, e = grid_pass(w.cells, samples, deadline, speed)
        passes += 1
        for cell, ok in o.items():
            oks[cell] = oks.get(cell, True) and ok
        for cell, digest in d.items():
            if digests.setdefault(cell, digest) != digest:
                e.append(f"cell {cell}: output differs between passes")
        errors += e
    rss = peak_rss_mb()
    pairs = [(span, cell) for cell, spans in samples.items() for span in spans if span is not None]
    metrics, details, mean_ms = stratified(
        w, [p[0] for p in pairs], [p[1] for p in pairs], dict.fromkeys(w.cells, 1),
        f"build+verify ops in {passes} passes", speed)
    attempted = len(pairs) + len(errors)
    metrics["wall_s"] = metric("wall_s", len(w.cells) * mean_ms / 1000.0,
                               f"sum over {len(w.cells)} cells of each cell's mean")
    metrics["peak_rss_mb"] = metric("peak_rss_mb", rss, "ru_maxrss of the worker")
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:5],
        "metrics": metrics,
        "reported": {
            "failed_share": {"value": len(errors) / attempted, "unit": "ratio",
                             "samples": f"{len(errors)} failed of {attempted} ops"},
        },
        "details": details,
        "checks": grid_checks(w, ref, oks, digests),
    }


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------

def _note_truth(tr, args, msgs):
    tr.state["d_true"] = np.asarray(msgs) != 0


def _note_detection(tr, args, det):
    S, v = args[1], args[2]
    tr.add("detection.candidates", detection.candidate_count(S.ell, v))
    tr.add("detection.exact", int(np.array_equal(det.d_hat != 0, tr.state["d_true"])))


def _note_tuples(tr, args, decoded):
    tr.add("decoding.tuples", args[1].M ** len(args[2]))


def _note_book(tr, args, book):
    # the first 16 coordinates of every word tell random books apart
    # and recognise a rebuilt deterministic one
    fingerprint = hashlib.blake2b(
        repr(book.words.shape).encode() + book.words[:, :16].tobytes(), digest_size=16
    ).digest()
    tr.state.setdefault("books", set()).add(fingerprint)
    tr.add("codebooks.books")
    tr.add("codebooks.words", book.M)


def _note_signatures(tr, args, sigs):
    tr.add("codebooks.words", sigs.ell)


def _note_users(tr, args, _stats):
    w_true, w_hat = np.asarray(args[0]), np.asarray(args[1])
    decoded = w_hat != 0
    tr.add("decoding.users_decoded", int(decoded.sum()))
    tr.add("decoding.users_correct", int((decoded & (w_hat == w_true)).sum()))


def _note_partition(tr, args, p):
    tr.add("partition.members", sum(len(cell) for cell in p.sets))
    tr.add("partition.pairs", sum(math.comb(len(cell), 2) for cell in p.sets)
           + math.comb(len(p.centers), 2))


def instrument(tr: Tracer) -> None:
    """Span every layer boundary, patched where the caller looks it up."""
    h = harness
    tr.span(h, "run_trial", "harness.run_trial", trial_root=True)
    for attr in ("mix_seed", "make_rng"):
        tr.span(h, attr, "rng")
    tr.span(h, "sample_messages", "model.sample_messages", on_return=_note_truth)
    for attr in ("make_joint_schedule", "make_ortho_schedule"):
        tr.span(h, attr, "model.schedule")
    for attr in ("make_joint_plan", "make_ortho_plan"):
        tr.span(h, attr, "channel.plan")
    for attr in ("transmit_joint", "transmit_ortho"):
        tr.span(h, attr, "channel.transmit")
    tr.span(h, "awgn", "channel.awgn")
    for attr in ("two_phase_receive", "ortho_receive"):
        tr.span(h, attr, "decoding.receive")
    tr.span(h, "detection_stats", "decoding.score")
    tr.span(h, "score_errors", "decoding.score", on_return=_note_users)
    tr.span(h, "analytic_budget", "bounds.analytic_budget")
    tr.span(channel, "gen_signatures", "codebooks.gen", on_return=_note_signatures)
    for attr in ("gen_codebook", "gen_ppm_codebook"):
        tr.span(channel, attr, "codebooks.gen", on_return=_note_book)
    tr.span(decoding, "detect_ls_exhaustive", "detection.ls", on_return=_note_detection)
    tr.span(decoding, "decode_joint_ml", "decoding.joint_ml", on_return=_note_tuples)
    tr.counter(decoding, "detect_pilot", "detection.pilot")
    tr.counter(decoding, "decode_ppm", "decoding.ppm")
    # partition.hamming is per element: its pairs are computed from cell sizes
    tr.span(partition, "build_partition", "partition.build", on_return=_note_partition)
    tr.span(partition, "verify_partition", "partition.verify")
    tr.span(partition, "enumerate_type_class", "partition.enumerate")
    tr.span(partition, "greedy_min_dist_code", "partition.greedy_code")


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, trials: int, grids: int) -> dict:
    """Every PER_LAYER metric from one traced pass; a layer the workload
    never calls reads 0."""
    s = tr.summary()
    c = tr.counts

    def total(name, key="total"):
        return s[name][key] if name in s else 0.0

    def calls(name):
        return s[name]["calls"] if name in s else 0

    def ms_per_trial(name, key="total"):
        return ratio(1000.0 * total(name, key), trials)

    def per_grid(name, key="total"):
        return ratio(total(name, key), grids)

    decode_ms = [1000.0 * d for d in s.get("decoding.joint_ml", {}).get("durations", [])]
    return {
        "harness.self_ms_per_trial": ms_per_trial("harness.run_trial", "self"),
        "rng.ms_per_trial": ms_per_trial("rng"),
        "model.sample_messages_ms_per_trial": ms_per_trial("model.sample_messages"),
        "model.schedule_ms_per_trial": ms_per_trial("model.schedule"),
        "codebooks.gen_ms_per_trial": ms_per_trial("codebooks.gen"),
        "codebooks.words_per_trial": ratio(c.get("codebooks.words", 0), trials),
        "codebooks.distinct_book_ratio": ratio(len(tr.state.get("books", ())),
                                               c.get("codebooks.books", 0)),
        "channel.plan_self_ms_per_trial": ms_per_trial("channel.plan", "self"),
        "channel.transmit_ms_per_trial": ms_per_trial("channel.transmit"),
        "channel.awgn_ms_per_trial": ms_per_trial("channel.awgn"),
        "detection.ls_ms_per_call": ratio(1000.0 * total("detection.ls"), calls("detection.ls")),
        "detection.ls_candidates_per_call": ratio(c.get("detection.candidates", 0),
                                                  calls("detection.ls")),
        "detection.exact_support_ratio": ratio(c.get("detection.exact", 0), calls("detection.ls")),
        "detection.pilot_calls_per_trial": ratio(c.get("detection.pilot", 0), trials),
        "decoding.joint_ml_ms_per_call": ratio(sum(decode_ms), len(decode_ms)),
        "decoding.joint_ml_ms_tail": stats.tail({0: decode_ms}, {0: 1})[1] if decode_ms else 0.0,
        "decoding.joint_ml_tuples_per_call": ratio(c.get("decoding.tuples", 0), len(decode_ms)),
        "decoding.budget_aborts": s.get("decoding.joint_ml", {}).get("errors", {}).get(
            "ComplexityBudgetError", 0),
        "decoding.ppm_calls_per_trial": ratio(c.get("decoding.ppm", 0), trials),
        "decoding.receive_self_ms_per_trial": ms_per_trial("decoding.receive", "self"),
        "decoding.score_ms_per_trial": ms_per_trial("decoding.score"),
        "decoding.user_success_ratio": ratio(c.get("decoding.users_correct", 0),
                                             c.get("decoding.users_decoded", 0)),
        "bounds.analytic_budget_ms": 1000.0 * total("bounds.analytic_budget"),
        "partition.enumerate_s": per_grid("partition.enumerate"),
        "partition.greedy_code_s": per_grid("partition.greedy_code"),
        "partition.build_self_s": per_grid("partition.build", "self"),
        "partition.verify_s": per_grid("partition.verify"),
        "partition.members": ratio(c.get("partition.members", 0), grids),
        "partition.pairs_checked": ratio(c.get("partition.pairs", 0), grids),
    }


def trace_simulation(w: Simulation, ref: dict, seed: int, seconds: float) -> dict:
    cfg = w.cfg(seed)
    t0 = time.perf_counter()
    _, plain, errors = timed_trials(cfg, seconds=UNTRACED_SHARE * seconds)
    untraced = time.perf_counter() - t0
    n = len(plain) + len(errors)
    with Tracer() as tr:
        instrument(tr)
        harness.analytic_budget(cfg)
        t0 = time.perf_counter()
        _, traced, traced_errors = timed_trials(cfg, count=n)
        traced_wall = time.perf_counter() - t0
    tr.write(OUT_DIR / f"trace_{w.name}.csv")

    # harness.thread_speedup: the same trials through estimate_error at 1 and NPROC threads
    batch = dataclasses.replace(cfg, trials=max(20, min(n, round(n * THREAD_SECONDS / untraced))))
    t0 = time.perf_counter()
    one = harness.estimate_error(batch, threads=1)
    t1 = time.perf_counter()
    many = harness.estimate_error(batch, threads=NPROC)
    t2 = time.perf_counter()

    layers = layer_metrics(tr, n, 0)
    layers["harness.thread_speedup"] = (t1 - t0) / (t2 - t1)
    layers["trace.overhead_share"] = (traced_wall - untraced) / untraced
    details = {"trials": n, "thread_batch": batch.trials, "threads": NPROC}
    if w.config["scheme"] == "joint":
        # the split in the units of ROADMAP's 200-trial profile
        scale = 200.0 / n
        s = tr.summary()
        details["profile_200_trials_s"] = {
            "total": round(scale * s["harness.run_trial"]["total"], 3),
            "decode": round(scale * s["decoding.joint_ml"]["total"], 3),
            "codebooks": round(scale * s["codebooks.gen"]["total"], 3),
            "detection": round(scale * s["detection.ls"]["total"], 3),
            "roadmap_baseline": {"total": 7.5, "decode": 3.7, "codebooks": 2.2, "detection": 1.2},
        }
    return {
        "attempted": n,
        "failed": len(errors),
        "errors": (errors + traced_errors)[:5],
        "layers": layers,
        "details": details,
        "checks": {
            "traced_equals_untraced": {"ok": not traced_errors and csv_bytes(plain) == csv_bytes(traced)},
            "threads_equal_serial": {"ok": csv_bytes(one.records) == csv_bytes(many.records)},
            **simulation_checks(w, ref, [w.outcome(r) for r in plain]),
        },
    }


def trace_grid(w: PartitionGrid, ref: dict) -> dict:
    plain = {cell: [] for cell in w.cells}
    t0 = time.perf_counter()
    oks, digests, errors = grid_pass(w.cells, plain)
    untraced = time.perf_counter() - t0
    traced = {cell: [] for cell in w.cells}
    with Tracer() as tr:
        instrument(tr)
        t0 = time.perf_counter()
        traced_oks, traced_digests, traced_errors = grid_pass(w.cells, traced)
        traced_wall = time.perf_counter() - t0
    tr.write(OUT_DIR / f"trace_{w.name}.csv")
    layers = layer_metrics(tr, 0, 1)
    layers["harness.thread_speedup"] = 0.0
    layers["trace.overhead_share"] = (traced_wall - untraced) / untraced
    return {
        "attempted": len(w.cells),
        "failed": len(errors),
        "errors": (errors + traced_errors)[:5],
        "layers": layers,
        "details": {"cells": len(w.cells)},
        "checks": {
            "traced_equals_untraced": {"ok": not traced_errors and traced_digests == digests
                                       and traced_oks == oks},
            **grid_checks(w, ref, oks, digests),
        },
    }


# ---------------------------------------------------------------------------
# machine facts (read only)
# ---------------------------------------------------------------------------

def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _blas_threads(blas_name: str) -> int | None:
    """Thread cap of numpy's OpenBLAS, read through its own getter."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "numpy.libs" in ln and "openblas" in ln})
    suffix = "64_" if "64" in (libs[0] if libs else "") else ""
    for lib in libs:
        for sym in (f"scipy_openblas_get_num_threads{suffix}", f"openblas_get_num_threads{suffix}"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": NPROC,
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(blas_name),
        "cpu_max": _read("/sys/fs/cgroup/cpu.max"),
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="CLOCK_MONOTONIC reading taken just before this process was started")
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after the first operation, reporting set-up time only")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    warm_up(w)
    setup_raw_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    pinned = json.loads(REFERENCE.read_text())
    ref_s = pinned["calibration_s"]
    kernel_seconds()  # its first calls in a fresh process run cold
    setup = {"setup_s": setup_raw_s * ref_s / kernel_seconds(), "setup_raw_s": setup_raw_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    OUT_DIR.mkdir(exist_ok=True)
    ref = pinned[w.name]
    speed = Speed(ref_s)
    if isinstance(w, Simulation):
        if args.trace:
            out = trace_simulation(w, ref, args.seed, args.seconds)
        else:
            out = measure_simulation(w, ref, args.seed, args.seconds, speed)
    elif args.trace:
        out = trace_grid(w, ref)
    else:
        out = measure_grid(w, ref, args.seconds, speed)
    if args.trace:
        out["metrics"] = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in out.pop("layers").items()}
    out.update(setup)
    out["machine"] = machine_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
