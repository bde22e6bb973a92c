#!/usr/bin/env python3
"""Where a joint trial's time goes: self time and calls per stage, and page faults.

    python3 tools/trial_stages.py                        # this checkout
    python3 tools/trial_stages.py --src ../parent/src    # the same trials, another checkout

Runs trials FIRST..LAST (50..649) of the joint_n4096 point (n = 4096,
ell 16, alpha 2/16, b 0.5, M 10, xi 8, master seed 1113) and prints one
JSON object:

- `stage_ms`: self time per trial of each stage on the trial's own
  thread, in ms.  A stage is a layer function, wrapped where its caller
  looks it up: `signatures` (gen_signatures), `books` (a book's re-keying
  and draw, UserCodebooks._draw and gen_codebook, on the trial's thread),
  `plan` (make_joint_plan), `transmit` (transmit_joint), `awgn`,
  `detection` (detect_ls_exhaustive), `decode` (decode_joint_ml), `wait`
  (the trial's thread taking back a queued book or blocked on one the
  helper thread is drawing, in UserCodebooks._collect) and `rest`
  (run_trial's own time).  These add up
  to the trial's wall time, `trial_ms`.  Each stage of each trial takes
  the least of PASSES runs of that trial (a trial is fixed by its
  index); the figure is the mean of those minima over the trials.
- `stage_ms_mean`: the same stages' mean over every pass of every
  trial, beside the minima; where the helper thread is woken onto the
  trial thread's CPU, the preempted stage reads far above its least.
- `involuntary_switches_per_trial`: the trial thread's involuntary
  context switches (`getrusage(RUSAGE_THREAD)`) over the timed passes,
  per trial run: the times it was preempted.
- `cpu_per_wall`: the process's CPU seconds (both threads) over the wall
  seconds of the timed passes: near 1.4 where the helper has a core of
  its own, near 1.0 where it shares the trial thread's.
- `helper_ms`: the same for the helper thread's `books`, which overlap
  the stages above.  Each thread keeps its own stack of open stages, so
  the two threads' calls never nest in each other.  A checkout without a
  helper reads 0 here and names its missing `wait` hook in
  `missing_hooks`.
- `decode_ms_by_k`: `decode` self time per call, keyed by the number of
  detected users the call decodes (the `d_hat_weight` of a trial record
  with neither overflow nor budget abort), as the least of the PASSES runs of
  each trial, averaged over the trials with a decode of that k.  With
  `--src`, it compares per-k decode cost on the same trials.
- `calls`: profiled calls per trial, per stage and in total, counted by
  `sys.setprofile` in one more pass: Python function calls and calls of
  built-in functions and methods (most numpy functions, array methods,
  `ufunc.reduce`) on the trial's thread; the helper's are not counted.
  A ufunc called directly (`np.matmul`, `np.negative`) or through an
  operator raises no profiler event and is not counted.
- `missing_hooks`: the layer functions above that this checkout lacks,
  as `module.function`; a missing one's time folds into `rest`.
- `faults`: minor page faults, system ms and wall ms per trial from
  `getrusage`, over the same trials after trials 0..FIRST-1, in a fresh
  interpreter that runs nothing else.  This is what a `simulate` process
  pays; perfbench's calibration kernel raises glibc's mmap and trim
  thresholds, after which a trial takes no faults.

Standard library plus numpy; nothing under perfbench/ is used.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the joint_n4096 point of perfbench and criterion 11
CONFIG = {"scheme": "joint", "n": 4096, "ell": 16, "alpha": 0.125, "N0": 2.0,
          "b": 0.5, "M": 10, "xi": 8, "master_seed": 1113}
FIRST, LAST = 50, 649  # the trials measured; 0..FIRST-1 warm up
PASSES = 3

STAGES = ("signatures", "books", "plan", "transmit", "awgn", "detection", "decode", "wait", "rest")
HELPER_STAGES = ("books",)


def load(src: str):
    """manyaccess from `src`, and CONFIG as an ExperimentConfig."""
    sys.path.insert(0, os.path.abspath(src))
    from manyaccess import channel, decoding, harness

    return harness.config_from_dict({**CONFIG, "trials": 1}), harness, channel, decoding


class Stages:
    """Self time of the wrapped layer functions, per thread, and profiler
    events by stage on the trial's thread.  The thread that builds this
    runs the trials; any other thread is a helper, timed in helper_times."""

    def __init__(self, harness, channel, decoding):
        self.local = threading.local()
        self.times = dict.fromkeys(STAGES, 0.0)
        self.helper_times = dict.fromkeys(("idle",) + STAGES, 0.0)
        self.stack = ["rest"]
        self.local.stack, self.local.times = self.stack, self.times
        self.calls = dict.fromkeys(STAGES, 0)
        self.missing_hooks = []  # hooks not installed: their time folds into "rest"
        hooks = [
            (channel, "gen_signatures", "signatures"),
            (channel, "gen_codebook", "books"),
            (channel.UserCodebooks, "_draw", "books"),
            (channel.UserCodebooks, "_collect", "wait"),
            (harness, "make_joint_plan", "plan"),
            (harness, "transmit_joint", "transmit"),
            (harness, "awgn", "awgn"),
            (decoding, "detect_ls_exhaustive", "detection"),
            (decoding, "decode_joint_ml", "decode"),
        ]
        for module, attr, stage in hooks:
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(getattr(module, attr), stage))
            else:
                self.missing_hooks.append(f"{module.__name__}.{attr}")

    def wrap(self, fn, stage: str):
        local, helper_times, clock = self.local, self.helper_times, time.perf_counter

        def wrapper(*args, **kwargs):
            if not hasattr(local, "stack"):  # a helper: time outside a stage goes to "idle"
                local.stack, local.times = ["idle"], helper_times
            stack, times = local.stack, local.times
            now = clock()
            times[stack[-1]] += now
            stack.append(stage)
            times[stage] -= now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                times[stack.pop()] += now
                times[stack[-1]] -= now

        self.wrapper_code = wrapper.__code__
        return wrapper

    def timed(self, run_trial, cfg, index: int) -> tuple[dict, dict, int | None]:
        """Self ms of each stage in one trial, on the trial's thread and on
        the helper, and the number of users its decode decoded: the
        detected users of a trial that neither overflowed nor aborted,
        None for the others, which run no decode."""
        for times in (self.times, self.helper_times):
            for stage in times:
                times[stage] = 0.0
        start = time.perf_counter()
        self.times["rest"] -= start
        rec = run_trial(cfg, index)
        self.times["rest"] += time.perf_counter()
        return ({stage: 1000.0 * t for stage, t in self.times.items()},
                {stage: 1000.0 * t for stage, t in self.helper_times.items()},
                None if rec.overflow or rec.budget_abort else rec.d_hat_weight)

    def counted(self, run_trial, cfg, index: int) -> None:
        """Add one trial's profiler events to self.calls, by stage."""
        skip, stack, calls = self.wrapper_code, self.stack, self.calls

        def profile(frame, event, arg):
            if event in ("call", "c_call") and frame.f_code is not skip:
                calls[stack[-1]] += 1

        sys.setprofile(profile)
        try:
            run_trial(cfg, index)
        finally:
            sys.setprofile(None)


def stage_report(src: str) -> dict:
    cfg, harness, channel, decoding = load(src)
    stages = Stages(harness, channel, decoding)
    indices = range(FIRST, LAST + 1)
    for i in range(FIRST):  # warm-up, as in the fault count
        harness.run_trial(cfg, i)
    best = [dict.fromkeys(STAGES, float("inf")) for _ in indices]
    helper = [dict.fromkeys(HELPER_STAGES, float("inf")) for _ in indices]
    total = [float("inf")] * len(indices)
    decoded_k = [None] * len(indices)
    summed = dict.fromkeys(STAGES, 0.0)
    switches = resource.getrusage(resource.RUSAGE_THREAD).ru_nivcsw
    cpu, wall = time.process_time(), time.perf_counter()
    for _ in range(PASSES):
        for slot, i in enumerate(indices):
            ms, helper_ms, decoded_k[slot] = stages.timed(harness.run_trial, cfg, i)
            for stage, value in ms.items():
                best[slot][stage] = min(best[slot][stage], value)
                summed[stage] += value
            for stage in HELPER_STAGES:
                helper[slot][stage] = min(helper[slot][stage], helper_ms[stage])
            total[slot] = min(total[slot], sum(ms.values()))
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    switches = resource.getrusage(resource.RUSAGE_THREAD).ru_nivcsw - switches
    for i in indices:
        stages.counted(harness.run_trial, cfg, i)
    n = len(indices)
    calls = {stage: stages.calls[stage] / n for stage in STAGES}
    by_k = {}
    for b, k in zip(best, decoded_k):
        if k is not None:
            by_k.setdefault(k, []).append(b["decode"])
    return {
        "stage_ms": {stage: round(sum(b[stage] for b in best) / n, 4) for stage in STAGES},
        "stage_ms_mean": {stage: round(summed[stage] / (PASSES * n), 4) for stage in STAGES},
        "involuntary_switches_per_trial": round(switches / (PASSES * n), 4),
        "cpu_per_wall": round(cpu / wall, 4),
        "helper_ms": {stage: round(sum(h[stage] for h in helper) / n, 4) for stage in HELPER_STAGES},
        "trial_ms": round(sum(total) / n, 4),
        "decode_ms_by_k": {str(k): round(sum(ms) / len(ms), 4) for k, ms in sorted(by_k.items())},
        "calls": {**calls, "total": sum(calls.values())},
        "missing_hooks": stages.missing_hooks,
    }


def fault_report(src: str) -> dict:
    """getrusage over trials FIRST..LAST after trials 0..FIRST-1, in this process."""
    cfg, harness, _, _ = load(src)
    for i in range(FIRST):
        harness.run_trial(cfg, i)
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    for i in range(FIRST, LAST + 1):
        harness.run_trial(cfg, i)
    wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
    n = LAST - FIRST + 1
    return {
        "minflt_per_trial": (after.ru_minflt - before.ru_minflt) / n,
        "sys_ms_per_trial": round(1000.0 * (after.ru_stime - before.ru_stime) / n, 4),
        "wall_ms_per_trial": round(1000.0 * wall / n, 4),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="per-stage self time, calls and faults of joint trials")
    ap.add_argument("--src", default=os.path.join(REPO, "src"), help="the checkout's src directory")
    ap.add_argument("--faults-only", action="store_true",
                    help="print only the fault counts of this process (the full report "
                         "runs itself this way in a fresh interpreter)")
    args = ap.parse_args(argv)
    if args.faults_only:
        print(json.dumps(fault_report(args.src)))
        return 0
    cmd = [sys.executable, os.path.abspath(__file__), "--faults-only", "--src", args.src]
    child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    faults = json.loads(child.stdout.strip().splitlines()[-1])
    report = {"src": os.path.abspath(args.src), "config": CONFIG, "trials": [FIRST, LAST],
              "passes": PASSES, **stage_report(args.src), "faults": faults}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
