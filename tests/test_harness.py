import csv
import dataclasses
import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from manyaccess import channel, decoding, detection, harness
from manyaccess.codebooks import gen_codebook, gen_signatures
from manyaccess.decoding import BoundParams
from manyaccess.errors import ComplexityBudgetError, ConfigError
from manyaccess.harness import (
    ExperimentConfig,
    GrowthFamily,
    analytic_budget,
    classify_regime,
    config_from_dict,
    estimate_error,
    family_from_dict,
    run_trial,
    summary_row,
    sweep,
    wilson_interval,
    write_summary_csv,
    write_trials_csv,
)
from manyaccess.model import RateSpec, SystemParams, make_joint_schedule, make_ortho_schedule, sample_messages
from manyaccess.rng import make_rng, mix_seed, substream

TINY = ExperimentConfig(
    scheme="joint",
    params=SystemParams(n=512, ell=8, alpha=0.25, N0=2.0),
    split=0.5,
    M=4,
    bp=BoundParams(xi=8),
    trials=40,
    master_seed=2024,
)

SUB_FAMILY = GrowthFamily(
    name="sub_cuberoot",
    ell_of_n=lambda n: math.ceil(n ** (1 / 3)),
    alpha_of_n=lambda n, ell: 2.0 / ell,
)

SUP_FAMILY = GrowthFamily(
    name="sup_linear", ell_of_n=lambda n: n, alpha_of_n=lambda n, ell: 1.0
)

# rated by the joint scheme at every point, with a negative converse from n = 128
EDGE_FAMILY = GrowthFamily(
    name="edge", ell_of_n=lambda n: math.ceil(n / 4), alpha_of_n=lambda n, ell: 0.5
)


def _send_trial(conn, cfg, index):
    """Run one trial in this (forked) process; send its record and whether a
    helper thread drew a book.  Detection waits for the helper, so a
    helper that never runs shows as False, ten seconds late."""
    helper_drew = threading.Event()
    gen, detect = channel.gen_codebook, decoding.detect_ls_exhaustive

    def noting_gen_codebook(*args):
        if threading.current_thread() is not threading.main_thread():
            helper_drew.set()
        return gen(*args)

    def detect_after_helper(*args, **kwargs):
        helper_drew.wait(10.0)
        return detect(*args, **kwargs)

    channel.gen_codebook = noting_gen_codebook
    decoding.detect_ls_exhaustive = detect_after_helper
    conn.send((run_trial(cfg, index), helper_drew.is_set()))
    conn.close()


def _forked_trial(cfg, index):
    """What _send_trial sends from a child forked now, within 60 s."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_send_trial, args=(send, cfg, index))
    child.start()
    send.close()
    try:
        assert receive.poll(60.0), "the forked child's trial did not finish"
        got = receive.recv()
    finally:
        child.join(60.0)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    return got


class TestRunTrial:
    def test_determinism(self):
        a = run_trial(TINY, 3)
        b = run_trial(TINY, 3)
        assert a.seed == b.seed
        assert a.k_true == b.k_true
        assert (a.kappa1, a.kappa2, a.overflow) == (b.kappa1, b.kappa2, b.overflow)
        assert a.stats == b.stats

    def test_noiseless_zero_errors(self):
        cfg = ExperimentConfig(
            scheme="joint", params=TINY.params, split=0.5, M=4,
            trials=10, master_seed=5, noiseless=True,
        )
        for i in range(10):
            rec = run_trial(cfg, i)
            assert not rec.stats.joint_error
            assert rec.kappa1 == 0 and rec.kappa2 == 0

    def test_bookkeeping_identity(self):
        for i in range(60):
            rec = run_trial(TINY, i)
            assert rec.k_true + rec.kappa2 == rec.d_hat_weight + rec.kappa1

    def test_draws_only_the_books_it_reads(self, monkeypatch):
        # a trial draws user i's book once, and only for the users it
        # transmits for (active) or decodes (detected); the plan re-keys
        # its generator to mix_seed(key, i) for each book it draws
        users = []

        def recording_mix_seed(key, i):
            users.append(i)
            return mix_seed(key, i)

        calls = []

        def counting_gen_codebook(*args):
            calls.append(args)
            return gen_codebook(*args)

        monkeypatch.setattr(channel, "mix_seed", recording_mix_seed)
        monkeypatch.setattr(channel, "gen_codebook", counting_gen_codebook)
        for i in range(40):
            users.clear()
            calls.clear()
            rec = run_trial(TINY, i)
            assert not (rec.overflow or rec.budget_abort)
            active = np.flatnonzero(sample_messages(TINY.params, TINY.M, make_rng(rec.seed)))
            assert len(calls) == len(set(users)) == len(users) == rec.k_true + rec.kappa2
            assert set(active) <= set(users)

    def test_delayed_helper_draws_give_the_same_records(self, monkeypatch, tmp_path):
        # books drawn late on the helper: the trial's own thread then takes
        # more of them back, and the records and CSV bytes must not change
        clean = [run_trial(TINY, i) for i in range(TINY.trials)]
        on_helper = []

        def slow_gen_codebook(*args):
            if threading.current_thread() is not threading.main_thread():
                on_helper.append(args)
                time.sleep(0.002)
            return gen_codebook(*args)

        monkeypatch.setattr(channel, "gen_codebook", slow_gen_codebook)
        delayed = [run_trial(TINY, i) for i in range(TINY.trials)]
        assert on_helper and delayed == clean
        write_trials_csv(tmp_path / "clean.csv", tuple(clean))
        write_trials_csv(tmp_path / "delayed.csv", tuple(delayed))
        assert (tmp_path / "clean.csv").read_bytes() == (tmp_path / "delayed.csv").read_bytes()

    def test_failed_helper_draw_raises_in_its_trial(self, monkeypatch):
        # detection waits until the helper has started a book, so the
        # failing draw runs on the helper and not on the trial's thread
        class DrawFailed(Exception):
            pass

        started = threading.Event()

        def failing_gen_codebook(*args):
            if threading.current_thread() is threading.main_thread():
                return gen_codebook(*args)
            started.set()
            raise DrawFailed

        detect = decoding.detect_ls_exhaustive

        def detect_after_helper_starts(*args, **kwargs):
            assert started.wait(10.0)
            return detect(*args, **kwargs)

        index = next(i for i in range(TINY.trials) if run_trial(TINY, i).k_true > 0)
        clean = run_trial(TINY, index + 1)
        with monkeypatch.context() as patch:
            patch.setattr(channel, "gen_codebook", failing_gen_codebook)
            patch.setattr(decoding, "detect_ls_exhaustive", detect_after_helper_starts)
            with pytest.raises(DrawFailed):
                run_trial(TINY, index)
        assert run_trial(TINY, index + 1) == clean

    def test_failed_draw_on_the_trials_thread_waits_for_the_helper(self, monkeypatch):
        # the trial's own thread fails its draws while the helper is still
        # drawing a slowed book and has another queued: run_trial raises
        # only once the helper's draw has ended, and no draw starts later
        class DrawFailed(Exception):
            pass

        state = {"running": 0, "draws": 0}
        lock = threading.Lock()
        started = threading.Event()

        def gen_codebook_failing_here(*args):
            if threading.current_thread() is threading.main_thread():
                raise DrawFailed
            with lock:
                state["running"] += 1
                state["draws"] += 1
            started.set()
            try:
                time.sleep(0.05)
                return gen_codebook(*args)
            finally:
                with lock:
                    state["running"] -= 1

        detect = decoding.detect_ls_exhaustive

        def detect_after_helper_starts(*args, **kwargs):
            assert started.wait(10.0)
            return detect(*args, **kwargs)

        index = next(i for i in range(TINY.trials) if run_trial(TINY, i).k_true >= 2)
        monkeypatch.setattr(channel, "gen_codebook", gen_codebook_failing_here)
        monkeypatch.setattr(decoding, "detect_ls_exhaustive", detect_after_helper_starts)
        with pytest.raises(DrawFailed):
            run_trial(TINY, index)
        with lock:
            running, draws = state["running"], state["draws"]
        assert (running, draws) == (0, 1)
        time.sleep(0.1)
        assert state["draws"] == draws

    @pytest.mark.parametrize("detection_budget", [None, 1], ids=["returns", "raises"])
    def test_no_draw_outlives_its_trial(self, monkeypatch, detection_budget):
        # every draw has ended when run_trial returns or raises, and none
        # starts afterwards; a detection budget of 1 raises in every trial
        state = {"running": 0, "draws": 0}
        lock = threading.Lock()

        def tracked_gen_codebook(*args):
            with lock:
                state["running"] += 1
                state["draws"] += 1
            try:
                time.sleep(0.001)
                return gen_codebook(*args)
            finally:
                with lock:
                    state["running"] -= 1

        monkeypatch.setattr(channel, "gen_codebook", tracked_gen_codebook)
        if detection_budget is not None:
            monkeypatch.setattr(detection, "CANDIDATE_BUDGET", detection_budget)
        for i in range(10):
            if detection_budget is None:
                run_trial(TINY, i)
            else:
                with pytest.raises(ComplexityBudgetError):
                    run_trial(TINY, i)
            with lock:
                running, draws = state["running"], state["draws"]
            assert running == 0
            time.sleep(0.005)
            assert state["draws"] == draws

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_runs_trials(self):
        # a process forked after trials ran inherits the helper but not its
        # thread; its own trials must run, with the parent's records
        for i in range(3):
            run_trial(TINY, i)
        index = next(i for i in range(3, TINY.trials) if run_trial(TINY, i).k_true > 0)
        assert _forked_trial(TINY, index) == (run_trial(TINY, index), True)

    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_while_a_book_is_submitted(self):
        # a child forked while the helper's submit lock is held inherits it
        # held, with no thread to release it; it must run its trial on a
        # helper of its own, not wait on that lock
        index = next(i for i in range(TINY.trials) if run_trial(TINY, i).k_true > 0)
        want = run_trial(TINY, index)
        with channel._HELPER._shutdown_lock:
            got = _forked_trial(TINY, index)
        assert got == (want, True)

    def test_fixed_codebooks_same_books_every_trial(self, monkeypatch):
        cfg = ExperimentConfig(scheme="joint", params=TINY.params, split=0.5, M=4,
                               trials=2, master_seed=9, fixed_codebooks=True)
        plans = []
        make_plan = harness.make_joint_plan

        def capturing_plan(*args):
            plans.append(make_plan(*args))
            return plans[-1]

        monkeypatch.setattr(harness, "make_joint_plan", capturing_plan)
        run_trial(cfg, 0)
        run_trial(cfg, 1)
        # the fixed plan stream gives the signatures, then the book key
        sched = cfg.schedule
        rng = make_rng(mix_seed(cfg.master_seed, harness._PLAN_STREAM))
        gen_signatures(cfg.params.ell, sched.n_sig, sched.E_sig, rng)
        key = int(rng.integers(0, 1 << 64, dtype=np.uint64))
        for i in range(cfg.params.ell):
            want = gen_codebook(cfg.M, sched.n_msg, sched.E_msg, substream(key, i)).words
            assert plans[0].codebooks[i].words.tobytes() == want.tobytes()
            assert plans[1].codebooks[i].words.tobytes() == want.tobytes()

    def test_ortho_trial(self):
        cfg = ExperimentConfig(
            scheme="ortho",
            params=SystemParams(n=4096, ell=8, alpha=0.5, N0=2.0),
            split=0.25, M=8, trials=5, master_seed=11,
        )
        rec = run_trial(cfg, 0)
        assert not rec.overflow
        assert 0.0 <= rec.stats.ape <= 1.0

    def test_ortho_trials_csv_pinned(self, tmp_path):
        # the test_ortho_trial config over 50 trials; digest computed
        # before the scheme objects replaced the scheme-string branches
        cfg = ExperimentConfig(
            scheme="ortho",
            params=SystemParams(n=4096, ell=8, alpha=0.5, N0=2.0),
            split=0.25, M=8, trials=50, master_seed=11,
        )
        path = tmp_path / "trials.csv"
        write_trials_csv(path, estimate_error(cfg).records)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "583721f8a00b0547486b41e8bf913f7c57b789e12f2a7af37c45d5345eeb3af2"

    def test_ortho_budget_above_capacity_is_invalid(self):
        # M so large that ln(M)/((1-t)E) exceeds 1/N0: the budget must be
        # reported as invalid, not raised
        cfg = ExperimentConfig(
            scheme="ortho",
            params=SystemParams(n=4096, ell=8, alpha=0.5, N0=2.0),
            split=0.25, M=10**6, trials=5, master_seed=11,
        )
        rep = analytic_budget(cfg)
        assert not rep.valid and rep.value == math.inf

    def test_ortho_budget_is_the_union_unclamped(self):
        # criterion 11's n = 1024 point on the ortho scheme: each user's
        # bound is below 1, their union over ell = 11 users is not
        res = sweep(SUB_FAMILY, [1024], R_dot_fraction=0.25, scheme="ortho")
        params = SUB_FAMILY.params_at(1024)
        cfg = ExperimentConfig(scheme="ortho", params=params, split=0.5,
                               M=RateSpec.from_rate(0.125, make_ortho_schedule(params, 0.5).E).M)
        rep = analytic_budget(cfg)
        assert rep.terms["per_user"] < 1.0
        assert rep.value == rep.terms["union_over_users"] == params.ell * rep.terms["per_user"]
        assert rep.value == pytest.approx(8.78, abs=0.01) and not rep.valid
        assert (res.rows[0].budget_total, res.rows[0].budget_valid) == (rep.value, False)


class TestEstimateError:
    def test_all_success_interval(self):
        cfg = ExperimentConfig(
            scheme="joint", params=TINY.params, split=0.5, M=4,
            trials=35, master_seed=5, noiseless=True,
        )
        s = estimate_error(cfg)
        assert s.joint_err == 0.0
        assert s.joint_err_ci[1] > 0.0

    def test_overflow_markov(self):
        s = estimate_error(TINY)
        assert s.overflow_rate <= 1.0 / TINY.bp.xi + 3.0 * math.sqrt(0.125 * 0.875 / s.trials)

    def test_wilson_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_wilson_coverage(self):
        # synthetic Bernoulli(0.1): the 95% interval covers in >= 93/100
        p, trials, meta = 0.1, 200, 100
        covered = 0
        for m in range(meta):
            draws = substream(777, m).random(trials) < p
            lo, hi = wilson_interval(int(draws.sum()), trials)
            covered += int(lo <= p <= hi)
        assert covered >= 93

    def test_threaded_matches_serial(self):
        serial = estimate_error(TINY, threads=1)
        threaded = estimate_error(TINY, threads=4)
        assert serial.joint_err == threaded.joint_err
        assert serial.ape == threaded.ape
        assert [r.seed for r in serial.records] == [r.seed for r in threaded.records]

    def test_one_helper_serves_every_trial_thread(self, monkeypatch):
        # two runs on two trial threads each: every book drawn off a trial
        # thread is drawn by the process's one helper, the only `books_` thread
        trial_threads, drawers = set(), set()
        run = harness.run_trial

        def noting_run_trial(cfg, index):
            trial_threads.add(threading.current_thread())
            return run(cfg, index)

        def noting_gen_codebook(*args):
            drawers.add(threading.current_thread())
            return gen_codebook(*args)

        monkeypatch.setattr(harness, "run_trial", noting_run_trial)
        monkeypatch.setattr(channel, "gen_codebook", noting_gen_codebook)
        for _ in range(2):
            estimate_error(TINY, threads=2)
        assert len(drawers - trial_threads) == 1
        assert [t.name.startswith("books_") for t in threading.enumerate()].count(True) == 1

    def test_trials_on_more_threads_than_cores(self):
        # four trial threads sharing one helper, switching every
        # microsecond: a generator or a book shared across threads would
        # change a record
        want = [run_trial(TINY, i) for i in range(TINY.trials)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda i: run_trial(TINY, i), range(TINY.trials), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_thread_count_capped_at_cores(self, monkeypatch):
        # a recorder stands in for the pool, so no thread is started
        asked = []

        class Recorder:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(harness, "ThreadPoolExecutor", Recorder)
        cfg = dataclasses.replace(TINY, trials=3)
        records = estimate_error(cfg, threads=10**6).records
        cores = os.cpu_count() or 1
        assert asked == ([cores] if cores > 1 else [])
        assert records == estimate_error(cfg).records

    def test_budget_dominates_empirical_when_meaningful(self):
        # guarded invariant: whenever the analytic total is < 1 the
        # empirical joint error must sit below it plus 3 Wilson sigmas;
        # at desk scale the total includes the Markov term 1/xi and the
        # (loose) detection budget, so the guard rarely opens
        budget = analytic_budget(TINY)
        if budget.value < 1.0:
            s = estimate_error(TINY)
            sigma = (s.joint_err_ci[1] - s.joint_err) / 1.959963984540054
            assert s.joint_err <= budget.value + 3.0 * sigma
        else:
            assert not budget.valid


class TestSweep:
    def test_sub_family_regime(self):
        res = sweep(SUB_FAMILY, [256, 1024, 4096], R_dot_fraction=0.25, trials=0)
        assert res.verdicts["regime"] == "sublinear"
        assert all(r.error is None for r in res.rows)

    def test_sup_family_converse_decreasing(self):
        res = sweep(SUP_FAMILY, [2**10, 2**14, 2**18], R_dot_fraction=0.25, trials=0)
        # superlinear points cannot build joint schedules, yet the converse
        # trend is still evaluated (at E = ln n) and strictly decreases
        assert all(r.error is not None for r in res.rows)
        assert res.verdicts["converse_decreasing"] is True
        assert res.rows[-1].converse_nats == pytest.approx(0.1042335, abs=1e-6)

    @pytest.mark.parametrize("scheme", ["joint", "ortho"])
    @pytest.mark.parametrize("family,grid,regime,converse_decreasing", [
        (SUB_FAMILY, [256, 1024, 4096], "sublinear", False),
        (SUP_FAMILY, [2**10, 2**14, 2**18], "superlinear", True),
    ], ids=["sub", "sup"])
    def test_verdicts_match_classify(self, scheme, family, grid, regime, converse_decreasing):
        res = sweep(family, grid, R_dot_fraction=0.25, scheme=scheme)
        assert res.verdicts == {"regime": regime, "converse_decreasing": converse_decreasing}
        assert classify_regime(family, grid) == regime

    @pytest.mark.parametrize("grid,verdict", [([256, 1024, 4096], False), ([256, 1024], True)],
                             ids=["three-points", "two-points"])
    def test_ape_verdict_is_criterion_11s_separation(self, grid, verdict):
        # the verdict on a sweep with trials, recomputed the way criterion
        # 11 computes it from the summaries of the same configs; at 30
        # trials the drop from 1024 to 4096 is not separated at 99.9%
        seed, trials = 31, 30
        res = sweep(SUB_FAMILY, grid, R_dot_fraction=0.25, trials=trials, master_seed=seed)
        summaries = []
        for n, row in zip(grid, res.rows):
            params = SUB_FAMILY.params_at(n)
            sched = make_joint_schedule(params, 0.5)
            M = RateSpec.from_rate(0.25 / params.N0, sched.E).M
            cfg = ExperimentConfig(scheme="joint", params=params, split=0.5, M=M,
                                   trials=trials, master_seed=mix_seed(seed, n))
            summaries.append(estimate_error(cfg))
            assert (row.ape, row.ape_stderr) == (summaries[-1].ape, summaries[-1].ape_stderr)
        z = 3.290526731491926
        steps = list(zip(summaries, summaries[1:]))
        want = all(a.ape - b.ape > z * math.hypot(a.ape_stderr, b.ape_stderr) for a, b in steps)
        assert res.verdicts["ape_decreasing"] is want is verdict
        # one point that ran trials gives no verdict: detection refuses n = 16384
        assert "ape_decreasing" not in sweep(SUB_FAMILY, [256, 16384], R_dot_fraction=0.25,
                                             trials=2).verdicts

    @pytest.mark.parametrize("grid", [[4096, 1024, 256], [256, 256, 1024]], ids=["decreasing", "repeated"])
    def test_grid_not_increasing_refused(self, grid):
        # the verdicts compare consecutive rows: on the cube-root family
        # 4096,1024,256 would read converse_decreasing true and 256,256,1024
        # false.  A point's own failure is a row, not a raise, so this one
        # comes from the grid check
        with pytest.raises(ConfigError, match="n grid must be strictly increasing"):
            sweep(SUB_FAMILY, grid, R_dot_fraction=0.25)

    def test_two_points_give_no_regime(self):
        res = sweep(SUB_FAMILY, [256, 1024], R_dot_fraction=0.25)
        assert set(res.verdicts) == {"converse_decreasing"}

    def test_single_user_family_is_indeterminate(self):
        # ell = 1 carries no load k ln(ell)/n, so there is no slope to fit
        fam = GrowthFamily(name="one", ell_of_n=lambda n: 1, alpha_of_n=lambda n, ell: 1.0)
        assert classify_regime(fam, [256, 1024, 4096]) == "indeterminate"
        assert sweep(fam, [256, 1024, 4096], R_dot_fraction=0.25).verdicts["regime"] == "indeterminate"

    def test_out_of_regime_rows_leave_rate_empty(self, tmp_path):
        res = sweep(SUP_FAMILY, [2**10, 2**14, 2**18], R_dot_fraction=0.25)
        path = tmp_path / "sweep.csv"
        write_summary_csv(path, res.rows)
        for row in csv.DictReader(path.read_text().splitlines()):
            assert row["R_dot_nats"] == row["R_dot_bits"] == ""
            assert row["budget_total"] == row["budget_valid"] == ""
            assert float(row["E"]) == pytest.approx(math.log(int(row["n"])))
            assert row["ell"] == row["n"] and row["k"] and row["converse_nats"] and row["error"]

    def test_negative_converse_reads_infeasible(self):
        # ell = ceil(2n/ln n) is out of the ortho regime, where converse_joint
        # at E = ln n is about -0.26 to -0.28: no rate bound, and no trend
        dense = GrowthFamily(name="dense", ell_of_n=lambda n: math.ceil(2 * n / math.log(n)),
                             alpha_of_n=lambda n, ell: 2.0 / ell)
        res = sweep(dense, [256, 1024, 4096], R_dot_fraction=0.25, scheme="ortho")
        assert [r.converse_nats for r in res.rows] == [None] * 3
        assert all("infeasible" in r.error for r in res.rows)
        assert "converse_decreasing" not in res.verdicts

    def test_rated_negative_converse_reads_infeasible(self):
        # the rule above holds on rated rows too: these keep their rate and
        # budget, lose the converse cell and give the trend no vote
        res = sweep(EDGE_FAMILY, [64, 128, 256], R_dot_fraction=0.25)
        first, *rest = res.rows
        assert first.converse_nats == pytest.approx(0.0130016, abs=1e-6) and first.error is None
        for row in rest:
            assert row.R_dot_nats is not None and row.budget_total is not None
            assert row.converse_nats is None
            assert row.error.startswith("infeasible: converse_joint at E = ")
        assert res.verdicts == {"regime": "superlinear"}

    def test_error_parts_in_stage_order(self):
        # ell = n/(2 ln n), alpha = 2/ell at twice the capacity per unit
        # energy: no ortho budget, a slot too short for M + 1 pulse positions,
        # and a negative converse
        lean = GrowthFamily(name="lean", ell_of_n=lambda n: math.ceil(n / (2 * math.log(n))),
                            alpha_of_n=lambda n, ell: 2.0 / ell)
        [row] = sweep(lean, [256], R_dot_fraction=2.0, scheme="ortho", trials=2).rows
        budget, trials, converse = row.error.split("; ")
        assert budget.startswith("no error budget: rate 2.005")
        assert budget.endswith("exceeds capacity per unit energy 0.5")
        assert trials == "slot length 10 < M+1 = 39"
        assert converse == "infeasible: converse_joint at E = 3.62763 is -0.264718 < 0"
        assert row.budget_total is row.converse_nats is row.joint_err is None
        assert row.R_dot_nats is not None

    def test_empty_grid(self):
        res = sweep(SUB_FAMILY, [], R_dot_fraction=0.25)
        assert res.rows == [] and res.verdicts == {}

    def test_csv_round_trip(self, tmp_path):
        res = sweep(SUB_FAMILY, [256, 1024], R_dot_fraction=0.25, trials=0)
        path = tmp_path / "sweep.csv"
        write_summary_csv(path, res.rows)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[0] == "n"
        assert len(lines) == 3


class TestClassify:
    def test_sublinear(self):
        assert classify_regime(SUB_FAMILY, [256, 1024, 4096, 16384]) == "sublinear"

    def test_superlinear(self):
        assert classify_regime(SUP_FAMILY, [2**10, 2**12, 2**14]) == "superlinear"

    def test_boundary_indeterminate(self):
        fam = GrowthFamily(
            name="boundary",
            ell_of_n=lambda n: math.ceil(math.exp(n / 100.0)),
            alpha_of_n=lambda n, ell: 2.0 / ell,
        )
        assert classify_regime(fam, [256, 512, 768]) == "indeterminate"

    def test_grid_too_short(self):
        with pytest.raises(ConfigError):
            classify_regime(SUB_FAMILY, [256, 512])


class TestFamilyFiles:
    def test_expressions(self):
        fam = family_from_dict(
            {"name": "sub", "ell_expr": "ceil(n**(1/3))", "alpha_expr": "2/ell"}
        )
        p = fam.params_at(4096, 2.0)
        assert p.ell == 16 and p.k == pytest.approx(2.0)

    def test_missing_key(self):
        with pytest.raises(ConfigError):
            family_from_dict({"name": "x", "ell_expr": "n"})

    def test_k_below_one_rejected(self):
        fam = family_from_dict({"name": "thin", "ell_expr": "n", "alpha_expr": "0.5/n"})
        with pytest.raises(ConfigError):
            fam.params_at(100, 2.0)


class TestConfigAndCsv:
    def test_config_round_trip(self):
        raw = {
            "scheme": "joint", "n": 512, "ell": 8, "alpha": 0.25, "N0": 2.0,
            "b": 0.5, "M": 4, "xi": 8, "trials": 17, "master_seed": 99,
        }
        cfg = config_from_dict(raw)
        assert cfg.params.ell == 8 and cfg.trials == 17 and cfg.bp.xi == 8

    def test_config_rate_to_m(self):
        raw = {
            "scheme": "joint", "n": 512, "ell": 8, "alpha": 0.25, "N0": 2.0,
            "b": 0.5, "R_dot_nats": 0.125,
        }
        cfg = config_from_dict(raw)
        assert cfg.M == max(2, round(math.exp(0.125 * cfg.schedule.E)))

    def test_config_missing_m(self):
        with pytest.raises(ConfigError):
            config_from_dict({"scheme": "joint", "n": 512, "ell": 8, "alpha": 0.25, "b": 0.5})

    def test_csv_determinism(self, tmp_path):
        s1 = estimate_error(TINY)
        s2 = estimate_error(TINY)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(p1, s1.records)
        write_trials_csv(p2, s2.records)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_csv_columns(self, tmp_path):
        s = estimate_error(TINY)
        row = summary_row(TINY.params, TINY.schedule.E, TINY.M, analytic_budget(TINY), s)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [row])
        header = path.read_text().splitlines()[0]
        assert header == (
            "n,ell,alpha,k,E,R_dot_nats,R_dot_bits,joint_err,joint_err_ci_lo,"
            "joint_err_ci_hi,ape,ape_stderr,overflow_rate,budget_total,budget_valid,"
            "budget_aborts,converse_nats,error"
        )


def _readme_columns(intro: str) -> list[str]:
    """The comma-separated column list in the code block after `intro`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split(intro, 1)[1].split("```", 2)[1]
    return [name.strip() for name in block.split(",")]


def test_csv_columns_match_readme():
    assert harness.SUMMARY_COLUMNS == _readme_columns("use the fixed column order")
    assert harness.TRIAL_COLUMNS == _readme_columns("(`simulate --trials-csv`) has columns")


# Trials and partitions use numpy only; scipy.special (about 0.3 s of
# start-up and 17 MB) loads on the first bound that needs it.
SCIPY_PROBE = textwrap.dedent("""
    import sys
    from manyaccess import harness
    from manyaccess.codebooks import mu_exact
    from manyaccess.decoding import BoundParams
    from manyaccess.model import SystemParams
    from manyaccess.partition import build_partition, verify_partition

    cfg = harness.ExperimentConfig(
        scheme="joint", params=SystemParams(n=4096, ell=16, alpha=2 / 16, N0=2.0),
        split=0.5, M=10, bp=BoundParams(xi=8), trials=1, master_seed=1113,
    )
    harness.run_trial(cfg, 0)
    report = verify_partition(build_partition(6, 2, 3), 6)
    assert report.disjoint_cover and report.size_ok and report.diameter_ok
    assert "scipy.special" not in sys.modules, "a trial or partition loaded scipy.special"
    mu_exact(2048)
    assert "scipy.special" in sys.modules
""")


def test_trials_and_partitions_leave_scipy_special_unloaded():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
