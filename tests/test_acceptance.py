"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Expected values tagged
as derived come from the independent oracles coded inline here (direct
term-by-term evaluation, brute-force counting, closed-form special
cases), never from the code paths under test.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from scipy.special import erfc

from manyaccess import bounds
from manyaccess.cli import EXIT_OK, main
from manyaccess.codebooks import gen_signatures, mu_chernoff_lb, mu_exact, mu_monte_carlo
from manyaccess.decoding import BoundParams, decode_ppm
from manyaccess.detection import detect_ls_exhaustive, v_cap
from manyaccess.harness import ExperimentConfig, estimate_error, wilson_interval, write_trials_csv
from manyaccess.model import SystemParams, make_joint_schedule
from manyaccess.partition import build_partition, typeclass_probability, verify_partition
from manyaccess.rng import make_rng, substream


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_01_mu_consistency():
    est = mu_monte_carlo(2, 10**6, make_rng(101))
    target = 1.0 - math.exp(-2.0)
    mc_ok = abs(est.value - target) <= 0.002
    dominance = all(
        mu_chernoff_lb(length).value <= mu_exact(length).value for length in range(1, 513)
    )
    ok = mc_ok and dominance
    report(1, "mu-consistency", ok,
           f"mc={est.value:.6f} target={target:.6f} chernoff<=exact on 1..512: {dominance}")
    assert ok


def test_criterion_02_formula_cross_check():
    rng = make_rng(202)
    worst = 0.0
    for _ in range(100):
        rho = float(rng.uniform(0.05, 1.0))
        M = int(rng.integers(2, 1025))
        n_msg = int(rng.integers(10, 1001))
        E_msg = float(rng.uniform(0.1, 50.0))
        N0 = float(rng.uniform(0.5, 4.0))
        a = bounds.pr_type_error_ub(1.0, rho, M, 1, E_msg, n_msg, N0, 1.0).value
        b = bounds.gallager_awgn(M, n_msg, E_msg / n_msg, N0, rho).value
        worst = max(worst, abs(a - b) / b)
    ok = worst <= 1e-12
    report(2, "single-user-reduction", ok, f"worst relative gap {worst:.2e} over 100 points")
    assert ok


def test_criterion_03_ortho_bound_continuity():
    worst = 0.0
    for N0 in (0.5, 1.0, 2.0, 4.0):
        R = 1.0 / (4.0 * N0)
        ln_m = math.log(64)
        low = math.exp(-(ln_m / R) * (1.0 / (2.0 * N0) - R))
        high = math.exp(-(ln_m / R) * (math.sqrt(1.0 / N0) - math.sqrt(R)) ** 2)
        val = bounds.ortho_code_bound(64, R, N0).value
        worst = max(worst, abs(low - high) / high, abs(val - low) / low)
    ok = worst <= 1e-12
    report(3, "ortho-branch-continuity", ok, f"worst relative gap {worst:.2e}")
    assert ok


def test_criterion_04_ppm_decoder_vs_bound():
    M, N0, R = 256, 2.0, 0.125
    E = math.log(M) / R
    bound = bounds.ortho_code_bound(M, R, N0).value
    trials = 10**5
    rng = make_rng(404)
    amp = math.sqrt(E)
    sigma = math.sqrt(N0 / 2.0)
    errors = 0
    block = 10**4
    done = 0
    while done < trials:
        m = min(block, trials - done)
        w = rng.integers(1, M + 1, size=m)
        slots = rng.standard_normal((m, M + 1)) * sigma
        slots[np.arange(m), w] += amp
        for i in range(m):
            errors += int(decode_ppm(slots[i], M) != w[i])
        done += m
    rate = errors / trials
    hi = wilson_interval(errors, trials)[1]
    sigma_mc = (hi - rate) / 1.959963984540054
    ok = rate <= bound + 3.0 * sigma_mc
    report(4, "ppm-vs-ortho-bound", ok,
           f"empirical={rate:.5f} bound={bound:.5f} (+3sigma={bound + 3 * sigma_mc:.5f})")
    assert ok


def test_criterion_05_pilot_miss_rate():
    tE, N0, trials = 4.0, 2.0, 10**5
    # oracle: Q(sqrt(tE/(2 N0))) via erfc
    arg = math.sqrt(tE / (2.0 * N0))
    target = 0.5 * float(erfc(arg / math.sqrt(2.0)))
    rng = make_rng(505)
    y = math.sqrt(tE) + rng.standard_normal(trials) * math.sqrt(N0 / 2.0)
    misses = int(np.count_nonzero(y <= math.sqrt(tE) / 2.0))
    rate = misses / trials
    sigma = math.sqrt(target * (1.0 - target) / trials)
    ok = abs(rate - target) <= 3.0 * sigma
    report(5, "pilot-miss-rate", ok,
           f"empirical={rate:.6f} Q-target={target:.6f} 3sigma={3 * sigma:.6f}")
    assert ok


def test_criterion_06_exhaustive_ls_detector():
    # noiseless: 100/100 exact recoveries at ell=12, |d| <= 3, v=4
    recovered = 0
    for seed in range(100):
        rng = substream(606, seed)
        S = gen_signatures(12, 128, 6.0, rng)
        d = np.zeros(12, dtype=int)
        d[rng.choice(12, size=int(rng.integers(1, 4)), replace=False)] = 1
        res = detect_ls_exhaustive(S.rows.T @ d, S, v=4)
        recovered += int(np.array_equal(res.d_hat, d))
    noiseless_ok = recovered == 100

    # noisy comparison at the joint schedule, guarded on budget validity
    params = SystemParams(n=4096, ell=16, alpha=0.125, N0=2.0)
    sched = make_joint_schedule(params, 0.5)
    budget = bounds.detection_budget(params, sched, BoundParams(), mu_exact(sched.n_sig).value)
    trials = 300
    wrong = 0
    v = v_cap(params, sched)
    for seed in range(trials):
        rng = substream(607, seed)
        S = gen_signatures(params.ell, sched.n_sig, sched.E_sig, rng)
        d = (rng.random(params.ell) < params.alpha).astype(int)
        Y = S.rows.T @ d + rng.standard_normal(sched.n_sig) * math.sqrt(params.N0 / 2.0)
        wrong += int(not np.array_equal(detect_ls_exhaustive(Y, S, v=v).d_hat, d))
    rate = wrong / trials
    if budget.value < 1.0:
        sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / trials)
        noisy_ok = rate <= budget.value + 3.0 * sigma
        noisy_note = f"empirical={rate:.4f} <= budget={budget.value:.4f}+3sigma"
    else:
        # the budget is vacuous (> 1) at desk scale, so the comparison is
        # guarded off; the empirical rate is reported for information
        noisy_ok = True
        noisy_note = f"budget={budget.value:.3g} invalid (vacuous guard); empirical={rate:.4f}"
    ok = noiseless_ok and noisy_ok
    report(6, "exhaustive-ls-detector", ok, f"noiseless {recovered}/100; {noisy_note}")
    assert ok


def test_criterion_07_two_phase_end_to_end():
    cfg = ExperimentConfig(
        scheme="joint",
        params=SystemParams(n=512, ell=8, alpha=0.25, N0=2.0),
        split=0.5,
        M=4,
        bp=BoundParams(xi=8),
        trials=400,
        master_seed=707,
    )
    summary = estimate_error(cfg)
    sigma = math.sqrt((1 / 8) * (7 / 8) / cfg.trials)
    markov_ok = summary.overflow_rate <= 1.0 / cfg.bp.xi + 3.0 * sigma
    books_ok = all(
        r.k_true + r.kappa2 == r.d_hat_weight + r.kappa1 for r in summary.records
    )
    ok = markov_ok and books_ok
    report(7, "two-phase-end-to-end", ok,
           f"overflow={summary.overflow_rate:.4f} <= 1/xi+3sigma={1 / 8 + 3 * sigma:.4f}; "
           f"bookkeeping {sum(r.k_true + r.kappa2 == r.d_hat_weight + r.kappa1 for r in summary.records)}"
           f"/{cfg.trials}")
    assert ok


def test_criterion_08_partition_suite():
    checked = 0
    all_ok = True
    for ell in range(5, 9):
        for M in (2, 3):
            for t in range(1, ell + 1):
                p = build_partition(ell, M, t)
                rep = verify_partition(p, ell)
                all_ok &= rep.ok
                checked += 1
            total = sum(typeclass_probability(ell, M, t, 0.37) for t in range(ell + 1))
            all_ok &= abs(total - 1.0) <= 1e-12
    report(8, "partition-suite", all_ok, f"{checked} partitions verified, masses sum to 1")
    assert all_ok


def test_criterion_09_birge_dominance():
    rng = make_rng(909)
    N0, trials = 2.0, 10**4
    violations = 0
    margins = []
    for inst in range(50):
        N = int(rng.integers(3, 9))
        dim = int(rng.integers(2, 7))
        means = rng.standard_normal((N, dim)) * float(rng.uniform(0.4, 1.5))
        D = np.zeros((N, N))
        for i in range(N):
            for j in range(N):
                if i != j:
                    delta = means[i] - means[j]
                    D[i, j] = bounds.gaussian_kl(float(delta @ delta), N0)
        bound = bounds.birge_bound(D)
        labels = rng.integers(0, N, size=trials)
        obs = means[labels] + rng.standard_normal((trials, dim)) * math.sqrt(N0 / 2.0)
        d2 = ((obs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        success = float((d2.argmin(axis=1) == labels).mean())
        margins.append(bound - success)
        violations += int(success > bound)
    ok = violations == 0
    report(9, "birge-dominance", ok,
           f"0 violations in 50 instances, min margin {min(margins):.4f}" if ok
           else f"{violations} violations")
    assert ok


def test_criterion_10_converse_trends():
    # oracle: direct term-by-term evaluation of the Fano converse
    def direct(n, E, N0):
        return math.log(4.0) / (n * E) + (n / (2.0 * n * E)) * math.log1p(
            2.0 * n * E / (n * N0)
        )

    vals, oracle = [], []
    for n in (2**10, 2**14, 2**18):
        params = SystemParams(n=n, ell=n, alpha=1.0, N0=2.0)
        vals.append(bounds.converse_joint(params, math.log(n), 0.0).value)
        oracle.append(direct(n, math.log(n), 2.0))
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    # final-point value pinned against the independent term-by-term
    # evaluation (0.104233 at n = 2^18) with a 10% window
    point_ok = abs(vals[-1] - oracle[-1]) <= 0.10 * oracle[-1]
    exact_ok = all(abs(v - o) <= 1e-12 * o for v, o in zip(vals, oracle))
    lb = bounds.joint_error_lb(0.01, 10**6, 1.0, 2e-6).value
    lb_ok = abs(lb - 0.661) <= 0.001
    ok = decreasing and point_ok and exact_ok and lb_ok
    report(10, "converse-trends", ok,
           f"sup-family bound {vals[0]:.4f} > {vals[1]:.4f} > {vals[2]:.4f} "
           f"(oracle {oracle[-1]:.6f}); joint_error_lb={lb:.4f}")
    assert ok


@pytest.fixture(scope="module")
def criterion_11_summaries():
    """The 1000 trials of each growth point n = 256, 1024, 4096 (master
    seeds 1111-1113), run once for criterion 11 and its digest pins."""
    summaries = []
    for idx, n in enumerate((256, 1024, 4096)):
        ell = math.ceil(n ** (1 / 3))
        params = SystemParams(n=n, ell=ell, alpha=2.0 / ell, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        M = max(2, round(math.exp(0.125 * sched.E)))
        cfg = ExperimentConfig(
            scheme="joint", params=params, split=0.5, M=M,
            bp=BoundParams(xi=8), trials=1000, master_seed=1111 + idx,
        )
        summaries.append(estimate_error(cfg))
    return summaries


def test_criterion_11_phase_transition_witness(criterion_11_summaries):
    # achievability half of the phase transition along the sublinear
    # growth family: the average per-user error (ape = wrong/ell) must
    # fall strictly at each step, each drop separated at 99.9%
    # (gap > 3.29 combined standard errors).  Signature coordinates have
    # variance E_sig/(2 n_sig), so per-user LS detection flips with
    # probability about Q(sqrt(E_sig/(4 N0))) ~ 0.24 -> 0.19 -> 0.14 here.
    # With ell growing 7 -> 16 the joint error (some user wrong) stays near
    # 0.91-0.96 at any desk-scale n, and the paper sets no finite-n target
    # for it, so it is reported with its Wilson interval but not asserted
    z = 3.290526731491926  # two-sided 99.9% normal quantile
    summaries = criterion_11_summaries
    steps = list(zip(summaries, summaries[1:]))
    drops = [a.ape - b.ape for a, b in steps]
    needed = [z * math.hypot(a.ape_stderr, b.ape_stderr) for a, b in steps]
    ok = all(d > need for d, need in zip(drops, needed))
    report(11, "phase-transition-witness", ok,
           "per-user errors " + " -> ".join(f"{s.ape:.3f}+-{s.ape_stderr:.3f}" for s in summaries)
           + " (drops " + ", ".join(f"{d:.3f}" for d in drops)
           + " need > " + ", ".join(f"{need:.3f}" for need in needed)
           + " at 99.9%); joint errors "
           + " -> ".join(f"{s.joint_err:.3f} [{s.joint_err_ci[0]:.3f},{s.joint_err_ci[1]:.3f}]"
                         for s in summaries)
           + " (reported only)")
    assert ok


# the numpy release these digests were pinned on: another release may draw
# Generator variates or round a reduction differently, so a failure names both
PINNED_ON = f"pinned on numpy 2.4.6, running numpy {np.__version__}"


@pytest.mark.parametrize("point,digest", [
    (0, "73a2c445721b6b63e2a8bf2da1b12906286a75375cb94fa092ddcb172303d904"),
    (1, "7f78cff12be4c1cb3074414e6b9e239c7f8bec859bd1bba05f3a2ef150876e2a"),
    (2, "65dc7be579590879e6bec5072c9edc96b88872d4bc348458454aff71de58909a"),
], ids=["n256", "n1024", "n4096"])
def test_criterion_11_trials_csv_pinned(criterion_11_summaries, tmp_path, point, digest):
    # every one of criterion 11's 3 x 1000 trial records, byte for byte, as
    # the README's Reproducibility section promises: a receiver change that
    # moves any decision changes a digest
    path = tmp_path / "trials.csv"
    write_trials_csv(path, criterion_11_summaries[point].records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, PINNED_ON


def test_criterion_12_simulate_determinism(tmp_path, capsys):
    cfg = {
        "scheme": "joint", "n": 512, "ell": 8, "alpha": 0.25, "N0": 2.0,
        "b": 0.5, "M": 4, "xi": 8, "trials": 25, "master_seed": 1212,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for tag in ("a", "b"):
        trials_csv = tmp_path / f"trials_{tag}.csv"
        summary_csv = tmp_path / f"summary_{tag}.csv"
        rc = main(["simulate", str(cfg_path), "--trials-csv", str(trials_csv),
                   "--summary-csv", str(summary_csv)])
        assert rc == EXIT_OK
        outs.append((trials_csv.read_bytes(), summary_csv.read_bytes()))
    capsys.readouterr()
    ok = outs[0] == outs[1]
    report(12, "simulate-determinism", ok,
           f"per-trial and summary CSVs byte-identical across runs: {ok}")
    assert ok
