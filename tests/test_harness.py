import hashlib
import math

import pytest

from manyaccess.decoding import BoundParams
from manyaccess.errors import ConfigError
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
from manyaccess.model import SystemParams
from manyaccess.rng import substream

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


class TestEstimateError:
    def test_all_success_interval(self):
        cfg = ExperimentConfig(
            scheme="joint", params=TINY.params, split=0.5, M=4,
            trials=35, master_seed=5, noiseless=True,
        )
        s = estimate_error(cfg)
        assert s.joint_err == 0.0
        assert s.joint_err_ci[1] > 0.0
        assert s.interval_valid

    def test_overflow_markov(self):
        s = estimate_error(TINY)
        assert s.overflow_rate <= 1.0 / TINY.bp.xi + 3.0 * math.sqrt(0.125 * 0.875 / s.trials)

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
    def test_sub_family_load_decreasing(self):
        res = sweep(SUB_FAMILY, [256, 1024, 4096], R_dot_fraction=0.25, trials=0)
        assert res.verdicts["load_decreasing"] is True
        assert all(r.error is None for r in res.rows)

    def test_sup_family_converse_decreasing(self):
        res = sweep(SUP_FAMILY, [2**10, 2**14, 2**18], R_dot_fraction=0.25, trials=0)
        # superlinear points cannot build joint schedules, yet the converse
        # trend is still evaluated (at E = ln n) and strictly decreases
        assert all(r.error is not None for r in res.rows)
        assert res.verdicts["converse_decreasing"] is True
        assert res.rows[-1].converse_nats == pytest.approx(0.1042335, abs=1e-6)

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
        row = summary_row(TINY, s, analytic_budget(TINY))
        path = tmp_path / "summary.csv"
        write_summary_csv(path, [row])
        header = path.read_text().splitlines()[0]
        assert header == (
            "n,ell,alpha,k,E,R_dot_nats,R_dot_bits,joint_err,joint_err_ci_lo,"
            "joint_err_ci_hi,ape,overflow_rate,budget_total,budget_valid,"
            "budget_aborts,converse_nats,error"
        )
