import csv
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyaccess import bounds, harness
from manyaccess.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main
from manyaccess.codebooks import mu_exact
from manyaccess.decoding import BoundParams
from manyaccess.model import SystemParams, make_joint_schedule, single_user_capacity_pue

JOINT_CONFIG = {
    "scheme": "joint", "n": 512, "ell": 8, "alpha": 0.25, "N0": 2.0,
    "b": 0.5, "M": 4, "xi": 8, "trials": 12, "master_seed": 31337,
}
ORTHO_CONFIG = {
    "scheme": "ortho", "n": 512, "ell": 8, "alpha": 0.25, "N0": 2.0,
    "t": 0.25, "M": 4, "trials": 12, "master_seed": 31337,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(JOINT_CONFIG))
    return str(path)


@pytest.fixture
def family_path(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(
        json.dumps({"name": "sub", "ell_expr": "ceil(n**(1/3))", "alpha_expr": "2/ell"})
    )
    return str(path)


SYSTEM = {"n": 512, "ell": 8, "alpha": 0.25, "N0": 2.0}
SYSTEM_PARAMS = SystemParams(n=512, ell=8, alpha=0.25, N0=2.0)
SYSTEM_SCHED = make_joint_schedule(SYSTEM_PARAMS, 0.5)
DECODE = {"rho": 0.75, "M": 4, "k_active": 3, "E_msg": 5.0, "n_msg": 200, "N0": 2.0}

# name -> (--params, the direct call the printed JSON must equal)
BOUND_CASES = {
    "e0_msg": (
        {"a": 2 / 3, "rho": 0.75, "k_active": 3, "E_msg": 5.0, "n_msg": 200, "N0": 2.0},
        lambda: {"value": bounds.e0_msg(2 / 3, 0.75, 3, 5.0, 200, 2.0)},
    ),
    "pr_type_error_ub": (
        {"a": 2 / 3, **DECODE, "mu": 0.9},
        lambda: bounds.pr_type_error_ub(2 / 3, 0.75, 4, 3, 5.0, 200, 2.0, 0.9).to_dict(),
    ),
    "decode_error_budget": (
        {**DECODE, "mu": 0.9},
        lambda: bounds.decode_error_budget(0.75, 4, 3, 5.0, 200, 2.0, 0.9).to_dict(),
    ),
    "f_msg": (
        {"a": 2 / 3, **DECODE},
        lambda: {"value": bounds.f_msg(2 / 3, 0.75, 4, 3, 5.0, 200, 2.0)},
    ),
    "detect_exponent_g": (
        {"lambda": 2 / 3, "rho": 0.75, "kappa1": 1, "kappa2": 2, "d_weight": 3,
         "ell": 8, "n_sig": 256, "E_sig": 5.0},
        lambda: {"value": bounds.detect_exponent_g(2 / 3, 0.75, 1, 2, 3, 8, 256, 5.0)},
    ),
    "detection_budget": (
        {**SYSTEM, "b": 0.5, "xi": 4},
        lambda: bounds.detection_budget(
            SYSTEM_PARAMS, SYSTEM_SCHED, BoundParams(xi=4), mu_exact(SYSTEM_SCHED.n_sig).value
        ).to_dict(),
    ),
    "two_phase_error_budget": (
        {**SYSTEM, "b": 0.5, "M": 4, "rho": 0.5, "lambda": 0.5},
        lambda: bounds.two_phase_error_budget(
            SYSTEM_PARAMS, SYSTEM_SCHED, BoundParams(rho=0.5, lam=0.5), 4
        ).to_dict(),
    ),
    "gallager_awgn": (
        {"M": 16, "n_code": 64, "P": 0.5, "N0": 2.0, "rho": 0.5},
        lambda: bounds.gallager_awgn(16, 64, 0.5, 2.0, 0.5).to_dict(),
    ),
    "ortho_code_bound": (
        {"M": 256, "R_dot_nats": 0.2, "N0": 2.0},
        lambda: bounds.ortho_code_bound(256, 0.2, 2.0).to_dict(),
    ),
    "ortho_user_error_bound": (
        {"M": 8, "t": 0.25, "E": 30.0, "N0": 2.0},
        lambda: bounds.ortho_user_error_bound(8, 0.25, 30.0, 2.0).to_dict(),
    ),
    "converse_joint": (
        {**SYSTEM, "E": 10.0, "Pe": 0.05},
        lambda: bounds.converse_joint(SYSTEM_PARAMS, 10.0, 0.05).to_dict(),
    ),
    "converse_ape": (
        {**SYSTEM, "E": 10.0, "Pe_A": 0.05},
        lambda: bounds.converse_ape(SYSTEM_PARAMS, 10.0, 0.05).to_dict(),
    ),
    "converse_ortho_user": (
        {"E": 10.0, "n1": 64, "N0": 2.0, "P1": 0.1},
        lambda: bounds.converse_ortho_user(10.0, 64, 2.0, 0.1).to_dict(),
    ),
    "joint_error_lb": (
        {"E": 0.001, "ell": 64, "N0": 2.0, "alpha": 0.1},
        lambda: bounds.joint_error_lb(0.001, 64, 2.0, 0.1).to_dict(),
    ),
    "gaussian_kl": (
        {"delta_sq_norm": 3.0, "N0": 2.0},
        lambda: {"value": bounds.gaussian_kl(3.0, 2.0)},
    ),
    "normal_tail": (
        {"x": 1.5},
        lambda: bounds.normal_tail(1.5)._asdict(),
    ),
    "capacity_pue": (
        {"N0": 4.0},
        lambda: {"nats": single_user_capacity_pue(4.0),
                 "bits": single_user_capacity_pue(4.0) / math.log(2.0)},
    ),
}


class TestBoundsCmd:
    @pytest.mark.parametrize("name", sorted(BOUND_CASES))
    def test_every_bound_matches_direct_call(self, name, capsys):
        params, direct = BOUND_CASES[name]
        assert main(["bounds", name, "--params", json.dumps(params)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out) == json.loads(json.dumps(direct()))

    @pytest.mark.parametrize("name", sorted(BOUND_CASES))
    def test_every_bound_missing_key(self, name, capsys):
        params, _ = BOUND_CASES[name]
        missing = dict(params)
        missing.pop(sorted(missing)[0])
        assert main(["bounds", name, "--params", json.dumps(missing)]) == EXIT_CONFIG

    def test_ortho_code_bound(self, capsys):
        rc = main(["bounds", "ortho_code_bound", "--params",
                   '{"M": 256, "R_dot_nats": 0.125, "N0": 2}'])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(1 / 256, rel=1e-12)
        assert payload["valid"] is True and "terms" in payload

    def test_capacity(self, capsys):
        rc = main(["bounds", "capacity_pue", "--params", '{"N0": 2}'])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["nats"] == pytest.approx(0.5)
        assert payload["bits"] == pytest.approx(0.5 / math.log(2.0))

    def test_unknown_bound(self, capsys):
        assert main(["bounds", "nope", "--params", "{}"]) == EXIT_CONFIG

    def test_bad_params(self):
        assert main(["bounds", "ortho_code_bound", "--params", "{"]) == EXIT_CONFIG

    def test_non_numeric_param(self, capsys):
        assert main(["bounds", "normal_tail", "--params", '{"x": "a"}']) == EXIT_CONFIG
        assert "finite numbers" in capsys.readouterr().err

    def test_params_not_an_object(self, capsys):
        assert main(["bounds", "capacity_pue", "--params", "[1]"]) == EXIT_CONFIG
        assert "finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value", ["true", "NaN", "1e400", "1" + "0" * 400], ids=["bool", "nan", "inf", "huge"]
    )
    def test_non_finite_param(self, value):
        assert main(["bounds", "normal_tail", "--params", f'{{"x": {value}}}']) == EXIT_CONFIG


    @pytest.mark.parametrize("name,params", [
        ("decode_error_budget", {**DECODE, "k_active": 3.5, "mu": 0.9}),
        ("detect_exponent_g", {**BOUND_CASES["detect_exponent_g"][0], "n_sig": 256.5}),
    ])
    def test_count_must_be_whole(self, name, params, capsys):
        assert main(["bounds", name, "--params", json.dumps(params)]) == EXIT_CONFIG
        assert "must be a whole number" in capsys.readouterr().err

    def test_ortho_user_bound_needs_positive_noise(self, capsys):
        params = {"M": 4, "t": 0.5, "E": 10, "N0": 0}
        assert main(["bounds", "ortho_user_error_bound", "--params", json.dumps(params)]) == EXIT_CONFIG
        assert "noise level must be positive" in capsys.readouterr().err

    def test_overflowing_bound(self, capsys):
        params = {"a": 2 / 3, **DECODE, "M": 1e300, "mu": 0.9}
        assert main(["bounds", "pr_type_error_ub", "--params", json.dumps(params)]) == EXIT_CONFIG
        assert "overflows" in capsys.readouterr().err


class TestSimulateCmd:
    def test_runs_and_reports(self, capsys, config_path):
        rc = main(["simulate", config_path])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 512 and 0.0 <= payload["joint_err"] <= 1.0

    def test_byte_identical_csv(self, tmp_path, config_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", config_path, "--trials-csv", a]) == EXIT_OK
        assert main(["simulate", config_path, "--trials-csv", b]) == EXIT_OK
        capsys.readouterr()
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_seed_override_changes_output(self, tmp_path, config_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", config_path, "--trials-csv", a, "--seed", "1"]) == EXIT_OK
        assert main(["simulate", config_path, "--trials-csv", b, "--seed", "2"]) == EXIT_OK
        capsys.readouterr()
        assert Path(a).read_bytes() != Path(b).read_bytes()

    def test_missing_file(self):
        assert main(["simulate", "/nonexistent.json"]) == EXIT_CONFIG

    def test_bad_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"scheme": "joint", "n": 512}))
        assert main(["simulate", str(path)]) == EXIT_CONFIG

    def test_overflowing_blocklength(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(JOINT_CONFIG).replace('"n": 512', '"n": 1e400'))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert "bad config" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1]")
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("noiseless", "false"), ("fixed_codebooks", "no"),
                                           ("noiseless", 0)])
    def test_flag_must_be_boolean(self, tmp_path, capsys, key, value):
        path = tmp_path / "flag.json"
        path.write_text(json.dumps(dict(JOINT_CONFIG, **{key: value})))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert f"{key} must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [("M", 4.7), ("trials", 2.5), ("n", 512.5),
                                           ("ell", 8.5), ("xi", 7.9), ("master_seed", 1.5),
                                           ("ell", True), ("M", "4")])
    def test_counts_are_not_truncated(self, tmp_path, capsys, key, value):
        path = tmp_path / "frac.json"
        path.write_text(json.dumps(dict(JOINT_CONFIG, **{key: value})))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert f"{key} must be a whole number" in capsys.readouterr().err

    def test_whole_float_counts_accepted(self, tmp_path, capsys, config_path):
        path = tmp_path / "whole.json"
        path.write_text(json.dumps(dict(JOINT_CONFIG, M=4.0, trials=12.0)))
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", str(path), "--trials-csv", a]) == EXIT_OK
        assert main(["simulate", config_path, "--trials-csv", b]) == EXIT_OK
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_unknown_scheme(self, tmp_path, capsys):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(dict(JOINT_CONFIG, scheme="xyz")))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert "unknown scheme 'xyz'" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("xi", 1e308, "xi * k must be finite"),
        ("alpha", 1e-308, "total energy must be positive and finite"),
        ("N0", 1e308, "n*N0 finite"),
    ])
    def test_overflowing_value_refused(self, tmp_path, capsys, key, value, message):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(dict(JOINT_CONFIG, **{key: value})))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_unallocatable_codebook(self, tmp_path, capsys):
        # 10**14 words of length 2048 take 1.4 EiB, beyond any address space,
        # so the allocation fails at once; a size that fits could be granted
        # under overcommit and then exhaust the machine
        path = tmp_path / "huge_book.json"
        path.write_text(json.dumps(dict(JOINT_CONFIG, n=4096, alpha=1.0, M=10**14, trials=1)))
        assert main(["simulate", str(path)]) == EXIT_BUDGET
        assert "Unable to allocate" in capsys.readouterr().err

    def test_detection_budget_abort(self, tmp_path):
        # ell = 64 with a huge weight cap: the candidate enumeration itself
        # exceeds the budget, which must surface as exit code 3
        cfg = dict(JOINT_CONFIG, ell=64, alpha=0.25, n=8192, trials=1)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", str(path)]) == EXIT_BUDGET


class TestSweepCmd:
    def test_sweep_csv(self, tmp_path, family_path, capsys):
        out = str(tmp_path / "sweep.csv")
        rc = main([
            "sweep", "--family", family_path, "--n-grid", "256,1024,4096",
            "--rate-fraction", "0.25", "--out", out,
        ])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == 3
        assert payload["verdicts"]["regime"] == "sublinear"
        assert Path(out).read_text().startswith("n,ell,alpha")

    def test_failed_point_names_its_error(self, tmp_path, capsys):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"name": "f", "ell_expr": "n", "alpha_expr": "1/(n-n)"}))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", str(fam), "--n-grid", "256,1024", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        lines = out.read_text().splitlines()
        rows = list(csv.DictReader(lines))
        assert [r["n"] for r in rows] == ["256", "1024"]
        assert all("division by zero" in r["error"] for r in rows)
        # nothing else was computed, so every other cell is empty
        assert all(v == "" for r in rows for key, v in r.items() if key not in ("n", "error"))

    def test_invalid_point_is_a_failed_row(self, tmp_path, family_path, capsys):
        # at n = 1 the family gives ell = 1 and alpha = 2, which SystemParams refuses
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "1,256,1024",
                   "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["n"] for r in rows] == ["1", "256", "1024"]
        assert "activity probability must be in (0,1]" in rows[0]["error"]
        assert all(r["error"] == "" and r["ell"] != "" for r in rows[1:])

    @pytest.mark.parametrize("option,value", [
        ("--split", "1.5"), ("--N0", "0"), ("--rate-fraction", "0"), ("--rate-fraction", "-1"),
    ])
    def test_invalid_global_option(self, tmp_path, family_path, capsys, option, value):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "256,1024,4096",
                   option, value, "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert not out.exists()

    def test_detection_budget_row_keeps_schedule(self, tmp_path, family_path, capsys):
        # at n = 16384 the family gives ell = 26: 64 574 877 candidate
        # supports, over detection's budget, which the first trial hits
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "4096,16384", "--trials", "1",
                   "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        row = list(csv.DictReader(out.read_text().splitlines()))[1]
        params = harness.load_family(family_path).params_at(16384)
        assert float(row["E"]) == pytest.approx(make_joint_schedule(params, 0.5).E, rel=1e-11)
        assert row["R_dot_nats"] != "" and row["budget_total"] != ""
        assert row["joint_err"] == "" and "exceed the budget" in row["error"]

    def test_overflowing_rate_is_a_failed_row(self, tmp_path, family_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "256,1024,4096",
                   "--rate-fraction", "100", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        family = harness.load_family(family_path)
        for row in csv.DictReader(out.read_text().splitlines()):
            assert "overflows" in row["error"]
            sched = make_joint_schedule(family.params_at(int(row["n"])), 0.5)
            assert float(row["E"]) == pytest.approx(sched.E, rel=1e-11) and row["converse_nats"]
            assert row["R_dot_nats"] == row["budget_total"] == ""


class TestFamilyExpressions:
    def _family(self, tmp_path, ell_expr="ceil(n**(1/3))", alpha_expr="2/ell"):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"name": "f", "ell_expr": ell_expr, "alpha_expr": alpha_expr}))
        return str(path)

    def test_attribute_escape_rejected(self, tmp_path, capsys):
        fam = self._family(tmp_path, ell_expr="().__class__.__base__.__subclasses__().__len__()")
        assert main(["classify", "--family", fam, "--n-grid", "256,1024,4096"]) == EXIT_CONFIG
        assert "unsupported syntax" in capsys.readouterr().err

    def test_unknown_name(self, tmp_path, capsys):
        fam = self._family(tmp_path, ell_expr="foo(n)")
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--family", fam, "--n-grid", "256,1024", "--out", out]) == EXIT_CONFIG
        assert "unknown function 'foo'" in capsys.readouterr().err

    def test_syntax_error(self, tmp_path):
        fam = self._family(tmp_path, ell_expr="ceil(n**(1/3)")
        assert main(["classify", "--family", fam, "--n-grid", "256,1024,4096"]) == EXIT_CONFIG

    def test_division_by_zero(self, tmp_path, capsys):
        fam = self._family(tmp_path, alpha_expr="1/(n-n)")
        assert main(["classify", "--family", fam, "--n-grid", "256,1024,4096"]) == EXIT_CONFIG
        assert "division by zero" in capsys.readouterr().err

    def test_family_not_an_object(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text("[1]")
        assert main(["classify", "--family", str(path), "--n-grid", "256,1024,4096"]) == EXIT_CONFIG

    def test_huge_power_overflows(self, tmp_path):
        # ** runs in floats: this raises OverflowError instead of hanging
        fam = self._family(tmp_path, ell_expr="10**10**10")
        assert main(["classify", "--family", fam, "--n-grid", "256,1024,4096"]) == EXIT_CONFIG


class TestPartitionCmd:
    def test_report(self, capsys):
        rc = main(["partition", "--ell", "5", "--M", "2", "--t", "2"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["ok"] is True

    def test_budget_exit(self, capsys):
        rc = main(["partition", "--ell", "24", "--M", "4", "--t", "12"])
        assert rc == EXIT_BUDGET


class TestClassifyCmd:
    def test_verdict(self, capsys, family_path):
        rc = main(["classify", "--family", family_path, "--n-grid", "256,1024,4096,16384"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "sublinear"


@pytest.mark.parametrize("argv", [
    ["simulate", "cfg.json", "--format", "csv"],
    ["mu", "2", "--format", "json"],
    ["classify", "--family", "f.json", "--n-grid", "256,1024,4096", "--N0", "2"],
])
def test_removed_options_are_refused(argv, capsys):
    # stdout is JSON throughout, and the regime does not depend on N0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments" in capsys.readouterr().err


class TestMuCmd:
    def test_values(self, capsys):
        rc = main(["mu", "2", "--mc-trials", "20000", "--seed", "3"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == pytest.approx(1 - math.exp(-2), rel=1e-9)
        assert payload["chernoff_lb"] <= payload["exact"]
        assert abs(payload["monte_carlo"] - payload["exact"]) <= 4 * payload["monte_carlo_stderr"]


# the fixed pool of replacement values; sizes that fit in memory (10**6
# to 10**12 words) are left out, since overcommit may grant them
MALFORMED = ["x", "", True, False, None, [], {}, 0, -1, 0.5, 1.5, math.nan, math.inf, -math.inf,
             1e308, -1e308, 1e-308, 10**20, -10**20, 2**63]
# every key a config's build reads (R_dot_nats is not read when M is given)
CONFIG_CASES = [(base, key) for base in (JOINT_CONFIG, ORTHO_CONFIG)
                for key in sorted({*base, "xi", "rho", "lambda", "epsilon",
                                   "fixed_codebooks", "noiseless"})]
BOUND_PARAM_CASES = [(name, key) for name in sorted(BOUND_CASES)
                     for key in sorted(BOUND_CASES[name][0])]


class TestMalformedInput:
    """Each pool value in place of one config key or --params key ends in
    a documented exit code, never a traceback.  Hypothesis (6.155) draws
    every case of a short sampled list once before it repeats one, so
    max_examples = len(cases) tries each (config, key) and (bound, key)."""

    @settings(max_examples=len(CONFIG_CASES), derandomize=True, deadline=None, database=None)
    @given(case=st.sampled_from(CONFIG_CASES))
    def test_simulate_config(self, case):
        base, key = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            for value in MALFORMED:
                path.write_text(json.dumps({**base, key: value}))
                rc = main(["simulate", str(path), "--trials", "1"])
                assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_BUDGET), (key, value)

    @settings(max_examples=len(BOUND_PARAM_CASES), derandomize=True, deadline=None, database=None)
    @given(case=st.sampled_from(BOUND_PARAM_CASES))
    def test_bounds_params(self, case):
        name, key = case
        for value in MALFORMED:
            params = {**BOUND_CASES[name][0], key: value}
            rc = main(["bounds", name, "--params", json.dumps(params)])
            assert rc in (EXIT_OK, EXIT_CONFIG), (key, value)
