import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyaccess import bounds, cli, harness
from manyaccess.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main
from manyaccess.codebooks import mu_exact
from manyaccess.decoding import BoundParams
from manyaccess.errors import ComplexityBudgetError
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


SUB_FAMILY = {"name": "sub", "ell_expr": "ceil(n**(1/3))", "alpha_expr": "2/ell"}


@pytest.fixture
def family_path(tmp_path):
    path = tmp_path / "family.json"
    path.write_text(json.dumps(SUB_FAMILY))
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

    def test_unknown_param_key(self, capsys):
        # a misspelt "lambda" would otherwise run at the default lambda
        params = {**BOUND_CASES["two_phase_error_budget"][0], "lamda": 0.1}
        assert main(["bounds", "two_phase_error_budget", "--params", json.dumps(params)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and "takes no --params key 'lamda'" in captured.err

    @pytest.mark.parametrize("name", ["detection_budget", "two_phase_error_budget"])
    def test_empty_signature_phase(self, name, capsys):
        # b = 0.001 leaves floor(0.256) = 0 signature symbols at n = 256
        params = {**BOUND_CASES[name][0], "n": 256, "ell": 7, "alpha": 0.28, "b": 0.001}
        assert main(["bounds", name, "--params", json.dumps(params)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "signature length 0 and message length 256 must both be >= 1" in captured.err

    @pytest.mark.parametrize("name", ["detection_budget", "two_phase_error_budget"])
    def test_detection_terms_over_cap(self, name, capsys):
        # ell = n/16 at n = 16384 gives v = 423: 38 201 976 terms, refused at once
        params = {**BOUND_CASES[name][0], "n": 16384, "ell": 1024, "alpha": 0.1}
        assert main(["bounds", name, "--params", json.dumps(params)]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "has 38201976 terms, above the cap of 10000000" in captured.err

    def test_overflowing_bound(self, capsys):
        # M^(a k' rho) = e^1036: a bound beyond the float range prints as
        # Infinity, marked invalid, with its reason
        params = {"a": 2 / 3, **DECODE, "M": 1e300, "mu": 0.9}
        assert main(["bounds", "pr_type_error_ub", "--params", json.dumps(params)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "" and '"value": Infinity' in captured.out
        payload = json.loads(captured.out)
        assert payload["value"] == math.inf and payload["valid"] is False
        assert payload["reason"] == "the bound e^1035.78 exceeds the float range"


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

    @pytest.mark.parametrize("key,value,message", [
        ("alpha", True, "alpha must be a number"), ("N0", True, "N0 must be a number"),
        ("b", "0.5", "b must be a number"), ("R_dot_nats", True, "R_dot_nats must be a number"),
        ("rho", "0.5", "rho must be a number"), ("lambda", False, "lambda must be a number"),
        ("epsilon", "nan", "epsilon must be a number"), ("epsilon", -3, "epsilon must be in [0, 1]"),
        ("epsilon", math.nan, "epsilon must be in [0, 1]"),
    ])
    def test_reals_must_be_numbers(self, tmp_path, capsys, key, value, message):
        # R_dot_nats is read only when M is absent
        config = {k: v for k, v in JOINT_CONFIG.items() if not (key == "R_dot_nats" and k == "M")}
        path = tmp_path / "real.json"
        path.write_text(json.dumps(dict(config, **{key: value})))
        assert main(["simulate", str(path), "--trials", "1"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_whole_float_counts_accepted(self, tmp_path, capsys, config_path):
        path = tmp_path / "whole.json"
        path.write_text(json.dumps(dict(JOINT_CONFIG, M=4.0, trials=12.0)))
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", str(path), "--trials-csv", a]) == EXIT_OK
        assert main(["simulate", config_path, "--trials-csv", b]) == EXIT_OK
        assert Path(a).read_bytes() == Path(b).read_bytes()

    @pytest.mark.parametrize("base,key,value", [
        (JOINT_CONFIG, "fixed_codebook", True), (JOINT_CONFIG, "lamda", 0.1),
        (JOINT_CONFIG, "t", 0.5), (ORTHO_CONFIG, "b", 0.5),
    ], ids=["fixed_codebook", "lamda", "t-in-joint", "b-in-ortho"])
    def test_unknown_config_key(self, tmp_path, capsys, base, key, value):
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(dict(base, **{key: value})))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_thread_count_below_one(self, config_path, capsys, monkeypatch, threads):
        monkeypatch.setattr(harness, "run_trial", _no_work)
        assert main(["simulate", config_path, "--threads", threads]) == EXIT_CONFIG
        assert "threads must be >= 1" in capsys.readouterr().err

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

    def test_ortho_above_capacity_summary_row(self, tmp_path, capsys):
        # t = 0.9 leaves the pulse (1-t)E = 3.4 of E = 34.3, so its rate
        # ln(8)/3.4 = 0.61 is above 1/N0: no finite budget, and the row says why
        cfg = dict(ORTHO_CONFIG, n=4096, alpha=0.5, t=0.9, M=8, trials=2)
        path, summary = tmp_path / "ortho.json", tmp_path / "summary.csv"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", str(path), "--summary-csv", str(summary)]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        [row] = csv.DictReader(summary.read_text().splitlines())
        assert row["budget_total"] == row["budget_valid"] == "" and row["joint_err"] != ""
        assert "exceeds capacity per unit energy" in row["error"]
        assert payload["budget_total"] is None and payload["error"] == row["error"]

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

    def test_grid_not_increasing_exits_2(self, tmp_path, family_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "4096,1024,256", "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "n grid must be strictly increasing, got 4096, 1024, 256" in capsys.readouterr().err

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
        ("--trials", "-5"), ("--threads", "0"), ("--threads", "-3"),
    ])
    def test_invalid_global_option(self, tmp_path, family_path, capsys, option, value,
                                   monkeypatch):
        monkeypatch.setattr(harness, "run_trial", _no_work)
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

    def test_detection_terms_over_cap_is_a_failed_row(self, tmp_path, capsys):
        # ell = n/16, alpha 0.1: at n = 16384 the detection budget's weight
        # cap v = 423 would sum 3.8e7 terms, which takes minutes
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"name": "n16", "ell_expr": "n/16", "alpha_expr": "0.1"}))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", str(fam), "--n-grid", "16384", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        [row] = list(csv.DictReader(out.read_text().splitlines()))
        assert row["E"] != "" and row["R_dot_nats"] != "" and row["converse_nats"] != ""
        assert row["budget_total"] == row["budget_valid"] == ""
        assert row["error"] == "detection budget at v = 423, ell = 1024 has 38201976 terms, " \
                               "above the cap of 10000000"

    def test_unallocatable_codebook_is_a_failed_row(self, tmp_path, capsys):
        # ell = ceil(n/(2 ln n)) at twice the capacity per unit energy: at
        # n = 4096 the codebook takes 2.06 EiB, beyond any address space, so
        # the allocation fails at once (n = 1024 asks 3.19 TiB, which a host
        # that always overcommits could grant and then fill)
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"name": "half", "ell_expr": "ceil(n/(2*log(n)))",
                                   "alpha_expr": "2/ell"}))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", str(fam), "--n-grid", "64,128,4096",
                   "--rate-fraction", "2.0", "--trials", "2", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["n"] for r in rows] == ["64", "128", "4096"]
        assert all(r["error"] == "" and r["joint_err"] != "" for r in rows[:2])
        assert "Unable to allocate 2.06 EiB" in rows[2]["error"]
        assert rows[2]["R_dot_nats"] != "" and rows[2]["budget_total"] != ""
        assert rows[2]["joint_err"] == ""

    def test_unrepresentable_codebook_is_a_failed_row(self, tmp_path, capsys, monkeypatch):
        # the same family further out: at n = 8192, M = 1.97e17 words of
        # 4096 uses are past numpy's largest array; at n = 16384, M = 6.2e20
        # is past int64.  Both are refused before a trial runs.
        def no_trial(cfg, i):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "run_trial", no_trial)
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"name": "half", "ell_expr": "ceil(n/(2*log(n)))",
                                   "alpha_expr": "2/ell"}))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", str(fam), "--n-grid", "8192,16384",
                   "--rate-fraction", "2.0", "--trials", "1", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["n"] for r in rows] == ["8192", "16384"]
        assert "exceeds numpy's largest array" in rows[0]["error"]
        assert "do not fit in int64" in rows[1]["error"]
        for row in rows:
            assert row["R_dot_nats"] != "" and row["budget_total"] != ""
            assert row["joint_err"] == ""

    def test_overflowing_rate_is_a_failed_row(self, tmp_path, family_path, capsys):
        # rate 50 nats: at n = 256 and 1024 M = e^(50 E) is a float, but the
        # decode sum is not; at n = 4096 M itself is beyond the float range
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "256,1024,4096",
                   "--rate-fraction", "100", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        family = harness.load_family(family_path)
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [row["n"] for row in rows] == ["256", "1024", "4096"]
        for row in rows:
            sched = make_joint_schedule(family.params_at(int(row["n"])), 0.5)
            assert float(row["E"]) == pytest.approx(sched.E, rel=1e-11) and row["converse_nats"]
            assert row["budget_total"] == row["budget_valid"] == ""
        for row in rows[:2]:
            assert row["error"] == "no error budget: decode exceeds the float range"
            assert float(row["R_dot_nats"]) == pytest.approx(50.0, rel=1e-12)
        assert rows[2]["error"] == "rate overflows: math range error"
        assert rows[2]["R_dot_nats"] == rows[2]["R_dot_bits"] == ""

    def test_ortho_slot_condition_is_not_the_load_regime(self, tmp_path, capsys):
        # ell = ceil(2n/ln n) breaks the orthogonal scheme's ell*ln(n) < n at
        # every point, while the load k*ln(ell)/n still falls (k = 2)
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({"name": "lin", "ell_expr": "ceil(2*n/log(n))",
                                   "alpha_expr": "2/ell"}))
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", str(fam), "--n-grid", "256,1024,4096",
                   "--scheme", "ortho", "--out", str(out)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdicts"]["regime"] == "sublinear"
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        for row in rows:
            assert "orthogonal access needs ell*ln(n) < n" in row["error"]
            assert "sublinear" not in row["error"]

    def test_ortho_above_capacity_leaves_budget_empty(self, tmp_path, family_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "256,1024,4096",
                   "--scheme", "ortho", "--rate-fraction", "0.9", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 3
        for row in rows:
            assert row["budget_total"] == row["budget_valid"] == ""
            assert row["E"] != "" and row["R_dot_nats"] != ""
            assert "exceeds capacity per unit energy" in row["error"]

    def test_ortho_slot_too_short_is_a_failed_row(self, tmp_path, family_path, capsys):
        # at rate fraction 0.9, n = 256 needs M + 1 = 112 pulse positions in a 36-use slot
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "256,1024,4096",
                   "--scheme", "ortho", "--rate-fraction", "0.9", "--trials", "2",
                   "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["n"] for r in rows] == ["256", "1024", "4096"]
        assert "slot length 36 < M+1 = 112" in rows[0]["error"]
        for row in rows:
            assert row["E"] != "" and row["R_dot_nats"] != "" and row["joint_err"] == ""
        # simulate still refuses such a config
        cfg = dict(ORTHO_CONFIG, n=256, ell=7, alpha=2 / 7, M=111)
        path = tmp_path / "ortho.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert "slot length 36 < M+1 = 112" in capsys.readouterr().err

    @pytest.mark.parametrize("scheme", ["joint", "ortho"])
    def test_point_at_n_1_is_a_failed_row(self, tmp_path, capsys, scheme):
        # n = 1 is outside either scheme's regime, so its row takes E = ln 1 = 0,
        # where no converse is defined: the row keeps its regime error, its
        # converse stays empty, and the sweep goes on
        fam, out = tmp_path / "two.json", tmp_path / "sweep.csv"
        fam.write_text(json.dumps({"name": "two", "ell_expr": "2", "alpha_expr": "0.5"}))
        rc = main(["sweep", "--family", str(fam), "--n-grid", "1,256,1024",
                   "--scheme", scheme, "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [(r["n"], r["E"], r["converse_nats"]) for r in rows[:1]] == [("1", "0", "")]
        assert rows[0]["error"] and "energy" not in rows[0]["error"]
        assert all(r["error"] == "" and r["converse_nats"] != "" for r in rows[1:])

    def test_empty_signature_phase_is_a_failed_row(self, tmp_path, family_path, capsys):
        # at n = 4 the split 0.1 leaves floor(0.4) = 0 signature symbols
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--family", family_path, "--n-grid", "4,256,1024",
                   "--split", "0.1", "--trials", "1", "--out", str(out)])
        assert rc == EXIT_OK
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert "signature length 0" in rows[0]["error"]
        assert float(rows[0]["E"]) == pytest.approx(math.log(4), rel=1e-11)
        assert all(r["error"] == "" and r["joint_err"] != "" for r in rows[1:])


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

    @pytest.mark.parametrize("expr,message", [
        ("(-2)**0.5", "negative base raised to a fractional power"),
        ("1e308*10", "non-finite value inf"),
    ])
    def test_arithmetic_failure(self, tmp_path, capsys, expr, message):
        fam = self._family(tmp_path, ell_expr=expr)
        assert main(["classify", "--family", fam, "--n-grid", "256,1024,4096"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_unary_minus(self, tmp_path, capsys):
        fam = self._family(tmp_path, ell_expr="-(-n)/16")
        assert main(["classify", "--family", fam, "--n-grid", "256,1024,4096"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["verdict"] == "sublinear"  # k = 2
        assert harness.load_family(fam).params_at(256).ell == 16

    def test_family_not_an_object(self, tmp_path):
        path = tmp_path / "family.json"
        path.write_text("[1]")
        assert main(["classify", "--family", str(path), "--n-grid", "256,1024,4096"]) == EXIT_CONFIG

    def test_fractional_ell_refused(self, tmp_path, capsys):
        # n/7.5 at n = 256 is 34.13: refused as a config's "ell" is, not run as 34
        fam = self._family(tmp_path, ell_expr="n/7.5")
        assert main(["classify", "--family", fam, "--n-grid", "256,1024,4096"]) == EXIT_CONFIG
        assert "ell must be a whole number, got 34.13" in capsys.readouterr().err
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--family", fam, "--n-grid", "256,300", "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert "ell must be a whole number, got 34.13" in rows[0]["error"] and rows[0]["ell"] == ""
        assert (rows[1]["ell"], rows[1]["error"]) == ("40", "")  # 300/7.5 = 40.0 is whole

    def test_family_name_not_a_string(self, tmp_path, capsys):
        path = tmp_path / "family.json"
        path.write_text(json.dumps({"name": ["a"], "ell_expr": "n/4", "alpha_expr": "2/ell"}))
        assert main(["classify", "--family", str(path), "--n-grid", "256,1024,4096"]) == EXIT_CONFIG
        assert "family name must be a string" in capsys.readouterr().err

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

    def test_out_file_holds_the_printed_json(self, tmp_path, capsys):
        assert main(["partition", "--ell", "6", "--M", "2", "--t", "3"]) == EXIT_OK
        printed = capsys.readouterr().out
        out = tmp_path / "partition.json"
        assert main(["partition", "--ell", "6", "--M", "2", "--t", "3", "--out", str(out)]) == EXIT_OK
        assert out.read_text() + "\n" == printed
        assert json.loads(capsys.readouterr().out) == {"ok": True, "json": str(out)}

    def test_budget_exit(self, capsys):
        rc = main(["partition", "--ell", "24", "--M", "4", "--t", "12"])
        assert rc == EXIT_BUDGET

    def test_wide_alphabet(self, capsys):
        # one cell of 15 000 members over 3001 values
        rc = main(["partition", "--ell", "5", "--M", "3000", "--t", "1"])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["report"]["ok"] is True


# each command with an output path, and the function that does its work
OUTPUT_COMMANDS = {
    "partition": (cli, "build_partition"),
    "simulate-trials": (harness, "estimate_error"),
    "simulate-summary": (harness, "estimate_error"),
    "sweep": (harness, "sweep"),
}


def _output_argv(command, out, config_path, family_path):
    return {
        "partition": ["partition", "--ell", "5", "--M", "2", "--t", "2", "--out", out],
        "simulate-trials": ["simulate", config_path, "--trials-csv", out],
        "simulate-summary": ["simulate", config_path, "--summary-csv", out],
        "sweep": ["sweep", "--family", family_path, "--n-grid", "256", "--out", out],
    }[command]


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
class TestOutputPathCheckedFirst:
    def test_unwritable_path_exits_before_the_work(self, tmp_path, config_path, family_path,
                                                    capsys, monkeypatch, command):
        def no_work(*args, **kwargs):
            raise AssertionError("the work ran before its output path was checked")

        monkeypatch.setattr(*OUTPUT_COMMANDS[command], no_work)
        out = str(tmp_path / "missing" / "out")
        assert main(_output_argv(command, out, config_path, family_path)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_failed_work_leaves_no_file(self, tmp_path, config_path, family_path, capsys,
                                        monkeypatch, command):
        out, kept = tmp_path / "out", tmp_path / "kept"
        kept.write_text("earlier output")
        for path in (out, kept):
            def failing_work(*args, **kwargs):
                assert path.exists()  # the path was opened before the work
                raise ComplexityBudgetError("refused")

            monkeypatch.setattr(*OUTPUT_COMMANDS[command], failing_work)
            assert main(_output_argv(command, str(path), config_path, family_path)) == EXIT_BUDGET
        assert not out.exists()
        # an existing file is not truncated by the check
        assert kept.read_text() == "earlier output"


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
    """Each pool value in place of one config key, --params key, family
    file key or --n-grid entry ends in a documented exit code, never a
    traceback.  Hypothesis (6.155) draws every case of a short sampled
    list once before it repeats one, so max_examples = len(cases) tries
    each (config, key) and (bound, key)."""

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
        # what exits 0 is strict JSON without NaN (a documented inf may stand)
        name, key = case
        for value in MALFORMED:
            params = {**BOUND_CASES[name][0], key: value}
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(["bounds", name, "--params", json.dumps(params)])
            assert rc in (EXIT_OK, EXIT_CONFIG), (key, value)
            if rc == EXIT_OK:
                json.loads(out.getvalue(), parse_constant=_refuse_nan)

    @pytest.mark.parametrize("key", ["name", "ell_expr", "alpha_expr"])
    def test_family_file(self, tmp_path, capsys, key):
        path = tmp_path / "family.json"
        for value in MALFORMED:
            path.write_text(json.dumps({**SUB_FAMILY, key: value}))
            for command in (["classify"], ["sweep", "--out", str(tmp_path / "sweep.csv")]):
                rc = main([*command, "--family", str(path), "--n-grid", "256,1024,4096"])
                assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_BUDGET), (key, value, command)

    def test_n_grid(self, tmp_path, capsys):
        # ell = ceil(ln n) keeps a sweep's detection budget short at n = 2**63
        # (ceil(n**(1/3)) spends about 1.5 s there)
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps({**SUB_FAMILY, "ell_expr": "ceil(log(n))"}))
        grids = [f"256,{value},4096" for value in MALFORMED] + ["256,,1024", "1e3", "256,1024,"]
        for grid in grids:
            for command in (["classify"], ["sweep", "--out", str(tmp_path / "sweep.csv")]):
                rc = main([*command, "--family", str(fam), "--n-grid", grid])
                assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_BUDGET), (grid, command)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-5", "-1e-300"])
    def test_classify_tol(self, tmp_path, capsys, tol):
        fam = tmp_path / "family.json"
        fam.write_text(json.dumps(SUB_FAMILY))
        argv = ["classify", "--family", str(fam), "--n-grid", "256,1024,4096"]
        assert main([*argv, f"--tol={tol}"]) == EXIT_CONFIG
        assert capsys.readouterr().out == ""
        assert main([*argv, "--tol=0"]) == EXIT_OK

    @pytest.mark.parametrize("name,key,value", [
        ("converse_joint", "E", 1e308), ("converse_joint", "E", 1e-308),
        ("converse_joint", "ell", 1e308), ("converse_ape", "ell", 1e308),
        ("converse_ortho_user", "E", 1e308), ("detect_exponent_g", "E_sig", 1e-308),
    ])
    def test_nan_result_is_a_config_error(self, capsys, name, key, value):
        params = {**BOUND_CASES[name][0], key: value}
        assert main(["bounds", name, "--params", json.dumps(params)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err and "NaN in value" in captured.err

    @pytest.mark.parametrize("name,params,field", [
        ("e0_msg", {"a": 1, "rho": 1, "k_active": 1, "E_msg": 1e308, "n_msg": 1, "N0": 1},
         "value"),
        ("e0_msg", {**BOUND_CASES["e0_msg"][0], "E_msg": 1e308}, "value"),
        ("e0_msg", {**BOUND_CASES["e0_msg"][0], "k_active": 1e308}, "value"),
        ("f_msg", {**BOUND_CASES["f_msg"][0], "E_msg": 1e308}, "value"),
        ("f_msg", {**BOUND_CASES["f_msg"][0], "E_msg": 1e-308}, "value"),
        ("pr_type_error_ub", {**BOUND_CASES["pr_type_error_ub"][0], "E_msg": 1e308},
         "terms.exponent"),
        ("gallager_awgn", {**BOUND_CASES["gallager_awgn"][0], "P": 1e308}, "terms.exponent"),
        ("gaussian_kl", {**BOUND_CASES["gaussian_kl"][0], "N0": 1e-308}, "value"),
        ("ortho_code_bound", {**BOUND_CASES["ortho_code_bound"][0], "N0": 1e-308},
         "terms.exponent"),
        ("ortho_code_bound", {**BOUND_CASES["ortho_code_bound"][0], "R_dot_nats": 1e-308},
         "terms.exponent"),
    ])
    def test_infinite_result_is_a_config_error(self, capsys, name, params, field):
        assert main(["bounds", name, "--params", json.dumps(params)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert name in captured.err and f"inf in {field}" in captured.err

    @pytest.mark.parametrize("name,params,field", [
        ("converse_joint", {**BOUND_CASES["converse_joint"][0], "Pe": 0.9}, "value"),
        ("normal_tail", {"x": -1.0}, "upper_bound"),
    ], ids=["invalid-converse", "vacuous-tail"])
    def test_documented_infinity_exits_ok(self, capsys, name, params, field):
        assert main(["bounds", name, "--params", json.dumps(params)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)[field] == math.inf


def _no_work(*args):
    raise AssertionError("a trial ran before the options were checked")


def _refuse_nan(constant):
    if constant == "NaN":
        raise ValueError("NaN in a bound's output")
    return float(constant)
