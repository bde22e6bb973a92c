import csv
import json
import math

import pytest

from manyaccess import bounds
from manyaccess.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main
from manyaccess.codebooks import mu_exact
from manyaccess.decoding import BoundParams
from manyaccess.model import SystemParams, make_joint_schedule, single_user_capacity_pue

JOINT_CONFIG = {
    "scheme": "joint", "n": 512, "ell": 8, "alpha": 0.25, "N0": 2.0,
    "b": 0.5, "M": 4, "xi": 8, "trials": 12, "master_seed": 31337,
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


class TestSimulateCmd:
    def test_runs_and_reports(self, capsys, config_path):
        rc = main(["simulate", config_path, "--format", "json"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 512 and 0.0 <= payload["joint_err"] <= 1.0

    def test_byte_identical_csv(self, tmp_path, config_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", config_path, "--trials-csv", a]) == EXIT_OK
        assert main(["simulate", config_path, "--trials-csv", b]) == EXIT_OK
        capsys.readouterr()
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_override_changes_output(self, tmp_path, config_path, capsys):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", config_path, "--trials-csv", a, "--seed", "1"]) == EXIT_OK
        assert main(["simulate", config_path, "--trials-csv", b, "--seed", "2"]) == EXIT_OK
        capsys.readouterr()
        assert open(a, "rb").read() != open(b, "rb").read()

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

    def test_unknown_scheme(self, tmp_path, capsys):
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps(dict(JOINT_CONFIG, scheme="xyz")))
        assert main(["simulate", str(path)]) == EXIT_CONFIG
        assert "unknown scheme 'xyz'" in capsys.readouterr().err

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
        assert payload["verdicts"]["load_decreasing"] is True
        assert open(out).readline().startswith("n,ell,alpha")

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
        assert lines[1].startswith("256,0,0,0,0,0,0,,,,,,inf,0,")


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


class TestMuCmd:
    def test_values(self, capsys):
        rc = main(["mu", "2", "--mc-trials", "20000", "--seed", "3"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == pytest.approx(1 - math.exp(-2), rel=1e-9)
        assert payload["chernoff_lb"] <= payload["exact"]
        assert abs(payload["monte_carlo"] - payload["exact"]) <= 4 * payload["monte_carlo_stderr"]
