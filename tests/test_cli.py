import json
import math

import pytest

from manyaccess.cli import EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, main

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


class TestBoundsCmd:
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
