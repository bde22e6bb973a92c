import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from manyaccess import bounds, model
from manyaccess.codebooks import mu_exact
from manyaccess.decoding import BoundParams
from manyaccess.errors import ComplexityBudgetError
from manyaccess.model import RateSpec, SystemParams, make_joint_schedule
from manyaccess.rng import make_rng


def recompute_from_terms(report, combine):
    """Every BoundReport's terms must rebuild its value to 1e-12 relative."""
    assert combine(report.terms) == pytest.approx(report.value, rel=1e-12)


class TestE0Msg:
    def test_vanishing_rho(self):
        assert bounds.e0_msg(1.0, 1e-12, 1, 2.0, 2, 2.0) == pytest.approx(0.0, abs=1e-10)

    def test_worked_example(self):
        val = bounds.e0_msg(1.0, 1.0, 1, 2.0, 2, 2.0)
        assert val == pytest.approx(0.5 * math.log(1.5), rel=1e-12)
        assert val == pytest.approx(0.202733, abs=1e-6)

    def test_increasing_in_a(self):
        vals = [bounds.e0_msg(a, 0.5, 4, 8.0, 100, 2.0) for a in (0.25, 0.5, 0.75, 1.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.e0_msg(1.0, 0.5, 1, -1.0, 10, 2.0)
        with pytest.raises(ValueError):
            bounds.e0_msg(1.0, 1.5, 1, 1.0, 10, 2.0)


class TestPrTypeErrorUb:
    def test_zero_energy_vacuous(self):
        rep = bounds.pr_type_error_ub(1.0, 0.5, 4, 2, 0.0, 100, 2.0, 0.9)
        assert rep.value >= 1.0
        assert not rep.valid

    def test_worked_example(self):
        rep = bounds.pr_type_error_ub(1.0, 1.0, 2, 1, 20.0, 100, 2.0, 1.0)
        assert rep.value == pytest.approx(2.0 * 1.1**-50, rel=1e-12)
        assert rep.value == pytest.approx(0.017037, abs=1e-6)
        assert rep.valid

    def test_increasing_in_m(self):
        vals = [
            bounds.pr_type_error_ub(1.0, 0.5, M, 2, 10.0, 200, 2.0, 0.95).value
            for M in (2, 4, 8, 16)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_terms_recompute(self):
        rep = bounds.pr_type_error_ub(0.5, 0.75, 4, 2, 10.0, 200, 2.0, 0.95)
        recompute_from_terms(
            rep,
            lambda t: math.exp(
                t["log_mu_factor"] + t["log_binomial"] + t["log_rate_term"] - t["exponent"]
            ),
        )

    def test_non_integer_fraction_rejected(self):
        with pytest.raises(ValueError):
            bounds.pr_type_error_ub(0.4, 0.5, 4, 2, 10.0, 200, 2.0, 0.95)

    def test_active_count_capped(self):
        # the binomial costs O(k'): 10**20 users would never return
        bounds.pr_type_error_ub(1.0, 0.5, 4, bounds.MAX_ACTIVE, 10.0, 200, 2.0, 0.95)
        with pytest.raises(ValueError, match="active count must be <="):
            bounds.pr_type_error_ub(0.5, 0.5, 4, bounds.MAX_ACTIVE + 2, 10.0, 200, 2.0, 0.95)


class TestDecodeBudget:
    def test_sums_type_bounds(self):
        rep = bounds.decode_error_budget(0.75, 4, 3, 12.0, 300, 2.0, 0.95)
        parts = [
            bounds.pr_type_error_ub(j / 3, 0.75, 4, 3, 12.0, 300, 2.0, 0.95).value
            for j in (1, 2, 3)
        ]
        assert rep.value == pytest.approx(sum(parts), rel=1e-12)
        recompute_from_terms(rep, lambda t: sum(t.values()))

    def test_linear_in_active_count(self, monkeypatch):
        # the k' binomials share one running log1p sum: O(k') log1p calls,
        # where one sum per binomial makes about k'^2/4
        calls = []
        log1p = math.log1p

        def counting_log1p(x):
            calls.append(x)
            return log1p(x)

        monkeypatch.setattr(model, "_LOG1P_SUMS", {})
        monkeypatch.setattr(math, "log1p", counting_log1p)
        bounds.decode_error_budget(0.75, 4, 3000, 12.0, 300, 2.0, 0.95)
        assert len(calls) <= 3 * 3000

    @pytest.mark.parametrize("k_active", [1, 2, 7, 50, 3000])
    def test_binomials_are_the_sequential_sums(self, monkeypatch, k_active):
        # each term's log_binomial is bitwise k ln n + (log1p terms added
        # one after another in order) - ln k!, whatever was asked before
        def sequential(n, k):
            k = min(k, n - k)
            acc = 0.0
            for i in range(k):
                acc += math.log1p(-i / n)
            return k * math.log(n) + acc - math.lgamma(k + 1) if k else 0.0

        monkeypatch.setattr(model, "_LOG1P_SUMS", {})
        want = [sequential(k_active, j) for j in range(1, k_active + 1)]
        for order in (range(k_active, 0, -1), range(1, k_active + 1)):
            for j in order:
                rep = bounds.pr_type_error_ub(j / k_active, 0.75, 4, k_active, 12.0, 300, 2.0, 0.95)
                assert rep.terms["log_binomial"] == want[j - 1], j


class TestFMsg:
    def test_positive_first_term_only(self):
        # a = 1 kills H2; single message (ln M = 0) is out of contract, so
        # emulate via rate term subtraction: f + a rho k ln(M)/E' > 0
        val = bounds.f_msg(1.0, 0.5, 2, 1, 5.0, 500, 2.0)
        rate_term = 1.0 * 0.5 * 1 * math.log(2.0) / 5.0
        assert val + rate_term > 0

    def test_minimum_at_smallest_fraction(self):
        # small k'E'/n' and rate below target: df/da >= 0 on the grid
        for (kp, rho, M, Em, nm) in [(4, 0.75, 4, 10.0, 1000), (6, 1.0, 3, 12.0, 2000)]:
            vals = [bounds.f_msg(j / kp, rho, M, kp, Em, nm, 2.0) for j in range(1, kp + 1)]
            assert min(range(kp), key=lambda i: vals[i]) == 0
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_k_at_inverse_fraction(self):
        vals = [bounds.f_msg(1.0 / kp, 0.75, 4, kp, 10.0, 1000, 2.0) for kp in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestDetectExponent:
    def test_zero_at_origin(self):
        assert bounds.detect_exponent_g(2 / 3, 0.75, 0, 0, 3, 16, 512, 4.0) == 0.0

    def test_default_parameters(self):
        bp = BoundParams()
        assert bp.lam == pytest.approx(2.0 / 3.0)
        assert bp.rho == pytest.approx(0.75)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.detect_exponent_g(2 / 3, 0.75, 4, 0, 3, 16, 512, 4.0)  # kappa1 > |d|


class TestDetectionBudget:
    def _sched(self, n=4096, ell=16, alpha=0.125, b=0.5):
        params = SystemParams(n=n, ell=ell, alpha=alpha, N0=2.0)
        return params, make_joint_schedule(params, b)

    def test_zero_signature_energy_vacuous(self):
        params, sched = self._sched()
        degenerate = dataclasses.replace(sched, E_sig=0.0, E_msg=sched.E)
        rep = bounds.detection_budget(params, degenerate, BoundParams(), 0.9)
        assert not rep.valid and rep.value == math.inf
        assert rep.to_dict()["reason"] == rep.reason
        assert "E_sig = 0: both must be positive" in rep.reason

    def test_regression_fixture(self):
        # frozen on first computation; the value is far above 1 at desk
        # scale (the false-alarm entropy cost dominates), so valid=False
        params, sched = self._sched()
        rep = bounds.detection_budget(params, sched, BoundParams(), mu_exact(sched.n_sig).value)
        assert rep.value == pytest.approx(8.833269806150e03, rel=1e-9)
        assert not rep.valid
        recompute_from_terms(rep, lambda t: t["overflow"] + t["detect_sum"] + t["zero_active"])

    def test_terms_over_cap_refused(self):
        # ell = n/16, alpha 0.1 at n = 16384: v = 423, 423*426/2 * 424 terms
        params, sched = self._sched(n=16384, ell=1024, alpha=0.1)
        with pytest.raises(ComplexityBudgetError, match="has 38201976 terms, above the cap of 10000000"):
            bounds.detection_budget(params, sched, BoundParams(), mu_exact(sched.n_sig).value)

    @pytest.mark.parametrize("log2_n,value", [
        (40, "0x1.6ee298eaa13e3p+22"), (80, "0x1.0dabc0cf0364bp-8"), (120, "0x1.def71fbb17361p-36"),
    ])
    def test_cube_root_family_under_cap(self, log2_n, value):
        # ell = ceil(n^(1/3)), alpha = 2/ell: v = 51, 105 and 160 stay under
        # MAX_DETECTION_TERMS, and their budgets are the uncapped loop's, bit for bit
        n = 2**log2_n
        ell = math.ceil(n ** (1 / 3))
        params, sched = self._sched(n=n, ell=ell, alpha=2 / ell)
        rep = bounds.detection_budget(params, sched, BoundParams(), mu_exact(sched.n_sig).value)
        assert rep.value == float.fromhex(value)

    def test_decreasing_in_n(self):
        vals = []
        for n in (1024, 2048, 4096):
            params, sched = self._sched(n=n)
            vals.append(
                bounds.detection_budget(params, sched, BoundParams(), mu_exact(sched.n_sig).value).value
            )
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_non_increasing_in_signature_energy(self):
        params, sched = self._sched()
        vals = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            s = dataclasses.replace(sched, E_sig=sched.E_sig * scale)
            vals.append(bounds.detection_budget(params, s, BoundParams(), mu_exact(s.n_sig).value).value)
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestGallager:
    def test_zero_power_vacuous(self):
        rep = bounds.gallager_awgn(4, 100, 0.0, 2.0, 1.0)
        assert rep.value >= 1.0 and not rep.valid

    def test_worked_example(self):
        rep = bounds.gallager_awgn(2, 100, 0.2, 2.0, 1.0)
        assert rep.value == pytest.approx(2.0 * math.exp(-50.0 * math.log(1.1)), rel=1e-12)
        assert rep.value == pytest.approx(0.017037, abs=1e-6)

    def test_decreasing_in_blocklength(self):
        vals = [bounds.gallager_awgn(4, n, 0.5, 2.0, 0.75).value for n in (50, 100, 200)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_matches_single_user_type_bound(self):
        # k'=1, a=1, mu=1 reduces to the point-to-point bound with P = E'/n'
        rep1 = bounds.pr_type_error_ub(1.0, 0.7, 8, 1, 30.0, 150, 2.0, 1.0)
        rep2 = bounds.gallager_awgn(8, 150, 30.0 / 150.0, 2.0, 0.7)
        assert rep1.value == pytest.approx(rep2.value, rel=1e-12)


class TestOrthoCodeBound:
    def test_branch_continuity(self):
        for N0 in (0.5, 1.0, 2.0, 4.0):
            R = 1.0 / (4.0 * N0)
            low = math.exp(-(math.log(64) / R) * (1.0 / (2.0 * N0) - R))
            high = math.exp(-(math.log(64) / R) * (math.sqrt(1.0 / N0) - math.sqrt(R)) ** 2)
            assert low == pytest.approx(high, rel=1e-12)
            assert bounds.ortho_code_bound(64, R, N0).value == pytest.approx(low, rel=1e-12)

    def test_capacity_edge(self):
        rep = bounds.ortho_code_bound(16, 1.0 / 2.0, 2.0)
        assert rep.value == pytest.approx(1.0, rel=1e-12)

    def test_worked_example(self):
        rep = bounds.ortho_code_bound(256, 0.125, 2.0)
        assert rep.value == pytest.approx(1.0 / 256.0, rel=1e-12)
        assert rep.value == pytest.approx(0.00390625, rel=1e-12)

    def test_range_error(self):
        with pytest.raises(ValueError):
            bounds.ortho_code_bound(16, 0.6, 2.0)

    def test_non_decreasing_in_rate(self):
        rs = np.linspace(0.01, 0.5, 40)
        vals = [bounds.ortho_code_bound(64, float(r), 2.0).value for r in rs]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_terms_recompute(self):
        rep = bounds.ortho_code_bound(256, 0.2, 2.0)
        recompute_from_terms(rep, lambda t: math.exp(-t["exponent"]))


class TestConverseJoint:
    def test_worked_example(self):
        params = SystemParams(n=100, ell=1, alpha=1.0, N0=2.0)
        rep = bounds.converse_joint(params, 10.0, 0.0)
        expected = math.log(4.0) / 10.0 + 5.0 * math.log(1.1)
        assert rep.value == pytest.approx(expected, rel=1e-12)
        assert rep.value == pytest.approx(0.61518, abs=1e-5)
        recompute_from_terms(
            rep,
            lambda t: (t["fano"] + t["entropy"] + t["error"] + t["mutual_info"]) / t["prefactor"],
        )

    def test_large_load_limit_structure(self):
        # Pe=0, alpha=1: as kE/n grows the mutual-information term vanishes
        # and only the ln4/(kE) term remains (both go to zero)
        params = SystemParams(n=10, ell=1000, alpha=1.0, N0=2.0)
        mutuals = []
        for E in (1e2, 1e4, 1e6):
            rep = bounds.converse_joint(params, E, 0.0)
            assert rep.value - rep.terms["fano"] == pytest.approx(
                rep.terms["mutual_info"], rel=1e-12
            )
            mutuals.append(rep.terms["mutual_info"])
        assert all(b < a for a, b in zip(mutuals, mutuals[1:]))
        assert mutuals[-1] < 1e-4

    def test_invalid_prefactor(self):
        params = SystemParams(n=100, ell=1, alpha=1.0, N0=2.0)
        rep = bounds.converse_joint(params, 10.0, 0.2)  # 4*0.2*(1+1) = 1.6 > 1
        assert not rep.valid and rep.value == math.inf

    def test_superlinear_family_decreasing(self):
        vals = []
        for n in (2**10, 2**14, 2**18):
            params = SystemParams(n=n, ell=n, alpha=1.0, N0=2.0)
            vals.append(bounds.converse_joint(params, math.log(n), 0.0).value)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.1042335, abs=1e-6)

    def test_monotone_tail_in_load(self):
        # Pe=0, alpha=1: the bound is non-increasing in kE/n on a grid
        params = SystemParams(n=1024, ell=32, alpha=1.0, N0=2.0)
        vals = [bounds.converse_joint(params, E, 0.0).value for E in (1.0, 4.0, 16.0, 64.0)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestConverseApe:
    def test_structural_reduction(self):
        # alpha=1 (H2=0), Pe_A=0, k=ell
        n, ell, E, N0 = 4096, 64, 20.0, 2.0
        params = SystemParams(n=n, ell=ell, alpha=1.0, N0=N0)
        rep = bounds.converse_ape(params, E, 0.0)
        expected = math.log(2.0) / E + (n / (2.0 * ell * E)) * math.log1p(
            2.0 * ell * E / (n * N0)
        )
        assert rep.value == pytest.approx(expected, rel=1e-12)

    def test_vanishes_with_energy(self):
        params = SystemParams(n=4096, ell=4096, alpha=1.0, N0=2.0)
        vals = [bounds.converse_ape(params, E, 0.0).value for E in (10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01

    def test_invalid_at_alpha(self):
        params = SystemParams(n=100, ell=10, alpha=0.3, N0=2.0)
        assert bounds.converse_ape(params, 5.0, 0.3).valid is False
        ok = bounds.converse_ape(params, 5.0, 0.29)
        near = bounds.converse_ape(params, 5.0, 0.2999)
        assert ok.valid and near.value > ok.value


class TestConverseOrthoUser:
    def test_worked_example(self):
        rep = bounds.converse_ortho_user(10.0, 10, 2.0, 0.0)
        assert rep.value == pytest.approx(0.1 + 0.5 * math.log(2.0), rel=1e-12)
        assert rep.value == pytest.approx(0.44657, abs=1e-5)

    def test_increasing_in_slot(self):
        vals = [bounds.converse_ortho_user(10.0, n1, 2.0, 0.0).value for n1 in (5, 10, 20, 40)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_diverges_at_p1(self):
        assert bounds.converse_ortho_user(10.0, 10, 2.0, 1.0).valid is False
        assert bounds.converse_ortho_user(10.0, 10, 2.0, 0.999).value > 100.0


class TestJointErrorLb:
    def test_vacuous_at_high_energy(self):
        assert bounds.joint_error_lb(100.0, 100, 1.0, 0.5).value == 0.0

    def test_worked_example(self):
        rep = bounds.joint_error_lb(0.01, 10**6, 1.0, 2e-6)
        assert rep.value == pytest.approx(0.6610618, abs=1e-6)
        recompute_from_terms(rep, lambda t: t["per_type"] * t["some_active"])

    def test_decreasing_in_energy(self):
        vals = [bounds.joint_error_lb(E, 10**6, 1.0, 2e-6).value for E in (0.001, 0.01, 0.02)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestBirge:
    def test_zero_kl_three_hypotheses(self):
        assert bounds.birge_bound(np.zeros((3, 3))) == pytest.approx(1.0, rel=1e-12)

    def test_affine_scaling(self):
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        b1 = bounds.birge_bound(D)
        b2 = bounds.birge_bound(2 * D)
        kl_term = D.sum() / 9.0
        assert b2 - b1 == pytest.approx(kl_term / math.log(2.0), rel=1e-12)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            bounds.birge_bound(np.zeros((2, 2)))

    def test_dominates_ml_success(self):
        # Gaussian shift family: empirical ML success never beats the bound
        rng = make_rng(4242)
        N, dim, N0, trials = 4, 3, 2.0, 10**4
        means = rng.standard_normal((N, dim)) * 0.8
        D = np.zeros((N, N))
        for i in range(N):
            for j in range(N):
                if i != j:
                    delta = means[i] - means[j]
                    D[i, j] = bounds.gaussian_kl(float(delta @ delta), N0)
        labels = rng.integers(0, N, size=trials)
        noise = rng.standard_normal((trials, dim)) * math.sqrt(N0 / 2.0)
        obs = means[labels] + noise
        d2 = ((obs[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
        success = (d2.argmin(axis=1) == labels).mean()
        assert success <= bounds.birge_bound(D)


class TestGaussianKl:
    def test_zero(self):
        assert bounds.gaussian_kl(0.0, 2.0) == 0.0

    def test_unit(self):
        assert bounds.gaussian_kl(2.0, 2.0) == 1.0

    def test_quadrature_oracle(self):
        # 1-D shift: numerically integrate p ln(p/q) for N(delta, N0/2) vs
        # N(0, N0/2) and compare with delta^2/N0
        N0 = 2.0
        delta = 0.7318
        var = N0 / 2.0

        def integrand(x):
            p = math.exp(-((x - delta) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
            logp = -((x - delta) ** 2) / (2 * var)
            logq = -(x**2) / (2 * var)
            return p * (logp - logq)

        val, _ = quad(integrand, -12, 12, epsabs=1e-10)
        assert bounds.gaussian_kl(delta**2, N0) == pytest.approx(val, abs=1e-6)


class TestNormalTail:
    def test_q_zero(self):
        assert bounds.normal_tail(0.0).q == pytest.approx(0.5, rel=1e-12)

    def test_q_one(self):
        assert bounds.normal_tail(1.0).q == pytest.approx(0.15865525393145707, rel=1e-12)

    @pytest.mark.parametrize(
        "x, bits",
        [(0.5, "0x1.3bf143b9aa713p-2"), (3.0, "0x1.61de1f985b5ddp-10"), (10.0, "0x1.26c75e84fb134p-77")],
    )
    def test_q_bits_pinned(self, x, bits):
        # scipy.special.erfc to the last bit; math.erfc differs in the last
        # bits at most points
        assert bounds.normal_tail(x).q.hex() == bits

    def test_upper_bound_holds(self):
        for beta in (0.5, 1.0, 2.0, 4.0):
            tail = bounds.normal_tail(beta)
            assert tail.q <= tail.upper_bound
        assert bounds.normal_tail(-1.0).upper_bound == math.inf


class TestTwoPhaseBudget:
    def test_terms_structure(self):
        params = SystemParams(n=512, ell=8, alpha=0.25, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        rep = bounds.two_phase_error_budget(params, sched, BoundParams(xi=8), 4)
        recompute_from_terms(rep, lambda t: t["detection"] + t["decode"] + t["markov"])
        assert rep.terms["markov"] == pytest.approx(1.0 / 8.0)
        assert "reason" not in rep.to_dict()

    def test_decode_sum_beyond_float_range_is_infinite(self, monkeypatch):
        # cube-root family at n = 2^60, b = 0.5: the largest log term of the
        # decode sum is about 106, 637 and 1698 at rate fractions 0.5, 1 and
        # 2.  The detection term does not depend on M: it is computed once.
        monkeypatch.setattr(bounds, "detection_budget", functools.cache(bounds.detection_budget))
        n = 2**60
        ell = math.ceil(n ** (1 / 3))
        params = SystemParams(n=n, ell=ell, alpha=2 / ell, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        reps = {}
        for fraction in (0.5, 1.0, 2.0):
            M = RateSpec.from_rate(fraction / params.N0, sched.E).M
            reps[fraction] = bounds.two_phase_error_budget(params, sched, BoundParams(), M)
        for fraction in (0.5, 1.0):
            rep = reps[fraction]
            assert 1.0 < rep.value < math.inf and not rep.valid and rep.reason == ""
        rep = reps[2.0]
        assert rep.value == rep.terms["decode"] == math.inf and not rep.valid
        assert rep.reason == "decode exceeds the float range"
        assert rep.terms["detection"] == reps[0.5].terms["detection"] < math.inf


class TestSumExp:
    def test_empty_and_zero_terms(self):
        assert bounds._sum_exp([]) == bounds._sum_exp([-math.inf, -math.inf]) == 0.0

    def test_matches_plain_sum(self):
        logs = [-3.0, 2.5, -math.inf, 0.0, 2.5, -700.0]
        plain = sum(math.exp(x) for x in logs)
        assert bounds._sum_exp(logs) == pytest.approx(plain, rel=1e-15)
        assert bounds._sum_exp(x - 1000.0 for x in logs) == pytest.approx(
            plain * math.exp(-1000.0), rel=1e-12)

    def test_beyond_float_range(self):
        assert bounds._sum_exp([700.0, 709.0]) == pytest.approx(math.exp(700) + math.exp(709))
        assert bounds._sum_exp([709.5, 709.5]) == math.inf  # each term is a float
        assert bounds._sum_exp([1061.0, 0.0]) == math.inf
        assert bounds._sum_exp([0.0, math.inf, math.inf]) == math.inf

    def test_nan_term_is_kept(self):
        assert math.isnan(bounds._sum_exp([0.0, math.nan, 1.0]))


class TestOrthoUserErrorBound:
    def test_composition(self):
        rep = bounds.ortho_user_error_bound(16, 0.25, 40.0, 2.0)
        pilot = 2.0 * bounds.normal_tail(math.sqrt(0.25 * 40.0 / 4.0)).q
        decode = bounds.ortho_code_bound(16, math.log(16.0) / 30.0, 2.0).value
        assert rep.value == pytest.approx(pilot + decode, rel=1e-12)
        recompute_from_terms(rep, lambda t: t["pilot"] + t["decode"])


def test_product_sequence_fact():
    # for natural a >= 4 and 2 <= b <= a-2: b(a-b) >= a (exhaustive)
    for a in range(4, 65):
        for b in range(2, a - 1):
            assert b * (a - b) >= a
