import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from manyaccess.errors import InvalidRegimeError
from manyaccess.model import (
    RateSpec,
    SystemParams,
    activity_logpmf,
    binary_entropy,
    log_binomial,
    make_joint_schedule,
    make_ortho_schedule,
    sample_messages,
    single_user_capacity_pue,
)
from manyaccess.rng import make_rng


class TestBinaryEntropy:
    def test_degenerate(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_uniform(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_quarter(self):
        # -0.25 ln 0.25 - 0.75 ln 0.75
        assert binary_entropy(0.25) == pytest.approx(0.5623351446188083, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_symmetric(self, p):
        assert binary_entropy(p) == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


class TestActivityLaw:
    # ell up to 2^40 (the cube-root family at n = 2^120) and j up to 160 (the
    # detection weight cap there), alpha = 2/ell; the oracle takes the log
    # of the exact integer C(ell, j)
    @pytest.mark.parametrize("ell", [8, 16, 26, 10_322, 2**27, 2**40])
    def test_matches_exact_binomial(self, ell):
        alpha = 2 / ell
        for j in (0, 1, 3, 30, 80, 160):
            if j > ell:
                continue
            oracle = (math.log(math.comb(ell, j)) + j * math.log(alpha)
                      + (ell - j) * math.log1p(-alpha))
            assert abs(math.expm1(activity_logpmf(j, ell, alpha) - oracle)) <= 5e-13, j

    def test_sums_to_one(self):
        assert sum(math.exp(activity_logpmf(j, 30, 0.3)) for j in range(31)) == pytest.approx(
            1.0, abs=1e-13)

    def test_degenerate_activity(self):
        assert activity_logpmf(0, 5, 0.0) == activity_logpmf(5, 5, 1.0) == 0.0
        assert activity_logpmf(1, 5, 0.0) == activity_logpmf(4, 5, 1.0) == -math.inf

    def test_log_binomial(self):
        assert log_binomial(0, 0) == log_binomial(7, 0) == log_binomial(7, 7) == 0.0
        assert log_binomial(50, 20) == log_binomial(50, 30) == pytest.approx(
            math.log(math.comb(50, 20)), rel=1e-15)
        with pytest.raises(ValueError):
            log_binomial(5, 6)


class TestJointSchedule:
    def test_worked_example(self):
        params = SystemParams(n=1000, ell=16, alpha=0.125, N0=2.0)
        s = make_joint_schedule(params, 0.5)
        # c = ln(1000/(2 ln 16)), E = c ln 16
        assert s.c == pytest.approx(math.log(1000.0 / (2.0 * math.log(16.0))), rel=1e-15)
        assert s.c == pytest.approx(5.1948267, abs=1e-6)
        assert s.E == pytest.approx(14.403118, abs=1e-5)
        assert s.n_sig == 500
        assert s.n_msg == 500

    def test_invalid_regime(self):
        params = SystemParams(n=100, ell=100, alpha=1.0, N0=2.0)
        with pytest.raises(InvalidRegimeError):
            make_joint_schedule(params, 0.5)

    def test_small_b_limit(self):
        params = SystemParams(n=1000, ell=16, alpha=0.125, N0=2.0)
        s = make_joint_schedule(params, 1e-6)
        assert s.E_sig == pytest.approx(0.0, abs=1e-4)
        assert s.n_sig == 0

    @given(
        st.integers(min_value=2, max_value=200),
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=64, max_value=100000),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=200)
    def test_split_identities_exact(self, ell, alpha, n, b):
        params = SystemParams(n=n, ell=ell, alpha=alpha, N0=2.0)
        if params.k * math.log(ell) >= n:
            return
        s = make_joint_schedule(params, b)
        assert s.E_sig + s.E_msg == s.E  # exact by construction
        assert s.n_sig + s.n_msg == n
        assert s.c > 0

    def test_c_monotone(self):
        base = SystemParams(n=4096, ell=16, alpha=0.125, N0=2.0)
        c0 = make_joint_schedule(base, 0.5).c
        more_users = SystemParams(n=4096, ell=32, alpha=0.125, N0=2.0)
        more_active = SystemParams(n=4096, ell=16, alpha=0.25, N0=2.0)
        longer = SystemParams(n=8192, ell=16, alpha=0.125, N0=2.0)
        assert make_joint_schedule(more_users, 0.5).c < c0
        assert make_joint_schedule(more_active, 0.5).c < c0
        assert make_joint_schedule(longer, 0.5).c > c0


class TestOrthoSchedule:
    def test_worked_example_direct_evaluation(self):
        params = SystemParams(n=1024, ell=16, alpha=0.125, N0=2.0)
        s = make_ortho_schedule(params, 0.25)
        c = math.log(1024.0 / (16.0 * math.log(1024.0)))
        assert s.c == pytest.approx(c, rel=1e-15)
        assert s.c == pytest.approx(2.2228109, abs=1e-6)
        assert s.E == pytest.approx(c * math.log(1024.0), rel=1e-12)
        assert s.n_sig + s.n_msg == 64
        assert s.E_sig == pytest.approx(0.25 * s.E, rel=1e-12)

    def test_slot_too_small(self):
        params = SystemParams(n=64, ell=64, alpha=0.5, N0=2.0)
        with pytest.raises(InvalidRegimeError):
            make_ortho_schedule(params, 0.25)

    def test_symmetric_split(self):
        params = SystemParams(n=1024, ell=16, alpha=0.125, N0=2.0)
        s = make_ortho_schedule(params, 0.5)
        assert s.E_sig == pytest.approx(s.E_msg, rel=1e-12)


class TestCapacity:
    def test_values(self):
        assert single_user_capacity_pue(2.0) == pytest.approx(0.5)
        assert single_user_capacity_pue(2.0) / math.log(2.0) == pytest.approx(0.72135, abs=1e-5)
        assert single_user_capacity_pue(1.0) == 1.0
        assert single_user_capacity_pue(4.0) == 0.25


class TestRateSpec:
    def test_round_trip(self):
        r = RateSpec.from_message_count(256, 44.0)
        assert r.R_dot == pytest.approx(math.log(256.0) / 44.0)
        r2 = RateSpec.from_rate(0.125, 44.3614)
        assert r2.M == round(math.exp(0.125 * 44.3614))
        assert r2.R_dot * 44.3614 == pytest.approx(math.log(r2.M), rel=1e-12)

    def test_minimum_m(self):
        assert RateSpec.from_rate(1e-9, 1.0).M == 2


@pytest.mark.parametrize("make,message", [
    (lambda: RateSpec(M=2, R_dot=math.nan), "rate must be positive, got nan"),
    (lambda: single_user_capacity_pue(math.nan), "noise level must be positive, got nan"),
], ids=["rate", "capacity"])
def test_nan_refused(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestSampleMessages:
    def test_always_active(self):
        params = SystemParams(n=100, ell=500, alpha=1.0, N0=2.0)
        msgs = sample_messages(params, 4, make_rng(1))
        assert (msgs != 0).all()
        assert msgs.min() >= 1 and msgs.max() <= 4

    def test_rarely_active(self):
        params = SystemParams(n=100, ell=200, alpha=1e-9, N0=2.0)
        msgs = sample_messages(params, 4, make_rng(2))
        assert (msgs == 0).all()

    def test_law_of_large_numbers_and_uniformity(self):
        ell, alpha, M = 10**5, 0.3, 4
        params = SystemParams(n=100, ell=ell, alpha=alpha, N0=2.0)
        msgs = sample_messages(params, M, make_rng(3))
        frac = (msgs != 0).mean()
        sigma = math.sqrt(alpha * (1 - alpha) / ell)
        assert abs(frac - alpha) <= 3 * sigma
        counts = np.bincount(msgs[msgs != 0], minlength=M + 1)[1:]
        assert chisquare(counts).pvalue > 1e-3

    def test_seed_determinism(self):
        params = SystemParams(n=100, ell=64, alpha=0.4, N0=2.0)
        a = sample_messages(params, 8, make_rng(77))
        b = sample_messages(params, 8, make_rng(77))
        assert np.array_equal(a, b)
