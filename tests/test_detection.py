import dataclasses
import math
import tracemalloc
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyaccess import decoding, detection
from manyaccess.codebooks import SignatureMatrix, gen_signatures
from manyaccess.detection import (
    candidate_count,
    detect_ls_exhaustive,
    detect_pilot,
    detection_stats,
    v_cap,
)
from manyaccess.errors import ComplexityBudgetError, InvalidRegimeError
from manyaccess.model import SystemParams, make_joint_schedule
from manyaccess.rng import make_rng, substream


@lru_cache(maxsize=4)
def _candidate_matrix(ell: int, v: int) -> np.ndarray:
    """All weight <= v activity vectors, ordered by (weight, support lex).
    Within a weight, lexicographic supports are descending binary numbers
    with user 0 as the leading bit."""
    bits = (np.arange(2**ell)[::-1, None] >> np.arange(ell)[::-1]) & 1
    weight = bits.sum(axis=1)
    order = np.argsort(weight, kind="stable")
    return bits[order][weight[order] <= v].astype(float)


def _combinations_matrix(ell: int, v: int) -> np.ndarray:
    """The same matrix enumerated weight by weight with itertools, as an
    independent check of _candidate_matrix's order."""
    rows = [np.zeros(ell)]
    for j in range(1, min(v, ell) + 1):
        for support in combinations(range(ell), j):
            row = np.zeros(ell)
            row[list(support)] = 1.0
            rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("ell", range(1, 11))
def test_candidate_matrix_is_weight_then_lex_order(ell):
    for v in range(ell + 2):
        assert np.array_equal(_candidate_matrix(ell, v), _combinations_matrix(ell, v))


def dense_ls(Y_sig, S, v, cands=None):
    """The exhaustive scan: every candidate scored, the first minimum wins.
    cands defaults to _candidate_matrix(S.ell, v)."""
    if cands is None:
        cands = _candidate_matrix(S.ell, v)
    gram = S.rows @ S.rows.T
    corr = S.rows @ Y_sig
    base = float(Y_sig @ Y_sig)
    residuals = base - 2.0 * (cands @ corr) + np.einsum("ij,ij->i", cands @ gram, cands)
    best = int(np.argmin(residuals))
    return cands[best].astype(int), float(residuals[best])


@st.composite
def ls_instances(draw):
    """Gaussian instances, or small-integer ones with duplicated columns,
    whose objective values are exact and tie."""
    ell = draw(st.integers(min_value=1, max_value=10))
    v = draw(st.integers(min_value=0, max_value=ell + 1))
    n_sig = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        matrix = rng.integers(-2, 3, size=(n_sig, ell)).astype(float)
        pairs = st.tuples(st.integers(0, ell - 1), st.integers(0, ell - 1))
        for i, j in draw(st.lists(pairs, max_size=3)):
            matrix[:, j] = matrix[:, i]
        Y = rng.integers(-3, 4, size=n_sig).astype(float)
    else:
        matrix = rng.standard_normal((n_sig, ell))
        Y = matrix @ (rng.random(ell) < 0.3) + rng.standard_normal(n_sig) * draw(
            st.sampled_from([0.0, 0.5, 2.0])
        )
    return Y, SignatureMatrix(rows=matrix.T, E_sig=1.0), v


@st.composite
def wide_tie_instances(draw):
    """ell 11..16, more users than the small instances: small-integer
    signatures with duplicated columns, whose objective values are exact
    and tie, received either as an exact fit or as integer noise; the
    weight cap below ell or at least ell."""
    ell = draw(st.integers(min_value=11, max_value=16))
    v = draw(st.one_of(st.integers(min_value=0, max_value=ell - 1),
                       st.integers(min_value=ell, max_value=ell + 2)))
    n_sig = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    matrix = rng.integers(-2, 3, size=(n_sig, ell)).astype(float)
    pairs = st.tuples(st.integers(0, ell - 1), st.integers(0, ell - 1))
    for i, j in draw(st.lists(pairs, min_size=1, max_size=5)):
        matrix[:, j] = matrix[:, i]
    if draw(st.booleans()):
        Y = matrix @ (rng.random(ell) < 0.3)
    else:
        Y = rng.integers(-3, 4, size=n_sig).astype(float)
    return Y, SignatureMatrix(rows=matrix.T, E_sig=1.0), v


def _joint_n4096_instance(seed):
    """A detection as the n = 4096 growth point runs it: ell 16, n_sig 2048."""
    params = SystemParams(n=4096, ell=16, alpha=0.125, N0=2.0)
    sched = make_joint_schedule(params, 0.5)
    rng = substream(4096, seed)
    S = gen_signatures(params.ell, sched.n_sig, sched.E_sig, rng)
    d = (rng.random(params.ell) < params.alpha).astype(int)
    Y = S.rows.T @ d + rng.standard_normal(sched.n_sig) * math.sqrt(params.N0 / 2.0)
    return Y, S, v_cap(params, sched)


class TestVCap:
    def test_worked_example(self):
        params = SystemParams(n=1000, ell=16, alpha=0.125, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        assert v_cap(params, sched) == 12  # floor(2 * 6.1948)

    def test_tiny(self):
        params = SystemParams(n=100, ell=2, alpha=0.5, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        # k = 1, c = ln(100/ln2); floor(1*(1+c))
        assert v_cap(params, sched) == math.floor(1 + sched.c)

    def test_invalid_c(self):
        params = SystemParams(n=1000, ell=16, alpha=0.125, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        bad = dataclasses.replace(sched, c=-0.1)
        with pytest.raises(InvalidRegimeError):
            v_cap(params, bad)


class TestExhaustiveLs:
    def test_noiseless_exact_recovery(self):
        rng = make_rng(21)
        S = gen_signatures(10, 64, 6.0, rng)
        d = np.zeros(10, dtype=int)
        d[[1, 4, 7]] = 1
        Y = S.rows.T @ d
        res = detect_ls_exhaustive(Y, S, v=5)
        assert np.array_equal(res.d_hat, d)

    def test_zero_received_gives_empty_set(self):
        S = gen_signatures(8, 32, 4.0, make_rng(22))
        res = detect_ls_exhaustive(np.zeros(32), S, v=4)
        assert res.weight == 0

    def test_weight_cap_respected(self):
        rng = make_rng(23)
        S = gen_signatures(8, 16, 4.0, rng)
        d = np.ones(8, dtype=int)
        Y = S.rows.T @ d  # true weight 8, cap 3
        res = detect_ls_exhaustive(Y, S, v=3)
        assert res.weight <= 3

    def test_residual_never_exceeds_received_energy(self):
        rng = make_rng(24)
        S = gen_signatures(8, 32, 4.0, rng)
        for _ in range(20):
            Y = rng.standard_normal(32) * 3.0
            res = detect_ls_exhaustive(Y, S, v=4)
            assert dense_ls(Y, S, 4, res.d_hat[None].astype(float))[1] <= Y @ Y + 1e-9

    def test_budget_guard(self, monkeypatch):
        S = gen_signatures(40, 16, 4.0, make_rng(25))
        monkeypatch.setattr(detection, "CANDIDATE_BUDGET", 10**4)
        with pytest.raises(ComplexityBudgetError, match="exceed the budget of 10000 "):
            detect_ls_exhaustive(np.zeros(16), S, v=20)
        assert candidate_count(40, 20) > 10**4

    def test_candidate_budget_read_when_the_search_runs(self, monkeypatch):
        # the search, under the name the receiver calls it by, reads the
        # budget at each call: one candidate fewer than (8, 3) has refuses,
        # exactly as many accepts and gives the unpatched answer
        rng = make_rng(30)
        S = gen_signatures(8, 32, 4.0, rng)
        Y = S.rows[[1, 5]].sum(axis=0) + rng.standard_normal(32)
        want = detect_ls_exhaustive(Y, S, 3)
        monkeypatch.setattr(detection, "CANDIDATE_BUDGET", candidate_count(8, 3) - 1)
        with pytest.raises(ComplexityBudgetError, match="93 candidates exceed the budget of 92 "):
            decoding.detect_ls_exhaustive(Y, S, 3)
        monkeypatch.setattr(detection, "CANDIDATE_BUDGET", candidate_count(8, 3))
        got = decoding.detect_ls_exhaustive(Y, S, 3)
        assert np.array_equal(got.d_hat, want.d_hat)

    def test_deterministic(self):
        rng = make_rng(26)
        S = gen_signatures(8, 32, 4.0, rng)
        Y = rng.standard_normal(32)
        a = detect_ls_exhaustive(Y, S, v=4)
        b = detect_ls_exhaustive(Y, S, v=4)
        assert np.array_equal(a.d_hat, b.d_hat)

    def test_tie_breaks_to_smaller_weight(self):
        # two identical signature columns: {0} and {1} tie; support lex
        # order prefers column 0, and weight-2 {0,1} never beats weight 1
        col = np.ones(4)
        S = SignatureMatrix(rows=np.stack([col, col]), E_sig=4.0)
        Y = col.copy()
        res = detect_ls_exhaustive(Y, S, v=2)
        assert np.array_equal(res.d_hat, [1, 0])

    def test_exact_fit_counts(self):
        S = gen_signatures(6, 32, 4.0, make_rng(27))
        d = np.array([1, 1, 0, 0, 0, 0])
        res = detect_ls_exhaustive(S.rows.T @ d, S, v=3)
        assert detection_stats(d, res.d_hat) == (0, 0)


class TestBranchAndBound:
    @given(ls_instances())
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_same_argmin_as_dense_scan(self, instance):
        Y, S, v = instance
        res = detect_ls_exhaustive(Y, S, v)
        assert np.array_equal(res.d_hat, dense_ls(Y, S, v)[0])

    @given(wide_tie_instances())
    @settings(max_examples=120, derandomize=True, deadline=None)
    def test_wide_ties_match_dense_scan(self, instance):
        # exact ties between duplicated users, at depths up to 16: the first
        # minimum in (weight, lex) order must survive every cut
        Y, S, v = instance
        res = detect_ls_exhaustive(Y, S, v)
        assert np.array_equal(res.d_hat, dense_ls(Y, S, v)[0])

    def test_growth_point_matches_dense_scan(self):
        for seed in range(20):
            Y, S, v = _joint_n4096_instance(seed)
            assert (S.ell, S.n_sig, v) == (16, 2048, 15)
            assert np.array_equal(detect_ls_exhaustive(Y, S, v).d_hat, dense_ls(Y, S, v)[0])

    def test_peak_memory_at_growth_point(self):
        # the scan held two 65536 x 16 float arrays, 8 MB each
        Y, S, v = _joint_n4096_instance(0)
        tracemalloc.start()
        try:
            detect_ls_exhaustive(Y, S, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_peak_memory_at_large_ell(self):
        # at v = 0 the root is a leaf; beyond G itself the search may hold
        # its reordered copy and tail sums, nothing per node
        ell, n_sig = 512, 64
        S = gen_signatures(ell, n_sig, 4.0, make_rng(30))
        Y = S.rows[:2].sum(axis=0)
        tracemalloc.start()
        try:
            res = detect_ls_exhaustive(Y, S, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.weight == 0
        assert peak < 5 * 8 * ell**2, f"{peak / (8 * ell**2):.2f} ell^2 doubles"

    @pytest.mark.parametrize("ell,v", [(256, 2), (1000, 1)])
    def test_large_ell_small_cap(self, ell, v):
        # almost every support is over the cap: a search that builds the
        # children of every node before the weight cut took 13.2 s and
        # 1.7 GB at ell 256, v 2, and 10.3 s and 288 MB at ell 1000, v 1
        rng = make_rng(ell)
        S = gen_signatures(ell, 512, 20.0, rng)
        Y = S.rows[:2].sum(axis=0) + rng.standard_normal(512)
        tracemalloc.start()
        try:
            res = detect_ls_exhaustive(Y, S, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * ell**2, f"{peak / (8 * ell**2):.2f} ell^2 doubles"
        assert np.array_equal(res.d_hat, dense_ls(Y, S, v, _combinations_matrix(ell, v))[0])

    def test_keeps_no_candidate_cache(self):
        Y, S, v = _joint_n4096_instance(1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = detect_ls_exhaustive(Y, S, v)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024, "a detection must not leave a candidate matrix behind"
        assert not any(hasattr(f, "cache_info") for f in vars(detection).values())
        assert res.weight <= v

    def test_non_finite_received_block(self):
        S = gen_signatures(4, 8, 4.0, make_rng(29))
        with pytest.raises(ValueError):
            detect_ls_exhaustive(np.full(8, np.nan), S, v=2)

    @pytest.mark.parametrize("length,v,message", [
        (7, 2, r"received length \(7,\) != signature length 8"),
        (8, -1, "weight cap must be >= 0, got -1"),
    ])
    def test_bad_input(self, length, v, message):
        S = gen_signatures(4, 8, 4.0, make_rng(29))
        with pytest.raises(ValueError, match=message):
            detect_ls_exhaustive(np.zeros(length), S, v=v)


class TestDetectPilot:
    def test_noiseless_active(self):
        active = detect_pilot(np.array([math.sqrt(0.25 * 16.0)]), 0.25, 16.0)
        assert active.dtype == bool and active.tolist() == [True]

    def test_noiseless_inactive(self):
        # a pilot exactly at the threshold sqrt(tE)/2 is inactive: the test is strict
        active = detect_pilot(np.array([0.0, math.sqrt(0.25 * 16.0) / 2.0]), 0.25, 16.0)
        assert active.dtype == bool and active.tolist() == [False, False]

    @pytest.mark.parametrize("t,E,message", [
        (0.0, 16.0, "pilot fraction must be in"), (1.0, 16.0, "pilot fraction must be in"),
        (0.25, 0.0, "energy must be positive"), (0.25, math.nan, "energy must be positive"),
    ])
    def test_bad_input(self, t, E, message):
        with pytest.raises(ValueError, match=message):
            detect_pilot(1.0, t, E)

    def test_miss_probability_matches_q(self):
        # tE = 4, N0 = 2: miss prob = Q(1) ~ 0.158655
        t, E, N0 = 0.25, 16.0, 2.0
        trials = 10**5
        rng = make_rng(28)
        amp = math.sqrt(t * E)
        y = amp + rng.standard_normal(trials) * math.sqrt(N0 / 2.0)
        misses = np.mean(y <= amp / 2.0)
        target = 0.15865525393145707  # Q(1), frozen from erfc
        sigma = math.sqrt(target * (1 - target) / trials)
        assert abs(misses - target) <= 3 * sigma


class TestDetectionStats:
    def test_equal(self):
        assert detection_stats([1, 1, 0, 0], [1, 1, 0, 0]) == (0, 0)

    def test_hand_count(self):
        assert detection_stats([1, 1, 0, 0], [1, 0, 1, 0]) == (1, 1)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            detection_stats([1, 0], [1, 0, 0])

    @given(st.integers(min_value=1, max_value=32), st.randoms(use_true_random=False))
    @settings(max_examples=60)
    def test_set_difference_oracle(self, ell, rnd):
        d_true = np.array([rnd.randint(0, 1) for _ in range(ell)])
        d_hat = np.array([rnd.randint(0, 1) for _ in range(ell)])
        k1, k2 = detection_stats(d_true, d_hat)
        a_true = {i for i in range(ell) if d_true[i]}
        a_hat = {i for i in range(ell) if d_hat[i]}
        assert k1 == len(a_true - a_hat)
        assert k2 == len(a_hat - a_true)
        # bookkeeping identity
        assert d_true.sum() + k2 == d_hat.sum() + k1


def test_noisy_detection_bookkeeping_identity():
    params = SystemParams(n=512, ell=8, alpha=0.25, N0=2.0)
    sched = make_joint_schedule(params, 0.5)
    v = v_cap(params, sched)
    for seed in range(50):
        rng = substream(5150, seed)
        S = gen_signatures(params.ell, sched.n_sig, sched.E_sig, rng)
        d = (rng.random(params.ell) < params.alpha).astype(int)
        Y = S.rows.T @ d + rng.standard_normal(sched.n_sig) * math.sqrt(params.N0 / 2.0)
        res = detect_ls_exhaustive(Y, S, v=v)
        misses, false_alarms = detection_stats(d, res.d_hat)
        assert d.sum() + false_alarms == res.weight + misses
        assert res.weight <= v
