import dataclasses
import hashlib
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyaccess import decoding, detection
from manyaccess.channel import (
    JointPlan,
    awgn,
    make_joint_plan,
    make_ortho_plan,
    transmit_joint,
    transmit_ortho,
)
from manyaccess.codebooks import Codebook, SignatureMatrix
from manyaccess.decoding import (
    BoundParams,
    _dead_end_elimination,
    _gram_terms,
    _objectives,
    decode_joint_ml,
    decode_ppm,
    ortho_receive,
    score_errors,
    two_phase_receive,
)
from manyaccess.errors import ComplexityBudgetError
from manyaccess.harness import ExperimentConfig, config_from_dict, estimate_error, write_trials_csv
from manyaccess.model import SystemParams, make_joint_schedule, make_ortho_schedule, sample_messages
from manyaccess.rng import make_rng, substream


def transmit_both(plan, msgs):
    """The whole clean word: transmit_joint's signature block, then its message block."""
    return np.concatenate([transmit_joint(plan, msgs, block) for block in ("signatures", "messages")])


def receive(Y, plan, params, sched, bp):
    """two_phase_receive on a whole received word: signature block, then message block."""
    return two_phase_receive(Y[: sched.n_sig], plan, params, sched, bp, lambda users: Y[sched.n_sig :])


def dense_joint_ml(Y_msg, plan, active, budget=10**7):
    """Reference: score the whole M^k grid (the decoder before pruning)."""
    active = sorted(active)
    k = len(active)
    if k == 0:
        return {}
    M = plan.M
    if M**k > budget:
        raise ComplexityBudgetError(
            f"M^|active| = {M}^{k} exceeds the tuple budget of {budget}"
        )
    Y_msg = np.asarray(Y_msg, dtype=float)
    words = [plan.codebooks[i].words[1:] for i in active]  # (M, n_msg) each
    if any(w.shape[1] != len(Y_msg) for w in words):
        raise ValueError("codeword length does not match received message block")

    shape = (M,) * k
    objective = np.zeros(shape)
    for i, wi in enumerate(words):
        unary = np.einsum("mj,mj->m", wi, wi) - 2.0 * (wi @ Y_msg)
        objective += unary.reshape((1,) * i + (M,) + (1,) * (k - 1 - i))
    for i in range(k):
        for j in range(i + 1, k):
            cross = 2.0 * (words[i] @ words[j].T)
            objective += cross.reshape(
                (1,) * i + (M,) + (1,) * (j - i - 1) + (M,) + (1,) * (k - 1 - j)
            )
    flat_best = int(np.argmin(objective))
    tup = np.unravel_index(flat_best, shape)
    return {user: int(w) + 1 for user, w in zip(active, tup)}


def dead_end_elimination_per_user(unary, cross):
    """Reference: dead-end elimination one user at a time (the decoder's
    first form), on per-user vectors unary[i] and per-pair matrices
    cross[i, j], i < j.  A user is tested again whenever another user
    loses a message, until nothing changes.  Returns one mask per user."""
    k = len(unary)
    scale = sum(np.abs(u).sum() for u in unary) + sum(np.abs(c).sum() for c in cross.values())
    tol = 1e-9 * max(1.0, float(scale))
    alive = [np.ones(len(u), dtype=bool) for u in unary]
    # pair_lo[i, j][m] / pair_hi[i, j][m]: min / max over alive_j of C_ij[m, .]
    pair_lo, pair_hi = {}, {}
    for (i, j), c in cross.items():
        pair_lo[i, j], pair_hi[i, j] = c.min(axis=1), c.max(axis=1)
        pair_lo[j, i], pair_hi[j, i] = c.min(axis=0), c.max(axis=0)
    pending = list(range(k))
    while pending:
        i = pending.pop(0)
        others = [j for j in range(k) if j != i]
        lo = unary[i] + sum(pair_lo[i, j] for j in others)
        hi = unary[i] + sum(pair_hi[i, j] for j in others)
        dead = (lo > hi[alive[i]].min() + tol) & alive[i]
        if not dead.any():
            continue
        alive[i] &= ~dead
        for j in others:
            c = cross[j, i] if j < i else cross[i, j].T
            pair_lo[j, i] = np.minimum.reduce(c, axis=1, where=alive[i], initial=np.inf)
            pair_hi[j, i] = np.maximum.reduce(c, axis=1, where=alive[i], initial=-np.inf)
            if j not in pending:
                pending.append(j)
    return alive


def _plan_from_words(word_sets):
    """Joint plan whose user i sends word_sets[i][w - 1] for message w."""
    M, length = word_sets[0].shape
    books = tuple(
        Codebook(M=M, length=length, E=float(np.max(np.sum(w * w, axis=1))),
                 words=np.vstack([np.zeros(length), w]))
        for w in word_sets
    )
    sigs = SignatureMatrix(matrix=np.zeros((1, len(books))), E_sig=1.0)
    return JointPlan(ell=len(books), M=M, codebooks=books, signatures=sigs, n_msg=length)


def _circle_words(rng, k, M, E=50.0):
    """k users' M length-2 words of energy E at random angles."""
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(k, M))
    return [math.sqrt(E) * np.stack([np.cos(a), np.sin(a)], axis=1) for a in angles]


# the joint_n4096 benchmark point: n=4096, ell=16, alpha=2/16, M=10
N4096_PARAMS = SystemParams(n=4096, ell=16, alpha=2 / 16, N0=2.0)
N4096_SCHED = make_joint_schedule(N4096_PARAMS, 0.5)


def _decode_case(k, M, case, seed):
    """(plan, active, Y) of one property-test decode.  n4096: the benchmark
    point's codebooks, k random users and channel noise; short: length-2
    words of equal energy, where pruning is weak; ties: small integer words
    from a pool of 3, whose duplicates give exact ties, whatever order the
    float sums run in."""
    rng = make_rng(seed)
    if case == "n4096":
        plan = make_joint_plan(N4096_PARAMS, N4096_SCHED, M, rng)
        active = sorted(int(i) for i in rng.choice(N4096_PARAMS.ell, size=k, replace=False))
        clean = sum(plan.codebooks[i].words[int(rng.integers(1, M + 1))] for i in active)
        return plan, active, awgn(clean, N4096_PARAMS.N0, rng)
    if case == "short":
        return _plan_from_words(_circle_words(rng, k, M)), list(range(k)), rng.standard_normal(2)
    pool = rng.integers(-2, 3, size=(3, 4)).astype(float)
    plan = _plan_from_words([pool[rng.integers(0, 3, size=M)] for _ in range(k)])
    return plan, list(range(k)), rng.integers(-3, 4, size=4).astype(float)


def _assert_matches_dense(k, M, case, seed):
    """The pruned decoder returns the dense grid's tuple; on ties, the
    lexicographically first of the exact integer minima."""
    plan, active, Y = _decode_case(k, M, case, seed)
    got = decode_joint_ml(Y, plan, active)
    assert got == dense_joint_ml(Y, plan, active)
    if case == "ties":
        books = [plan.codebooks[i].words.astype(int) for i in active]
        y = Y.astype(int)

        def residual(tup):
            r = y - sum(b[w] for b, w in zip(books, tup))
            return int(r @ r)

        tuples = list(product(range(1, M + 1), repeat=k))  # lexicographic
        values = [residual(t) for t in tuples]
        smallest = tuples[values.index(min(values))]
        assert got == dict(zip(active, smallest))


class TestDecodePpm:
    def test_noiseless(self):
        slot = np.zeros(6)
        slot[0] = 1.0
        slot[3] = 2.0  # message 3 lives at index 3
        assert decode_ppm(slot, 4) == 3

    def test_tie_goes_to_smallest(self):
        assert decode_ppm(np.zeros(5), 4) == 1

    def test_dimension_error(self):
        with pytest.raises(ValueError):
            decode_ppm(np.zeros(4), 4)


class TestDecodeJointMl:
    def _setup(self, seed=31, ell=4, M=3, n=256, alpha=0.5):
        params = SystemParams(n=n, ell=ell, alpha=alpha, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        plan = make_joint_plan(params, sched, M, make_rng(seed))
        return params, sched, plan

    def test_empty_active_set(self):
        _, _, plan = self._setup()
        assert decode_joint_ml(np.zeros(128), plan, []) == {}

    def test_noiseless_single_user(self):
        params, sched, plan = self._setup()
        Y = plan.codebooks[2].words[3]
        assert decode_joint_ml(Y, plan, [2]) == {2: 3}

    def test_noiseless_multi_user(self):
        params, sched, plan = self._setup()
        Y = plan.codebooks[0].words[1] + plan.codebooks[2].words[3] + plan.codebooks[3].words[2]
        assert decode_joint_ml(Y, plan, [0, 2, 3]) == {0: 1, 2: 3, 3: 2}

    def test_codeword_length_mismatch(self):
        _, _, plan = self._setup()
        with pytest.raises(ValueError, match="codeword length does not match"):
            decode_joint_ml(np.zeros(127), plan, [0, 2])

    @pytest.mark.parametrize("active", [[0, 0, 1], [-3, 1], [1, 4]])
    def test_repeated_or_unknown_user_refused(self, active):
        # unchecked, [0, 0, 1] scores a three-user model but returns two
        # keys, and [-3, 1] returns the key -3
        _, _, plan = self._setup()
        with pytest.raises(ValueError, match=r"distinct users in range\(4\)"):
            decode_joint_ml(np.zeros(128), plan, active)

    def test_budget_guard(self, monkeypatch):
        _, _, plan = self._setup()
        monkeypatch.setattr(decoding, "TUPLE_BUDGET", 10)
        with pytest.raises(ComplexityBudgetError, match=r"3\^4 exceeds the tuple budget of 10"):
            decode_joint_ml(np.zeros(128), plan, [0, 1, 2, 3])

    def test_tuple_budget_read_when_the_search_runs(self, monkeypatch):
        # 3^3 = 27 tuples: a budget of 26 refuses, and one of 27 decodes
        _, _, plan = self._setup()
        Y = plan.codebooks[0].words[1] + plan.codebooks[2].words[3] + plan.codebooks[3].words[2]
        monkeypatch.setattr(decoding, "TUPLE_BUDGET", 26)
        with pytest.raises(ComplexityBudgetError, match=r"3\^3 exceeds the tuple budget of 26"):
            decode_joint_ml(Y, plan, [0, 2, 3])
        monkeypatch.setattr(decoding, "TUPLE_BUDGET", 27)
        assert decode_joint_ml(Y, plan, [0, 2, 3]) == {0: 1, 2: 3, 3: 2}

    def test_brute_force_oracle_under_noise(self):
        params, sched, plan = self._setup(seed=77)
        rng = make_rng(99)
        active = [0, 1, 3]
        for _ in range(10):
            Y = sum(plan.codebooks[i].words[rng.integers(1, 4)] for i in active)
            Y = Y + rng.standard_normal(sched.n_msg) * 2.0
            got = decode_joint_ml(Y, plan, active)
            best, best_val = None, np.inf
            for tup in product(range(1, plan.M + 1), repeat=len(active)):
                cand = sum(plan.codebooks[i].words[w] for i, w in zip(active, tup))
                val = float((Y - cand) @ (Y - cand))
                if val < best_val:
                    best, best_val = tup, val
            assert got == dict(zip(active, best))

    def test_matches_ppm_decoder_single_user(self):
        # orthogonal plan, single active user: the generic joint ML and the
        # PPM slot decoder must agree on the message part
        params = SystemParams(n=72, ell=3, alpha=1.0, N0=2.0)
        sched = make_ortho_schedule(params, 0.25)
        plan = make_ortho_plan(params, sched, 4)
        rng = make_rng(41)
        slot = plan.slot_len
        from manyaccess.codebooks import Codebook

        # message-part-only codebook for the joint decoder
        msg_book = Codebook(
            M=plan.M, length=slot - 1, E=sched.E_msg, words=plan.book.words[:, 1:]
        )
        for _ in range(25):
            w = int(rng.integers(1, 5))
            y_slot = plan.book.words[w] + rng.standard_normal(slot) * 1.0
            via_ppm = decode_ppm(y_slot, plan.M)
            joint_plan = JointPlan(
                ell=1, M=plan.M, codebooks=(msg_book,),
                signatures=_single_sig(slot, sched), n_msg=slot - 1,
            )
            via_ml = decode_joint_ml(y_slot[1:], joint_plan, [0])[0]
            assert via_ppm == via_ml


class TestPrunedSearchAgainstDense:
    @given(
        k=st.integers(min_value=1, max_value=5),
        M=st.integers(min_value=2, max_value=6),
        case=st.sampled_from(["n4096", "short", "ties"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_dense_oracle(self, k, M, case, seed):
        _assert_matches_dense(k, M, case, seed)

    @given(
        k=st.integers(min_value=6, max_value=7),
        M=st.integers(min_value=2, max_value=3),
        case=st.sampled_from(["n4096", "short", "ties"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_matches_dense_oracle_at_large_k(self, k, M, case, seed):
        # the elimination rounds do the most work at large k; M <= 3 keeps
        # the dense grid at 3^7 = 2187 tuples or fewer
        _assert_matches_dense(k, M, case, seed)

    @given(
        k=st.integers(min_value=1, max_value=7),
        M=st.integers(min_value=2, max_value=6),
        case=st.sampled_from(["n4096", "short", "ties"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_rounds_match_per_user_oracle(self, k, M, case, seed):
        plan, active, Y = _decode_case(k, M, case, seed)
        words = [plan.codebooks[i].words[1:] for i in active]
        U, G = _gram_terms(words, [plan.codebooks[i].energies[1:] for i in active], Y)
        # the terms are the per-user and per-pair expressions, bit for bit;
        # G[0, n, i, j, m] pairs user i's message m with user j's message n
        unary = [np.einsum("mj,mj->m", w, w) - 2.0 * (w @ Y) for w in words]
        cross = {(i, j): 2.0 * (words[i] @ words[j].T) for i in range(k) for j in range(i + 1, k)}
        assert all(np.array_equal(u, U[0, i]) for i, u in enumerate(unary))
        for (i, j), c in cross.items():
            assert np.array_equal(c, G[0, :, j, i]) and np.array_equal(c.T, G[0, :, i, j])
        # a user's own block is zero, so summing over j adds exactly 0 for it
        assert not G[:, :, range(k), range(k)].any()
        assert np.array_equal(U[1], -U[0]) and np.array_equal(G[1], -G[0])
        want = dead_end_elimination_per_user(unary, cross)
        assert np.array_equal(_dead_end_elimination(U, G), np.array(want))

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_scoring_blocks_keep_first_minimum(self, monkeypatch, block):
        # the grids here span many scoring blocks; a later block's equal
        # minimum must not displace an earlier one
        monkeypatch.setattr(decoding, "_SCORE_BLOCK", block)
        spanned = 0
        for seed in range(60):
            k, M, case = 2 + seed % 3, 2 + seed % 4, ("short", "ties")[seed % 2]
            plan, active, Y = _decode_case(k, M, case, seed)
            books = [plan.codebooks[i] for i in active]
            U, G = _gram_terms([b.words[1:] for b in books], [b.energies[1:] for b in books], Y)
            spanned += int(_dead_end_elimination(U, G).all(axis=1).prod())
            assert decode_joint_ml(Y, plan, active) == dense_joint_ml(Y, plan, active)
        assert spanned > 10  # grids that kept every tuple

    @given(
        # k 6-7 at M <= 3 too, where the running total is longest (7 user
        # and 21 pair terms) and the full grid at most 3^7 = 2187 tuples
        km=st.one_of(st.tuples(st.integers(1, 5), st.integers(2, 5)),
                     st.tuples(st.integers(6, 7), st.integers(2, 3))),
        case=st.sampled_from(["n4096", "short", "ties"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=90, deadline=None, derandomize=True)
    def test_objectives_are_the_full_grids_bitwise(self, km, case, seed):
        # the full grid, added as the dense oracle adds it
        k, M = km
        plan, active, Y = _decode_case(k, M, case, seed)
        words = [plan.codebooks[i].words[1:] for i in active]
        grid = np.zeros((M,) * k)
        for i, w in enumerate(words):
            unary = np.einsum("mj,mj->m", w, w) - 2.0 * (w @ Y)
            grid += unary.reshape((M,) + (1,) * (k - 1 - i))
        for i in range(k):
            for j in range(i + 1, k):
                cross = 2.0 * (words[i] @ words[j].T)
                grid += cross.reshape((M,) + (1,) * (j - i - 1) + (M,) + (1,) * (k - 1 - j))
        w = list(np.indices((M,) * k).reshape(k, -1))  # 0-based messages, lexicographic
        U, G = _gram_terms(words, [plan.codebooks[i].energies[1:] for i in active], Y)
        assert np.array_equal(_objectives(U, G, w), grid.ravel())
        # one tuple at a time, where a reduction would run down the terms
        for t in range(0, len(w[0]), 7):
            assert _objectives(U, G, [x[t : t + 1] for x in w])[0] == grid.flat[t]

    def test_short_codewords_prune_nothing(self):
        # equal-energy length-2 words: the pair terms span +-2E and swamp the
        # unary spread, so every message survives and the grid is the full one
        words = _circle_words(make_rng(5), 4, 6)
        energies = [np.einsum("mj,mj->m", w, w) for w in words]
        assert _dead_end_elimination(*_gram_terms(words, energies, np.zeros(2))).all()

    def test_k7_peak_memory_far_below_dense_grid(self):
        # the dense 10^7-cell float64 grid alone is 80 MB
        rng = make_rng(1113)
        plan = make_joint_plan(N4096_PARAMS, N4096_SCHED, 10, rng)
        active = [0, 2, 3, 7, 9, 12, 15]
        clean = sum(plan.codebooks[i].words[int(rng.integers(1, 11))] for i in active)
        Y = awgn(clean, N4096_PARAMS.N0, rng)
        tracemalloc.start()
        try:
            got = decode_joint_ml(Y, plan, active)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6
        assert got == dense_joint_ml(Y, plan, active)


# the numpy release these digests were pinned on: another release may draw
# Generator variates or round a reduction differently, so a failure names both
PINNED_ON = f"pinned on numpy 2.4.6, running numpy {np.__version__}"


def test_joint_n4096_trials_csv_pinned(tmp_path):
    # digest computed with the full-grid decoder and per-user codebook
    # substreams; these 100 trials include two k = 7 decodes and three
    # budget aborts (8 or more users detected)
    cfg = ExperimentConfig(
        scheme="joint", params=N4096_PARAMS, split=0.5, M=10, bp=BoundParams(xi=8),
        trials=100, master_seed=1113,
    )
    path = tmp_path / "trials.csv"
    write_trials_csv(path, estimate_error(cfg).records)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "33066d75a87aa712cda2b4d006fa571d0fd712d9dfc0fcb051a46556d8987f98", PINNED_ON


@pytest.mark.parametrize("n,seed,digest", [
    (256, 1111, "053dba4bf8e65e7ab2478d4bb5c27b19b87a933f6d9a7fc7b6658a3751d6e538"),
    (1024, 1112, "ec6b99634ceffe204f9c7ab386687f9f23803fecd989885dc13224537c50458b"),
], ids=["n256", "n1024"])
def test_growth_point_trials_csv_pinned(tmp_path, n, seed, digest):
    # the first 200 trials of criterion 11's points at n = 256 and 1024
    # (seeds 1111, 1112), computed with C-contiguous (n_sig, ell)
    # signatures: reading the drawn rows rounds S^T Y and S d differently
    # in the last bit, and no decision may move
    ell = math.ceil(n ** (1 / 3))
    params = SystemParams(n=n, ell=ell, alpha=2.0 / ell, N0=2.0)
    M = max(2, round(math.exp(0.125 * make_joint_schedule(params, 0.5).E)))
    cfg = ExperimentConfig(scheme="joint", params=params, split=0.5, M=M,
                           bp=BoundParams(xi=8), trials=200, master_seed=seed)
    path = tmp_path / "trials.csv"
    write_trials_csv(path, estimate_error(cfg).records)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, PINNED_ON


def test_ortho_l1024_trials_csv_pinned(tmp_path):
    # digest computed with the per-user transmit and receive loops; ell = 1024
    # slots of 64 channel uses per trial, M = 11
    cfg = config_from_dict({"scheme": "ortho", "n": 65536, "ell": 1024, "alpha": 0.05,
                            "N0": 2.0, "t": 0.5, "R_dot_nats": 0.125,
                            "trials": 100, "master_seed": 77})
    assert cfg.M == 11
    path = tmp_path / "trials.csv"
    write_trials_csv(path, estimate_error(cfg).records)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "b24ef285ef69c4d3237fe3b5de6774732779285f76fa9aa4454238e6bc0c8820", PINNED_ON


def _single_sig(slot, sched):
    from manyaccess.codebooks import SignatureMatrix

    return SignatureMatrix(matrix=np.zeros((1, 1)), E_sig=sched.E_sig)


class TestTwoPhase:
    def _setup(self, seed, ell=6, alpha=0.5, n=512, M=4, xi=8):
        params = SystemParams(n=n, ell=ell, alpha=alpha, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        plan = make_joint_plan(params, sched, M, make_rng(seed))
        bp = BoundParams(xi=xi)
        return params, sched, plan, bp

    def test_noiseless_end_to_end(self):
        params, sched, plan, bp = self._setup(51)
        msgs = sample_messages(params, plan.M, make_rng(52))
        res = receive(transmit_both(plan, msgs), plan, params, sched, bp)
        stats = score_errors(msgs, res.w_hat, res.overflow)
        assert not stats.joint_error
        assert np.array_equal(res.w_hat, msgs)

    def test_overflow_triggers(self):
        # xi=1 and 3k users truly active: cap floor(xi*k) = 1 < |d_hat|
        params, sched, plan, bp = self._setup(53, ell=8, alpha=0.125, xi=1)
        assert math.floor(bp.xi * params.k) == 1
        msgs = np.zeros(params.ell, dtype=int)
        msgs[[0, 3, 6]] = 1  # 3k active
        res = receive(transmit_both(plan, msgs), plan, params, sched, bp)
        assert res.overflow
        stats = score_errors(msgs, res.w_hat, res.overflow)
        assert stats.joint_error and stats.per_user_errors == 3

    def test_decode_over_budget_is_reported(self, monkeypatch):
        # three users active, M^3 = 64 tuples over a budget of 63: the
        # receiver reports the abort, decodes nobody and never asks for
        # the message block
        params, sched, plan, bp = self._setup(51)
        msgs = np.array([1, 0, 2, 0, 3, 0])
        Y = transmit_both(plan, msgs)
        asked = []

        def message_block(users):
            asked.append(users)
            return Y[sched.n_sig :]

        monkeypatch.setattr(decoding, "TUPLE_BUDGET", 63)
        res = two_phase_receive(Y[: sched.n_sig], plan, params, sched, bp, message_block)
        assert res.budget_abort and not res.overflow
        assert not res.w_hat.any()
        assert res.detection.weight == 3
        assert asked == []
        monkeypatch.setattr(decoding, "TUPLE_BUDGET", 64)
        assert not two_phase_receive(Y[: sched.n_sig], plan, params, sched, bp, message_block).budget_abort
        assert asked == [[0, 2, 4]]

    def test_detection_over_budget_raises(self, monkeypatch):
        params, sched, plan, bp = self._setup(51)
        Y = transmit_both(plan, np.zeros(params.ell, dtype=int))
        monkeypatch.setattr(detection, "CANDIDATE_BUDGET", 1)
        with pytest.raises(ComplexityBudgetError, match="candidates exceed the budget of 1 "):
            receive(Y, plan, params, sched, bp)

    # the signature block one sample short and one long
    @pytest.mark.parametrize("extra", [-1, 1], ids=["signature_block", "long_signature_block"])
    def test_wrong_received_length(self, extra):
        params, sched, plan, bp = self._setup(51)
        n, Y_msg = sched.n_sig, np.zeros(sched.n_msg)
        with pytest.raises(ValueError, match=f"received length {n + extra} != {n}"):
            two_phase_receive(np.zeros(n + extra), plan, params, sched, bp, lambda users: Y_msg)

    def test_single_user_high_energy_smoke(self):
        params, sched, plan, bp = self._setup(54, ell=4, alpha=0.25)
        hits = 0
        for trial in range(100):
            rng = substream(55, trial)
            plan = make_joint_plan(params, sched, 4, rng)
            msgs = np.zeros(params.ell, dtype=int)
            msgs[0] = int(rng.integers(1, 5))
            Y = awgn(transmit_both(plan, msgs), params.N0 / 50.0, rng)
            res = receive(Y, plan, params, sched, bp)
            hits += int(np.array_equal(res.w_hat, msgs))
        assert hits == 100


class TestOrthoReceive:
    def _setup(self, M=4, ell=4, n=4096):
        params = SystemParams(n=n, ell=ell, alpha=0.5, N0=2.0)
        sched = make_ortho_schedule(params, 0.25)
        plan = make_ortho_plan(params, sched, M)
        return params, sched, plan

    def test_all_inactive_noiseless(self):
        params, sched, plan = self._setup()
        msgs = np.zeros(params.ell, dtype=int)
        Y = transmit_ortho(plan, msgs)
        assert np.array_equal(ortho_receive(Y, plan, params, sched), msgs)

    def test_mixed_noiseless_exact(self):
        params, sched, plan = self._setup()
        msgs = np.array([0, 2, 4, 0])
        Y = transmit_ortho(plan, msgs)
        assert np.array_equal(ortho_receive(Y, plan, params, sched), msgs)

    def test_short_received_block(self):
        params, sched, plan = self._setup()
        with pytest.raises(ValueError, match=r"received length 4095 < ell\*slot = 4096"):
            ortho_receive(np.zeros(4095), plan, params, sched)


class TestMonteCarloAgainstBounds:
    def test_ppm_error_below_ortho_bound_quarter_capacity(self):
        # M=256, N0=2, rate 0.25 nats per unit energy (second branch)
        M, N0, R = 256, 2.0, 0.25
        E = math.log(M) / R
        from manyaccess import bounds

        bound = bounds.ortho_code_bound(M, R, N0).value
        rng = make_rng(611)
        trials = 2 * 10**4
        amp = math.sqrt(E)
        w = rng.integers(1, M + 1, size=trials)
        slots = rng.standard_normal((trials, M + 1)) * math.sqrt(N0 / 2.0)
        slots[np.arange(trials), w] += amp
        errors = sum(decode_ppm(slots[i], M) != w[i] for i in range(trials))
        rate = errors / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / trials)
        assert rate <= bound + 3 * sigma

    def test_ortho_per_user_error_below_composite_bound(self):
        # pilot threshold + PPM decoding against 2Q(...) + decode bound
        from manyaccess import bounds
        from manyaccess.codebooks import gen_ppm_codebook
        from manyaccess.detection import detect_pilot

        M, E, t, N0, alpha = 16, 40.0, 0.25, 2.0, 0.5
        book = gen_ppm_codebook(M, M + 1, E, t)
        bound = bounds.ortho_user_error_bound(M, t, E, N0).value
        assert bound < 1.0
        rng = make_rng(612)
        trials = 10**5
        w_true = np.where(rng.random(trials) < alpha, rng.integers(1, M + 1, trials), 0)
        noise = rng.standard_normal((trials, M + 1)) * math.sqrt(N0 / 2.0)
        slots = book.words[w_true] + noise
        # one pilot exactly at the threshold (inactive: the test is strict)
        # and one tie between messages 3 and 7 (the smaller index wins)
        slots[0, 0] = math.sqrt(t * E) / 2.0
        slots[1, 0], slots[1, 3], slots[1, 7] = 10.0, 50.0, 50.0
        # per-slot oracle: one scalar call per slot
        oracle = np.zeros(trials, dtype=int)
        for i in range(trials):
            if detect_pilot(float(slots[i, 0]), t, E):
                oracle[i] = decode_ppm(slots[i], M)
        assert oracle[0] == 0 and oracle[1] == 3
        # the table calls ortho_receive makes give the oracle's decisions
        active = detect_pilot(slots[:, 0], t, E)
        assert np.array_equal(np.where(active, decode_ppm(slots, M), 0), oracle)
        wrong = int(np.count_nonzero(oracle != w_true))
        rate = wrong / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / trials)
        assert rate <= bound + 3 * sigma

    def test_type_error_fraction_dominated_by_union_bound(self):
        # genie-aided decoding with k'=2 known active users: the full-error
        # fraction Pr(A = 1) sits below the a=1 union bound when the bound
        # is meaningful (< 1); fraction 1/2 is vacuous here and skipped
        from manyaccess import bounds
        from manyaccess.codebooks import mu_exact

        params = SystemParams(n=512, ell=8, alpha=0.25, N0=2.0)
        sched = make_joint_schedule(params, 0.5)
        M, k_active = 4, 2
        mu = mu_exact(sched.n_msg).value
        bound_full = min(
            (
                bounds.pr_type_error_ub(
                    1.0, rho, M, k_active, sched.E_msg, sched.n_msg, params.N0, mu
                )
                for rho in bounds.RHO_GRID
            ),
            key=lambda rep: rep.value,
        )
        assert bound_full.valid
        trials = 400
        count_full = 0
        for seed in range(trials):
            rng = substream(613, seed)
            plan = make_joint_plan(params, sched, M, rng)
            active = [1, 5]
            w = {i: int(rng.integers(1, M + 1)) for i in active}
            clean = sum(plan.codebooks[i].words[w[i]] for i in active)
            Y = clean + rng.standard_normal(sched.n_msg) * math.sqrt(params.N0 / 2.0)
            got = decode_joint_ml(Y, plan, active)
            wrong = sum(got[i] != w[i] for i in active)
            count_full += int(wrong == k_active)
        rate = count_full / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1e-9) / trials)
        assert rate <= bound_full.value + 3 * sigma

    def test_joint_error_non_increasing_in_energy(self):
        # smoke property: scaling the schedule energy up cannot hurt, up to
        # Monte Carlo noise (3 sigma per point)
        params = SystemParams(n=256, ell=6, alpha=0.5, N0=2.0)
        base = make_joint_schedule(params, 0.5)
        bp = BoundParams(xi=8)
        trials = 150
        rates = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            sched = dataclasses.replace(
                base, E=base.E * scale, E_sig=base.E_sig * scale, E_msg=base.E_msg * scale
            )
            wrong = 0
            for seed in range(trials):
                rng = substream(614, seed)
                plan = make_joint_plan(params, sched, 4, rng)
                msgs = sample_messages(params, 4, rng)
                Y = awgn(transmit_both(plan, msgs), params.N0, rng)
                res = receive(Y, plan, params, sched, bp)
                wrong += int(score_errors(msgs, res.w_hat, res.overflow).joint_error)
            rates.append(wrong / trials)
        sigma = 3.0 * math.sqrt(0.25 / trials)
        assert all(b <= a + sigma for a, b in zip(rates, rates[1:]))


class TestScoreErrors:
    def test_identical(self):
        s = score_errors(np.array([0, 1, 2]), np.array([0, 1, 2]), overflow=False)
        assert not s.joint_error and s.ape == 0.0

    def test_one_mismatch(self):
        w = np.zeros(10, dtype=int)
        w2 = w.copy()
        w2[4] = 1
        s = score_errors(w, w2, overflow=False)
        assert s.joint_error and s.ape == pytest.approx(0.1)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match=r"length mismatch: \(3,\) vs \(4,\)"):
            score_errors(np.zeros(3, dtype=int), np.zeros(4, dtype=int), overflow=False)

    def test_overflow_voids_active(self):
        w = np.array([0, 3, 2, 0, 1])
        s = score_errors(w, np.zeros(5, dtype=int), overflow=True)
        assert s.joint_error and s.per_user_errors == 3 and s.ape == pytest.approx(0.6)

    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=24),
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=24),
    )
    @settings(max_examples=80)
    def test_counting_oracle(self, a, b):
        m = min(len(a), len(b))
        a, b = np.array(a[:m]), np.array(b[:m])
        s = score_errors(a, b, overflow=False)
        wrong = sum(1 for x, y in zip(a, b) if x != y)
        assert s.per_user_errors == wrong
        assert s.ape == pytest.approx(wrong / m)
        assert s.joint_error == (wrong > 0)
        # invariant: any per-user error forces a joint error
        if s.ape > 0:
            assert s.joint_error
