"""Trial records checked against a reference trial in plain code.

reference_trial(cfg, i) redraws trial i in the stream order of README's
Reproducibility section: the trial stream make_rng(mix_seed(master, i))
gives the messages, then the signatures and one 64-bit codebook key (or
these come from substream(master, 0x706C616E) with fixed codebooks), then
the noise; user u's book comes from substream(key, u).  It forms Y as
plain vector sums and receives it by dense scans: every support of weight
at most v, then every message tuple of the detected users, each scored
by its residual ||Y - sum||^2, the first minimum in (weight, lex) and in
lex order winning.  Overflow and the tuple budget are applied as
documented.  The program's records must equal the reference's field by
field, except where a receiver's winner differs from the reference's by
no more than that receiver's tol, which the two objectives' different
rounding may explain; those cases are counted.
"""

import itertools
import math

import numpy as np
import pytest

from manyaccess import decoding
from manyaccess.channel import JointPlan
from manyaccess.codebooks import Codebook, SignatureMatrix, gen_codebook, gen_signatures
from manyaccess.decoding import BoundParams, ErrorStats, two_phase_receive
from manyaccess.harness import ExperimentConfig, TrialRecord, run_trial
from manyaccess.model import SystemParams, make_joint_schedule
from manyaccess.rng import make_rng, mix_seed, substream

# README: with fixed codebooks the signatures and the key come from this substream
PLAN_STREAM = 0x706C616E
TRIALS = 200


def first_min(candidates, residual):
    """The first candidate of least residual."""
    values = [residual(c) for c in candidates]
    return candidates[values.index(min(values))]


def summed(vectors, length):
    """0 plus the vectors, in order."""
    return sum(vectors, np.zeros(length))


def reference_receive(Y_sig, Y_msg, sigs, books, v, cap, M):
    """(w_hat, d_hat, overflow, budget_abort, decisions) of the two-phase
    receiver by dense scans: sigs[u] is user u's signature, books[u][m]
    its word m, cap = floor(xi k).  Each decision is (winner, residual of
    any candidate, tol), the tol the program's receiver uses: 1e-9 times
    the magnitudes of the objective's terms summed."""
    ell, n_sig, n_msg = len(sigs), len(Y_sig), len(Y_msg)
    supports = [s for w in range(min(v, ell) + 1) for s in itertools.combinations(range(ell), w)]

    def support_residual(s):
        r = Y_sig - summed([sigs[u] for u in s], n_sig)
        return float(r @ r)

    support = first_min(supports, support_residual)
    terms = Y_sig @ Y_sig + 2.0 * np.abs(sigs @ Y_sig).sum() + np.abs(sigs @ sigs.T).sum()
    decisions = [(support, support_residual, 1e-9 * max(1.0, terms))]
    w_hat, d_hat = np.zeros(ell, dtype=int), np.zeros(ell, dtype=bool)
    d_hat[list(support)] = True
    if len(support) > cap:
        return w_hat, d_hat, True, False, decisions
    if M ** len(support) > decoding.TUPLE_BUDGET:
        return w_hat, np.zeros(ell, dtype=bool), False, True, decisions

    def tuple_residual(w):
        r = Y_msg - summed([books[u][m] for u, m in zip(support, w)], n_msg)
        return float(r @ r)

    tuples = list(itertools.product(range(1, M + 1), repeat=len(support)))
    messages = first_min(tuples, tuple_residual)
    words = [books[u][1:] for u in support]
    terms = sum(np.abs((x * x).sum(axis=1) - 2.0 * (x @ Y_msg)).sum() for x in words)
    terms += sum(np.abs(2.0 * (x @ y.T)).sum() for x, y in itertools.combinations(words, 2))
    decisions.append((messages, tuple_residual, 1e-9 * max(1.0, terms)))
    w_hat[list(support)] = messages
    return w_hat, d_hat, False, False, decisions


def _joint(cfg, msgs, N0, rng):
    p, b = cfg.params, cfg.split
    k = p.alpha * p.ell
    c = math.log(p.n / (k * math.log(p.ell)))
    E = c * math.log(p.ell)
    E_sig, n_sig = b * E, math.floor(b * p.n)
    n_msg = p.n - n_sig
    plan_rng = substream(cfg.master_seed, PLAN_STREAM) if cfg.fixed_codebooks else rng
    sigs = gen_signatures(p.ell, n_sig, E_sig, plan_rng).rows
    key = int(plan_rng.integers(0, 1 << 64, dtype=np.uint64))
    books = [gen_codebook(cfg.M, n_msg, E - E_sig, substream(key, u)).words for u in range(p.ell)]
    noise = rng.standard_normal(p.n) * math.sqrt(N0 / 2.0) if N0 > 0.0 else np.zeros(p.n)
    senders = msgs.nonzero()[0].tolist()
    Y_sig = noise[:n_sig] + summed([sigs[u] for u in senders], n_sig)
    Y_msg = noise[n_sig:] + summed([books[u][msgs[u]] for u in senders], n_msg)
    v, cap = math.floor(k * (1.0 + c)), math.floor(cfg.bp.xi * k)
    return reference_receive(Y_sig, Y_msg, sigs, books, v, cap, cfg.M)


def _ortho(cfg, msgs, N0, rng):
    p, t, M = cfg.params, cfg.split, cfg.M
    slot = p.n // p.ell
    E_total = math.log(p.n / (p.ell * math.log(p.n))) * math.log(p.n)
    E_sig = t * E_total
    E = E_sig + (E_total - E_sig)  # the schedule keeps E as the sum of its parts
    words = np.zeros((M + 1, slot))
    for m in range(1, M + 1):
        words[m, 0], words[m, m] = math.sqrt(t * E), math.sqrt((1.0 - t) * E)
    length = p.ell * slot
    noise = rng.standard_normal(length) * math.sqrt(N0 / 2.0) if N0 > 0.0 else np.zeros(length)
    w_hat = np.zeros(p.ell, dtype=int)
    for u in range(p.ell):
        y = noise[u * slot : (u + 1) * slot] + words[msgs[u]]
        if y[0] > math.sqrt(t * E) / 2.0:
            w_hat[u] = max(range(1, M + 1), key=lambda m: y[m])  # the first largest
    return w_hat, w_hat != 0, False, False, []


def reference_trial(cfg: ExperimentConfig, i: int) -> tuple[TrialRecord, list]:
    """Trial i of cfg in plain code: its record and the joint receiver's
    decisions (see reference_receive)."""
    p = cfg.params
    seed = mix_seed(cfg.master_seed, i)
    rng = make_rng(seed)
    active = rng.random(p.ell) < p.alpha
    msgs = np.where(active, rng.integers(1, cfg.M + 1, size=p.ell), 0)
    N0 = 0.0 if cfg.noiseless else p.N0
    receive = _joint if cfg.scheme == "joint" else _ortho
    w_hat, d_hat, overflow, abort, decisions = receive(cfg, msgs, N0, rng)
    void = overflow or abort  # every active user's message is lost
    wrong = int(np.count_nonzero(msgs if void else msgs != w_hat))
    stats = ErrorStats(joint_error=void or wrong > 0, per_user_errors=wrong, ape=wrong / p.ell)
    record = TrialRecord(
        trial=i, seed=seed, k_true=int(active.sum()), d_hat_weight=int(d_hat.sum()),
        kappa1=int((active & ~d_hat).sum()), kappa2=int((~active & d_hat).sum()),
        overflow=overflow, budget_abort=abort, stats=stats,
    )
    return record, decisions


@pytest.fixture
def winners(monkeypatch):
    """The program's detected support and decoded messages, as tuples in
    call order, from the receiver's two searches."""
    seen = []
    detect, decode = decoding.detect_ls_exhaustive, decoding.decode_joint_ml

    def detected(*args):
        det = detect(*args)
        seen.append(tuple(det.d_hat.nonzero()[0].tolist()))
        return det

    def decoded(*args):
        messages = decode(*args)
        seen.append(tuple(messages[u] for u in sorted(messages)))
        return messages

    monkeypatch.setattr(decoding, "detect_ls_exhaustive", detected)
    monkeypatch.setattr(decoding, "decode_joint_ml", decoded)
    return seen


JOINT = SystemParams(n=512, ell=6, alpha=1 / 3, N0=2.0)
# (overflow, budget_abort, joint_error) of a trial
DECODED, ERROR = (False, False, False), (False, False, True)
ABORT, OVERFLOW = (False, True, True), (True, False, True)

# (config, tuple budget, outcomes it must reach): the first aborts at 4
# detected users, the noiseless one overflows past floor(xi k) = 2, the
# fixed plan decodes up to 6 users
POINTS = {
    "joint": (ExperimentConfig(scheme="joint", params=JOINT, split=0.5, M=3, master_seed=3301),
              3**4 - 1, {DECODED, ERROR, ABORT}),
    "noiseless": (ExperimentConfig(scheme="joint", params=JOINT, split=0.5, M=3, bp=BoundParams(xi=1),
                                   master_seed=3302, noiseless=True),
                  decoding.TUPLE_BUDGET, {DECODED, OVERFLOW}),
    "fixed_codebooks": (ExperimentConfig(scheme="joint", params=JOINT, split=0.5, M=3, master_seed=3303,
                                         fixed_codebooks=True),
                        decoding.TUPLE_BUDGET, {DECODED, ERROR}),
    "ortho": (ExperimentConfig(scheme="ortho", params=SystemParams(n=1024, ell=8, alpha=0.25, N0=2.0),
                               split=0.5, M=8, master_seed=3304),
              decoding.TUPLE_BUDGET, {DECODED, ERROR}),
}


@pytest.mark.parametrize("point", list(POINTS))
def test_records_match_reference(point, winners, monkeypatch):
    cfg, budget, reached = POINTS[point]
    monkeypatch.setattr(decoding, "TUPLE_BUDGET", budget)
    near_ties, outcomes = 0, set()
    for i in range(TRIALS):
        winners.clear()
        record = run_trial(cfg, i)
        want, decisions = reference_trial(cfg, i)
        differ = [(got, d) for got, d in zip(winners, decisions) if got != d[0]]
        if differ:
            got, (best, residual, tol) = differ[0]
            assert abs(residual(got) - residual(best)) <= tol, (point, i, got, best)
            near_ties += 1
            continue
        assert len(winners) == len(decisions), (point, i)
        assert record == want, (point, i)
        outcomes.add((record.overflow, record.budget_abort, record.stats.joint_error))
    assert near_ties <= TRIALS // 100, near_ties
    assert reached <= outcomes, outcomes


def test_exact_ties_follow_the_documented_tie_breaks():
    # users 0 and 1 share a signature, as do 2 and 3, and users 0 and 2
    # share a book, all in small integers, so the objectives are exact:
    # supports {0,2}, {0,3}, {1,2} and {1,3} tie at residual 0, and so do
    # messages (1, 2) and (2, 1); the lexicographically first wins each
    params = SystemParams(n=16, ell=4, alpha=0.5, N0=2.0)
    sched = make_joint_schedule(params, 0.5)
    a, b = np.array([1, -1, 2, 0, 1, 0, -2, 1.0]), np.array([0, 2, -1, 1, 1, -1, 0, 2.0])
    words = np.array([[0] * 8, [1, 0, -1, 2, 0, 1, 0, 0], [0, 1, 1, 0, -2, 0, 1, 0],
                      [2, 0, 0, -1, 1, 0, 0, 1]], dtype=float)
    book = Codebook(M=3, length=8, E=6.0, words=words)
    sigs = SignatureMatrix(rows=np.stack([a, a, b, b]), E_sig=6.0)
    plan = JointPlan(ell=4, M=3, codebooks=(book,) * 4, signatures=sigs, n_msg=8)
    Y_sig, Y_msg = a + b, words[1] + words[2]
    v = math.floor(params.k * (1.0 + sched.c))
    assert sched.n_sig == 8 and v >= 4
    got = two_phase_receive(Y_sig, plan, params, sched, BoundParams(), lambda users: Y_msg)
    want = reference_receive(Y_sig, Y_msg, plan.signatures.rows, [words] * 4, v, 16, 3)
    assert np.array_equal(got[0], [1, 0, 2, 0]) and np.array_equal(got[1], [1, 0, 1, 0])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]) and got[2:] == want[2:4]
