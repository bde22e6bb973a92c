"""Message decoders, end-to-end receivers, and error accounting.

Two receivers are implemented: the two-phase receiver (activity detection
followed by exact joint ML decoding of the detected users, with an
overflow abort when more than floor(xi*k) users are detected) and the
slotted pilot+PPM receiver.  A user detected active is always decoded to
some message in 1..M, so a false alarm necessarily produces a message
error for that user.  The joint decoder writes the Gram expansion as
per-user terms U and pair terms G (_gram_terms), G with the other user's
message first and zero diagonal blocks, so dead-end elimination is a few
plain reductions per round, and scores each block of surviving tuples with
one running total, a term of each user and then of each pair at a time.
"""

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import JointPlan, OrthoPlan
from .detection import detect_ls_exhaustive, detect_pilot, v_cap
from .errors import ComplexityBudgetError
from .model import EnergySchedule, SystemParams

# nominal tuples M^k decode_joint_ml scores at most, read when it runs
TUPLE_BUDGET = 10**7


@dataclass(frozen=True)
class BoundParams:
    """Free parameters of the union bounds: Gallager rho, detection lambda,
    and the overflow multiple xi."""

    rho: float = 0.75
    lam: float = 2.0 / 3.0
    xi: int = 8

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"rho must be in (0,1], got {self.rho}")
        if not self.lam >= 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if not self.xi >= 1:
            raise ValueError(f"xi must be a positive integer, got {self.xi}")


@dataclass(frozen=True)
class ErrorStats:
    """Joint and per-user error indicators for one transmission."""

    joint_error: bool
    per_user_errors: int
    ape: float


def decode_ppm(y_slot: np.ndarray, M: int) -> np.ndarray:
    """ML decoding of PPM slots given the user is active, one message per
    slot: the last axis is the slot, so an (users, slot) table gives one
    message per row.

    All nonzero words share the pilot coordinate and have equal energy, so
    ML reduces to the largest sample among the M message positions; ties
    go to the smallest message index (argmax's first maximum).
    """
    y_slot = np.asarray(y_slot)
    if y_slot.shape[-1] < M + 1:
        raise ValueError(f"slot length {y_slot.shape[-1]} < M+1 = {M + 1}")
    return np.argmax(y_slot[..., 1 : M + 1], axis=-1) + 1


def _gram_terms(
    words: list[np.ndarray], energies: list[np.ndarray], Y_msg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Gram expansion of ||Y - sum_i x~_i(w_i)||^2 - ||Y||^2: U, (2, k, M),
    and G, (2, M, k, k, M).

    U[0, i, m] = ||x~_i(m)||^2 - 2<x~_i(m), Y>, with the squared norms
    energies[i] of user i's words as its book recorded them, and
    G[0, n, i, j, m] = 2<x~_i(m), x~_j(n)>, the other user's message n
    first, so a minimum over n is a minimum across M blocks.  The diagonal
    blocks (j = i) are zero, so summing over j adds exactly 0 for the user
    itself.  Row 1 of each is the negation of row 0 (see
    _dead_end_elimination).  Each pair's block is its own product
    w_i @ w_j.T, computed once into G[0, :, j, i], whose rows are
    unit-strided, and copied transposed into G[0, :, i, j]: one product of
    all the words would round differently.
    """
    k, M = len(words), len(words[0])
    U, G = np.empty((2, k, M)), np.zeros((2, M, k, k, M))
    wY = np.empty((k, M))
    U[0] = energies
    for i, wi in enumerate(words):
        np.matmul(wi, Y_msg, out=wY[i])
        for j in range(i + 1, k):
            np.matmul(wi, words[j].T, out=G[0, :, j, i])
            G[0, :, i, j] = G[0, :, j, i].T
    U[0] -= 2.0 * wY
    G[0] *= 2.0  # exact, as is 2.0 * (wi @ wj.T)
    np.negative(U[0], out=U[1])
    np.negative(G[0], out=G[1])
    return U, G


def _dead_end_elimination(U: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(k, M) mask of the messages left after dead-end elimination.

    Message m of user i is dropped when even its best case,
    lo[i, m] = U[i, m] + sum_j min G[alive, i, j, m], exceeds some
    surviving message's worst case, min over alive m* of
    hi[i, m*] = U[i, m*] + sum_j max G[alive, i, j, m*], by more than
    tol; -hi comes exactly from the minima of -G.  Swapping m for m*
    then lowers every tuple by more than tol, far above the rounding of
    the objective, so no dropped tuple ties or beats the optimum.  Each
    round tests every user at once, until a round drops nothing.
    Dropping a message only raises lo and lowers hi, so a dropped
    message stays dropped and never sets the threshold, and the rounds
    reach the masks of testing one user at a time.  The minima run
    across G's M blocks of the other user's message, not along M-long
    rows: round one, with every message alive, is a plain minimum, and a
    later round skips the blocks of dropped messages.
    """
    k, M = U.shape[1:]
    # G holds each pair block twice: halve its share
    tol = 1e-9 * max(1.0, float(np.abs(U[0]).sum() + 0.5 * np.abs(G[0]).sum()))
    minima, count = np.minimum.reduce(G, axis=1), k * M  # (2, k, k, M)
    while True:
        lo, neg_hi = U + np.add.reduce(minima, axis=2)
        alive = lo <= (tol - np.maximum.reduce(neg_hi, axis=1))[:, None]
        left = np.count_nonzero(alive)
        if left == count or k == 1:  # one user's bounds read no other user's messages
            return alive
        count = left
        # alive.T[n, None, j, None]: message n of user j is alive
        minima = np.minimum.reduce(G, axis=1, where=alive.T[:, None, :, None], initial=np.inf)


def _objectives(U: np.ndarray, G: np.ndarray, w: list[np.ndarray]) -> np.ndarray:
    """||Y - sum_i x~_i(w_i)||^2 - ||Y||^2 of the tuples whose user i sends
    0-based message w[i]: one running total of their terms, U[i, w_i] for
    each user, then G[w_j, i, j, w_i] for each pair i < j in
    lexicographic order.  These are the full grid's additions in the full
    grid's order, so each value is bitwise the full grid's."""
    U, G = U[0], G[0]
    total = U[0][w[0]]  # U[i][w] takes numpy's one-index fast path
    for i in range(1, len(w)):
        total += U[i][w[i]]
    for i, j in itertools.combinations(range(len(w)), 2):
        total += G[w[j], i, j, w[i]]
    return total


# tuples scored per block, so scoring memory is O(k) blocks, not O(k M^k)
_SCORE_BLOCK = 1 << 14


def _check_tuple_budget(M: int, k: int) -> None:
    if M**k > TUPLE_BUDGET:
        raise ComplexityBudgetError(f"M^|active| = {M}^{k} exceeds the tuple budget of {TUPLE_BUDGET}")


def decode_joint_ml(Y_msg: np.ndarray, plan: JointPlan, active: list[int]) -> dict[int, int]:
    """Exact joint ML over message tuples of the detected users.

    Minimizes ||Y - sum_i x~_i(w_i)||^2 over w in {1..M}^active via the
    Gram expansion (_gram_terms): per-user terms U and pair terms G, each
    pair's block from its own product 2.0 * (w_i @ w_j.T).  Dead-end
    elimination drops messages that cannot be in any optimal tuple.  The
    surviving tuples, each user's survivors kept as 0-based messages, are
    scored in lexicographic order by _objectives, which adds each tuple's
    terms into a running total in the full grid's order, so every surviving
    tuple's objective is bitwise the full grid's; a lone survivor is
    returned unscored, as the argmin of one tuple.  np.argmin's first
    minimum, carried across scoring blocks only by a strictly smaller
    value, gives the lexicographically smallest optimal tuple.  TUPLE_BUDGET
    caps the nominal M^|active| grid; a repeated user, or one outside
    range(plan.ell), is a ValueError.  Returns {user: message}.
    """
    active = sorted(active)
    k = len(active)
    if k == 0:
        return {}
    if len(set(active)) < k or active[0] < 0 or active[-1] >= plan.ell:
        raise ValueError(f"active users must be distinct users in range({plan.ell}), got {active}")
    _check_tuple_budget(plan.M, k)
    Y_msg = np.asarray(Y_msg, dtype=float)
    books = [plan.codebooks[i] for i in active]
    words = [b.words[1:] for b in books]  # (M, n_msg) each
    if any(w.shape[1] != len(Y_msg) for w in words):
        raise ValueError("codeword length does not match received message block")

    U, G = _gram_terms(words, [b.energies[1:] for b in books], Y_msg)
    alive = _dead_end_elimination(U, G)
    kept = [row.nonzero()[0] for row in alive]  # each user's surviving messages, 0-based
    sizes = [len(m) for m in kept]
    total = math.prod(sizes)
    if total == 1:  # the argmin of one tuple is that tuple: nothing to score
        return {user: int(m[0]) + 1 for user, m in zip(active, kept)}
    for start in range(0, total, _SCORE_BLOCK):
        pos = np.unravel_index(np.arange(start, min(start + _SCORE_BLOCK, total)), sizes)
        w = [m[p] for m, p in zip(kept, pos)]
        objective = _objectives(U, G, w)
        t = objective.argmin()
        if start == 0 or objective[t] < best_value:
            best, best_value = [x[t] for x in w], objective[t]
    return {user: int(x) + 1 for user, x in zip(active, best)}


def two_phase_receive(
    Y_sig: np.ndarray,
    plan: JointPlan,
    params: SystemParams,
    sched: EnergySchedule,
    bp: BoundParams,
    message_block: Callable[[list[int]], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, bool, bool]:
    """(w_hat, d_hat, overflow, budget_abort): detect active users on the
    signature block Y_sig, then jointly decode them on
    message_block(detected users), which is called when, and only when,
    there is a decode to run.

    Declares overflow (and decodes nobody) when the estimated active count
    exceeds floor(xi*k); otherwise w_hat carries the ML messages for
    detected users and 0 elsewhere.  A decode grid over TUPLE_BUDGET is
    a budget abort: nobody is decoded and d_hat is all zero, so the trial
    is scored as a total loss.  A detection search over
    detection.CANDIDATE_BUDGET raises ComplexityBudgetError.
    """
    if len(Y_sig) != sched.n_sig:
        raise ValueError(f"received length {len(Y_sig)} != {sched.n_sig}")
    d_hat = detect_ls_exhaustive(Y_sig, plan.signatures, v_cap(params, sched)).d_hat
    w_hat = np.zeros(params.ell, dtype=int)
    detected = d_hat.nonzero()[0].tolist()
    if len(detected) > math.floor(bp.xi * params.k):
        return w_hat, d_hat, True, False
    try:
        _check_tuple_budget(plan.M, len(detected))
        decoded = decode_joint_ml(message_block(detected), plan, detected)
    except ComplexityBudgetError:
        return w_hat, np.zeros_like(d_hat), False, True
    for user, w in decoded.items():
        w_hat[user] = w
    return w_hat, d_hat, False, False


def ortho_receive(
    Y: np.ndarray,
    plan: OrthoPlan,
    params: SystemParams,
    sched: EnergySchedule,
) -> np.ndarray:
    """Pilot thresholding and PPM decoding on the (ell, slot) table of
    slots: the PPM message where the pilot passes its threshold, else 0."""
    slot = plan.slot_len
    if len(Y) < params.ell * slot:
        raise ValueError(f"received length {len(Y)} < ell*slot = {params.ell * slot}")
    slots = Y[: params.ell * slot].reshape(params.ell, slot)
    active = detect_pilot(slots[:, 0], sched.split, sched.E)
    return np.where(active, decode_ppm(slots, plan.M), 0)


def score_errors(w_true: np.ndarray, w_hat: np.ndarray, overflow: bool) -> ErrorStats:
    """Exact error indicators; overflow voids every active user's message."""
    w_true = np.asarray(w_true)
    w_hat = np.asarray(w_hat)
    if w_true.shape != w_hat.shape:
        raise ValueError(f"length mismatch: {w_true.shape} vs {w_hat.shape}")
    ell = len(w_true)
    if overflow:
        wrong = int(np.count_nonzero(w_true))
        return ErrorStats(joint_error=True, per_user_errors=wrong, ape=wrong / ell)
    wrong = int(np.count_nonzero(w_true != w_hat))
    return ErrorStats(joint_error=wrong > 0, per_user_errors=wrong, ape=wrong / ell)
