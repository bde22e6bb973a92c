"""Message decoders, end-to-end receivers, and error accounting.

Two receivers are implemented: the two-phase receiver (activity detection
followed by exact joint ML decoding of the detected users, with an
overflow abort when more than floor(xi*k) users are detected) and the
slotted pilot+PPM receiver.  A user detected active is always decoded to
some message in 1..M, so a false alarm necessarily produces a message
error for that user.  The joint decoder writes every term of the Gram
expansion into one array (_gram_terms), its pair terms one slab per
message of the other user, so dead-end elimination is a few reductions
across slabs per round, and scores the survivors with one gather and
one running sum per block of tuples.
"""

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import JointPlan, OrthoPlan
from .detection import DEFAULT_CANDIDATE_BUDGET, DetectionResult, detect_ls_exhaustive, detect_pilot, v_cap
from .errors import ComplexityBudgetError
from .model import EnergySchedule, SystemParams

DEFAULT_TUPLE_BUDGET = 10**7


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
        if self.lam < 0.0:
            raise ValueError(f"lambda must be >= 0, got {self.lam}")
        if self.xi < 1:
            raise ValueError(f"xi must be a positive integer, got {self.xi}")


@dataclass(frozen=True)
class ErrorStats:
    """Joint and per-user error indicators for one transmission."""

    joint_error: bool
    per_user_errors: int
    ape: float


@dataclass(frozen=True)
class TwoPhaseResult:
    w_hat: np.ndarray
    detection: DetectionResult
    overflow: bool
    budget_abort: bool = False


def decode_ppm(y_slot: np.ndarray, M: int) -> int | np.ndarray:
    """ML decoding of a PPM slot given the user is active.

    All nonzero words share the pilot coordinate and have equal energy, so
    ML reduces to the largest sample among the M message positions; ties
    go to the smallest message index (argmax's first maximum).  One slot
    gives an int; an (users, slot) table gives one message per row.
    """
    y_slot = np.asarray(y_slot)
    if y_slot.shape[-1] < M + 1:
        raise ValueError(f"slot length {y_slot.shape[-1]} < M+1 = {M + 1}")
    w = np.argmax(y_slot[..., 1 : M + 1], axis=-1) + 1
    return int(w) if w.ndim == 0 else w


@functools.lru_cache(maxsize=64)
def _user_indices(k: int, M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only index arrays of a k-user decode over M messages.

    others[i, s] is the s-th user other than i (s for s < i, else s + 1).
    For tuples g of shape (k, tuples), g[i] = i*M + w_i - 1, the rows of
    place @ g + shift are where each tuple's terms sit in a row of
    _gram_terms: its k user terms, then its pair terms (i, j), i < j, in
    lexicographic order.
    """
    s = np.arange(k - 1)
    others = s + (s >= np.arange(k)[:, None])
    place = np.zeros((k + k * (k - 1) // 2, k), dtype=np.intp)
    shift = np.zeros((len(place), 1), dtype=np.intp)
    place[range(k), range(k)] = 1
    for row, (i, j) in enumerate(itertools.combinations(range(k), 2), start=k):
        # G[i, m, j-1, n], m = g[i] - i*M, n = g[j] - j*M, sits in slab n
        # at k*M + ((n*k + i)*(k-1) + j-1)*M + m
        place[row, i], place[row, j] = 1, k * (k - 1) * M
        shift[row] = k * M + (j - 1) * M + i * (k - 2) * M - j * k * (k - 1) * M * M
    for a in (others, place, shift):
        a.flags.writeable = False
    return others, place, shift


def _split(terms: np.ndarray, k: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the U (2, k, M) and G (2, k, M, k-1, M) parts of _gram_terms;
    G is a transposed view of the slabs (see _slabs)."""
    return terms[:, : k * M].reshape(2, k, M), _slabs(terms, k, M).transpose(0, 2, 4, 3, 1)


def _slabs(terms: np.ndarray, k: int, M: int) -> np.ndarray:
    """The G part of _gram_terms as stored, (2, M, k, k-1, M):
    slabs[:, n, i, s, m] = G[:, i, m, s, n], one slab per message n of the
    other user."""
    return terms[:, k * M :].reshape(2, M, k, k - 1, M)


def _gram_terms(
    words: list[np.ndarray], energies: list[np.ndarray], Y_msg: np.ndarray
) -> np.ndarray:
    """The Gram expansion of ||Y - sum_i x~_i(w_i)||^2 - ||Y||^2, in one array.

    Row 0 holds U, then G, flattened; row 1 is its negation (see _split).
    U[i, m] = ||x~_i(m)||^2 - 2<x~_i(m), Y>, with the squared norms
    energies[i] of user i's words as its book recorded them, and G is the pair Gram
    without its diagonal blocks: G[i, m, s, n] = 2<x~_i(m), x~_j(n)> for
    the s-th user j other than i, stored with the other user's message n
    first (_slabs), so a minimum over n is a minimum across M slabs.  Each
    pair's block is its own product w_i @ w_j.T, computed once into user
    j's slabs (G[j, :, i], whose rows there are unit-strided) and copied
    into user i's (G[i, :, j-1]): one product of all the words would
    round differently.
    """
    k, M = len(words), len(words[0])
    terms = np.empty((2, k * M + k * (k - 1) * M * M))
    U = terms[0, : k * M].reshape(k, M)
    slabs = _slabs(terms, k, M)[0]
    wY = np.empty((k, M))
    U[:] = energies
    for i, wi in enumerate(words):
        np.matmul(wi, Y_msg, out=wY[i])
        for j in range(i + 1, k):
            np.matmul(wi, words[j].T, out=slabs[:, j, i])  # G[j, :, i], transposed
            slabs[:, i, j - 1] = slabs[:, j, i].T
    U -= 2.0 * wY
    slabs *= 2.0  # exact, as is 2.0 * (wi @ wj.T)
    np.negative(terms[0], out=terms[1])
    return terms


def _dead_end_elimination(terms: np.ndarray, k: int, M: int) -> np.ndarray:
    """(k, M) mask of the messages left after dead-end elimination.

    Message m of user i is dropped when even its best case,
    lo[i, m] = U[i, m] + sum_s min G[i, m, s, alive], exceeds some
    surviving message's worst case, min over alive m* of
    hi[i, m*] = U[i, m*] + sum_s max G[i, m*, s, alive], by more than
    tol; -hi comes exactly from the minima of -G.  Swapping m for m*
    then lowers every tuple by more than tol, far above the rounding of
    the objective, so no dropped tuple ties or beats the optimum.  Each
    round tests every user at once, until a round drops nothing.
    Dropping a message only raises lo and lowers hi, so a dropped
    message stays dropped and never sets the threshold, and the rounds
    reach the masks of testing one user at a time.  The minima run
    across G's M slabs (_slabs), not along M-long rows: round one, with
    every message alive, is a plain minimum, and a later round skips the
    slabs of dropped messages.
    """
    base, slabs = terms[:, : k * M].reshape(2, k, M), _slabs(terms, k, M)
    size = np.abs(terms[0])  # G holds each pair block twice: halve its share
    tol = 1e-9 * max(1.0, float(np.add.reduce(size[: k * M]) + 0.5 * np.add.reduce(size[k * M :])))
    others = _user_indices(k, M)[0]
    minima, count = np.minimum.reduce(slabs, axis=1), k * M  # (2, k, k-1, M)
    while True:
        lo, neg_hi = base + np.add.reduce(minima, axis=2)
        alive = lo <= (tol - np.maximum.reduce(neg_hi, axis=1))[:, None]
        left = np.count_nonzero(alive)
        if left == count or k == 1:  # one user's bounds read no other user's messages
            return alive
        count = left
        # cols[n, i, s, 0]: message n of the s-th user other than i is alive
        cols = alive[others].transpose(2, 0, 1)[..., None]
        minima = np.minimum.reduce(slabs, axis=1, where=cols, initial=np.inf)


def _objectives(terms: np.ndarray, g: np.ndarray, k: int, M: int) -> np.ndarray:
    """||Y - sum_i x~_i(w_i)||^2 - ||Y||^2 of tuples g (k, tuples), g[i] =
    i*M + w_i - 1: one gather of their terms in the full grid's order
    (users, then pairs in lexicographic order), added by a sequential
    running sum (np.add.accumulate, which np.cumsum calls), not sum's
    pairwise order, so each value is bitwise the full grid's."""
    _, place, shift = _user_indices(k, M)
    return np.add.accumulate(terms[0, place @ g + shift], axis=0)[-1]


# tuples scored per block, so scoring memory is O(k^2) blocks, not O(k^2 M^k)
_SCORE_BLOCK = 1 << 14


def _check_tuple_budget(M: int, k: int, budget: int) -> None:
    if M**k > budget:
        raise ComplexityBudgetError(f"M^|active| = {M}^{k} exceeds the tuple budget of {budget}")


def decode_joint_ml(
    Y_msg: np.ndarray,
    plan: JointPlan,
    active: list[int],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> dict[int, int]:
    """Exact joint ML over message tuples of the detected users.

    Minimizes ||Y - sum_i x~_i(w_i)||^2 over w in {1..M}^active via the
    Gram expansion (_gram_terms): per-user terms U and pair terms G, each
    pair's block from its own product 2.0 * (w_i @ w_j.T).  Dead-end
    elimination drops messages that cannot be in any optimal tuple.  The
    surviving tuples are scored in lexicographic order by _objectives,
    which adds each tuple's terms in the full grid's order with a
    sequential running sum, so every surviving tuple's objective is bitwise
    the full grid's.  np.argmin's first minimum, carried across scoring
    blocks only by a strictly smaller value, gives the lexicographically
    smallest optimal tuple.  The budget caps the nominal M^|active| grid.
    Returns {user: message}.
    """
    active = sorted(active)
    k = len(active)
    if k == 0:
        return {}
    M = plan.M
    _check_tuple_budget(M, k, budget)
    Y_msg = np.asarray(Y_msg, dtype=float)
    books = [plan.codebooks[i] for i in active]
    words = [b.words[1:] for b in books]  # (M, n_msg) each
    if any(w.shape[1] != len(Y_msg) for w in words):
        raise ValueError("codeword length does not match received message block")

    terms = _gram_terms(words, [b.energies[1:] for b in books], Y_msg)
    alive = _dead_end_elimination(terms, k, M)
    sizes = np.add.reduce(alive, axis=1)
    flat = alive.ravel().nonzero()[0]  # i*M + w - 1 of every survivor, user after user
    first = sizes.cumsum() - sizes  # where each user's survivors start in flat
    total = math.prod(sizes.tolist())
    for start in range(0, total, _SCORE_BLOCK):
        pos = np.unravel_index(np.arange(start, min(start + _SCORE_BLOCK, total)), sizes)
        g = flat[first[:, None] + pos]  # (k, tuples)
        objective = _objectives(terms, g, k, M)
        t = objective.argmin()
        if start == 0 or objective[t] < best_value:
            best, best_value = g[:, t], objective[t]
    return {user: int(x) % M + 1 for user, x in zip(active, best)}


def two_phase_receive(
    Y: np.ndarray,
    plan: JointPlan,
    params: SystemParams,
    sched: EnergySchedule,
    bp: BoundParams,
    detection_budget: int = DEFAULT_CANDIDATE_BUDGET,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
    message_block: Callable[[list[int]], np.ndarray] | None = None,
) -> TwoPhaseResult:
    """Detect active users on the signature block, then jointly decode them.

    Declares overflow (and decodes nobody) when the estimated active count
    exceeds floor(xi*k); otherwise w_hat carries the ML messages for
    detected users and 0 elsewhere.  A decode grid over the tuple budget
    is reported as budget_abort (nobody decoded); a detection search over
    its budget raises ComplexityBudgetError.  Given `message_block`, Y is
    only the signature block, and message_block(detected users) gives the
    message block when, and only when, there is a decode to run.
    """
    n_received = sched.n_sig + (0 if message_block else sched.n_msg)
    if len(Y) != n_received:
        raise ValueError(f"received length {len(Y)} != {n_received}")
    det = detect_ls_exhaustive(
        Y[: sched.n_sig], plan.signatures, v_cap(params, sched), budget=detection_budget
    )
    w_hat = np.zeros(params.ell, dtype=int)
    if det.weight > math.floor(bp.xi * params.k):
        return TwoPhaseResult(w_hat=w_hat, detection=det, overflow=True)
    detected = det.d_hat.nonzero()[0].tolist()
    try:
        _check_tuple_budget(plan.M, len(detected), tuple_budget)
        Y_msg = message_block(detected) if message_block else Y[sched.n_sig :]
        decoded = decode_joint_ml(Y_msg, plan, detected, budget=tuple_budget)
    except ComplexityBudgetError:
        return TwoPhaseResult(w_hat=w_hat, detection=det, overflow=False, budget_abort=True)
    for user, w in decoded.items():
        w_hat[user] = w
    return TwoPhaseResult(w_hat=w_hat, detection=det, overflow=False)


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
