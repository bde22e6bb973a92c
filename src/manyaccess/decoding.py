"""Message decoders, end-to-end receivers, and error accounting.

Two receivers are implemented: the two-phase receiver (activity detection
followed by exact joint ML decoding of the detected users, with an
overflow abort when more than floor(xi*k) users are detected) and the
slotted pilot+PPM receiver.  A user detected active is always decoded to
some message in 1..M, so a false alarm necessarily produces a message
error for that user.
"""

import math
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


def decode_ppm(y_slot: np.ndarray, M: int) -> int:
    """ML decoding of one PPM slot given the user is active.

    All nonzero words share the pilot coordinate and have equal energy, so
    ML reduces to the largest sample among the M message positions; ties
    go to the smallest message index.
    """
    if len(y_slot) < M + 1:
        raise ValueError(f"slot length {len(y_slot)} < M+1 = {M + 1}")
    return int(np.argmax(y_slot[1 : M + 1])) + 1


def _dead_end_elimination(
    unary: list[np.ndarray], cross: dict[tuple[int, int], np.ndarray]
) -> list[np.ndarray]:
    """Boolean masks of the messages left after dead-end elimination.

    Message m of user i is dropped when even its best case,
    lo_i[m] = u_i[m] + sum_j min C_ij[m, alive_j], exceeds some surviving
    message's worst case, min hi_i = u_i[m*] + sum_j max C_ij[m*, alive_j],
    by more than tol.  Swapping m for m* then lowers every tuple by more
    than tol, far above the rounding of the objective, so no dropped
    tuple ties or beats the optimum.  Users are tested again whenever
    another user loses a message, until nothing changes.  Extra memory is
    O(k^2 M): the per-pair bounds are where= reductions, not copies.
    """
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


def decode_joint_ml(
    Y_msg: np.ndarray,
    plan: JointPlan,
    active: list[int],
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> dict[int, int]:
    """Exact joint ML over message tuples of the detected users.

    Minimizes ||Y - sum_i x~_i(w_i)||^2 over w in {1..M}^active via the
    Gram expansion: per-user terms u_i(w_i) and pairwise terms
    C_ij(w_i, w_j) = 2<x~_i(w_i), x~_j(w_j)>.  Dead-end elimination drops
    messages that cannot be in any optimal tuple, then the surviving
    product grid is scored densely, with the same additions in the same
    order as a full-grid search, so every surviving tuple's objective is
    bitwise the full grid's.  np.argmin's first-minimum rule over survivors
    in increasing order gives the lexicographically smallest optimal
    tuple.  The budget caps the nominal M^|active| grid.  Returns
    {user: message}.
    """
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

    unary = [np.einsum("mj,mj->m", wi, wi) - 2.0 * (wi @ Y_msg) for wi in words]
    cross = {
        (i, j): 2.0 * (words[i] @ words[j].T) for i in range(k) for j in range(i + 1, k)
    }
    survivors = [np.flatnonzero(a) for a in _dead_end_elimination(unary, cross)]
    grid = np.ix_(*survivors)  # open mesh: grid[i] runs along axis i
    objective = np.zeros([len(s) for s in survivors])
    for i, u in enumerate(unary):
        objective += u[grid[i]]
    for (i, j), c in cross.items():  # lexicographic pair order, as built
        objective += c[grid[i], grid[j]]
    tup = np.unravel_index(int(np.argmin(objective)), objective.shape)
    return {user: int(s[w]) + 1 for user, s, w in zip(active, survivors, tup)}


def two_phase_receive(
    Y: np.ndarray,
    plan: JointPlan,
    params: SystemParams,
    sched: EnergySchedule,
    bp: BoundParams,
    detection_budget: int = DEFAULT_CANDIDATE_BUDGET,
    tuple_budget: int = DEFAULT_TUPLE_BUDGET,
) -> TwoPhaseResult:
    """Detect active users on the signature block, then jointly decode them.

    Declares overflow (and decodes nobody) when the estimated active count
    exceeds floor(xi*k); otherwise w_hat carries the ML messages for
    detected users and 0 elsewhere.  A decode grid over the tuple budget
    is reported as budget_abort (nobody decoded); a detection search over
    its budget raises ComplexityBudgetError.
    """
    if len(Y) != sched.n_sig + sched.n_msg:
        raise ValueError(f"received length {len(Y)} != n_sig+n_msg = {sched.n_sig + sched.n_msg}")
    det = detect_ls_exhaustive(
        Y[: sched.n_sig], plan.signatures, v_cap(params, sched), budget=detection_budget
    )
    w_hat = np.zeros(params.ell, dtype=int)
    if det.weight > math.floor(bp.xi * params.k):
        return TwoPhaseResult(w_hat=w_hat, detection=det, overflow=True)
    try:
        decoded = decode_joint_ml(
            Y[sched.n_sig :], plan, list(np.flatnonzero(det.d_hat)), budget=tuple_budget
        )
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
    """Per-slot pilot thresholding followed by PPM decoding of active slots."""
    slot = plan.slot_len
    if len(Y) < params.ell * slot:
        raise ValueError(f"received length {len(Y)} < ell*slot = {params.ell * slot}")
    w_hat = np.zeros(params.ell, dtype=int)
    for i in range(params.ell):
        y_slot = Y[i * slot : (i + 1) * slot]
        if detect_pilot(float(y_slot[0]), sched.split, sched.E):
            w_hat[i] = decode_ppm(y_slot, plan.M)
    return w_hat


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
