"""Receiver-side user-activity estimation.

The reference detector minimizes ||Y_sig - S d||^2 exactly over all
binary activity vectors of weight at most v = floor(k*(1+c)).  The
candidate set also contains d = 0 so the receiver can prefer the empty
set when nothing fits; ties break toward smaller weight, then the
lexicographically smallest support, making the output deterministic.
The search is a branch-and-bound over {0,1}^ell (Fincke & Pohst 1985;
Agrell, Eriksson, Vardy & Zeger 2002): it discards only supports that
provably lose to a known one, then scores the few survivors the way the
full enumeration scores every candidate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codebooks import SignatureMatrix
from .errors import ComplexityBudgetError, InvalidRegimeError
from .model import EnergySchedule, SystemParams

DEFAULT_CANDIDATE_BUDGET = 10**7

# Users the branch-and-bound fixes per numpy step.  On the small frontiers
# the search keeps, numpy's per-call cost dominates a step, so four users
# (16 children per node) cover ell = 16 in 4 steps instead of 16.
_BLOCK = 4
# every setting of _BLOCK users, lexicographically descending (all on
# first); every 2^(_BLOCK - r)-th row, cut to its first r columns, gives
# the same order for r users
_PATTERNS = ((np.arange(2**_BLOCK)[::-1, None] >> np.arange(_BLOCK)[::-1]) & 1).astype(float)
_PATTERNS.setflags(write=False)


@dataclass(frozen=True)
class DetectionResult:
    """Estimated activity pattern plus achieved residual; detection_stats
    scores it against the truth."""

    d_hat: np.ndarray
    residual: float

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.d_hat))


def v_cap(params: SystemParams, sched: EnergySchedule) -> int:
    """Maximum admissible estimated-active count floor(k*(1+c))."""
    if sched.c <= 0.0:
        raise InvalidRegimeError(f"schedule constant c = {sched.c:.4g} <= 0")
    return math.floor(params.k * (1.0 + sched.c))


def candidate_count(ell: int, v: int) -> int:
    """Number of binary vectors with weight 0..min(v, ell)."""
    return sum(math.comb(ell, j) for j in range(min(v, ell) + 1))


def _surviving_supports(gram: np.ndarray, corr: np.ndarray, v: int, tol: float) -> np.ndarray:
    """Supports of weight <= v that may minimize q, as 0/1 rows in (weight, lex) order.

    q(d) = ||Y - S d||^2 - ||Y||^2 = sum_j d_j a_j + 2 sum_{i<j} d_i d_j G_ij
    with a_j = G_jj - 2 c_j.  Users are fixed in index order, _BLOCK at a
    time, each step over the whole frontier.  A node carries its partial
    value p (its fixed-on users alone) and, for each free user j, the
    field h_j = a_j + 2 sum_{fixed-on i} G_ij.  Any completion adds at
    least sum_j min(0, h_j + sum_{free l != j} min(0, G_jl)) to p, so a
    node is dropped when that lower bound exceeds the best known value by
    more than tol: every leaf below it loses by more than rounding can
    account for.  Each node with its free users off is itself a leaf,
    which tightens the best known value as the tree deepens.  Children
    follow their parent in _PATTERNS order, which keeps equal-weight
    supports in lexicographic order; a stable sort on weight finishes it.
    """
    ell = len(corr)
    a = np.diag(gram) - 2.0 * corr
    off = gram - np.diag(np.diag(gram))
    # neg_tail[j, t] = sum_{l >= t} min(0, G_jl), zero at t = ell
    neg_tail = np.zeros((ell, ell + 1))
    neg_tail[:, :ell] = np.cumsum(np.minimum(off, 0.0)[:, ::-1], axis=1)[:, ::-1]
    # start point: the users whose own term is negative, at most v of them
    start = np.zeros(ell)
    start[[j for j in np.argsort(a, kind="stable")[:v] if a[j] < 0.0]] = 1.0
    best = min(0.0, float(start @ gram @ start - 2.0 * (start @ corr)))

    # one row per node: p, weight, the ell support bits, then h of the free
    # users in reverse order, so the users fixed next are the last columns
    nodes = np.concatenate([[0.0, 0.0], np.zeros(ell), a[::-1]])[None, :]
    for t in range(0, ell, _BLOCK):
        r = min(_BLOCK, ell - t)
        pat = _PATTERNS[:: 2 ** (_BLOCK - r), :r]  # the settings of users t..t+r-1
        width = nodes.shape[1] - r
        # what each setting adds to a node, apart from its own fields
        step = np.zeros((len(pat), width))
        step[:, 0] = ((pat @ off[t : t + r, t : t + r]) * pat).sum(axis=1)
        step[:, 1] = pat.sum(axis=1)
        step[:, 2 + t : 2 + t + r] = pat
        step[:, 2 + ell :] = 2.0 * pat @ gram[t : t + r, ell - 1 : t + r - 1 : -1]
        children = (nodes[:, None, :width] + step).reshape(-1, width)
        children[:, 0] += (nodes[:, : width - 1 : -1] @ pat.T).ravel()
        p, feasible = children[:, 0], children[:, 1] <= v
        best = min(best, float(p.min(where=feasible, initial=np.inf)))
        free_tail = neg_tail[ell - 1 : t + r - 1 : -1, t + r]
        lower = p + np.minimum(children[:, 2 + ell :] + free_tail, 0.0).sum(axis=1)
        nodes = children[feasible & (lower <= best + tol)]
    return nodes[np.argsort(nodes[:, 1], kind="stable"), 2 : 2 + ell]


def detect_ls_exhaustive(
    Y_sig: np.ndarray,
    S: SignatureMatrix,
    v: int,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> DetectionResult:
    """Exact least-squares support recovery over weights 0..v.

    Residuals are evaluated through the Gram form
    ||Y - S d||^2 = ||Y||^2 - 2 d.(S^T Y) + d.(S^T S)d.  A branch-and-bound
    (see _surviving_supports) keeps every support within tol of the
    optimum; the survivors are scored with that expression, ordered by
    weight then lexicographic support, and the first minimum wins, which
    implements the documented tie-break.  tol is 1e-9 times the sum of the
    magnitudes of the objective's terms, far above their rounding.  The
    budget caps the nominal number of candidates, not the nodes visited.
    """
    Y_sig = np.asarray(Y_sig, dtype=float)
    if Y_sig.shape != (S.n_sig,):
        raise ValueError(f"received length {Y_sig.shape} != signature length {S.n_sig}")
    if v < 0:
        raise ValueError(f"weight cap must be >= 0, got {v}")
    n_cands = candidate_count(S.ell, v)
    if n_cands > budget:
        raise ComplexityBudgetError(
            f"{n_cands} candidates exceed the budget of {budget} (ell={S.ell}, v={v})"
        )
    if not np.isfinite(Y_sig).all():
        raise ValueError("received signature block is not finite")
    rows = S.matrix.T  # (ell, n_sig): the signatures as drawn
    gram = rows @ rows.T
    corr = rows @ Y_sig
    base = float(Y_sig @ Y_sig)
    scale = base + 2.0 * float(np.abs(corr).sum()) + float(np.abs(gram).sum())
    cands = _surviving_supports(gram, corr, min(v, S.ell), 1e-9 * max(1.0, scale))
    residuals = base - 2.0 * (cands @ corr) + np.einsum("ij,ij->i", cands @ gram, cands)
    best = int(np.argmin(residuals))
    return DetectionResult(d_hat=cands[best].astype(int), residual=float(residuals[best]))


def detect_pilot(y_pilot: float | np.ndarray, t: float, E: float) -> bool | np.ndarray:
    """Threshold test: user declared active iff y_pilot > sqrt(t*E)/2.

    One pilot gives a bool; an array of pilots gives a boolean array.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"pilot fraction must be in (0,1), got {t}")
    if E <= 0.0:
        raise ValueError(f"energy must be positive, got {E}")
    active = np.asarray(y_pilot) > math.sqrt(t * E) / 2.0
    return bool(active) if active.ndim == 0 else active


def detection_stats(d_true: np.ndarray, d_hat: np.ndarray) -> tuple[int, int]:
    """Counts (misses, false alarms) between true and estimated activity."""
    d_true = np.asarray(d_true).astype(bool)
    d_hat = np.asarray(d_hat).astype(bool)
    if d_true.shape != d_hat.shape:
        raise ValueError(f"length mismatch: {d_true.shape} vs {d_hat.shape}")
    kappa1 = int(np.count_nonzero(d_true & ~d_hat))
    kappa2 = int(np.count_nonzero(~d_true & d_hat))
    return kappa1, kappa2
