"""Receiver-side user-activity estimation.

The reference detector minimizes ||Y_sig - S d||^2 exactly over all
binary activity vectors of weight at most v = floor(k*(1+c)).  The
candidate set also contains d = 0 so the receiver can prefer the empty
set when nothing fits; ties break toward smaller weight, then the
lexicographically smallest support, making the output deterministic.
The search is a branch-and-bound over {0,1}^ell (Fincke & Pohst 1985;
Agrell, Eriksson, Vardy & Zeger 2002): it discards only supports that
provably lose to a known one, then scores the few survivors the way the
full enumeration scores every candidate.  Its frontier is usually a
node or two, so its cost is numpy's per-call cost: the search fixes
_BLOCK users per step, in a fixed handful of numpy calls per step.
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
# every setting of _BLOCK users, lexicographically descending (all on first)
_PATTERNS = ((np.arange(2**_BLOCK)[::-1, None] >> np.arange(_BLOCK)[::-1]) & 1).astype(float)
# _ROWS[r]: for a block of r users, the settings whose last _BLOCK - r users
# are off, which list the settings of the first r users in the same order,
# then those settings, then their transpose with the users reversed; a last
# block of r < _BLOCK users is padded with users that have no terms and stay off
_ROWS = tuple(
    (rows, _PATTERNS[rows], _PATTERNS[rows, ::-1].T)
    for rows in (slice(2 ** (_BLOCK - r) - 1, None, 2 ** (_BLOCK - r)) for r in range(_BLOCK + 1))
)
_WEIGHTS = _PATTERNS.sum(axis=1)
# (a block's G, flattened) @ _PAIRS = 2 sum_{i<j} s_i s_j G_ij for every setting s
_PAIRS = 2.0 * np.triu(_PATTERNS[:, :, None] * _PATTERNS[:, None, :], 1).reshape(2**_BLOCK, -1).T
_DOUBLED = 2.0 * _PATTERNS
for _table in (_PATTERNS, _WEIGHTS, _PAIRS, _DOUBLED):
    _table.setflags(write=False)


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
    """Number of binary vectors with weight 0..min(v, ell): a sum of
    binomials over the weights up to v, or 2^ell less the sum over the
    weights above v, whichever has fewer terms."""
    if 2 * v < ell:
        return sum(math.comb(ell, j) for j in range(v + 1))
    return 2**ell - sum(math.comb(ell, j) for j in range(v + 1, ell + 1))


def _surviving_supports(gram: np.ndarray, corr: np.ndarray, v: int, tol: float) -> np.ndarray:
    """Supports of weight <= v that may minimize q, as 0/1 rows in (weight, lex) order.

    q(d) = ||Y - S d||^2 - ||Y||^2 = sum_j d_j a_j + 2 sum_{i<j} d_i d_j G_ij
    with a_j = G_jj - 2 c_j.  Users are fixed in index order, _BLOCK at a
    time, each step over the whole frontier.  A node is one row: its
    partial value p (its fixed-on users alone), its weight, its support
    bits, and for each user j not yet fixed the field
    h_j = a_j + 2 sum_{fixed-on i} G_ij, from user L-1 down, so the users
    fixed next are the last columns and a step drops them.  Any
    completion adds at least
    sum_{free j} min(0, h_j + sum_{free l != j} min(0, G_jl)) to p, so a
    node is dropped when that lower bound exceeds the best known value by
    more than tol: every leaf below it loses by more than rounding can
    account for.  Each node with its free users off is itself a leaf,
    which tightens the best known value as the tree deepens.

    What a setting s of a block adds to a child does not depend on the
    node, except the linear term h_block . s: its pair terms, its weight,
    its bits and 2 s G_block on the later users' fields.  G is padded to
    whole blocks, and one product gives every block's pair terms before
    the search.  A step writes its pair terms and its block's fields into
    one row per setting (one product), adds those rows to every node,
    adds the linear terms (one product), sets the block's bits, then
    bounds and cuts.  Apart from G, its tail sums and the frontier, the
    search holds O(ell) numbers.  Children follow their parent in _PATTERNS
    order, which keeps equal-weight supports in lexicographic order; a
    stable sort on weight finishes it.
    """
    ell = len(corr)
    blocks = -(-ell // _BLOCK)
    L = blocks * _BLOCK
    a = gram.diagonal() - 2.0 * corr
    # G without its diagonal, padded to L users
    off = np.zeros((L, L))
    off[:ell, :ell] = gram
    off.flat[:: L + 1] = 0.0
    # neg_tail[L - 1 - t, L - 1 - j] = sum_{l >= t} min(0, G_lj), G being symmetric
    neg_tail = np.minimum(off, 0.0)[::-1, ::-1].cumsum(axis=0)
    # pairs[b, s] = 2 sum_{i<j} s_i s_j G_ij over block b's users
    diag = np.arange(blocks)
    pairs = off.reshape(blocks, _BLOCK, blocks, _BLOCK)[diag, :, diag].reshape(blocks, -1) @ _PAIRS
    # step[s] = what setting s of the current block adds to a node, apart
    # from the linear term and its support bits
    width = 2 + 2 * L
    step = np.zeros((2**_BLOCK, width))
    step[:, 1] = _WEIGHTS
    # start point: the users whose own term is negative, at most v of them
    order = a.argsort(kind="stable")[:v]
    start = np.zeros(ell)
    start[order] = a[order] < 0.0
    best = min(0.0, float(start @ gram @ start - 2.0 * (start @ corr)))

    nodes = np.zeros((1, width))
    nodes[0, width - ell :] = a[::-1]
    later = off[:, ::-1]  # later[i, L - 1 - j] = G_ij
    for t, pair in zip(range(0, L, _BLOCK), pairs):
        # t is the block's first user; the block's fields are the nodes' last columns
        rows, settings, flipped = _ROWS[min(_BLOCK, ell - t)]
        free, w = t + _BLOCK, width - t - _BLOCK
        step[:, 0] = pair
        np.matmul(_DOUBLED, later[t:free, : L - free], out=step[:, 2 + L : w])
        children = nodes[:, None, :w] + step[rows, :w]
        children[:, :, 0] += nodes[:, w:] @ flipped
        children[:, :, 2 + t : 2 + free] = settings
        children = children.reshape(-1, w)
        p, feasible = children[:, 0], children[:, 1] <= v
        best = min(best, float(np.minimum.reduce(p, where=feasible, initial=np.inf)))
        slack = np.minimum(children[:, 2 + L :] + neg_tail[L - 1 - free, : L - free], 0.0)
        nodes = children[feasible & (p + np.add.reduce(slack, axis=1) <= best + tol)]
    return nodes[nodes[:, 1].argsort(kind="stable"), 2 : 2 + ell]


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
    base = float(Y_sig @ Y_sig)
    if not math.isfinite(base):
        raise ValueError("received signature block is not finite, or its energy overflows")
    rows = S.matrix.T  # (ell, n_sig): the signatures as drawn
    gram = rows @ rows.T
    corr = rows @ Y_sig
    scale = base + 2.0 * float(np.abs(corr).sum()) + float(np.abs(gram).sum())
    cands = _surviving_supports(gram, corr, min(v, S.ell), 1e-9 * max(1.0, scale))
    residuals = base - 2.0 * (cands @ corr) + np.einsum("ij,ij->i", cands @ gram, cands)
    best = residuals.argmin()
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
    d_true = np.asarray(d_true, dtype=bool)
    d_hat = np.asarray(d_hat, dtype=bool)
    if d_true.shape != d_hat.shape:
        raise ValueError(f"length mismatch: {d_true.shape} vs {d_hat.shape}")
    kappa1 = int(np.count_nonzero(d_true & ~d_hat))
    kappa2 = int(np.count_nonzero(~d_true & d_hat))
    return kappa1, kappa2
