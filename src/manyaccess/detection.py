"""Receiver-side user-activity estimation.

The reference detector minimizes ||Y_sig - S d||^2 exactly over all
binary activity vectors of weight at most v = floor(k*(1+c)).  The
candidate set also contains d = 0 so the receiver can prefer the empty
set when nothing fits; ties break toward smaller weight, then the
lexicographically smallest support, making the output deterministic.
The search is a depth-first branch-and-bound over {0,1}^ell with
Schnorr-Euchner child order (Schnorr & Euchner 1994; Agrell, Eriksson,
Vardy & Zeger 2002): it discards only subtrees that provably lose to a
known support, then scores the few survivors the way the full
enumeration scores every candidate.  Beyond the Gram matrix it holds a
reordered copy, its tail sums and one waiting sibling per depth, so its
memory does not grow with the number of candidates.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codebooks import SignatureMatrix
from .errors import ComplexityBudgetError, InvalidRegimeError
from .model import EnergySchedule, SystemParams

# nominal candidates detect_ls_exhaustive searches at most, read when it runs
CANDIDATE_BUDGET = 10**7


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
    with a_j = G_jj - 2 c_j.  The search is depth-first and visits the
    users in ascending order of a_j.  A node at depth t has fixed the
    first t users in that order; it holds its partial value p (its on
    users alone), its on users (w of them), and for each free user j the
    field h_j = a_j + 2 sum_{on i} G_ij, which turning j on adds to p.
    The child that lowers p goes first: "on" when h_t < 0.  Any
    completion turns at most v - w more users on and adds at least the
    v - w most negative terms min(0, h_j + sum_{free l != j} min(0, G_jl)),
    so a node is cut when p plus those terms exceeds the best known value
    by more than tol: every leaf below it loses by more than rounding can
    account for.  The bound never exceeds p, so a node within tol of the
    best known value is not bounded at all.  Each node with its free users
    off is itself a leaf, which tightens the best known value; a node at
    the cap is a leaf and is not expanded.  Apart from G, a reordered copy
    and its tail sums, the search holds one waiting sibling per depth with
    its O(ell) fields.  The kept leaves are returned sorted by weight, then
    support.
    """
    ell = len(corr)
    a = gram.diagonal() - 2.0 * corr
    order = a.argsort(kind="stable")
    # start point: the users whose own term is negative, at most v of them
    start = np.zeros(ell)
    start[order[:v]] = a[order[:v]] < 0.0
    best = min(0.0, float(start @ gram @ start - 2.0 * (start @ corr)))

    # G without its diagonal in visiting order; tail[t, j] = sum_{l >= t} min(0, G_lj)
    g = gram.take(order, axis=0).take(order, axis=1)
    g.flat[:: ell + 1] = 0.0
    tail = np.minimum(g, 0.0)[::-1].cumsum(axis=0)[::-1]
    g *= 2.0
    kept = []
    # a node: (depth, partial value, its on users' places in order, free users' fields)
    stack = [(0, 0.0, (), a[order])]
    while stack:
        t, p, on, h = stack.pop()
        best = min(best, p)
        if len(on) == v or t == ell:
            if p <= best + tol:
                kept.append(on)
            continue
        if p > best + tol:
            terms = h + tail[t, t:]
            np.minimum(terms, 0.0, out=terms)
            terms.sort()
            if p + sum(terms[: v - len(on)].tolist()) > best + tol:
                continue
        h0 = float(h[0])
        off, on_child = (t + 1, p, on, h[1:]), (t + 1, p + h0, on + (t,), h[1:] + g[t, t + 1 :])
        stack += (off, on_child) if h0 < 0.0 else (on_child, off)
    supports = sorted((sorted(order[list(on)].tolist()) for on in kept), key=lambda s: (len(s), s))
    cands = np.zeros((len(supports), ell))
    for row, support in zip(cands, supports):
        row[support] = 1.0
    return cands


def detect_ls_exhaustive(Y_sig: np.ndarray, S: SignatureMatrix, v: int) -> DetectionResult:
    """Exact least-squares support recovery over weights 0..v.

    Residuals are evaluated through the Gram form
    ||Y - S d||^2 = ||Y||^2 - 2 d.(S^T Y) + d.(S^T S)d.  A branch-and-bound
    (see _surviving_supports) keeps every support within tol of the
    optimum; the survivors are scored with that expression, ordered by
    weight then lexicographic support, and the first minimum wins, which
    implements the documented tie-break.  The reported residual is the
    winner's row scored alone, since a matrix product may round a row by
    its position: it depends only on the support.  tol is 1e-9 times the
    sum of the magnitudes of the objective's terms, far above their
    rounding.  CANDIDATE_BUDGET caps the nominal number of candidates, not
    the nodes visited.
    """
    Y_sig = np.asarray(Y_sig, dtype=float)
    if Y_sig.shape != (S.n_sig,):
        raise ValueError(f"received length {Y_sig.shape} != signature length {S.n_sig}")
    if v < 0:
        raise ValueError(f"weight cap must be >= 0, got {v}")
    n_cands = candidate_count(S.ell, v)
    if n_cands > CANDIDATE_BUDGET:
        raise ComplexityBudgetError(
            f"{n_cands} candidates exceed the budget of {CANDIDATE_BUDGET} (ell={S.ell}, v={v})"
        )
    base = float(Y_sig @ Y_sig)
    if not math.isfinite(base):
        raise ValueError("received signature block is not finite, or its energy overflows")
    rows = S.matrix.T  # (ell, n_sig): the signatures as drawn
    gram = rows @ rows.T
    corr = rows @ Y_sig
    scale = base + 2.0 * float(np.abs(corr).sum()) + float(np.abs(gram).sum())
    cands = _surviving_supports(gram, corr, min(v, S.ell), 1e-9 * max(1.0, scale))

    def scored(d: np.ndarray) -> np.ndarray:
        return base - 2.0 * (d @ corr) + np.einsum("ij,ij->i", d @ gram, d)

    best = scored(cands).argmin()
    win = cands[best : best + 1]
    return DetectionResult(d_hat=win[0].astype(int), residual=float(scored(win)[0]))


def detect_pilot(y_pilot: np.ndarray, t: float, E: float) -> np.ndarray:
    """Threshold test: user declared active iff y_pilot > sqrt(t*E)/2,
    one boolean per pilot."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"pilot fraction must be in (0,1), got {t}")
    if E <= 0.0:
        raise ValueError(f"energy must be positive, got {E}")
    return np.asarray(y_pilot) > math.sqrt(t * E) / 2.0


def detection_stats(d_true: np.ndarray, d_hat: np.ndarray) -> tuple[int, int]:
    """Counts (misses, false alarms) between true and estimated activity."""
    d_true = np.asarray(d_true, dtype=bool)
    d_hat = np.asarray(d_hat, dtype=bool)
    if d_true.shape != d_hat.shape:
        raise ValueError(f"length mismatch: {d_true.shape} vs {d_hat.shape}")
    kappa1 = int(np.count_nonzero(d_true & ~d_hat))
    kappa2 = int(np.count_nonzero(~d_true & d_hat))
    return kappa1, kappa2
