"""Type-class partitions for the multi-hypothesis converse.

A type class collects all message vectors with exactly t active entries.
For t >= 2 it is partitioned by first growing a maximal greedy code of
minimum Hamming distance 5 inside the class, then assigning the radius-2
ball of each codeword (unique by the distance-5 property) and finally
attaching every leftover vector to the lowest-indexed codeword within
distance 4.  Each resulting cell has at least ell+1 members and diameter
at most 8, which is what the hypothesis-testing bound needs.  Weight
t = 1 classes are kept whole.  All of this is desk-scale only: class
sizes are C(ell,t) M^t and enumeration is guarded by a budget.
"""

import json
import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import ComplexityBudgetError

DEFAULT_ENUM_BUDGET = 10**6


def hamming(w: tuple | np.ndarray, w2: tuple | np.ndarray) -> int:
    """Number of positions at which the two message vectors differ."""
    if len(w) != len(w2):
        raise ValueError(f"length mismatch: {len(w)} vs {len(w2)}")
    return int(sum(a != b for a, b in zip(w, w2)))


# rows per block of a distance table: a block against n columns needs 2*256*n bytes
_BLOCK = 256


def _columns(members, ell: int) -> np.ndarray:
    """Integer message vectors as an ell x N array, one member per column, in
    the smallest integer dtype that holds all their values (uint8 up to 255)."""
    if any(len(w) != ell for w in members):
        raise ValueError(f"every member must have length {ell}")
    x = np.array(members, dtype=np.int64).reshape(len(members), ell)
    if x.size == 0:
        return x.T
    dtype = np.result_type(np.min_scalar_type(x.min()), np.min_scalar_type(x.max()))
    return np.ascontiguousarray(x.T, dtype=dtype)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance table between the columns of a and of b."""
    d = np.zeros((a.shape[1], b.shape[1]), dtype=np.min_scalar_type(a.shape[0]))
    for ak, bk in zip(a, b):
        d += ak[:, None] != bk[None, :]
    return d


def _diameter(x: np.ndarray) -> int:
    """Largest distance between two columns of x; 0 for fewer than two."""
    n = x.shape[1]
    return max(
        (int(_distances(x[:, s : s + _BLOCK], x[:, s:]).max()) for s in range(0, n, _BLOCK)),
        default=0,
    )


def _min_distance(x: np.ndarray) -> int:
    """Smallest distance between two distinct columns of x (at least two)."""
    n = x.shape[1]
    lows = []
    for s in range(0, n - 1, _BLOCK):
        d = _distances(x[:, s : s + _BLOCK], x)
        later = np.arange(n) > np.arange(s, s + len(d))[:, None]
        lows.append(int(d[later].min()))
    return min(lows)


@dataclass(frozen=True)
class TypeClass:
    """All message vectors over {0..M} of length ell with t nonzero entries."""

    ell: int
    M: int
    t: int
    members: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.members)


def type_class_size(ell: int, M: int, t: int) -> int:
    return math.comb(ell, t) * M**t


def enumerate_type_class(
    ell: int, M: int, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> TypeClass:
    """Enumerate the class in lexicographic order of the message vectors."""
    if not 0 <= t <= ell:
        raise ValueError(f"weight must be in 0..{ell}, got {t}")
    if M < 1:
        raise ValueError(f"message count must be >= 1, got {M}")
    size = type_class_size(ell, M, t)
    if size > budget:
        raise ComplexityBudgetError(f"type class size {size} exceeds the budget {budget}")
    members = []
    for support in combinations(range(ell), t):
        for vals in product(range(1, M + 1), repeat=t):
            w = [0] * ell
            for pos, val in zip(support, vals):
                w[pos] = val
            members.append(tuple(w))
    members.sort()
    return TypeClass(ell=ell, M=M, t=t, members=tuple(members))


def greedy_min_dist_code(tc: TypeClass, dmin: int = 5) -> list[tuple[int, ...]]:
    """Greedy maximal code of minimum distance dmin, scanning members in
    lexicographic order.  Maximality means every member of the class is
    within dmin-1 of some codeword.

    A running vector holds each member's distance to the nearest codeword
    so far; the next codeword is the first member after the last one at
    distance >= dmin, which is the member the sequential scan would add."""
    x = _columns(tc.members, tc.ell)
    nearest = np.full(tc.size, dmin)
    picked: list[int] = []
    start = 0
    while start < tc.size:
        free = nearest[start:] >= dmin
        i = start + int(free.argmax())
        if not free[i - start]:
            break
        picked.append(i)
        nearest = np.minimum(nearest, _distances(x, x[:, i : i + 1])[:, 0])
        start = i + 1
    return [tc.members[i] for i in picked]


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of a type class by cells around distance-5 codewords."""

    ell: int
    M: int
    t: int
    centers: tuple[tuple[int, ...], ...]
    sets: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def num_sets(self) -> int:
        return len(self.sets)


def build_partition(
    ell: int, M: int, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> Partition:
    """Partition the weight-t type class as used by the converse argument.

    t = 1: the whole class is a single cell (its diameter is already 2).
    t >= 2: greedy distance-5 code inside the class itself, radius-2 balls
    first, then leftover members to the lowest-indexed codeword within
    distance 4.  This includes t = ell, whose code also lives inside the
    class (distance-1 neighbours within the class number ell(M-1) >= ell).
    """
    if ell < 5:
        raise ValueError(f"user count must be >= 5, got {ell}")
    if M < 2:
        raise ValueError(f"message count must be >= 2, got {M}")
    if not 1 <= t <= ell:
        raise ValueError(f"weight must be in 1..{ell}, got {t}")
    tc = enumerate_type_class(ell, M, t, budget=budget)
    if t == 1:
        return Partition(ell=ell, M=M, t=t, centers=(tc.members[0],), sets=(tc.members,))
    code = greedy_min_dist_code(tc, dmin=5)
    x, centers = _columns(tc.members, ell), _columns(code, ell)
    owner = np.empty(tc.size, dtype=np.intp)
    for s in range(0, tc.size, _BLOCK):
        d = _distances(x[:, s : s + _BLOCK], centers)
        ring2, near = d <= 2, d <= 4
        if not near.any(axis=1).all():
            raise AssertionError("greedy code not maximal: member beyond distance 4")
        # a ring-2 codeword is unique by the minimum distance 5 of the code
        owner[s : s + _BLOCK] = np.where(
            ring2.any(axis=1), ring2.argmax(axis=1), near.argmax(axis=1)
        )
    # a stable sort keeps each cell in the lexicographic order of the class
    order = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner, minlength=len(code)))
    return Partition(
        ell=ell,
        M=M,
        t=t,
        centers=tuple(code),
        sets=tuple(
            tuple(tc.members[i] for i in cell) for cell in np.split(order, ends[:-1])
        ),
    )


@dataclass(frozen=True)
class PartitionReport:
    disjoint_cover: bool
    size_ok: bool
    diameter_ok: bool
    min_set_size: int
    max_diameter: int
    min_center_distance: int | None
    set_sizes: tuple[int, ...]
    set_diameters: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.disjoint_cover and self.size_ok and self.diameter_ok


def verify_partition(p: Partition, ell: int) -> PartitionReport:
    """Check disjoint cover, |cell| >= ell+1, and diameter <= 8.

    Failures are carried in the report, not raised; a member whose length
    is not p.ell raises ValueError.  The cover is compared as a set of
    message vectors with a freshly enumerated class, so a member with a
    value outside 0..M is never covered."""
    seen = set()
    disjoint = True
    for cell in p.sets:
        for w in cell:
            if w in seen:
                disjoint = False
            seen.add(w)
    full = set(enumerate_type_class(p.ell, p.M, p.t).members)
    cover = seen == full
    sizes = tuple(len(cell) for cell in p.sets)
    x = _columns([w for cell in p.sets for w in cell], p.ell)
    ends = np.cumsum(sizes, dtype=np.intp)
    diameters = tuple(_diameter(x[:, e - n : e]) for n, e in zip(sizes, ends))
    center_d = _min_distance(_columns(p.centers, p.ell)) if len(p.centers) > 1 else None
    min_size = min(sizes) if sizes else 0
    max_diam = max(diameters) if diameters else 0
    return PartitionReport(
        disjoint_cover=disjoint and cover,
        size_ok=min_size >= ell + 1,
        diameter_ok=max_diam <= 8,
        min_set_size=min_size,
        max_diameter=max_diam,
        min_center_distance=center_d,
        set_sizes=sizes,
        set_diameters=diameters,
    )


def typeclass_probability(ell: int, M: int, t: int, alpha: float) -> float:
    """Probability that the message vector has exactly t active entries:

        (1-alpha)^(ell-t) (alpha/M)^t |T^t|  with  |T^t| = C(ell,t) M^t.
    """
    if not 0 <= t <= ell:
        raise ValueError(f"weight must be in 0..{ell}, got {t}")
    if M < 1:
        raise ValueError(f"message count must be >= 1, got {M}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"activity probability must be in [0,1], got {alpha}")
    return (1.0 - alpha) ** (ell - t) * (alpha / M) ** t * type_class_size(ell, M, t)


def partition_to_json(p: Partition, report: PartitionReport) -> str:
    """Dump a partition and its verification report as JSON."""
    payload = {
        "ell": p.ell,
        "M": p.M,
        "t": p.t,
        "num_sets": p.num_sets,
        "centers": [list(c) for c in p.centers],
        "sets": [[list(w) for w in cell] for cell in p.sets],
        "report": {
            "disjoint_cover": report.disjoint_cover,
            "min_set_size": report.min_set_size,
            "max_diameter": report.max_diameter,
            "min_center_distance": report.min_center_distance,
            "ok": report.ok,
        },
    }
    return json.dumps(payload, indent=2)
