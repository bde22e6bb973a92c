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

A class is enumerated as one (size, ell) integer array: each of the
C(ell,t) supports is filled with the M^t value grid, and one lexsort puts
the rows in lexicographic order.  Construction and verification work on
such arrays; Python tuples are built only for what a Partition holds.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

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


def _rows(members, ell: int) -> np.ndarray:
    """Integer message vectors as an N x ell array, one member per row, in
    the smallest integer dtype that holds all their values (uint8 up to
    255).  A member whose length is not ell, or a value that is not an
    integer within 64 bits, raises ValueError."""
    if not members:
        return np.zeros((0, ell), dtype=np.uint8)
    try:
        x = np.array(members)
    except ValueError:  # members of different lengths
        x = np.empty(0)
    if x.shape != (len(members), ell):
        raise ValueError(f"every member must have length {ell}")
    # a float array holds a fraction or an integer beyond 64 bits, an
    # object array an integer beyond 64 bits or a value that is no number
    if x.dtype.kind not in "biu":
        raise ValueError(f"member values must be integers within 64 bits, got dtype {x.dtype}")
    dtype = np.result_type(np.min_scalar_type(int(x.min())), np.min_scalar_type(int(x.max())))
    return x.astype(dtype, copy=False)


def _lex_sorted(x: np.ndarray) -> np.ndarray:
    """The rows of x in lexicographic order."""
    if x.shape[1] == 0:  # lexsort needs a key; every row is the empty vector
        return x
    return x[np.lexsort(x.T[::-1])]


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


@dataclass(frozen=True, eq=False)
class TypeClass:
    """All message vectors over {0..M} of length ell with t nonzero entries,
    one per row of `rows` in lexicographic order (read-only, in the
    smallest unsigned dtype that holds M)."""

    ell: int
    M: int
    t: int
    rows: np.ndarray

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of ints, built the first time they are read."""
        return tuple(map(tuple, self.rows.tolist()))


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
    dtype = np.min_scalar_type(M)
    supports = np.array(list(combinations(range(ell), t)), dtype=np.intp)
    supports = supports.reshape(math.comb(ell, t), t)
    values = np.indices((M,) * t, dtype=dtype).reshape(t, M**t).T + 1
    x = np.zeros((len(supports), len(values), ell), dtype=dtype)
    # row (s, v) holds value grid row v at the positions of support s
    x[np.arange(len(supports))[:, None, None], np.arange(len(values))[:, None],
      supports[:, None, :]] = values
    rows = _lex_sorted(x.reshape(size, ell))
    rows.flags.writeable = False
    return TypeClass(ell=ell, M=M, t=t, rows=rows)


def greedy_min_dist_code(tc: TypeClass, dmin: int = 5) -> list[tuple[int, ...]]:
    """Greedy maximal code of minimum distance dmin, scanning members in
    lexicographic order.  Maximality means every member of the class is
    within dmin-1 of some codeword.

    A running vector holds each member's distance to the nearest codeword
    so far; the next codeword is the first member after the last one at
    distance >= dmin, which is the member the sequential scan would add."""
    x = np.ascontiguousarray(tc.rows.T)
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
    return list(map(tuple, tc.rows[picked].tolist()))


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
    x = np.ascontiguousarray(tc.rows.T)
    centers = np.array(code, dtype=tc.rows.dtype).T
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
            tuple(map(tuple, tc.rows[cell].tolist())) for cell in np.split(order, ends[:-1])
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
    is not p.ell, or a value that is not an integer within 64 bits, raises
    ValueError.  The members, sorted, are compared row by row with a
    freshly enumerated class: equal neighbours mean a member in two
    places, and a member with a value outside 0..M is never covered."""
    sizes = tuple(len(cell) for cell in p.sets)
    x = _rows([w for cell in p.sets for w in cell], p.ell)
    s = _lex_sorted(x)
    disjoint = not (s[1:] == s[:-1]).all(axis=1).any()
    full = enumerate_type_class(p.ell, p.M, p.t).rows
    cover = s.shape == full.shape and bool((s == full).all())
    xc = np.ascontiguousarray(x.T)
    ends = np.cumsum(sizes, dtype=np.intp)
    diameters = tuple(_diameter(xc[:, e - n : e]) for n, e in zip(sizes, ends))
    center_d = _min_distance(_rows(p.centers, p.ell).T) if len(p.centers) > 1 else None
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
