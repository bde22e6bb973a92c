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
the rows in lexicographic order.  A Partition keeps integer arrays too:
its members cell after cell as `rows`, each cell's length in `sizes` and
one codeword per row of `center_rows`.  Python tuples (`sets`,
`centers`) are built only when read.

Every Hamming distance table is one BLAS product.  A vector is encoded
one-hot over its (position, value) pairs, ell x (distinct values) float32
columns, so two vectors agree in <onehot(a), onehot(b)> positions and
d(a, b) = ell - <onehot(a), onehot(b)>.  Each sum counts at most ell
ones, far below 2^24, so float32 holds it exactly.  One encoder serves
both sides, a block of rows at a time: build encodes the class over the
values 0..M, and verify encodes each Gram block's rows and columns over
the partition's distinct values (np.unique), so no two values share a
column whatever their size or sign.  Where a column for every value
would leave fewer than _BLOCK rows to a table, as the 15 005 columns of
(5,3000,1) would, verify gives columns only to the (position, value)
pairs that two members of the cell share: 10 there.  A one-hot or
distance table holds at most _TABLE entries, or one row where a row is
wider, and a Gram block at most _BLOCK rows.

Verify bounds its work by the type, not only by the cell size.  Two
members x, y differ in at most min(ell, w_x + w_y, r_x + r_y), w the
number of nonzero entries and r the distance to a pivot (the cell's
center, or its first member).  The member farthest from the pivot is
first compared with every member in integers, with no one-hot table: a
distance there that reaches the cell's cap is its diameter.  Otherwise a
cell larger than one row block is scanned with its rows in descending
order of r, from that distance on: the scan ends once it finds a pair at
the cap, and skips a block whose two leading radii sum to no more than
the largest distance found so far.  Every diameter stays exact;
(13,15,3), 965 250 members in 22 cells of up to 133 745, verifies in
about 0.5 s with a 36 MB tracemalloc peak on 2 vCPUs, against about 2
minutes for the all-pairs scan, (5,316,2), one cell of 998 560, in
about 0.3 s with a 37 MB peak, and (5,200000,1), one cell of 10^6 over
200 001 values, in about 0.6 s with a 48 MB peak.  A cell whose
diameter is below every cap still takes all its pairs.  The cover is
counted, not compared with a fresh enumeration: distinct rows, each in
{0..M}^ell with t nonzero entries, as many as the class has, are the
class.
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ComplexityBudgetError
from .model import activity_logpmf

DEFAULT_ENUM_BUDGET = 10**6


def hamming(w: tuple | np.ndarray, w2: tuple | np.ndarray) -> int:
    """Number of positions at which the two message vectors differ."""
    if len(w) != len(w2):
        raise ValueError(f"length mismatch: {len(w)} vs {len(w2)}")
    return int(sum(a != b for a, b in zip(w, w2)))


# float32 entries of one table (2 MB): a one-hot or distance table of n
# columns is built _rows_per_table(n) rows at a time
_TABLE = 2**19
# rows per Gram block: a cell's blocks cover the pairs at or above the
# diagonal in steps of this many rows
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
    if x.dtype.kind == "f":
        # np.array gives float64 to a value at or above 2**63 beside a small
        # one; when all are non-negative integers, uint64 holds them exactly
        values = [v for w in members for v in w]
        if all(isinstance(v, (int, np.integer)) for v in values) and min(values) >= 0:
            x = np.array(members, dtype=np.uint64)
    # a float array still holds a fraction, or a negative value beside one
    # at or above 2**63, which no 64-bit dtype holds both of; an object
    # array an integer beyond 64 bits or a value that is no number
    if x.dtype.kind not in "biu":
        raise ValueError(f"member values must be integers within 64 bits, got dtype {x.dtype}")
    dtype = np.result_type(np.min_scalar_type(int(x.min())), np.min_scalar_type(int(x.max())))
    # a negative value beside one above 2**32 promotes to float64, which
    # rounds beyond 2**53: keep the int64 that np.array chose
    return x.astype(dtype if dtype.kind in "iu" else x.dtype, copy=False)


def _lex_sorted(x: np.ndarray) -> np.ndarray:
    """The rows of x in lexicographic order."""
    if x.shape[1] == 0:  # lexsort needs a key; every row is the empty vector
        return x
    return x[np.lexsort(x.T[::-1])]


def _rows_per_table(columns: int) -> int:
    """Rows of a table of the given width that fit in _TABLE entries."""
    return max(1, _TABLE // max(columns, 1))


def _onehot(codes: np.ndarray, width: int) -> np.ndarray:
    """Rows of codes in 0..width-1 as float32 one-hot rows of ell*width
    columns: column j*width + v is 1 where position j holds code v."""
    n, ell = codes.shape
    out = np.zeros((n, ell * width), dtype=np.float32)
    out[np.arange(n)[:, None], np.arange(ell) * width + codes] = 1.0
    return out


def _encoder(x: np.ndarray, values: np.ndarray):
    """A one-hot encoder for blocks of rows of x, all in the sorted
    `values`, with the rows it takes per row block and per column block.

    A column for each (position, value) pair, unless rows that wide would
    split x into row blocks of fewer than _BLOCK rows: then only the pairs
    two rows of x share get columns, coded 1, 2, ... at each position, and
    every other pair code 0, whose columns are cleared.  Two distinct rows
    still agree in exactly <encode(a), encode(b)> positions; (5,3000,1)
    takes 5 x 2 columns, not 5 x 3001."""
    ell, n = x.shape[1], len(values)
    positions, code, width = np.arange(ell), None, n
    if _rows_per_table(ell * n) < min(len(x), _BLOCK):
        counts = np.zeros(ell * n, dtype=np.intp)
        for s in range(0, len(x), _rows_per_table(ell)):
            pairs = np.searchsorted(values, x[s : s + _rows_per_table(ell)]) + positions * n
            counts += np.bincount(pairs.ravel(), minlength=ell * n)
        shared = counts.reshape(ell, n) >= 2
        code = np.where(shared, shared.cumsum(axis=1), 0)
        width = int(code.max(initial=0)) + 1

    def encode(block):
        ranks = np.searchsorted(values, block)
        if code is None:
            return _onehot(ranks, width)
        out = _onehot(code[positions, ranks], width)
        out[:, ::width] = 0.0
        return out

    step = min(_BLOCK, _rows_per_table(ell * width))
    return encode, step, max(step, _rows_per_table(max(step, ell * width)))


def _gram_blocks(x: np.ndarray, encode, step: int, span: int, skip=None):
    """Agreements of each block of `step` rows of x with themselves and
    every later row, `span` columns at a time, each with whether it holds
    the block's diagonal, where a row meets itself.  Rows are encoded a row
    block and a column block at a time; a cell that fits one row block is
    encoded once.  A block whose first row and first column s, c give
    skip(s, c) true is not computed, nor is any later block of its row
    block, and skip(s, s) ends the scan: skip must hold for every block
    after one it holds for."""
    for s in range(0, len(x), step):
        if skip is not None and skip(s, s):
            return
        rows = encode(x[s : s + step])
        for c in range(s, len(x), span):
            if c > s and skip is not None and skip(s, c):
                break
            cols = rows if len(x) <= step else encode(x[c : c + span])
            yield rows @ cols.T, c == s


def _diameter(x: np.ndarray, values: np.ndarray, ell: int, pivot: np.ndarray) -> int:
    """Largest distance between two rows of x, each in `values`: ell minus
    their fewest agreements; 0 for fewer than two.  A row meets itself in
    ell positions less the pairs cleared as held by no other row, and it
    differs from every other row at those, so no diagonal entry is below
    the least off-diagonal one.

    Two rows x, y differ in at most min(ell, w_x + w_y, r_x + r_y), w the
    number of nonzero entries and r the distance to `pivot`, so no pair
    exceeds the cap: ell, the two largest weights or the two largest radii
    summed, whichever is least.  The row farthest from the pivot is first
    compared with every row, in integers; a distance found there that
    reaches the cap is the diameter.  Otherwise rows that span more than
    one row block are scanned in descending order of radius from that
    distance on: the scan ends at the cap, and a block whose first row and
    first column sum to no more than the largest distance found so far is
    skipped, with every later one, so the result stays exact."""
    if len(x) < 2:
        return 0
    radius = np.count_nonzero(x != pivot, axis=1)
    w = np.count_nonzero(x, axis=1)
    cap = min(ell, *(int(np.partition(v, -2)[-2:].sum()) for v in (w, radius)))
    best = int(np.count_nonzero(x != x[radius.argmax()], axis=1).max())
    if best >= cap:
        return best
    encode, step, span = _encoder(x, values)
    if len(x) > step:
        order = np.argsort(-radius, kind="stable")
        x, radius = x[order], radius[order]

    def beaten(s, c):
        return radius[s] + radius[c] <= best

    for agree, _ in _gram_blocks(x, encode, step, span, beaten if len(x) > step else None):
        best = max(best, ell - int(agree.min()))
        if best >= cap:
            break
    return best


def _min_distance(x: np.ndarray, ell: int) -> int:
    """Smallest distance between two distinct rows of x (at least two),
    ell minus their most agreements."""
    most = 0.0
    for agree, diagonal in _gram_blocks(x, *_encoder(x, np.unique(x))):
        if diagonal:
            np.fill_diagonal(agree, 0)
        most = max(most, agree.max())
    return ell - int(most)


def _diameters(p: "Partition") -> tuple[int, ...]:
    """Each cell's diameter over the partition's distinct values, its pivot
    the cell's center when `center_rows` has one per cell in a dtype the
    rows hold, else its first member."""
    values = np.unique(p.rows)
    centers = len(p.center_rows) == len(p.sizes) and np.can_cast(p.center_rows.dtype, p.rows.dtype)
    return tuple(
        _diameter(cell, values, p.ell, p.center_rows[c] if centers else cell[:1])
        for c, cell in enumerate(_split(p.rows, p.sizes))
    )


def _split(x: np.ndarray, sizes) -> list[np.ndarray]:
    """Consecutive row blocks of x with the given lengths."""
    ends = np.cumsum(sizes, dtype=np.intp)
    return [x[e - n : e] for n, e in zip(sizes, ends)]


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


def _budgeted_size(ell: int, M: int, t: int, budget: int) -> int:
    """The class size, after checking that the class exists (ValueError)
    and is within the enumeration budget (ComplexityBudgetError)."""
    if not 0 <= t <= ell:
        raise ValueError(f"weight must be in 0..{ell}, got {t}")
    if M < 1:
        raise ValueError(f"message count must be >= 1, got {M}")
    size = type_class_size(ell, M, t)
    if size > budget:
        raise ComplexityBudgetError(f"type class size {size} exceeds the budget {budget}")
    return size


def enumerate_type_class(
    ell: int, M: int, t: int, budget: int = DEFAULT_ENUM_BUDGET
) -> TypeClass:
    """Enumerate the class in lexicographic order of the message vectors."""
    size = _budgeted_size(ell, M, t, budget)
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


def greedy_min_dist_code(tc: TypeClass, dmin: int = 5) -> np.ndarray:
    """Greedy maximal code of minimum distance dmin, scanning members in
    lexicographic order, as a read-only array with one codeword per row.
    Maximality means every member of the class is within dmin-1 of some
    codeword.

    The class is scanned in blocks of members, each encoded one-hot over
    the values 0..M.  One product with the codewords so far gives each
    member's distance to the nearest of them; the next codeword is the
    first member of the block after the last one at distance >= dmin,
    which is the member the sequential scan would add, and each codeword
    picked costs one matrix-vector product with its block."""
    code = np.zeros((0, tc.ell * (tc.M + 1)), dtype=np.float32)
    picked: list[int] = []
    s = 0
    while s < tc.size:
        x = _onehot(tc.rows[s : s + _rows_per_table(max(code.shape))], tc.M + 1)
        nearest = np.minimum(dmin, tc.ell - (x @ code.T).max(axis=1, initial=-np.inf))
        new: list[int] = []
        start = 0
        while start < len(x):
            free = nearest[start:] >= dmin
            i = start + int(free.argmax())
            if not free[i - start]:
                break
            new.append(i)
            np.minimum(nearest, tc.ell - x @ x[i], out=nearest)
            start = i + 1
        code = np.concatenate([code, x[new]])
        picked.extend(s + i for i in new)
        s += len(x)
    code = tc.rows[picked]
    code.flags.writeable = False
    return code


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cover of a type class by cells around distance-5 codewords.

    `rows` holds the members cell after cell, `sizes` each cell's length
    and `center_rows` one codeword per row, all read-only integer arrays
    of ell columns.  The constructor checks only shapes and dtypes; a
    partition given as tuples goes through `from_sets`, which validates
    every member.  Two partitions are equal when their tuple views are.
    """

    ell: int
    M: int
    t: int
    rows: np.ndarray
    sizes: tuple[int, ...]
    center_rows: np.ndarray

    def __post_init__(self):
        for name in ("rows", "center_rows"):
            x = getattr(self, name)
            if x.ndim != 2 or x.shape[1] != self.ell or x.dtype.kind not in "iu":
                raise ValueError(f"{name} must be an integer array of {self.ell} columns")
        if sum(self.sizes) != len(self.rows):
            raise ValueError(f"cell sizes sum to {sum(self.sizes)}, not {len(self.rows)} rows")

    @classmethod
    def from_sets(cls, ell: int, M: int, t: int, centers, sets) -> "Partition":
        """A partition from member tuples, one sequence per cell.  A member
        whose length is not ell, or a value that is not an integer within
        64 bits, raises ValueError."""
        rows, center_rows = _rows([w for cell in sets for w in cell], ell), _rows(centers, ell)
        rows.flags.writeable = center_rows.flags.writeable = False
        return cls(ell, M, t, rows, tuple(len(cell) for cell in sets), center_rows)

    @cached_property
    def sets(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Each cell's members as tuples of ints, built when first read."""
        return tuple(tuple(map(tuple, cell.tolist())) for cell in _split(self.rows, self.sizes))

    @cached_property
    def centers(self) -> tuple[tuple[int, ...], ...]:
        """The codewords as tuples of ints, built when first read."""
        return tuple(map(tuple, self.center_rows.tolist()))

    @property
    def num_sets(self) -> int:
        return len(self.sizes)

    def _key(self):
        return self.ell, self.M, self.t, self.centers, self.sets

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


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
        return Partition(ell, M, t, rows=tc.rows, sizes=(tc.size,), center_rows=tc.rows[:1])
    centers = greedy_min_dist_code(tc, dmin=5)
    c = _onehot(centers, M + 1)
    owner = np.empty(tc.size, dtype=np.intp)
    step = _rows_per_table(max(c.shape[1], len(c)))
    for s in range(0, tc.size, step):
        d = ell - _onehot(tc.rows[s : s + step], M + 1) @ c.T
        # 2 within distance 2, 1 within 4: the first largest key is the
        # ring-2 codeword, unique by the minimum distance 5 of the code,
        # else the first codeword within distance 4
        key = (d <= 4).view(np.int8) + (d <= 2)
        owner[s : s + step] = first = key.argmax(axis=1)
        if not key[np.arange(len(key)), first].all():
            raise AssertionError("greedy code not maximal: member beyond distance 4")
    # a stable sort keeps each cell in the lexicographic order of the class
    rows = tc.rows[np.argsort(owner, kind="stable")]
    rows.flags.writeable = False
    sizes = tuple(np.bincount(owner, minlength=len(centers)).tolist())
    return Partition(ell, M, t, rows=rows, sizes=sizes, center_rows=centers)


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

    Failures are carried in the report, not raised; a class that does not
    exist, or is beyond the enumeration budget, raises as
    enumerate_type_class does.  The members, sorted, show a member in two
    places as equal neighbours.  They cover the class when they are as
    many as it has, each in {0..M}^ell with exactly t nonzero entries, and
    no two equal.  Distances come from build's one-hot encoder, over the
    values the partition's own members hold rather than 0..M."""
    size = _budgeted_size(p.ell, p.M, p.t, DEFAULT_ENUM_BUDGET)
    sizes = p.sizes
    s = _lex_sorted(p.rows)
    disjoint = not (s[1:] == s[:-1]).all(axis=1).any()
    cover = (
        len(s) == size
        and bool(((s >= 0) & (s <= p.M)).all())
        and bool((np.count_nonzero(s, axis=1) == p.t).all())
    )
    diameters = _diameters(p)
    center_d = _min_distance(p.center_rows, p.ell) if len(p.center_rows) > 1 else None
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

        (1-alpha)^(ell-t) (alpha/M)^t |T^t|  with  |T^t| = C(ell,t) M^t,

    in which M cancels: the activity law model.activity_logpmf at t.
    """
    if not 0 <= t <= ell:
        raise ValueError(f"weight must be in 0..{ell}, got {t}")
    if M < 1:
        raise ValueError(f"message count must be >= 1, got {M}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"activity probability must be in [0,1], got {alpha}")
    return math.exp(activity_logpmf(t, ell, alpha))


def _json_list(items: list[str], depth: int) -> str:
    """Items already in JSON as json.dumps(..., indent=2) lists them
    `depth` lists deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * depth
    return "[" + pad + "  " + ("," + pad + "  ").join(items) + pad + "]"


def _json_rows(x: np.ndarray, depth: int) -> str:
    """The integer rows of x as json.dumps(x.tolist(), indent=2) writes
    them `depth` lists deep, in one %-format over every entry."""
    row = _json_list(["%d"] * x.shape[1], depth + 1)
    return _json_list([row] * len(x), depth) % tuple(x.ravel().tolist())


def partition_to_json(p: Partition, report: PartitionReport) -> str:
    """Dump a partition and its verification report as JSON, the text of
    json.dumps(payload, indent=2).  The integer rows are formatted
    directly: json's indenting encoder is pure Python, a call per entry."""
    arrays = {
        '"@centers"': _json_rows(p.center_rows, 1),
        '"@sets"': _json_list([_json_rows(cell, 2) for cell in _split(p.rows, p.sizes)], 1),
    }
    payload = {
        "ell": p.ell,
        "M": p.M,
        "t": p.t,
        "num_sets": p.num_sets,
        "centers": "@centers",
        "sets": "@sets",
        "report": {
            "disjoint_cover": report.disjoint_cover,
            "min_set_size": report.min_set_size,
            "max_diameter": report.max_diameter,
            "min_center_distance": report.min_center_distance,
            "ok": report.ok,
        },
    }
    text = json.dumps(payload, indent=2)
    for marker, rows in arrays.items():
        text = text.replace(marker, rows, 1)
    return text
