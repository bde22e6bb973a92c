"""Type-class partitions for the multi-hypothesis converse.

A type class collects all message vectors with exactly t active entries.
For t >= 2 it is partitioned by a maximal greedy code of minimum Hamming
distance 5 inside the class: each codeword takes its radius-2 ball
(unique by the distance 5), then every leftover vector goes to the
lowest-indexed codeword within distance 4.  Each cell has at least ell+1
members and diameter at most 8, as the hypothesis-testing bound needs.
Weight t = 1 classes are kept whole.  All of this is desk-scale only:
class sizes are C(ell,t) M^t and enumeration is guarded by ENUM_BUDGET.

Classes and partitions are integer arrays, a member per row.  Distances
come from float32 products of one-hot encodings, a column per (position,
value) pair, in tables of at most _TABLE entries (or one row where a row
is wider).  Build is one pass: each block of the class is encoded once over
0..M, and its products with the codewords before it and those it picks
are both the greedy scan and the ownership table.

Verify bounds its work by the type: two members differ in at most
min(ell, w_x + w_y, r_x + r_y), w the number of nonzero entries and r the
distance to the cell's pivot.  Every cell is probed at once, in a fixed
number of numpy calls per table of rows: radii and weights in one pass,
then each cell's farthest member from the pivot meets the whole cell,
and a distance there at the cap is the diameter.  The other cells share
one encoder over the partition's distinct values: a cell of one row
block takes its Gram in one product, a larger one a scan in descending
order of r, which ends at the cap.  The work is per partition and per table,
not per cell: a (6,2,4) build and verify makes 225 profiled calls.  On 2
vCPUs (13,15,3), 965 250 members in 22 cells, builds in about 0.67 s and
verifies in about 0.28 s (28 MB tracemalloc peak); (5,316,2), one cell
of 998 560, in 0.43 s and 0.13 s (18 MB).  A class whose rows are too
wide for blocks of _BLOCK rows (ell (M+1) > 2048) is, within ENUM_BUDGET,
one cell of weight 1, or of weight 2 over M = 2, which the probe settles
with no encoder: (5,200000,1) verifies in 0.09 s (35 MB).
"""

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import ComplexityBudgetError
from .model import activity_logpmf

# class size enumerate_type_class builds at most, read when it runs
ENUM_BUDGET = 10**6


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


def _lex_sorted(x: np.ndarray) -> np.ndarray:
    """The rows of x in lexicographic order."""
    # lexsort needs a key; with no columns every row is the empty vector
    return x[np.lexsort(x.T[::-1])] if x.shape[1] else x


def _rows_per_table(columns: int) -> int:
    """Rows of a table of the given width that fit in _TABLE entries."""
    return (_TABLE // columns or 1) if columns > 0 else _TABLE


def _encoder(x: np.ndarray, values: np.ndarray):
    """A one-hot encoder for blocks of rows of x, all in the sorted
    `values`, a column per (position, value) pair, with the rows it takes
    per row block and per column block.  Each block's ones are set by one
    flat index per entry."""
    ell, n = x.shape[1], len(values)
    offsets, width = np.arange(ell) * n, ell * n
    step = min(_BLOCK, _rows_per_table(width))
    span = max(step, _rows_per_table(max(step, width)))
    first = np.arange(min(span, len(x)))[:, None] * width  # each row's first entry

    def encode(block):
        out = np.zeros((block.shape[0], width), dtype=np.float32)
        out.reshape(-1)[first[: block.shape[0]] + values.searchsorted(block) + offsets] = 1.0
        return out

    return encode, step, span


def _gram_blocks(x: np.ndarray, encode, step: int, span: int, skip=None):
    """Agreements of each block of `step` rows of x with themselves and
    every later row, `span` columns at a time, each with whether it holds
    the block's diagonal, all in one table: a fresh one per block costs a
    page fault per 4 KB.  Rows are encoded a block at a time.  skip(s, c),
    for a block's first row s and column c, ends its row block, and
    skip(s, s) the scan: it must hold for every block after one it holds."""
    n = len(x)
    table = np.empty(min(step, n) * min(span, n), dtype=np.float32)
    for s in range(0, n, step):
        if skip is not None and skip(s, s):
            return
        rows, r = encode(x[s : s + step]), min(step, n - s)
        for c in range(s, n, span):
            if c > s and skip is not None and skip(s, c):
                break
            cols, m = (rows, r) if n <= step else (encode(x[c : c + span]), min(span, n - c))
            yield np.matmul(rows, cols.T, out=table[: r * m].reshape(r, m)), c == s


def _diameter(x: np.ndarray, encoder, ell: int, radius: np.ndarray, best: int, cap: int) -> int:
    """Largest distance between two rows of x, more than one row block
    that `encoder` encodes, from the distance `best` of two of them up to
    a `cap` no pair exceeds, in descending order of `radius` (distance to
    one pivot): a block whose first row and column have radii summing to
    no more than the distance found ends its row block.  A diagonal
    entry, ell agreements, is never below an off-diagonal one."""
    encode, step, span = encoder
    # ell - radius, small and unsigned, sorts by radix in -radius's order
    order = np.argsort(ell - radius, kind="stable")
    x, radius = x[order], radius[order].astype(np.intp)

    def skip(s, c):
        return radius[s] + radius[c] <= best

    for agree, _ in _gram_blocks(x, encode, step, span, skip):
        best = max(best, ell - int(np.minimum.reduce(agree, axis=None)))
        if best >= cap:
            break
    return best


def _min_distance(x: np.ndarray, ell: int) -> int:
    """Smallest distance between two distinct rows of x (at least two),
    ell minus their most agreements."""
    most = 0.0
    for agree, diagonal in _gram_blocks(x, *_encoder(x, np.unique(x))):
        if diagonal:  # a row's agreements with itself, at (i, i)
            agree.reshape(-1)[:: agree.shape[1] + 1] = 0
        most = max(most, np.maximum.reduce(agree, axis=None))
    return ell - int(most)


def _diameters(p: "Partition") -> tuple[tuple[int, ...], np.ndarray]:
    """Each cell's diameter over the partition's distinct values, the
    probe's distance where it reaches the cell's cap, else the scan's, and
    how many members have each weight 0..ell.  The scanned cells share one
    encoder: a cell of one row block takes its Gram in one product, a
    larger one the capped scan."""
    if not len(p.rows):
        return (0,) * len(p.sizes), np.zeros(p.ell + 1, dtype=np.intp)
    sizes = np.array(p.sizes, dtype=np.intp)
    starts = sizes.cumsum() - sizes
    radius, best, cap, weights = _probe(p, sizes, starts)
    scan = ((best < cap) & (sizes > 1)).nonzero()[0]
    if len(scan):
        encoder = _encoder(p.rows, np.unique(p.rows))
        block = sizes[scan] <= encoder[1]
        cells = scan[block]
        best[cells] = _block_diameters(p.rows, starts[cells], sizes[cells], encoder, p.ell)
        for c in scan[~block].tolist():
            cut = slice(starts[c], starts[c] + sizes[c])
            best[c] = _diameter(p.rows[cut], encoder, p.ell, radius[cut], int(best[c]), int(cap[c]))
    return tuple(best.tolist()), weights


def _block_diameters(x: np.ndarray, starts: np.ndarray, sizes: np.ndarray, encoder,
                     ell: int) -> np.ndarray:
    """The diameter of each cell x[starts[i] : starts[i] + sizes[i]], of
    at most one row block: its rows encoded at once and one product of
    them with themselves, in one table for every cell.  Batching cells of
    unequal sizes pads their products and costs more than it saves."""
    encode, out = encoder[0], np.empty(len(sizes), dtype=np.intp)
    table = np.empty(int(sizes.max(initial=0)) ** 2, dtype=np.float32)
    for c, (s, m) in enumerate(zip(starts.tolist(), sizes.tolist())):
        rows = encode(x[s : s + m])
        agree = np.matmul(rows, rows.T, out=table[: m * m].reshape(m, m))
        out[c] = ell - np.minimum.reduce(agree, axis=None)
    return out


def _probe(p: "Partition", sizes: np.ndarray, starts: np.ndarray):
    """Every member's radius, its distance to its cell's pivot; each cell's
    largest distance from a member farthest from the pivot and its cap,
    min(ell, two largest weights summed, two largest radii summed); and
    how many members have each weight.  The pivot is the cell's center
    when `center_rows` has one per cell in a dtype the rows hold, else its
    first member."""
    x, ell, n = p.rows, p.ell, len(sizes)
    small = np.min_scalar_type(ell)
    cell = np.arange(n, dtype=np.min_scalar_type(n)).repeat(sizes)
    centered = len(p.center_rows) == n and np.can_cast(p.center_rows.dtype, x.dtype)
    pivots = p.center_rows if centered else x[np.minimum(starts, len(x) - 1)]
    found = _distances(x, (pivots, 0), cell, small)
    # one histogram of each cell's members by radius, then by weight
    counts, step = np.zeros(2 * n * (ell + 1), dtype=np.intp), _rows_per_table(2 * ell)
    lanes = np.array([[0], [ell + 1]])
    for s in range(0, len(x), step):
        key = cell[s : s + step].astype(np.intp) * (2 * ell + 2) + lanes + found[:, s : s + step]
        counts += np.bincount(key.ravel(), minlength=len(counts))
    counts = counts.reshape(n, 2, ell + 1)
    # members at or above each value from ell down to 1: summed up to 2
    # they give the two largest values, counted where nonzero the largest
    above = counts[:, :, :0:-1].cumsum(axis=2)
    cap = np.minimum(np.minimum.reduce(np.add.reduce(np.minimum(above, 2), axis=2), axis=1), ell)
    radius = found[0]
    hits = (radius == np.add.reduce(above[:, 0] > 0, axis=1, dtype=small)[cell]).nonzero()[0]
    # each cell's first member at its largest radius (an empty cell takes
    # a later cell's, which it never meets)
    far = hits[np.minimum(cell[hits].searchsorted(np.arange(n)), len(hits) - 1)]
    # np.maximum.reduceat gives an empty segment its first element: skip them
    best, live = np.zeros(n, dtype=np.intp), sizes.nonzero()[0]
    best[live] = np.maximum.reduceat(_distances(x, (x[far],), cell, small)[0], starts[live])
    return radius, best, cap, np.add.reduce(counts[:, 1], axis=0)


def _distances(x: np.ndarray, refs: tuple, cell: np.ndarray, dtype) -> np.ndarray:
    """Each row's distance to refs[j][cell of the row] for each j, a
    len(refs) x N array; a ref 0 is the zero row of every cell.  A table
    of rows at a time, each ref's comparison a plane of its own: einsum
    counts short boolean rows several times faster than sum."""
    k, ell = len(refs), x.shape[1]
    step, out = _rows_per_table(k * ell), np.empty((k, len(x)), dtype=dtype)
    for s in range(0, len(x), step):
        rows, at = x[s : s + step], cell[s : s + step]
        differ = np.empty((k,) + rows.shape, dtype=bool)
        for j, ref in enumerate(refs):
            np.not_equal(rows, ref.take(at, axis=0) if isinstance(ref, np.ndarray) else ref, out=differ[j])
        out[:, s : s + step] = np.einsum("kij->ki", differ.view(np.uint8), dtype=dtype)
    return out


def _split(x: np.ndarray, sizes) -> list[np.ndarray]:
    """Consecutive row blocks of x with the given lengths."""
    ends = np.cumsum(sizes, dtype=np.intp)
    return [x[e - n : e] for n, e in zip(sizes, ends)]


@dataclass(frozen=True, eq=False)
class TypeClass:
    """All message vectors over {0..M} of length ell with t nonzero entries,
    one per row of the read-only array `rows` in lexicographic order, in
    the smallest unsigned dtype that holds M."""

    ell: int
    M: int
    t: int
    rows: np.ndarray

    @property
    def size(self) -> int:
        return len(self.rows)


def type_class_size(ell: int, M: int, t: int) -> int:
    return math.comb(ell, t) * M**t


def _budgeted_size(ell: int, M: int, t: int) -> int:
    """The class size, after checking that the class exists (ValueError)
    and is within ENUM_BUDGET (ComplexityBudgetError)."""
    if not 0 <= t <= ell:
        raise ValueError(f"weight must be in 0..{ell}, got {t}")
    if M < 1:
        raise ValueError(f"message count must be >= 1, got {M}")
    size = type_class_size(ell, M, t)
    if size > ENUM_BUDGET:
        raise ComplexityBudgetError(f"type class size {size} exceeds the budget {ENUM_BUDGET}")
    return size


def enumerate_type_class(ell: int, M: int, t: int) -> TypeClass:
    """Enumerate the class in lexicographic order of the message vectors."""
    size = _budgeted_size(ell, M, t)
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


def _greedy(tc: TypeClass, dmin: int) -> tuple[np.ndarray, np.ndarray]:
    """The greedy code of minimum distance dmin, read-only rows, and each
    member's owner: its codeword within (dmin-1)//2, unique by the
    minimum distance, else its first within dmin-1.  Each block's product
    with the codewords so far, and one matrix-vector product per codeword
    it picks (the first member after the last pick within dmin-1 of none,
    as the sequential scan would add), are the block's ownership table,
    and their running maximum tells which members have a codeword in the
    ring.  A member the scan passes has its first codeword within dmin-1
    in that table; only a later block's codeword can still fall in its
    ring, so members with none there yet meet the later codewords at the
    end."""
    ell, levels, size, reach = tc.ell, tc.M + 1, len(tc.rows), max(dmin - 1, 0)
    width, near, far = ell * levels, ell - reach // 2, ell - reach  # least agreements in the ring, within reach
    code, picked, blocks = np.zeros((0, width), dtype=np.float32), [], []
    owner, ringed = np.empty(size, dtype=np.intp), np.empty(size, dtype=bool)
    # each block, and each chunk of the late members, is encoded in this flat
    # table and cleared after it: a fresh one per block costs more than its
    # products where width is large
    table = np.zeros(min(size, _rows_per_table(width)) * width, dtype=np.float32)
    first, s = np.arange(0, len(table), width)[:, None] + np.arange(0, width, levels), 0
    while s < size:
        block = tc.rows[s : s + _rows_per_table(max(width, 2 * len(code)))]
        n, k = len(block), len(code)
        ones = first[:n] + block
        table[ones] = 1.0
        x = table[: n * width].reshape(n, width)
        # agreements with every codeword known by the end of the block, in
        # a table of _TABLE entries: the block ends once it is full
        agree = np.empty((k + max(1, _TABLE // n - k), n), dtype=np.float32)
        agree[:k] = (x @ code.T).T  # twice as fast here as code @ x.T
        most, done, start = np.maximum.reduce(agree[:k], axis=0, initial=-np.inf), n, 0
        while start < done:
            free = most[start:] < far
            i = start + int(free.argmax())
            if not free[i - start]:
                break
            picked.append(s + i)
            np.maximum(most, np.matmul(x, x[i], out=agree[k]), out=most)
            k, start = k + 1, i + 1
            if k == len(agree):
                done = start
        code = np.concatenate([code, x[np.array(picked[len(code) :], dtype=np.intp) - s]])
        # a member's owner is its first codeword in the ring, where it
        # agrees most, else its first within reach: the largest of k - j
        # over the codewords j it agrees with at its threshold names it
        most = most[:done]
        if np.minimum.reduce(most) < far:
            raise AssertionError(f"greedy code not maximal: member beyond distance {reach}")
        ring = ringed[s : s + done] = most >= near
        hit = agree[:k, :done] >= np.where(ring, near, far)
        rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]
        owner[s : s + done] = k - np.maximum.reduce(hit * rank, axis=0)
        blocks.append((s, done, k))
        s += done
        table[ones] = 0.0
    for s, n, k in [block for block in blocks if block[2] < len(code)]:
        late, step = s + np.flatnonzero(~ringed[s : s + n]), _rows_per_table(max(width, len(code) - k))
        for rows in np.split(late, range(step, len(late), step)):
            ones = first[: len(rows)] + tc.rows[rows]
            table[ones] = 1.0
            ring = table[: len(rows) * width].reshape(-1, width) @ code[k:].T >= near
            table[ones] = 0.0
            hit = ring.any(axis=1)
            owner[rows[hit]] = k + ring[hit].argmax(axis=1)
    code = tc.rows[picked]
    code.flags.writeable = False
    return code, owner


def greedy_min_dist_code(tc: TypeClass, dmin: int = 5) -> np.ndarray:
    """Greedy maximal code of minimum distance dmin in lexicographic order,
    read-only, a codeword per row: every member is within dmin-1 of one."""
    return _greedy(tc, dmin)[0]


@dataclass(frozen=True, eq=False)
class Partition:
    """Disjoint cover of a type class by cells around distance-5 codewords.

    `rows` holds the members cell after cell, `sizes` each cell's length
    and `center_rows` one codeword per row, integer arrays of ell columns
    in any integer dtype.  The constructor checks only shapes and dtypes;
    whether the rows are the class is verify_partition's report.  `sets`
    and `centers` are tuple views built when first read, and two
    partitions are equal when those are.
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


def build_partition(ell: int, M: int, t: int) -> Partition:
    """Partition the weight-t type class as used by the converse argument.

    t = 1: the whole class is a single cell (its diameter is already 2).
    t >= 2: greedy distance-5 code inside the class itself, radius-2 balls
    first, then leftover members to the lowest-indexed codeword within
    distance 4; for t = ell too, whose code also lives inside the class."""
    if ell < 5:
        raise ValueError(f"user count must be >= 5, got {ell}")
    if M < 2:
        raise ValueError(f"message count must be >= 2, got {M}")
    if not 1 <= t <= ell:
        raise ValueError(f"weight must be in 1..{ell}, got {t}")
    tc = enumerate_type_class(ell, M, t)
    if t == 1:
        return Partition(ell, M, t, rows=tc.rows, sizes=(tc.size,), center_rows=tc.rows[:1])
    centers, owner = _greedy(tc, 5)
    # a stable sort keeps each cell in the lexicographic order of the class;
    # on owners of 16 bits or fewer numpy sorts by radix
    owner = owner.astype(np.min_scalar_type(len(centers) - 1))
    rows = tc.rows[owner.argsort(kind="stable")]
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
    exist, or is beyond ENUM_BUDGET, raises as
    enumerate_type_class does, and an ell other than p.ell raises
    ValueError.  Sorted, a member in two places shows as equal
    neighbours; distinct members, as many as the class has, each in
    {0..M}^ell with exactly t nonzero entries, are the class."""
    if ell != p.ell:
        raise ValueError(f"user count {ell} is not the partition's {p.ell}")
    size, sizes = _budgeted_size(p.ell, p.M, p.t), p.sizes
    s = _lex_sorted(p.rows)
    # each sorted row as one opaque scalar of its bytes: neighbours compare whole
    rows = s.view(np.dtype((np.void, s.shape[1] * s.itemsize))).ravel()
    disjoint = bool(np.logical_and.reduce(rows[1:] != rows[:-1]))
    diameters, weights = _diameters(p)
    cover = len(s) == size and weights[p.t] == len(s)
    cover = cover and np.minimum.reduce(s, axis=None) >= 0 and np.maximum.reduce(s, axis=None) <= p.M
    center_d = _min_distance(p.center_rows, p.ell) if len(p.center_rows) > 1 else None
    min_size = min(sizes) if sizes else 0
    max_diam = max(diameters) if diameters else 0
    return PartitionReport(
        disjoint_cover=disjoint and bool(cover), size_ok=min_size >= ell + 1, diameter_ok=max_diam <= 8,
        min_set_size=min_size, max_diameter=max_diam, min_center_distance=center_d,
        set_sizes=sizes, set_diameters=diameters,
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
        "ell": p.ell, "M": p.M, "t": p.t, "num_sets": p.num_sets, "centers": "@centers", "sets": "@sets",
        "report": {
            "disjoint_cover": report.disjoint_cover, "min_set_size": report.min_set_size,
            "max_diameter": report.max_diameter, "min_center_distance": report.min_center_distance,
            "ok": report.ok,
        },
    }
    text = json.dumps(payload, indent=2)
    for marker, rows in arrays.items():
        text = text.replace(marker, rows, 1)
    return text
