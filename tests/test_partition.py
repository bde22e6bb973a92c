import hashlib
import json
import math
import sys
import tracemalloc
from itertools import combinations, product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manyaccess import bounds
from manyaccess import partition as partition_module
from manyaccess.errors import ComplexityBudgetError
from manyaccess.partition import (
    Partition,
    PartitionReport,
    build_partition,
    enumerate_type_class,
    greedy_min_dist_code,
    hamming,
    partition_to_json,
    type_class_size,
    typeclass_probability,
    verify_partition,
)


# ---------------------------------------------------------------------------
# pure-Python oracles: the loop versions the numpy code must reproduce
# ---------------------------------------------------------------------------

def oracle_enumerate(ell, M, t):
    """The class as sorted tuples, built member by member."""
    members = []
    for support in combinations(range(ell), t):
        for vals in product(range(1, M + 1), repeat=t):
            w = [0] * ell
            for pos, val in zip(support, vals):
                w[pos] = val
            members.append(tuple(w))
    members.sort()
    return tuple(members)


def as_tuples(rows):
    """Rows of an integer array as a list of tuples of ints."""
    return list(map(tuple, rows.tolist()))


def oracle_greedy_code(tc, dmin=5):
    code = []
    for w in tc.members:
        if all(hamming(w, c) >= dmin for c in code):
            code.append(w)
    return code


def oracle_build(ell, M, t):
    tc = enumerate_type_class(ell, M, t)
    if t == 1:
        return Partition.from_sets(ell, M, t, centers=(tc.members[0],), sets=(tc.members,))
    code = oracle_greedy_code(tc)
    cells = [[] for _ in code]
    for w in tc.members:
        dists = [hamming(w, c) for c in code]
        ring2 = [j for j, dj in enumerate(dists) if dj <= 2]
        if ring2:
            cells[ring2[0]].append(w)
            continue
        cells[next(j for j, dj in enumerate(dists) if dj <= 4)].append(w)
    return Partition.from_sets(ell, M, t, centers=code, sets=cells)


def oracle_verify(p, ell):
    seen = set()
    disjoint = True
    for cell in p.sets:
        for w in cell:
            if w in seen:
                disjoint = False
            seen.add(w)
    cover = seen == set(enumerate_type_class(p.ell, p.M, p.t).members)
    sizes = tuple(len(cell) for cell in p.sets)
    diameters = tuple(
        max((hamming(a, b) for a, b in combinations(cell, 2)), default=0) for cell in p.sets
    )
    center_d = (
        min(hamming(a, b) for a, b in combinations(p.centers, 2))
        if len(p.centers) > 1
        else None
    )
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


class TestHamming:
    def test_identical(self):
        assert hamming((0, 1, 2), (0, 1, 2)) == 0

    def test_single_difference(self):
        assert hamming((0, 1, 2), (0, 2, 2)) == 1

    def test_mismatch(self):
        with pytest.raises(ValueError):
            hamming((0, 1), (0, 1, 2))

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=16),
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=16),
    )
    @settings(max_examples=60)
    def test_positionwise_oracle(self, a, b):
        m = min(len(a), len(b))
        a, b = tuple(a[:m]), tuple(b[:m])
        assert hamming(a, b) == sum(1 for x, y in zip(a, b) if x != y)


class TestTypeClass:
    def test_size_formula(self):
        tc = enumerate_type_class(6, 3, 2)
        assert tc.size == type_class_size(6, 3, 2) == math.comb(6, 2) * 9

    def test_budget(self):
        # one member over the budget refuses a class that would take 2.6 MB;
        # the budget that just holds it builds it
        size = type_class_size(10, 4, 5)
        with pytest.raises(ComplexityBudgetError):
            enumerate_type_class(10, 4, 5, budget=size - 1)
        assert enumerate_type_class(10, 4, 5, budget=size).size == size

    def test_members_have_correct_weight(self):
        tc = enumerate_type_class(5, 2, 3)
        assert all(sum(1 for x in w if x != 0) == 3 for w in tc.members)

    @pytest.mark.parametrize(
        "ell,M,t",
        [(ell, M, t) for ell in range(5, 9) for M in (1, 2, 3) for t in range(ell + 1)]
        + [(5, 130, 1)],
    )
    def test_matches_oracle(self, ell, M, t):
        tc = enumerate_type_class(ell, M, t)
        assert tc.members == oracle_enumerate(ell, M, t)
        assert tc.rows.shape == (type_class_size(ell, M, t), ell)
        assert tc.rows.dtype == np.min_scalar_type(M)

    def test_budget_checked_before_any_allocation(self):
        # 924 * 3**6 rows of 12 bytes, about 8 MB, if it were built
        tracemalloc.start()
        try:
            with pytest.raises(ComplexityBudgetError):
                enumerate_type_class(12, 3, 6, budget=10**5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestGreedyCode:
    def test_dmin_one_keeps_everything(self):
        tc = enumerate_type_class(5, 2, 2)
        assert len(greedy_min_dist_code(tc, dmin=1)) == tc.size

    def test_single_member_class(self):
        tc = enumerate_type_class(5, 1, 0)
        assert as_tuples(greedy_min_dist_code(tc)) == [(0, 0, 0, 0, 0)]

    def test_distance_and_covering_exhaustive(self):
        tc = enumerate_type_class(6, 2, 3)
        code = greedy_min_dist_code(tc, dmin=5)
        for a, b in combinations(code, 2):
            assert hamming(a, b) >= 5
        for w in tc.members:
            assert min(hamming(w, c) for c in code) <= 4


class TestBuildPartition:
    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_partition(4, 2, 1)
        with pytest.raises(ValueError):
            build_partition(6, 1, 1)
        with pytest.raises(ValueError):
            build_partition(6, 2, 0)

    def test_weight_one_single_cell(self):
        p = build_partition(5, 2, 1)
        assert p.num_sets == 1
        assert len(p.sets[0]) == 5 * 2  # ell * M >= ell + 1

    def test_verified_example(self):
        p = build_partition(6, 2, 3)
        rep = verify_partition(p, 6)
        assert rep.ok
        assert rep.min_set_size >= 7
        assert rep.max_diameter <= 8
        assert rep.min_center_distance is None or rep.min_center_distance >= 5

    def test_verify_refuses_another_ell(self):
        # size_ok would be judged against the argument and the diameters
        # against p.ell, a wrong report without a word
        p = build_partition(6, 2, 3)
        with pytest.raises(ValueError, match="user count 5"):
            verify_partition(p, 5)
        assert verify_partition(p, 6).ok

    def test_negative_control_far_points(self):
        # hand-built bad partition: two members at distance > 8 in one cell
        tc = enumerate_type_class(9, 2, 9, budget=10**6)
        w_far = tc.members[0]
        w_far2 = tuple(2 if x == 1 else 1 for x in w_far)
        assert hamming(w_far, w_far2) == 9
        bad = Partition.from_sets(9, 2, 9, centers=(w_far,), sets=((w_far, w_far2),))
        rep = verify_partition(bad, 9)
        assert rep == oracle_verify(bad, 9)
        assert rep.max_diameter == 9 and not rep.diameter_ok and not rep.ok

    def test_negative_control_incomplete_cover(self):
        tc = enumerate_type_class(5, 2, 2)
        partial = Partition.from_sets(5, 2, 2, centers=(tc.members[0],), sets=((tc.members[0],),))
        rep = verify_partition(partial, 5)
        assert rep == oracle_verify(partial, 5)
        assert not rep.disjoint_cover

    def test_json_dump(self):
        p = build_partition(5, 2, 2)
        rep = verify_partition(p, 5)
        payload = json.loads(partition_to_json(p, rep))
        assert payload["ell"] == 5 and payload["report"]["ok"] is True
        assert payload["num_sets"] == len(payload["sets"])


ORACLE_CELLS = [(ell, M, t) for ell in (5, 6) for M in (2, 3) for t in range(1, ell + 1)]


class TestAgainstOracle:
    @pytest.mark.parametrize("ell,M,t", ORACLE_CELLS)
    def test_partition_and_report(self, ell, M, t):
        p = build_partition(ell, M, t)
        assert p == oracle_build(ell, M, t)
        assert verify_partition(p, ell) == oracle_verify(p, ell)

    @pytest.mark.parametrize("dmin", [0, 1, 2, 3, 4, 5, 6, 9])
    def test_greedy_code_any_dmin(self, dmin):
        # 130 > 127 values: a fixed int8 would wrap them
        for cls in ((6, 3, 3), (5, 130, 1)):
            tc = enumerate_type_class(*cls)
            code = greedy_min_dist_code(tc, dmin=dmin)
            assert code.dtype == tc.rows.dtype and not code.flags.writeable
            assert as_tuples(code) == oracle_greedy_code(tc, dmin=dmin), cls

    def test_large_alphabet(self):
        # 130 > 127: a fixed int8 would wrap these values
        p = build_partition(5, 130, 1)
        assert p == oracle_build(5, 130, 1)
        rep = verify_partition(p, 5)
        assert rep == oracle_verify(p, 5) and rep.ok

    def test_large_alphabet_values_far_apart(self):
        # 256 wraps to 0 in any 8-bit dtype
        cell = ((0, 0, 0, 0, 256), (0, 0, 0, 0, 200), (0, 0, 0, 0, 0))
        bad = Partition.from_sets(5, 130, 1, centers=(cell[0], cell[2]), sets=(cell,))
        rep = verify_partition(bad, 5)
        assert rep == oracle_verify(bad, 5)
        assert not rep.disjoint_cover
        assert rep.max_diameter == 1 and rep.min_center_distance == 1


# values that an 8-bit or a lossy encoding would merge: -1 and 255 share
# a byte, 256 wraps to 0, 2**40 needs 64 bits
KERNEL_VALUES = st.sampled_from([-1, 0, 1, 2, 255, 256, 2**40])


@st.composite
def hand_built(draw, centered=False):
    """A partition of arbitrary members; with `centered`, one center per
    cell, which the diameter scan of a large cell takes as its pivot."""
    ell = draw(st.integers(min_value=1, max_value=9))
    member = st.tuples(*[KERNEL_VALUES] * ell)
    cells = draw(st.lists(st.lists(member, max_size=6), max_size=4))
    if centered:
        centers = draw(st.lists(member, min_size=len(cells), max_size=len(cells)))
    else:
        centers = draw(st.lists(member, max_size=5))
    M = draw(st.integers(min_value=1, max_value=3))
    t = draw(st.integers(min_value=0, max_value=min(ell, 3)))
    return Partition.from_sets(ell, M, t, centers=centers, sets=cells)


class TestDistanceKernel:
    @given(hand_built())
    @settings(max_examples=150, deadline=None)
    def test_hand_built_against_oracle(self, p):
        assert verify_partition(p, p.ell) == oracle_verify(p, p.ell)

    def test_build_and_verify_memory(self):
        tracemalloc.start()
        try:
            assert verify_partition(build_partition(8, 3, 5), 8).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024 * 1024

    def test_wide_alphabet_verifies_in_small_tables(self):
        # one cell of 15 000 members over 3001 values: a one-hot table of
        # all (position, value) pairs would hold 225 million float32
        p = build_partition(5, 3000, 1)
        tracemalloc.start()
        try:
            rep = verify_partition(p, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.ok and rep.max_diameter == 2
        assert peak < 8 * 1024 * 1024

    def test_large_class_tables_bounded(self):
        # 126 720 members: one-hot as a whole over the values 0..4 it
        # would take 30 MB of float32
        tracemalloc.start()
        try:
            assert verify_partition(build_partition(12, 4, 4), 12).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024

    def test_cells_encoded_a_block_at_a_time(self):
        # 120 000 members in 10 cells of up to 27 751: one-hot over 11
        # values, the largest cell whole would take 12 MB of float32
        p = build_partition(10, 10, 3)
        tracemalloc.start()
        try:
            assert verify_partition(p, 10).ok
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 1024 * 1024

    @pytest.mark.parametrize("ell,M,t", [(6, 3, 3), (6, 3, 5), (8, 2, 5)])
    def test_small_tables_same_partition(self, ell, M, t, monkeypatch):
        # every table a few rows: the greedy code and the ownership cross
        # block boundaries, and each cell of more than 16 members takes the
        # capped, radius-ordered scan over many Gram blocks
        monkeypatch.setattr(partition_module, "_TABLE", 100)
        monkeypatch.setattr(partition_module, "_BLOCK", 16)
        p = build_partition(ell, M, t)
        payload = partition_to_json(p, verify_partition(p, ell))
        assert hashlib.sha256(payload.encode()).hexdigest() == CRITERION_08_DIGESTS[ell, M, t], PINNED_ON
        tc = enumerate_type_class(ell, M, t)
        for dmin in (2, 4, 6):
            assert as_tuples(greedy_min_dist_code(tc, dmin)) == oracle_greedy_code(tc, dmin)

    @pytest.mark.parametrize("ell,M,t", [(6, 3, 3), (6, 3, 5), (8, 2, 5)])
    def test_owners_across_blocks(self, ell, M, t, monkeypatch):
        # blocks of a few members: many a member's ring-2 codeword is picked
        # in a later block, which only the last check of the members with
        # no ring-2 codeword yet against the later codewords finds.  That
        # check alone splits member indices into chunks in build, so the
        # spy sees exactly the members it compares
        monkeypatch.setattr(partition_module, "_TABLE", 100)
        monkeypatch.setattr(partition_module, "_BLOCK", 16)
        late, split = [], np.split

        def spy(indices, at):
            late.extend(indices.tolist())
            return split(indices, at)

        with monkeypatch.context() as m:
            m.setattr(np, "split", spy)
            p = build_partition(ell, M, t)
        checked = as_tuples(enumerate_type_class(ell, M, t).rows[late])
        assert p == oracle_build(ell, M, t)
        # a checked member within 2 of a codeword had none by its block's
        # end: 65, 72 and 304 members here
        assert any(min(hamming(w, c) for c in p.centers) <= 2 for w in checked)


def _count_gram_blocks(monkeypatch):
    """A one-element list that counts every Gram product computed from now."""
    count = [0]
    blocks = partition_module._gram_blocks

    def counted(*args):
        for block in blocks(*args):
            count[0] += 1
            yield block

    monkeypatch.setattr(partition_module, "_gram_blocks", counted)
    return count


def _small_blocks(mp):
    """Row blocks of 2, so a cell of 3 or more members takes the capped,
    radius-ordered scan and spans several blocks.  Tables of 48 entries
    hold 2 one-hot rows of 8 positions over three values, so such a cell
    takes Gram blocks of 2 rows by 2 columns (2 by 3 over two values); a
    cell whose rows are wider than 24 columns takes blocks of one row."""
    mp.setattr(partition_module, "_BLOCK", 2)
    mp.setattr(partition_module, "_TABLE", 48)


class TestCappedScan:
    def test_fewer_gram_products(self, monkeypatch):
        # the all-pairs scan of the same class computes 28 products
        count = _count_gram_blocks(monkeypatch)
        p = build_partition(7, 3, 5)
        payload = partition_to_json(p, verify_partition(p, 7))
        assert hashlib.sha256(payload.encode()).hexdigest() == CRITERION_08_DIGESTS[7, 3, 5], PINNED_ON
        assert count[0] < 28

    def test_diameter_below_every_cap(self, monkeypatch):
        # every member has weight 3 and lies at distance 6 from the center,
        # so the caps read min(8, 3 + 3, 6 + 6) = 6 against a diameter of
        # 3: no block can be skipped or cut, the quadratic worst case
        _small_blocks(monkeypatch)
        cell = [(a, b, c, 0, 0, 0, 0, 0) for a, b, c in product((1, 2), repeat=3)]
        p = Partition.from_sets(8, 2, 3, centers=[(0, 0, 0, 0, 0, 1, 1, 1)], sets=[cell])
        count = _count_gram_blocks(monkeypatch)
        rep = verify_partition(p, 8)
        assert rep == oracle_verify(p, 8) and rep.set_diameters == (3,)
        # row blocks of 2 against every later column block of 2: 4+3+2+1
        assert count[0] == 10

    def test_only_diameter_pair_in_last_block(self, monkeypatch):
        # a and b, the only pair at distance 4, are nearest the center 0
        # (radius 2 against 3), so the radius order puts them last, in the
        # last row block; every other pair is at distance 3 or less
        _small_blocks(monkeypatch)
        a, b = (1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0)
        fill = [(1, 1, 1, 0, 0, 0, 0, 0), (1, 0, 1, 1, 0, 0, 0, 0),
                (0, 1, 1, 1, 0, 0, 0, 0), (1, 1, 0, 1, 0, 0, 0, 0)]
        p = Partition.from_sets(8, 1, 2, centers=[(0,) * 8], sets=[[a, b] + fill])
        rep = verify_partition(p, 8)
        assert rep == oracle_verify(p, 8) and rep.set_diameters == (4,)

    def test_farthest_member_outside_diameter_pair(self, monkeypatch):
        # the cell above with f added at radius 4, the farthest from the
        # center 0: f is within 2 of every member, below the cap
        # min(8, 4 + 3, 4 + 3) = 7, so the scan must still find a and b at
        # 4, in blocks whose radii 2 + 2 exceed the probe's 2
        _small_blocks(monkeypatch)
        a, b, f = (1, 1, 0, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0, 0), (1, 1, 1, 1, 0, 0, 0, 0)
        fill = [(1, 1, 1, 0, 0, 0, 0, 0), (1, 0, 1, 1, 0, 0, 0, 0),
                (0, 1, 1, 1, 0, 0, 0, 0), (1, 1, 0, 1, 0, 0, 0, 0)]
        p = Partition.from_sets(8, 1, 2, centers=[(0,) * 8], sets=[[a, b] + fill + [f]])
        count = _count_gram_blocks(monkeypatch)
        rep = verify_partition(p, 8)
        assert rep == oracle_verify(p, 8) and rep.set_diameters == (4,)
        assert count[0] >= 1

    def test_probe_settles_diameter_at_cap(self, monkeypatch):
        # one cell of 16 000 members, each of weight 2: the member farthest
        # from the center meets another at the cap 2 + 2 = 4, so no Gram
        # product is needed
        p = build_partition(5, 40, 2)
        count = _count_gram_blocks(monkeypatch)
        rep = verify_partition(p, 5)
        assert p.sizes == (16000,) and rep.ok and rep.set_diameters == (4,)
        assert count[0] == 0

    def test_farthest_pair_given_last(self, monkeypatch):
        # a and b lie at radius 4 from the center 0, the rest at radius 1;
        # given last, they must be moved first, or the blocks that hold
        # them would read as radius 1 + 1 and be skipped
        _small_blocks(monkeypatch)
        a, b = (1, 1, 1, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 1, 1, 1)
        near = [tuple(int(j == i) for j in range(8)) for i in (0, 1, 4, 5)]
        p = Partition.from_sets(8, 1, 2, centers=[(0,) * 8], sets=[near + [a, b]])
        rep = verify_partition(p, 8)
        assert rep == oracle_verify(p, 8) and rep.set_diameters == (8,)

    def test_wide_alphabet_settled_by_probe(self, monkeypatch):
        # one cell of 100 000 members over 20 001 values: a column for every
        # (position, value) pair (100 005) would leave row blocks of 5, but
        # the member farthest from the center meets another at the cap
        # 1 + 1 = 2, so no Gram product is needed
        p = build_partition(5, 20000, 1)
        count = _count_gram_blocks(monkeypatch)
        rep = verify_partition(p, 5)
        assert rep.ok and rep.max_diameter == 2
        assert count[0] == 0

    @given(st.one_of(hand_built(), hand_built(centered=True)))
    @settings(max_examples=150, deadline=None)
    def test_hand_built_against_oracle_small_blocks(self, p):
        with pytest.MonkeyPatch.context() as mp:
            _small_blocks(mp)
            assert verify_partition(p, p.ell) == oracle_verify(p, p.ell)


def brute_diameters(p):
    """Each cell's largest pairwise distance, every pair compared."""
    return tuple(max((hamming(a, b) for a, b in combinations(cell, 2)), default=0) for cell in p.sets)


class TestBatchedProbe:
    """Every cell of a partition is probed at once; these are the cells
    whose bookkeeping differs: no member, one member, no center of their
    own, or a center the rows' dtype cannot hold."""

    A, B, C = (1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (1, 0, 1, 0, 1, 0)

    def check(self, p):
        assert partition_module._diameters(p)[0] == brute_diameters(p)
        assert verify_partition(p, p.ell) == oracle_verify(p, p.ell)
        with pytest.MonkeyPatch.context() as mp:
            _small_blocks(mp)
            assert verify_partition(p, p.ell) == oracle_verify(p, p.ell)

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_empty_cell(self, where):
        cells = [[self.A, self.B, self.C], [(2, 2, 0, 0, 0, 0), (0, 0, 0, 0, 2, 2)]]
        cells.insert(where, [])
        centers = [(0,) * 6] * 3
        p = Partition.from_sets(6, 2, 2, centers=centers, sets=cells)
        self.check(p)
        assert p.sizes[where] == 0 and partition_module._diameters(p)[0][where] == 0

    def test_one_member_cells(self):
        p = Partition.from_sets(6, 2, 2, centers=[self.C, self.A, self.B],
                                sets=[[self.A], [self.B, self.C], [self.C]])
        self.check(p)
        assert partition_module._diameters(p)[0] == (0, 3, 0)

    def test_more_cells_than_centers(self):
        # one center for three cells: each cell's first member is its pivot
        far = (2, 2, 2, 2, 2, 2)
        p = Partition.from_sets(6, 2, 2, centers=[self.A],
                                sets=[[self.A, self.B, far], [self.C, self.A], [far, self.B, self.C]])
        self.check(p)
        assert partition_module._diameters(p)[0] == (6, 3, 6)

    @pytest.mark.parametrize("center", [(2**64 - 1,) + (0,) * 5, (-1,) + (0,) * 5],
                             ids=["uint64", "negative"])
    def test_center_in_a_dtype_rows_cannot_hold(self, center):
        # uint8 rows: a uint64 or signed center falls back to the first member
        p = Partition.from_sets(6, 2, 2, centers=[center, center],
                                sets=[[self.A, self.B, self.C], [self.B, (0, 0, 0, 0, 2, 2)]])
        assert p.rows.dtype == np.uint8 and not np.can_cast(p.center_rows.dtype, p.rows.dtype)
        self.check(p)

    @given(st.one_of(hand_built(), hand_built(centered=True)))
    @settings(max_examples=200, deadline=None)
    def test_diameters_against_all_pairs(self, p):
        assert partition_module._diameters(p)[0] == brute_diameters(p)
        with pytest.MonkeyPatch.context() as mp:
            _small_blocks(mp)
            assert partition_module._diameters(p)[0] == brute_diameters(p)


class TestPartitionArrays:
    def test_build_keeps_read_only_arrays(self):
        p = build_partition(6, 2, 3)
        assert p.rows.shape == (sum(p.sizes), 6) and p.center_rows.shape == (p.num_sets, 6)
        assert not p.rows.flags.writeable and not p.center_rows.flags.writeable
        cells = np.split(p.rows, np.cumsum(p.sizes)[:-1])
        assert p.sets == tuple(tuple(as_tuples(cell)) for cell in cells)
        assert p.centers == tuple(as_tuples(p.center_rows))

    def test_equal_partitions_hash_equal(self):
        p = build_partition(6, 2, 3)
        q = Partition.from_sets(6, 2, 3, centers=p.centers, sets=p.sets)
        assert p == q and hash(p) == hash(q) and len({p, q}) == 1

    def test_constructor_checks(self):
        rows = np.zeros((3, 5), dtype=np.uint8)
        with pytest.raises(ValueError):
            Partition(5, 2, 1, rows=rows, sizes=(2,), center_rows=rows[:1])
        with pytest.raises(ValueError):
            Partition(5, 2, 1, rows=rows.astype(float), sizes=(3,), center_rows=rows[:1])
        with pytest.raises(ValueError):
            Partition(5, 2, 1, rows=rows, sizes=(3,), center_rows=rows[:1, :4])
        with pytest.raises(ValueError):
            Partition(5, 2, 1, rows=rows[0], sizes=(5,), center_rows=rows[:1])


def _edited(p, edit):
    """p with its cells replaced by edit(list of cell lists)."""
    cells = [list(cell) for cell in p.sets]
    edit(cells)
    return Partition.from_sets(p.ell, p.M, p.t, centers=p.centers, sets=cells)


class TestBadPartitionsAgainstOracle:
    @pytest.fixture
    def good(self):
        p = build_partition(6, 2, 3)
        assert p.num_sets >= 2
        return p

    def _check(self, bad):
        rep = verify_partition(bad, bad.ell)
        assert rep == oracle_verify(bad, bad.ell)
        return rep

    def test_member_in_two_cells(self, good):
        rep = self._check(_edited(good, lambda c: c[0].append(c[1][0])))
        assert not rep.disjoint_cover

    def test_member_of_wrong_weight(self, good):
        def edit(cells):
            cells[0][-1] = (1, 1, 0, 0, 0, 0)

        rep = self._check(_edited(good, edit))
        assert not rep.disjoint_cover

    def test_value_above_M_never_aliases(self):
        # (0,0,0,0,3) and (0,0,0,1,0) share the base-3 code 3: an integer
        # encoding of the vectors would count the swap as a cover
        p = build_partition(5, 2, 1)

        def edit(cells):
            cells[0][cells[0].index((0, 0, 0, 1, 0))] = (0, 0, 0, 0, 3)

        rep = self._check(_edited(p, edit))
        assert not rep.disjoint_cover and not rep.ok

    def test_wrong_length_raises(self, good):
        with pytest.raises(ValueError):
            verify_partition(_edited(good, lambda c: c[0].append((1, 1, 1))), 6)
        with pytest.raises(ValueError):
            verify_partition(_edited(good, lambda c: c.append([(1, 1, 1)])), 6)


class TestCountedCover:
    """Rows as many as the class has, distinct, each in {0..M}^ell with t
    nonzero entries, are the class; each case below breaks one of these."""

    @pytest.fixture
    def good(self):
        return build_partition(6, 2, 3)

    def test_duplicate_beside_missing_member(self, good):
        def edit(cells):
            cells[0][-1] = cells[1][0]

        bad = _edited(good, edit)
        assert len(bad.rows) == type_class_size(6, 2, 3)
        rep = verify_partition(bad, 6)
        assert rep == oracle_verify(bad, 6) and not rep.disjoint_cover

    @pytest.mark.parametrize(
        "new",
        [(1, 1, 0, 0, 0, 0), (3, 1, 1, 0, 0, 0), (-1, 1, 1, 0, 0, 0)],
        ids=["weight_t_minus_1", "value_M_plus_1", "negative_value"],
    )
    def test_row_outside_class(self, good, new):
        def edit(cells):
            cells[0][-1] = new

        bad = _edited(good, edit)
        assert len(bad.rows) == type_class_size(6, 2, 3)
        rep = verify_partition(bad, 6)
        assert rep == oracle_verify(bad, 6) and not rep.disjoint_cover

    @pytest.mark.parametrize("M,t", [(2, -1), (2, 7), (0, 3)])
    def test_class_that_does_not_exist_raises(self, good, M, t):
        p = Partition.from_sets(6, M, t, centers=good.centers, sets=good.sets)
        with pytest.raises(ValueError):
            verify_partition(p, 6)

    def test_class_over_budget_raises(self):
        # two members of a class of C(20, 10) 3^10, about 1.1e10
        a, b = (1,) * 10 + (0,) * 10, (0,) * 10 + (1,) * 10
        p = Partition.from_sets(20, 3, 10, centers=[a], sets=[[a, b]])
        with pytest.raises(ComplexityBudgetError):
            verify_partition(p, 20)


class TestMemberValues:
    # b differs from a in one position only by a fraction, which an
    # integer cast would erase: the cell's diameter would read 0, not 1
    a = (1, 1, 1, 0, 0, 0)

    def test_fractional_value_raises(self):
        b = (1, 1, 1, 0.5, 0, 0)
        tuples = SimpleNamespace(ell=6, M=2, t=3, centers=(self.a,), sets=((self.a, b),))
        assert oracle_verify(tuples, 6).set_diameters == (1,)
        with pytest.raises(ValueError):
            verify_partition(Partition.from_sets(6, 2, 3, (self.a,), ((self.a, b),)), 6)

    def test_negative_beside_large_value_stays_exact(self):
        # -1 beside 2**53: the smallest common type of int8 and uint64 is
        # float64, which would merge 2**53 and 2**53 + 1
        cell = ((-1, 2**53), (-1, 2**53 + 1))
        p = Partition.from_sets(2, 1, 1, centers=cell, sets=(cell,))
        assert p.sets == (cell,)
        rep = verify_partition(p, 2)
        assert rep == oracle_verify(p, 2)
        assert rep.set_diameters == (1,) and rep.min_center_distance == 1

    def test_value_beyond_64_bits_raises(self):
        b = (1, 1, 1, 2**64, 0, 0)
        with pytest.raises(ValueError):
            verify_partition(Partition.from_sets(6, 2, 3, (self.a,), ((self.a, b),)), 6)
        with pytest.raises(ValueError):
            verify_partition(Partition.from_sets(6, 2, 3, (self.a, b), ((self.a,),)), 6)

    def test_small_beside_top_uint64_values(self):
        # np.array makes 2**64 - 1 beside 0 a float64, which would merge
        # 2**64 - 1 and 2**64 - 2; uint64 holds both exactly
        cell = ((2**64 - 1, 0), (2**64 - 2, 0))
        p = Partition.from_sets(2, 1, 1, centers=cell, sets=(cell,))
        assert p.rows.dtype == np.uint64 and p.sets == (cell,)
        rep = verify_partition(p, 2)
        assert rep == oracle_verify(p, 2)
        assert rep.set_diameters == (1,) and rep.min_center_distance == 1

    @pytest.mark.parametrize("b", [(2**64 - 1, 0.5), (2**63, -1)], ids=["fraction", "negative"])
    def test_no_64_bit_dtype_raises(self, b):
        # both mixes come out float64 too, and no 64-bit integer dtype holds them
        cell = ((2**64 - 1, 0), b)
        with pytest.raises(ValueError):
            Partition.from_sets(2, 1, 1, centers=cell[:1], sets=(cell,))


# the numpy release these digests were pinned on: another release may draw
# Generator variates or round a reduction differently, so a failure names both
PINNED_ON = f"pinned on numpy 2.4.6, running numpy {np.__version__}"


# sha256 of partition_to_json(p, verify_partition(p, ell)) for every cell of
# acceptance criterion 08, pinned from the pure-Python implementation
CRITERION_08_DIGESTS = {
    (5, 2, 1): "9867c4091214707e93a2e1c507e786909e7a85d50811f76907473e68c7c7fa71",
    (5, 2, 2): "e8be029ee06df44f2f5e392984d1e1006ceac700210ff5f9d92f074b9d93c4b6",
    (5, 2, 3): "d1a62a10610f5ed2afea6f1e8fbd5b564dd1a96b1cd84eb22ca55c920f0b20ff",
    (5, 2, 4): "4e9aead23d2cff45533573844e8bbfe6c5f7f97026d07451d69adf598b85ba88",
    (5, 2, 5): "da82effd872210d1d743842b990525c6679a3039aa2af441b1c0da2f4b9f1322",
    (5, 3, 1): "67f66f084785c2e44d3710b5641148ae093cfbae984e2611a91535ca83d190b8",
    (5, 3, 2): "629898ec7c57231fb927a5aad4b352ba287de9e0cac77bdfb5a13c78230ee87e",
    (5, 3, 3): "440ce4c7de9719410e2fb2dbf2ce41a0c3c9d9b8773e5afcd76bbdb545dec70c",
    (5, 3, 4): "bf5c16c0fe46d2fd967bec6a2d1713491a378e91d0750159d4afa62e09bbaa18",
    (5, 3, 5): "548e3b4d63913e5d4aa7dcf9b05e9d90047a3d9ff7d53431985bf22cff44b67e",
    (6, 2, 1): "6931a7a532925618323e2e5cd53f45702876f2752b0e70e41a9fa2bf5ea02cd0",
    (6, 2, 2): "6588fa7a6405677cee055e23973b9d6bfe75c995786b9b1c2c6380a4337f8551",
    (6, 2, 3): "d9f1554e25a2473cd656b997981196c312a1f0af764cb25ef7690b37a48b257f",
    (6, 2, 4): "273f7a89a603e930759da0553bddf2d6134e753b4411e98813253d5d6ab0aaa3",
    (6, 2, 5): "49cd7b9577e718181af876120eca5d646659e3a1458b73b0db5df4e5fa3b45bb",
    (6, 2, 6): "b99f5843f3ae1c27de5cbc54274f008a4b23abb9814dbf6bf2032f9a44d69269",
    (6, 3, 1): "a1f188d661b5b5c2b5338c71f8a1e46e48e3e29a6ad9ec347c6c5d4b7dcddaad",
    (6, 3, 2): "e692cb47a0a4de42a3e9abb8e564517e94a344e560d12ce7b5f04c7d6c210d7a",
    (6, 3, 3): "26b5e1901e2c2d2fead807071cc3f2e8f8f38c9183325f273ba3d98fd793ae5e",
    (6, 3, 4): "43b334449d646a6da4836b14eee7ce12721adb214631d563bef12b16789b1083",
    (6, 3, 5): "4d84948473dc81f4d48674010d87851e5e401fc5782e37f5583b88d39b979bcd",
    (6, 3, 6): "9c94d12f122763b874116421c842d05bdc5e783f67718de73d201f896f731f56",
    (7, 2, 1): "d03129603783312860d060a5750ec2e08594e8d3436342c5b64e0d84f316b532",
    (7, 2, 2): "64e530e0eba3b9a404e2326e27853869b0c255745fdf6f3086be8738e5eb8107",
    (7, 2, 3): "8f0b7fccc41c8dad834dad3fdc15725e2154917a31af7e9e14e4da9a9d0c99be",
    (7, 2, 4): "cc9a21f037aaeedbcd3905a359b3dcbf49f988538d73ced0636e5da9c089fe40",
    (7, 2, 5): "a9df9cfbed6de1ad60ee03d6f8070f26a55b45c135d5a966509ae676f3d2d787",
    (7, 2, 6): "87380322c1e50a145e4ae077955479e9c81011f6dc4a1745f3dab937e92cf3ed",
    (7, 2, 7): "6d930d5d53f022dcf4b7ded66fd5aeb28324e80f368213abebd91f298dd90ac9",
    (7, 3, 1): "f0334c0321b48a3bcbeb84a9370720cbf05eda3abb109fd9ddb83eb8a703929d",
    (7, 3, 2): "6d3a099058d9381e1e4e0dd02a2f138b5da1e3c6d22224fc5b062ad58fe92b05",
    (7, 3, 3): "da772078e41e60abecae14aca010a83bd82fce9c08b9e6d2e9a51c4041a36dab",
    (7, 3, 4): "cd8d7fadf3b8a240cb226ab1fbc95c039948f8460fb0c2154ace54e7c795788a",
    (7, 3, 5): "b550afb0ff667d8aa42a8c3d25142809b2660d9e68f382b32e532ff8a822b1f0",
    (7, 3, 6): "ce1f4e5a689f8aa862c3fbb3b173201d908b38d4603237470b81d4e0443ef107",
    (7, 3, 7): "5d24e1c800d6707c21818d36c0b2f782f4291ebcf56346d4ec7940a6399425e0",
    (8, 2, 1): "0a7002ad81e052c5e491cf5aebf20c9313652872f8186615e92fb92eaa8d0881",
    (8, 2, 2): "1ff9580736f6e9f8cee27c69618bc10aef11373428ba457676adfa3d9696da4e",
    (8, 2, 3): "d29c428ea64d7693709fc6d247e9b75c174fd50d51b6cbb61678066dc7d1586d",
    (8, 2, 4): "6e336a0eab421a8845fcdc2397716c5d3892afe021d8c3ff4eda52b754f8785b",
    (8, 2, 5): "71f5cca20f1def1f68b99fac32abbd3c04d2be039851e72e0a6614f23798e2ed",
    (8, 2, 6): "36fd8ee7287e2ca558fbcede8ebfc963527d10e0a54aa22185b1df02ffe36cc4",
    (8, 2, 7): "54dcca14f1cd273148bd2a4e17c91f892654a7dc4451c77393fe69995eff5893",
    (8, 2, 8): "9d6fde55576963957465c8777977e3c429fbc8064449d29060c0ad3810448fcc",
    (8, 3, 1): "bbdffd3da1f7d1b6e337cbb210e345d09d0e748024226b97fa3f887685782da0",
    (8, 3, 2): "b7c6f5f6c21d14fc4063ee9e5ec0552dd4ddac065147354badb17b61fb6e5de2",
    (8, 3, 3): "bb00c5dc7b6c20e8fc73a6a2cee0345b16ce14f59288e05bf794ae1163272986",
    (8, 3, 4): "6878dc032aef9f5e145011bfd9cf17562274a6cda9987427661f52c01dbf8418",
    (8, 3, 5): "fbb840542a8c0784674d405543c83779082f5720a541f01048c27960f2862496",
    (8, 3, 6): "9b133075eb318b65ff1cedd408b6aa9e4fe00a4462f8540e1792e88f37121b1d",
    (8, 3, 7): "ff10dbf2906b744b0ff61315633217dec1f08ab7db6e4364cb8f0bfde64e254a",
    (8, 3, 8): "4b56353fc02d2a59356f87c69c45d01cc0f4f61a597089b95b77e2061d7639eb",
}


def _profiled_calls(fn) -> int:
    """Python and built-in function calls that fn() makes, as
    sys.setprofile counts them (a ufunc called directly or through an
    operator raises no event)."""
    count = [0]

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            count[0] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count[0] - 1  # the c_call of sys.setprofile(None)


# profiled calls of build_partition + verify_partition per class, as
# counted on numpy 2.4.6 and Python 3.11; each may grow by a quarter
CALLS_PINNED = {(5, 2, 1): 124, (6, 2, 4): 225, (8, 2, 5): 374}


@pytest.mark.parametrize("cell", list(CALLS_PINNED))
def test_build_and_verify_call_count(cell):
    # the grid's median operation is bound by per-call overhead: a
    # per-cell, per-pass or per-wrapper call creeping back shows here
    ell = cell[0]

    def op():
        verify_partition(build_partition(*cell), ell)

    op()  # first-call imports and caches
    calls = _profiled_calls(op)
    assert calls <= 1.25 * CALLS_PINNED[cell], (cell, calls, CALLS_PINNED[cell], PINNED_ON)


def test_criterion_08_json_byte_identical():
    assert len(CRITERION_08_DIGESTS) == 52
    for (ell, M, t), digest in CRITERION_08_DIGESTS.items():
        p = build_partition(ell, M, t)
        payload = partition_to_json(p, verify_partition(p, ell))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, ((ell, M, t), PINNED_ON)


class TestTypeclassProbability:
    def test_no_active(self):
        assert typeclass_probability(6, 3, 0, 0.4) == pytest.approx(0.6**6, rel=1e-12)

    def test_all_active_certain(self):
        assert typeclass_probability(6, 3, 6, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert typeclass_probability(6, 3, 3, 1.0) == 0.0

    @pytest.mark.parametrize("ell,M,t,alpha,message", [
        (6, 3, 7, 0.4, "weight must be in 0..6, got 7"),
        (6, 3, -1, 0.4, "weight must be in 0..6, got -1"),
        (6, 0, 2, 0.4, "message count must be >= 1, got 0"),
        (6, 3, 2, 1.5, r"activity probability must be in \[0,1\], got 1.5"),
        (6, 3, 2, math.nan, "activity probability must be in"),
    ])
    def test_out_of_range(self, ell, M, t, alpha, message):
        with pytest.raises(ValueError, match=message):
            typeclass_probability(ell, M, t, alpha)

    def test_sums_to_one(self):
        total = sum(typeclass_probability(6, 3, t, 0.4) for t in range(7))
        assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("ell,M,t,alpha", [(400, 10**6, 60, 0.1), (2000, 10, 400, 0.2)])
    def test_large_class_is_the_activity_pmf(self, ell, M, t, alpha):
        # |T^t| (alpha/M)^t leaves the floats at both; M cancels from it
        pmf = math.exp(math.log(math.comb(ell, t)) + t * math.log(alpha)
                       + (ell - t) * math.log1p(-alpha))
        value = typeclass_probability(ell, M, t, alpha)
        assert value == pytest.approx(pmf, rel=5e-13)
        assert typeclass_probability(ell, 1, t, alpha) == value
        assert typeclass_probability(ell, 3 * M, t, alpha) == value


def test_birge_composition_with_joint_error_lb():
    # per cell: with worst-case pairwise KL 256E/N0, the hypothesis-testing
    # success bound is at most (256E/N0 + ln2)/ln(ell) because
    # |S|-1 >= ell; hence the per-type error lower bound follows
    ell, M, E, N0 = 6, 2, 0.002, 1.0
    budget_term = (256.0 * E / N0 + math.log(2.0)) / math.log(ell)
    for t in range(1, ell + 1):
        p = build_partition(ell, M, t)
        rep = verify_partition(p, ell)
        assert rep.ok
        for cell in p.sets:
            N = len(cell)
            D = np.full((N, N), 256.0 * E / N0)
            np.fill_diagonal(D, 0.0)
            assert bounds.birge_bound(D) <= budget_term + 1e-12
    # end-to-end: the same constant feeds the closed-form joint error bound
    lb = bounds.joint_error_lb(E, ell, N0, 0.5)
    assert lb.terms["per_type"] == pytest.approx(1.0 - budget_term, rel=1e-12)
