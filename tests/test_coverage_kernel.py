"""The coverage counting kernel against the loops it replaced and the oracle.

The ``_ref_*`` functions are per-t-set loops kept as the reference: the loops
``pcaforge.coverage`` used before its single batched kernel, and the orbit
table of an undeveloped base, from the tests' enumerator in
``orbit_reference``, that the development identity is checked against.  The developed builders' count on a base's difference vectors is
checked against the kernel's scan of the developed rows.  Every case runs under the default chunk budget and under tiny ones.
The default budget holds every t-set of the small arrays in one chunk; the
tiny ones cut the t-sets into chunks of a few, so that a chunk often holds the
end of one prefix's t-sets and the start of the next.  Each budget runs with
the head stage at its default size, at the coupon-collector mean with no
slack, which recounts most t-sets, and above every row count, which never
splits the rows.  Cases also redraw the columns of one t-set, the first or
the middle one in lex order, as the Moser-Tardos builder redraws a defect's,
and recount only the t-sets through those columns with
``coverage._count_tsets``, as ``construct._defects`` updates its table of
short t-sets: the counts of the first array so updated must be the reference
counts of the redrawn one.  The kernel's chunks are lex-rank ranges, whose
t-sets ``coverage._unrank`` builds; it is checked on its own against
``combinations`` and ``coverage._lex_ranks``.  Scans that look at the blocks of ranks they count
spy on ``coverage._count``, which counts head chunks and recounts alike.
Scans of tall arrays spy on ``coverage._fill``, which takes the array of
t-sets a recount reads and copies a column's rows past the head only when a
recount first reads it.
"""

import functools
import hashlib
import math
import tracemalloc
from itertools import combinations, islice, repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from orbit_reference import orbits, rank_weights

from pcaforge import bounds, construct, coverage
from pcaforge.cli import main
from pcaforge.core import Array
from pcaforge.coverage import count_defects, coverage_profile, first_defect, naive_oracle
from pcaforge.galois import constant_rows, cyclic_action, develop, frobenius_action


# -- reference: the loops the kernel replaced --------------------------------------

def _ref_distinct_counts(cells, v, t):
    k = cells.shape[1]
    weights = rank_weights(t, v)
    present = np.zeros(v**t, dtype=bool)
    counts = np.empty(math.comb(k, t), dtype=np.int64)
    for i, tset in enumerate(combinations(range(k), t)):
        ranks = cells[:, tset] @ weights
        present[ranks] = True
        counts[i] = np.count_nonzero(present)
        present[ranks] = False
    return counts


def _ref_first_defect(cells, v, t, m):
    weights = rank_weights(t, v)
    present = np.zeros(v**t, dtype=bool)
    for tset in combinations(range(cells.shape[1]), t):
        ranks = cells[:, tset] @ weights
        present[ranks] = True
        count = int(np.count_nonzero(present))
        present[ranks] = False
        if count < m:
            return coverage.Defect(tset, count)
    return None


def _ref_count_defects(cells, v, t, m):
    weights = rank_weights(t, v)
    present = np.zeros(v**t, dtype=bool)
    defects = 0
    for tset in combinations(range(cells.shape[1]), t):
        ranks = cells[:, tset] @ weights
        present[ranks] = True
        count = int(np.count_nonzero(present))
        present[ranks] = False
        if count < m:
            defects += 1
    return defects


def _ref_orbit_coverage(a, t, structure):
    """``covered[i, o]``: does the i-th t-set of base ``a`` touch orbit o?

    Developing the base replaces each covered orbit by all its members, so
    the developed distinct-tuple count per t-set is ``covered @ lengths``.
    """
    weights = rank_weights(t, a.v)
    covered = np.zeros((math.comb(a.cols, t), structure.n_orbits), dtype=bool)
    for i, tset in enumerate(combinations(range(a.cols), t)):
        covered[i, structure.orbit_index[a.cells[:, tset] @ weights]] = True
    return covered


def _ref_count_orbit_defects(cells, v, t, structure, required):
    weights = rank_weights(t, v)
    present = np.zeros(structure.n_orbits, dtype=bool)
    defects = 0
    for tset in combinations(range(cells.shape[1]), t):
        oids = structure.orbit_index[cells[:, tset] @ weights]
        present[oids] = True
        covered = int(np.count_nonzero(present))
        present[oids] = False
        if covered < required:
            defects += 1
    return defects


# -- grid ----------------------------------------------------------------------------

# (t, v): v^t on both sides of the 64-class bit-mask limit, t = 1..4.
SHAPES = [(1, 2), (1, 64), (1, 65), (2, 3), (2, 8), (2, 9), (3, 2), (3, 4), (3, 5),
          (4, 2), (4, 3)]
ROWS = (0, 1, 7, 40)


@pytest.fixture(params=[None, 256, 16], ids=["default-budget", "budget-256", "budget-16"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(coverage, "_CHUNK_BUDGET", request.param)
    return request.param


@pytest.fixture(params=[None, 0, 2**40], ids=["default-head", "short-head", "head-none"])
def head(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(coverage, "_HEAD_SLACK", request.param)
    return request.param


@pytest.fixture(params=[None, "first", "middle"],
                ids=["no-resample", "resample-first", "resample-middle"])
def resample(request):
    """Which t-set's columns a case redraws before it recounts; :func:`resampled`
    redraws them for each array."""
    return request.param


def resampled(where, cells, v, t, seed=0):
    """``(redrawn, through)``: ``cells`` with the columns of the t-set ``where``
    names, the first or the middle one in lex order, redrawn, and the lex
    indices of the t-sets through those columns, the only t-sets whose
    counts the redraw can change."""
    tsets = list(combinations(range(cells.shape[1]), t))
    tset = tsets[{"first": 0, "middle": len(tsets) // 2}[where]]
    redrawn = cells.copy()
    redrawn[:, tset] = np.random.default_rng(seed).integers(0, v, size=(len(cells), t))
    through = np.array([i for i, s in enumerate(tsets) if set(s) & set(tset)])
    return redrawn, through


def recount(counts, redrawn, v, t, through):
    """``counts`` with the t-sets at the lex indices ``through`` recounted on
    ``redrawn`` by ``coverage._count_tsets``, as ``construct._defects``
    updates its table of short t-sets after a resample."""
    tsets = np.array(list(combinations(range(redrawn.shape[1]), t)))[through]
    table = counts.copy()
    table[through] = coverage._count_tsets(redrawn, v, tsets)
    return table


# The default head splits arrays of at most 40 rows only at v^t = 2,
# so the tuple scans skip head-none; developed arrays are taller and keep it.
SMALL_ARRAY_HEAD = pytest.mark.parametrize(
    "head", [None, 0], ids=["default-head", "short-head"], indirect=True
)
# Random arrays redraw no t-set or the middle one; the first is left to the
# chunk and recount tests.
RANDOM_ARRAY_RESAMPLE = pytest.mark.parametrize(
    "resample", [None, "middle"], ids=["no-resample", "resample-middle"], indirect=True
)


def spy_blocks(monkeypatch):
    """Record ``(B, width)`` for each block of ranks ``_scan`` counts, head
    chunk or recount."""
    blocks = []
    count = coverage._count

    def spy(ranks, vt):
        blocks.append(ranks.shape)
        return count(ranks, vt)

    monkeypatch.setattr(coverage, "_count", spy)
    return blocks


def spy_fill(monkeypatch):
    """Record each column ``_scan`` copies into its recount store, in order,
    and each t-set a recount reads.

    Every call must leave each column its t-sets read filled with that
    column of the cells.
    """
    copied, recounted = [], []
    fill = coverage._fill

    def spy(cols, filled, cells, tsets):
        before = filled.copy()
        out = fill(cols, filled, cells, tsets)
        copied.extend(np.flatnonzero(filled & ~before).tolist())
        recounted.extend(map(tuple, tsets.tolist()))
        for c in np.unique(tsets).tolist():
            assert filled[c]
            np.testing.assert_array_equal(out[c], cells[:, c])
        return out

    monkeypatch.setattr(coverage, "_fill", spy)
    return copied, recounted


def arrays(t, v, seed):
    """Random arrays with k = t, t + 3 and t + 9, over every row count in ROWS."""
    rng = np.random.default_rng(seed)
    for k in (t, t + 3, t + 9):
        for n in ROWS:
            yield Array(rng.integers(0, v, size=(n, k)), v)


@functools.cache
def profile_cases(t, v, seed):
    """``arrays(t, v, seed)`` with their reference profiles."""
    return [(a, _ref_distinct_counts(a.cells, v, t)) for a in arrays(t, v, seed)]


@functools.cache
def resample_cases(t, v, seed, where):
    """``arrays(t, v, seed)`` with the t-set ``where`` names redrawn:
    ``(redrawn, through, reference profile of redrawn)`` per array."""
    cases = []
    for a in arrays(t, v, seed):
        redrawn, through = resampled(where, a.cells, v, t, seed)
        cases.append((redrawn, through, _ref_distinct_counts(redrawn, v, t)))
    return cases


@functools.cache
def early_exit_cases(t, v, seed, where):
    """``(a, redrawn, through, m, first defect, defect count)`` from the
    reference loops, on the array, or with the t-set ``where`` names redrawn,
    on ``redrawn``; ``redrawn`` and ``through`` are None without a redraw."""
    cases = []
    for a in arrays(t, v, seed):
        redrawn, through = (None, None) if where is None else resampled(where, a.cells, v, t)
        cells = a.cells if where is None else redrawn
        for m in sorted({1, 2, min(a.rows, v**t), v**t}):
            defects = _ref_count_defects(cells, v, t, m)
            defect = _ref_first_defect(cells, v, t, m)
            cases.append((a, redrawn, through, m, defect, defects))
    return cases


@SMALL_ARRAY_HEAD
@RANDOM_ARRAY_RESAMPLE
class TestTupleScans:
    @pytest.mark.parametrize("t,v", SHAPES)
    def test_profile_matches_reference_and_oracle(self, budget, head, resample, t, v):
        seed = t * 100 + v
        redraws = repeat(None) if resample is None else resample_cases(t, v, seed, resample)
        for (a, want), redraw in zip(profile_cases(t, v, seed), redraws):
            counts = coverage_profile(a, t).counts
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, want)
            if redraw is not None:
                redrawn, through, redrawn_want = redraw
                table = recount(counts, redrawn, v, t, through)
                np.testing.assert_array_equal(table, redrawn_want)
        # the oracle is slow and blind to chunking
        if budget is None and head is None and resample is None:
            for a, want in profile_cases(t, v, seed):
                np.testing.assert_array_equal(naive_oracle(a, t).counts, want)

    @pytest.mark.parametrize("t,v", SHAPES)
    def test_early_exit_scans_match_reference(self, budget, head, resample, t, v):
        cases = early_exit_cases(t, v, t * 100 + v + 1, resample)
        for a, redrawn, through, m, defect, defects in cases:
            if redrawn is None:
                assert first_defect(a.cells, v, t, m) == defect
                assert count_defects(a.cells, v, t, m) == defects
                continue
            # the table of short t-sets after the redraw, and its first defect
            # with the count of its own t columns, as construct._defects takes it
            short = recount(coverage_profile(a, t).counts, redrawn, v, t, through) < m
            assert np.count_nonzero(short) == defects
            rank = int(short.argmax())
            if defect is None:
                assert not short[rank]
                continue
            tset = next(islice(combinations(range(a.cols), t), rank, None))
            count = coverage._count_tsets(redrawn[:, tset], v, np.arange(t)[None])
            assert coverage.Defect(tset, int(count[0])) == defect


class TestChunks:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 40, 3000])
    def test_chunks_tile_tsets_in_lex_order_within_budget(
        self, budget, head, resample, monkeypatch, t, n
    ):
        k = t + 12
        cells = np.random.default_rng(t * 10 + n).integers(0, 2, size=(n, k))
        blocks = spy_blocks(monkeypatch)
        chunks = list(coverage._scan(cells, 2, t))
        tsets = [tuple(tset) for tsets, _ in chunks for tset in tsets.tolist()]
        assert tsets == list(combinations(range(k), t))
        # Chunks are counted on the head rows, every recount on all n rows.
        rows = min(n, coverage._head_rows(2**t))
        for tsets, counts in chunks:
            assert tsets.shape == (len(counts), t)
            assert len(counts) * rows <= max(coverage._CHUNK_BUDGET, rows)
            assert tsets.size <= max(coverage._CHUNK_BUDGET, t)
        # Every chunk but the last holds step t-sets.
        step = max(1, coverage._CHUNK_BUDGET // max(rows, t))
        assert all(len(counts) == step for _, counts in chunks[:-1])
        # The head blocks are the chunks; a width-n block is a recount.
        head_blocks = [b for b, width in blocks if width == rows]
        assert head_blocks == [len(counts) for _, counts in chunks]
        for b, width in blocks:
            assert width in (rows, n)
            assert b * width <= max(coverage._CHUNK_BUDGET, width)
        if head == 0 and n > rows:  # a head with no slack leaves some t-set short
            assert any(width == n for _, width in blocks)
        if budget is None and n < 3000:  # every t-set fits one chunk
            assert len(chunks) == 1
        if resample is not None:
            # The recount after a redraw counts the t-sets through the redrawn
            # columns on all n rows, whatever the head, in lex order and in
            # blocks of budget // n t-sets.
            redrawn, through = resampled(resample, cells, 2, t, seed=n)
            want = np.concatenate([counts for _, counts in coverage._scan(redrawn, 2, t)])
            blocks.clear()
            counts = np.concatenate([counts for _, counts in chunks])
            np.testing.assert_array_equal(recount(counts, redrawn, 2, t, through), want)
            step = max(1, coverage._CHUNK_BUDGET // max(n, 1))
            assert blocks == [(min(step, len(through) - lo), n)
                              for lo in range(0, len(through), step)]
            assert all(b * n <= max(coverage._CHUNK_BUDGET, n) for b, _ in blocks)

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_defect_in_a_later_prefix_of_a_packed_chunk(self, budget, resample, t):
        # Two equal columns j1 < j2 leave every t-set holding both with at
        # most 2^(t-1) tuples; 64 random rows cover more in every other t-set.
        k, j1, j2 = t + 12, t + 2, t + 6
        cells = np.random.default_rng(t).integers(0, 2, size=(64, k))
        cells[:, j2] = cells[:, j1]
        m = 2 ** (t - 1) + 1
        holding = [s for s in combinations(range(k), t) if j1 in s and j2 in s]
        assert holding[0] == (*range(t - 2), j1, j2)  # the lex-first t-set holding both
        assert len(holding) == math.comb(k - 2, t - 2)
        defect = first_defect(cells, 2, t, m)
        assert defect == _ref_first_defect(cells, 2, t, m)
        assert defect.tset == holding[0]
        assert count_defects(cells, 2, t, m) == len(holding)
        if budget is None:  # every t-set shares one chunk
            [tsets] = [tsets for tsets, _ in coverage._scan(cells, 2, t)
                       if defect.tset in map(tuple, tsets.tolist())]
            assert tuple(tsets[0].tolist())[:-1] < defect.tset[:-1]
        if resample is not None:
            # The first and the middle t-set miss j1 and j2, so the redraw
            # keeps every t-set holding both short, and at t >= 3 some of
            # them are through the redrawn columns and recounted.
            redrawn, through = resampled(resample, cells, 2, t, seed=t)
            counts = coverage_profile(Array(cells, 2), t).counts
            short = recount(counts, redrawn, 2, t, through) < m
            np.testing.assert_array_equal(short, _ref_distinct_counts(redrawn, 2, t) < m)
            tsets = list(combinations(range(k), t))
            assert [tsets[i] for i in np.flatnonzero(short)] == holding
            assert (t >= 3) == any(tsets[i] in holding for i in through)

    def test_budget_grid_chunks_hold_step_tsets(self, budget):
        # The chunks of each scan of the grid: every chunk but the last holds
        # step t-sets.  The default budget holds all of a small array's t-sets
        # in one chunk; the tiny ones also cut prefix runs between chunks.
        shared = cut = False
        for t, v in SHAPES:
            for a, _ in profile_cases(t, v, seed=t * 100 + v):
                n = min(a.rows, coverage._head_rows(v**t))
                step = max(1, coverage._CHUNK_BUDGET // max(n, t))
                chunks = [tsets for tsets, _ in coverage._scan(a.cells, v, t)]
                held = [len(tsets) for tsets in chunks]
                assert all(b == step for b in held[:-1])
                assert 0 < held[-1] <= step
                if budget is None:
                    assert len(chunks) == 1
                # a chunk holds t-sets of two prefixes; a run goes on in the next chunk
                shared |= any(len({tuple(s[:-1]) for s in c.tolist()}) > 1 for c in chunks)
                cut |= any((c[-1, :-1] == d[0, :-1]).all() for c, d in zip(chunks, chunks[1:]))
        assert shared
        assert cut == (budget is not None)

    def test_peak_memory_within_the_chunk_budget(self):
        # 593,775 t-sets on one row: the head is one row, so chunks are sized
        # by t, and a chunk's t-sets hold at most _CHUNK_BUDGET entries.
        cells = np.zeros((1, 30), dtype=np.int64)
        tracemalloc.start()
        try:
            defects = count_defects(cells, 2, 6, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert defects == math.comb(30, 6)
        assert peak < 4 * coverage._CHUNK_BUDGET * 8


@pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
@given(data=st.data())
@settings(max_examples=50, derandomize=True, deadline=None)
def test_unrank_slices_combinations(t, data):
    k = data.draw(st.integers(t, t + 15), label="k")
    total = math.comb(k, t)
    lo = data.draw(st.integers(0, total), label="lo")
    hi = data.draw(st.integers(lo, total), label="hi")
    binom = coverage._binomials(k, t)
    tsets = coverage._unrank(binom, t, lo, hi)
    assert tsets.shape == (hi - lo, t)
    assert [tuple(s) for s in tsets.tolist()] == list(islice(combinations(range(k), t), lo, hi))
    np.testing.assert_array_equal(coverage._lex_ranks(tsets, binom), np.arange(lo, hi))


class TestHeadStage:
    """Counts at the head's edge, at t = 2, v = 3: the head is 74 rows."""

    V, T, VT = 3, 2, 9
    HEAD = 74

    def cells(self, n, k=6, seed=0):
        return np.random.default_rng(seed).integers(0, self.V, size=(n, k))

    def assert_scans_match_reference(self, cells):
        v, t = self.V, self.T
        np.testing.assert_array_equal(
            coverage_profile(Array(cells, v), t).counts, _ref_distinct_counts(cells, v, t)
        )
        for m in range(1, self.VT + 1):
            assert first_defect(cells, v, t, m) == _ref_first_defect(cells, v, t, m)
            assert count_defects(cells, v, t, m) == _ref_count_defects(cells, v, t, m)

    def test_default_head_rows(self):
        # ceil(9 * (ln 9 + 6)) = ceil(73.77)
        assert coverage._head_rows(self.VT) == self.HEAD

    def test_last_tuple_right_after_the_head(self, monkeypatch):
        # Columns 0 and 1 cycle through eight tuples in the head; the ninth,
        # (2, 2), first appears in the row just after it.
        cells = self.cells(self.HEAD + 10)
        eight = np.array([(a, b) for a in range(3) for b in range(3)][:8])
        cells[: self.HEAD, :2] = np.resize(eight, (self.HEAD, 2))
        cells[self.HEAD, :2] = (2, 2)
        blocks = spy_blocks(monkeypatch)
        _, recounted = spy_fill(monkeypatch)
        assert coverage_profile(Array(cells, self.V), self.T).counts[0] == self.VT
        assert any(width == len(cells) for _, width in blocks)
        assert any(tset[:-1] == (0,) for tset in recounted)
        self.assert_scans_match_reference(cells)

    def test_tset_complete_in_the_head_is_not_recounted(self, monkeypatch):
        # Nine rows (a, b, a + b, a + 2b) mod 3 cover every pair of columns.
        a, b = np.divmod(np.arange(9), 3)
        cells = self.cells(self.HEAD + 50, k=4)
        cells[:9] = np.stack([a, b, (a + b) % 3, (a + 2 * b) % 3], axis=1)
        blocks = spy_blocks(monkeypatch)
        counts = coverage_profile(Array(cells, self.V), self.T).counts
        np.testing.assert_array_equal(counts, np.full(6, self.VT))
        assert not any(width == len(cells) for _, width in blocks)

    def test_witness_count_found_by_a_recount(self):
        # (0, 1) covers one tuple in the head and five in the whole array.
        cells = self.cells(self.HEAD + 40)
        cells[: self.HEAD, :2] = 0
        cells[self.HEAD :, :2] = [(0, 1), (0, 2), (1, 0), (1, 1)] * 10
        defect = first_defect(cells, self.V, self.T, self.VT)
        assert defect == coverage.Defect((0, 1), 5)
        self.assert_scans_match_reference(cells)

    def test_count_defects_counts_recounted_defects(self):
        # Two copied column pairs cover three tuples; the constant head of
        # column 0 sends its five pairs to a recount, where they are complete.
        cells = self.cells(self.HEAD * 3, seed=1)
        cells[:, 3], cells[:, 5] = cells[:, 2], cells[:, 4]
        cells[: self.HEAD, 0] = 1
        assert count_defects(cells, self.V, self.T, self.VT) == 2
        self.assert_scans_match_reference(cells)

    def test_sorted_counts_after_the_head(self):
        # v^t = 65 counts by sorting rows; column 0 repeats one symbol in the head.
        v = 65
        head = coverage._head_rows(v)
        cells = np.random.default_rng(2).integers(0, v, size=(head + 100, 3))
        cells[:head, 0] = 0
        np.testing.assert_array_equal(
            coverage_profile(Array(cells, v), 1).counts, _ref_distinct_counts(cells, v, 1)
        )

    @pytest.mark.parametrize("n", [0, HEAD, HEAD + 1])
    def test_row_counts_at_the_head(self, n):
        cells = self.cells(n, seed=n)
        cells[: self.HEAD, 0] = 0
        self.assert_scans_match_reference(cells)


class TestRecountColumns:
    """Past the head only the columns of t-sets short there are transposed."""

    N = 200  # above the default head at every v^t here (74 rows at most)

    @pytest.mark.parametrize("t,v", [(1, 3), (2, 3), (3, 2)])
    def test_only_columns_of_short_tsets_are_filled(
        self, budget, head, resample, monkeypatch, t, v
    ):
        k = t + 6
        cells = np.random.default_rng(t * 10 + v).integers(0, v, size=(self.N, k))
        rows = min(self.N, coverage._head_rows(v**t))
        # In the head, column t + 1 is the sum of columns 2..t mod v (0 at
        # t = 1), so the t-set (2, ..., t + 1) covers v^(t-1) tuples there.
        cells[:rows, t + 1] = cells[:rows, 2 : t + 1].sum(axis=1) % v
        copied, recounted = spy_fill(monkeypatch)
        counts = coverage_profile(Array(cells, v), t).counts
        want = _ref_distinct_counts(cells, v, t)
        np.testing.assert_array_equal(counts, want)
        if budget is None:
            np.testing.assert_array_equal(naive_oracle(Array(cells, v), t).counts, want)
        short, short_tsets = set(), []
        if rows < self.N:
            head_counts = _ref_distinct_counts(cells[:rows], v, t)
            for tset, c in zip(combinations(range(k), t), head_counts):
                if c < v**t:
                    short.update(tset)
                    short_tsets.append(tset)
            assert short >= set(range(2, t + 2))
        assert len(copied) == len(set(copied))  # each column at most once
        assert set(copied) == short
        assert recounted == short_tsets  # exactly the t-sets short in the head, in lex order
        vt = v**t
        assert first_defect(cells, v, t, vt) == _ref_first_defect(cells, v, t, vt)
        assert count_defects(cells, v, t, vt) == _ref_count_defects(cells, v, t, vt)
        if resample is not None:
            # The recount after a redraw reads all N rows of the cells and no
            # column of the scan's store; at t = 3 the first t-set's redraw
            # takes in column 2 of the t-set short in the head.
            redrawn, through = resampled(resample, cells, v, t, seed=t)
            fills = len(recounted)
            table = recount(counts, redrawn, v, t, through)
            np.testing.assert_array_equal(table, _ref_distinct_counts(redrawn, v, t))
            assert len(recounted) == fills

    def test_no_column_filled_when_the_head_covers_every_tset(
        self, budget, head, resample, monkeypatch
    ):
        # Nine rows (a, b, a + b, a + 2b) mod 3 cover every pair of columns,
        # within the head at every head size.
        a, b = np.divmod(np.arange(9), 3)
        cells = np.random.default_rng(3).integers(0, 3, size=(self.N, 4))
        cells[:9] = np.stack([a, b, (a + b) % 3, (a + 2 * b) % 3], axis=1)
        copied, _ = spy_fill(monkeypatch)
        counts = coverage_profile(Array(cells, 3), 2).counts
        np.testing.assert_array_equal(counts, np.full(6, 9))
        np.testing.assert_array_equal(counts, naive_oracle(Array(cells, 3), 2).counts)
        if resample is not None:
            redrawn, through = resampled(resample, cells, 3, 2)
            table = recount(counts, redrawn, 3, 2, through)
            np.testing.assert_array_equal(table, _ref_distinct_counts(redrawn, 3, 2))
        assert copied == []


@given(
    shape=st.sampled_from([(t, v) for t in (1, 2, 3) for v in (2, 3, 4)]),
    data=st.data(),
)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_head_stage_matches_reference_loops(shape, data):
    t, v = shape
    k = data.draw(st.integers(t, t + 3), label="k")
    n = data.draw(st.integers(0, 40 * v**t), label="n")
    cells = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).integers(0, v, (n, k))
    lead = data.draw(st.sampled_from(["random", "constant", "sorted"]), label="lead")
    if lead == "constant":
        cells[: data.draw(st.integers(0, n), label="block")] = data.draw(st.integers(0, v - 1))
    elif lead == "sorted":
        cells = cells[np.lexsort(cells.T[::-1])]
    np.testing.assert_array_equal(
        coverage_profile(Array(cells, v), t).counts, _ref_distinct_counts(cells, v, t)
    )
    for m in range(1, v**t + 1):
        assert first_defect(cells, v, t, m) == _ref_first_defect(cells, v, t, m)
        assert count_defects(cells, v, t, m) == _ref_count_defects(cells, v, t, m)


ACTIONS = [
    pytest.param(2, 3, cyclic_action, id="cyclic-t2-v3"),
    pytest.param(2, 4, frobenius_action, id="frobenius-t2-v4"),
    pytest.param(3, 3, frobenius_action, id="frobenius-t3-v3"),
    pytest.param(2, 9, cyclic_action, id="cyclic-t2-v9"),
]


@RANDOM_ARRAY_RESAMPLE
class TestClassScans:
    """Developed arrays; a redraw redraws base columns, so that the developed
    counts can change only on the t-sets through them."""

    @pytest.mark.parametrize("t,v,make_action", ACTIONS)
    def test_developed_profile_sums_covered_orbit_lengths(
        self, budget, head, resample, t, v, make_action
    ):
        action = make_action(v)
        structure = orbits(t, v, action)
        for a in arrays(t, v, seed=v):
            covered = _ref_orbit_coverage(a, t, structure)
            counts = coverage_profile(develop(a, action), t).counts
            np.testing.assert_array_equal(counts, covered @ structure.lengths)
            if resample is not None:
                redrawn, through = resampled(resample, a.cells, v, t, seed=v)
                table = recount(counts, develop(Array(redrawn, v), action).cells, v, t, through)
                covered = _ref_orbit_coverage(Array(redrawn, v), t, structure)
                np.testing.assert_array_equal(table, covered @ structure.lengths)

    @pytest.mark.parametrize("t,v,make_action", ACTIONS)
    def test_developed_scan_matches_orbit_count_on_base(
        self, budget, head, resample, t, v, make_action
    ):
        # Counting every orbit on the base, with the v constant rows appended
        # for the affine group, gives the developed rows' defect count.  The
        # developed builders accept on their base's difference vectors, which
        # test_difference_count_matches_developed_scan holds to that count.
        action = make_action(v)
        structure = orbits(t, v, action)
        for a in arrays(t, v, seed=v + 1):
            tail = constant_rows(a.cols, v).cells[: v if action.kind == "frobenius" else 0]
            base = np.vstack((a.cells, tail))
            developed = np.vstack((develop(a, action).cells, tail))
            want = _ref_count_orbit_defects(base, v, t, structure, structure.n_orbits)
            assert count_defects(developed, v, t, v**t) == want
            if resample is not None:
                redrawn, through = resampled(resample, a.cells, v, t, seed=v + 1)
                counts = coverage_profile(Array(developed, v), t).counts
                redeveloped = np.vstack((develop(Array(redrawn, v), action).cells, tail))
                short = recount(counts, redeveloped, v, t, through) < v**t
                want = _ref_count_orbit_defects(
                    np.vstack((redrawn, tail)), v, t, structure, structure.n_orbits
                )
                assert np.count_nonzero(short) == want


DIFFERENCE_SHAPES = [
    pytest.param(t, v, make_action, id=f"{make_action.__name__.split('_')[0]}-t{t}-v{v}")
    for make_action, vs in ((cyclic_action, (2, 3, 4, 6)), (frobenius_action, (2, 3, 4, 5, 8)))
    for v in vs for t in (2, 3, 4)
]


def developed_defects(base, action, t):
    """``count_defects`` at m = v^t of ``base`` developed over ``action``,
    with the v constant rows appended for the affine group, as the developed
    builders return it."""
    k, v = base.shape[1], action.v
    tail = constant_rows(k, v).cells[: v if action.kind == "frobenius" else 0]
    developed = np.vstack((develop(Array(base, v), action).cells, tail))
    return count_defects(developed, v, t, v**t)


@pytest.mark.parametrize("t,v,make_action", DIFFERENCE_SHAPES)
def test_difference_count_matches_developed_scan(budget, head, t, v, make_action):
    # The developed builders accept on their base's difference vectors and
    # never scan the rows they return: the two counts must agree on 1-row,
    # partial and full-size bases (the builders' base size at epsilon = 0.02),
    # at k = t and k = t + 3.
    action = make_action(v)
    bound = bounds.bound_apca_frobenius if action.kind == "frobenius" else bounds.bound_apca_cyclic
    full = bound(t, v, 0.01).detail["base_rows"]
    rng = np.random.default_rng(100 * t + v)
    seen = set()
    for k in (t, t + 3):
        for n in (1, max(1, full // 8), full):
            base = rng.integers(0, v, size=(n, k))
            want = developed_defects(base, action, t)
            assert construct._difference_defects(base, action, t) == want
            seen.add(want > 0)
    assert seen == {False, True}  # bases that are defective and bases that are not


def test_difference_count_matches_developed_scan_gf64(budget, head):
    # GF(64) subtracts by XOR.  One random row repeats symbols among 60
    # columns, so 27 pairs are defective; a second row mends them all.
    action = frobenius_action(64)
    base = np.random.default_rng(64).integers(0, 64, size=(2, 60))
    for n, want in ((1, 27), (2, 0)):
        assert developed_defects(base[:n], action, 2) == want
        assert construct._difference_defects(base[:n], action, 2) == want


# -- generated arrays are the same as before the kernel ------------------------------

# sha256 of the file `generate` writes and of its `--report` JSON; the array
# hashes were recorded with the per-t-set loops, the report hashes with the
# restart builders before they shared one loop, the last two cases with the
# field tables and array codec built symbol by symbol, and the derand cases with
# the row-wise derandomizer that stops at the first row meeting the allowance.
GOLDEN = [
    (["mt", "2", "8", "2", "4", "0", "0"],
     "cf994c04acb53c7ba7883635e0a0a14fb1bce443b792277d7bebcb83fb6a6757",
     "278a4a33eaf9f211086710a2e9fa379bd10b789b7493bacf05c2a4141ecae85b"),
    (["mt", "3", "20", "3", "26", "0", "4"],
     "fcfe3fc7a51e3a1691884b3f64c6d954d8ddc581bee5724b8f5f85d7119cfe7a",
     "d2fc61ece07ec10af815bd7c3c198386656b77c9bb2a82c358a03a5e46729485"),
    (["apca", "2", "10", "3", "9", "0.05", "0"],
     "15b7d1117113d7b260504d5aa43b989205822486e79b97e4c8aec2b4a8a8dde3",
     "9eef679b04bc95b4df21a848d1c4ae82f107ef204e910cef9e006bf85a0e89d9"),
    (["cyclic", "2", "10", "4", "16", "0.05", "0"],
     "d174c40a2d0c19697cf2a5625e829f1b808c9b4ccb73a7340062ea7277af41be",
     "6fba729e0707a3bc883583649658b7eeb29b2ea2e62cbf50ff547a374d2c1b0d"),
    (["frobenius", "2", "10", "5", "25", "0.05", "0"],
     "c91a85ed12e4639a523e8a31acb87e191fa557f96e303b305660627fca34d5f4",
     "94e4fec070b2380808f46cca66a838f1bc918d843a6bca5dd93c708563019e63"),
    (["frobenius", "3", "8", "4", "64", "0.05", "0"],
     "0eb2d6b9447092602c3bb51848310c40e217f3dad5f7bcbb0a7be4f38ba84e6b",
     "73653577b05f32ff4b7886f045354cca3f28ebda96a0f7932b5c37ca3b84f895"),
    (["concat", "2", "8", "3", "8", "0.1", "2"],
     "f42de89c381703f5ecb4b80fc6826758bacc80e9de2ad1e63a485e2a763cf2a0",
     "3b7fbb96b19a24068b8fb64af354c34601af8cbd6cd44149508bccb9121809ef"),
    (["derand", "2", "10", "3", "9", "0.5", "0"],
     "bc66d11f827a3e007260686f50b869089f7459ae54309c62237a0d71e6e4e776",
     "02b6778bd89a8e372cfb3b2d22d0ff60013e1eb2a292444c6f83b8430d188254"),
    (["derand", "3", "8", "2", "8", "0.2", "0"],
     "952e63c31c1bedbea9eb3dd43758f58def5c1ba76fb0e483870f0f305ecb6d78",
     "4cc424f69b00ef791df66c690b87eb222ec575b94f8a5b1dcc189a58bdbb66e5"),
    (["frobenius", "2", "60", "64", "4096", "0.05", "0"],
     "4ed24584f06b0be1286509d52313a26b69131d5c34481ec95360f81e3d8d245b",
     "c3ab92cbab6d39b92a2399acd8639ff9eef1ffae3541f5087662a81e255d5af9"),
    (["cyclic", "2", "10", "16", "256", "0.05", "0", "--base", "1"],
     "e2dd65f9c9d3f65d00c4255db0e420a90f24e8d6d528379f50a7083673de230d",
     "e9c6c2b8ae84d15a6988fb743f85bbb61022942f0ec029dd1728a6bf094b688b"),
]


@pytest.mark.parametrize("spec,sha,report_sha", GOLDEN,
                         ids=[" ".join(s[:4] + s[7:]) for s, _, _ in GOLDEN])
def test_generate_unchanged(tmp_path, capsys, spec, sha, report_sha):
    alg, t, k, v, m, epsilon, seed, *extra = spec
    out, report = tmp_path / "a.pca", tmp_path / "r.json"
    argv = ["generate", "--alg", alg, "--t", t, "--k", k, "--v", v, "--m", m,
            "--epsilon", epsilon, "--seed", seed, "--out", str(out), "--report", str(report),
            *extra]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
