"""The coverage counting kernel against the loops it replaced and the oracle.

The ``_ref_*`` functions are per-t-set loops kept as the reference: the loops
``pcaforge.coverage`` used before its single batched kernel, and the orbit
table of an undeveloped base that the development identity is checked
against.  Every case runs under the default chunk budget and under tiny ones.
The default budget holds every t-set of the small arrays in one chunk; the
tiny ones cut the t-sets into chunks of a few, so that a chunk often holds the
end of one prefix's t-sets and the start of the next.  Each budget runs with
the head stage at its default size, at the coupon-collector mean with no
slack, which recounts most t-sets, and above every row count, which never
splits the rows.  Scans also start at a t-set past the first: the second,
which cuts the first prefix's run by one t-set and so moves every later chunk
boundary by one, or the middle one in lex order, which also skips whole
prefixes; a scan from an explicit first t-set must match one with no start.
The chunk plan, ``coverage._chunks``, is checked on its own;
scans that look at the blocks of ranks they count spy on ``coverage._count``,
which counts head chunks and recounts alike.  Scans of tall arrays spy on
``coverage._fill``, which takes the array of t-sets a recount reads and copies
a column's rows past the head only when a recount first reads it.
"""

import functools
import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pcaforge import coverage
from pcaforge.cli import main
from pcaforge.core import Array, rank_weights
from pcaforge.coverage import count_defects, coverage_profile, first_defect, naive_oracle
from pcaforge.galois import constant_rows, cyclic_action, develop, frobenius_action, orbits


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


def _ref_tsets(k, t, start=None):
    """The t-sets of ``range(k)`` in lex order, from ``start`` on if given."""
    return [tset for tset in combinations(range(k), t) if start is None or tset >= start]


def _ref_first_defect(cells, v, t, m, start=None):
    weights = rank_weights(t, v)
    present = np.zeros(v**t, dtype=bool)
    for tset in _ref_tsets(cells.shape[1], t, start):
        ranks = cells[:, tset] @ weights
        present[ranks] = True
        count = int(np.count_nonzero(present))
        present[ranks] = False
        if count < m:
            return coverage.Defect(tset, count)
    return None


def _ref_count_defects(cells, v, t, m, start=None):
    weights = rank_weights(t, v)
    present = np.zeros(v**t, dtype=bool)
    defects = 0
    for tset in _ref_tsets(cells.shape[1], t, start):
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


def _ref_count_orbit_defects(cells, v, t, structure, required, start=None):
    weights = rank_weights(t, v)
    present = np.zeros(structure.n_orbits, dtype=bool)
    defects = 0
    for tset in _ref_tsets(cells.shape[1], t, start):
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


@pytest.fixture(params=[None, "second", "middle"], ids=["no-start", "start-second", "start-middle"])
def start(request):
    """Which t-set a scan starts at; :func:`start_at` names it for each array."""
    return request.param


def start_at(where, k, t):
    """``(start, i)``: the start t-set ``where`` names among the t-sets of
    ``range(k)``, and its lex index; ``(None, 0)`` for no start.

    With one t-set only, "second" is the first.
    """
    if where is None:
        return None, 0
    tsets = list(combinations(range(k), t))
    i = {"first": 0, "second": min(1, len(tsets) - 1), "middle": len(tsets) // 2}[where]
    return tsets[i], i


def profile_from(a, t, start):
    """The profile's counts, or with a ``start`` t-set the counts the kernel
    yields from it on."""
    if start is None:
        return coverage_profile(a, t).counts
    return np.concatenate([counts for _, counts in coverage._scan(a.cells, a.v, t, start)])


def defects_from(cells, v, t, m, start):
    """``count_defects``, or with a ``start`` t-set the t-sets from it on that
    the kernel counts below m."""
    if start is None:
        return count_defects(cells, v, t, m)
    return sum(int(np.count_nonzero(c < m)) for _, c in coverage._scan(cells, v, t, start))


# The default head splits arrays of at most 40 rows only at v^t = 2,
# so the tuple scans skip head-none; developed arrays are taller and keep it.
SMALL_ARRAY_HEAD = pytest.mark.parametrize(
    "head", [None, 0], ids=["default-head", "short-head"], indirect=True
)
# Scans of random arrays start at no t-set or the middle one; the second is
# left to the chunk and recount tests.
RANDOM_ARRAY_START = pytest.mark.parametrize(
    "start", [None, "middle"], ids=["no-start", "start-middle"], indirect=True
)
# The recount tests make a t-set past the second short, so they start at no
# t-set, the explicit first one or the second.
RECOUNT_START = pytest.mark.parametrize(
    "start", [None, "first", "second"], ids=["no-start", "start-first", "start-second"],
    indirect=True,
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
def early_exit_cases(t, v, seed, where):
    """``(a, m, start, first defect, defect count)`` from the reference loops,
    from the start t-set ``where`` names on."""
    cases = []
    for a in arrays(t, v, seed):
        start, _ = start_at(where, a.cols, t)
        for m in sorted({1, 2, min(a.rows, v**t), v**t}):
            defects = _ref_count_defects(a.cells, v, t, m, start)
            cases.append((a, m, start, _ref_first_defect(a.cells, v, t, m, start), defects))
    return cases


@SMALL_ARRAY_HEAD
@RANDOM_ARRAY_START
class TestTupleScans:
    @pytest.mark.parametrize("t,v", SHAPES)
    def test_profile_matches_reference_and_oracle(self, budget, head, start, t, v):
        for a, want in profile_cases(t, v, seed=t * 100 + v):
            tset, i = start_at(start, a.cols, t)
            counts = profile_from(a, t, tset)
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, want[i:])
        # the oracle is slow and blind to chunking
        if budget is None and head is None and start is None:
            for a, want in profile_cases(t, v, seed=t * 100 + v):
                np.testing.assert_array_equal(naive_oracle(a, t).counts, want)

    @pytest.mark.parametrize("t,v", SHAPES)
    def test_early_exit_scans_match_reference(self, budget, head, start, t, v):
        for a, m, tset, defect, defects in early_exit_cases(t, v, t * 100 + v + 1, start):
            assert first_defect(a.cells, v, t, m, tset) == defect
            assert defects_from(a.cells, v, t, m, tset) == defects


class TestChunks:
    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 40, 3000])
    def test_chunks_tile_tsets_in_lex_order_within_budget(
        self, budget, head, start, monkeypatch, t, n
    ):
        k = t + 12
        cells = np.random.default_rng(t * 10 + n).integers(0, 2, size=(n, k))
        blocks = spy_blocks(monkeypatch)
        begin, i = start_at(start, k, t)
        chunks = list(coverage._scan(cells, 2, t, begin))
        tsets = [(*prefix, first + j)
                 for pieces, _ in chunks for prefix, first, length in pieces for j in range(length)]
        assert tsets == list(combinations(range(k), t))[i:]
        # Chunks are counted on the head rows, every recount on all n rows.
        rows = min(n, coverage._head_rows(2**t))
        for pieces, counts in chunks:
            assert len(counts) == sum(length for _, _, length in pieces)
            assert len(counts) * rows <= max(coverage._CHUNK_BUDGET, rows)
        # Every chunk but the last holds step t-sets, wherever the scan starts.
        step = max(1, coverage._CHUNK_BUDGET // max(rows, 1))
        assert all(len(counts) == step for _, counts in chunks[:-1])
        # The head blocks are the chunks; a width-n block is a recount.
        head_blocks = [b for b, width in blocks if width == rows]
        assert head_blocks == [sum(length for _, _, length in pieces) for pieces, _ in chunks]
        for b, width in blocks:
            assert width in (rows, n)
            assert b * width <= max(coverage._CHUNK_BUDGET, width)
        if head == 0 and n > rows:  # a head with no slack leaves some t-set short
            assert any(width == n for _, width in blocks)
        if budget is None and n < 3000:  # every t-set fits one chunk
            assert len(chunks) == 1

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_defect_in_a_later_prefix_of_a_packed_chunk(self, budget, start, t):
        # Two equal columns j1 < j2 leave every t-set holding both with at
        # most 2^(t-1) tuples; 64 random rows cover more in every other t-set.
        k, j1, j2 = t + 12, t + 2, t + 6
        cells = np.random.default_rng(t).integers(0, 2, size=(64, k))
        cells[:, j2] = cells[:, j1]
        m = 2 ** (t - 1) + 1
        holding = [s for s in combinations(range(k), t) if j1 in s and j2 in s]
        assert holding[0] == (*range(t - 2), j1, j2)  # the lex-first t-set holding both
        assert len(holding) == math.comb(k - 2, t - 2)
        begin, _ = start_at(start, k, t)
        scanned = [s for s in holding if begin is None or s >= begin]
        defect = first_defect(cells, 2, t, m, begin)
        assert defect == _ref_first_defect(cells, 2, t, m, begin)
        assert defect.tset == scanned[0]
        assert defects_from(cells, 2, t, m, begin) == len(scanned)
        if budget is None:  # every t-set from the start shares one chunk
            tset = defect.tset
            [pieces] = [pieces for pieces, _ in coverage._scan(cells, 2, t, begin)
                        if any(p == tset[:-1] for p, _, _ in pieces)]
            assert [p for p, _, _ in pieces].index(tset[:-1]) > 0

    def test_budget_grid_chunks_hold_step_tsets(self, budget):
        # The plan of each scan of the grid: every chunk but the last holds
        # step t-sets.  The default budget holds all of a small array's t-sets
        # in one chunk; the tiny ones also cut prefix runs between chunks.
        shared = cut = False
        for t, v in SHAPES:
            for a, _ in profile_cases(t, v, seed=t * 100 + v):
                n = min(a.rows, coverage._head_rows(v**t))
                step = max(1, coverage._CHUNK_BUDGET // max(n, 1))
                plan = list(coverage._chunks(n, coverage._prefix_runs(a.cols, t)))
                held = [sum(length for _, _, length in chunk) for chunk in plan]
                assert all(b == step for b in held[:-1])
                assert 0 < held[-1] <= step
                if budget is None:
                    assert len(plan) == 1
                # a chunk holds t-sets of two prefixes; a run goes on in the next chunk
                shared |= any(len({p for p, _, _ in chunk}) > 1 for chunk in plan)
                cut |= any(c[-1][0] == d[0][0] for c, d in zip(plan, plan[1:]))
        assert shared
        assert cut == (budget is not None)


@given(
    n=st.sampled_from([0, 1, 40, 3000, 40000]),
    lengths=st.lists(st.one_of(st.integers(1, 4), st.integers(1, 2000)), max_size=24),
    firsts=st.lists(st.integers(0, 50), min_size=24, max_size=24),
)
# runs that fill a chunk to one t-set past the default and the tiniest budget
@example(n=40, lengths=[819] * 8 + [2], firsts=[0] * 24)
@example(n=1, lengths=[1] * 17, firsts=[0] * 24)
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_chunk_plan_tiles_runs_within_budget(budget, n, lengths, firsts):
    # Run i has prefix (i,), so the pieces of one run are told from the next.
    runs = [((i,), first, length) for i, (first, length) in enumerate(zip(firsts, lengths))]
    plan = list(coverage._chunks(n, runs))
    tiled = []  # the plan's pieces, each run's consecutive pieces joined
    for prefix, first, length in (piece for chunk in plan for piece in chunk):
        assert length > 0
        if tiled and tiled[-1][0] == prefix:
            _, lo, held = tiled[-1]
            assert lo + held == first
            tiled[-1] = (prefix, lo, held + length)
        else:
            tiled.append((prefix, first, length))
    assert tiled == runs
    # Every chunk but the last holds exactly step t-sets, and each fits the budget.
    step = max(1, coverage._CHUNK_BUDGET // max(n, 1))
    held = [sum(length for _, _, length in chunk) for chunk in plan]
    assert all(b == step for b in held[:-1])
    assert all(0 < b <= step for b in held)
    assert all(b * n <= max(coverage._CHUNK_BUDGET, n) for b in held)


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

    @RECOUNT_START
    @pytest.mark.parametrize("t,v", [(1, 3), (2, 3), (3, 2)])
    def test_only_columns_of_short_tsets_are_filled(
        self, budget, head, start, monkeypatch, t, v
    ):
        k = t + 6
        cells = np.random.default_rng(t * 10 + v).integers(0, v, size=(self.N, k))
        rows = min(self.N, coverage._head_rows(v**t))
        # In the head, column t + 1 is the sum of columns 2..t mod v (0 at
        # t = 1), so the t-set (2, ..., t + 1) covers v^(t-1) tuples there.
        cells[:rows, t + 1] = cells[:rows, 2 : t + 1].sum(axis=1) % v
        begin, i = start_at(start, k, t)
        copied, recounted = spy_fill(monkeypatch)
        counts = profile_from(Array(cells, v), t, begin)
        want = _ref_distinct_counts(cells, v, t)
        np.testing.assert_array_equal(counts, want[i:])
        if budget is None and start is None:
            np.testing.assert_array_equal(naive_oracle(Array(cells, v), t).counts, want)
        short, short_tsets = set(), []
        if rows < self.N:
            head_counts = _ref_distinct_counts(cells[:rows], v, t)[i:]
            for tset, c in zip(_ref_tsets(k, t, begin), head_counts):
                if c < v**t:
                    short.update(tset)
                    short_tsets.append(tset)
            assert short >= set(range(2, t + 2))
        assert len(copied) == len(set(copied))  # each column at most once
        assert set(copied) == short
        assert recounted == short_tsets  # exactly the t-sets short in the head, in lex order
        vt = v**t
        assert first_defect(cells, v, t, vt, begin) == _ref_first_defect(cells, v, t, vt, begin)
        assert defects_from(cells, v, t, vt, begin) == _ref_count_defects(cells, v, t, vt, begin)

    @RECOUNT_START
    def test_no_column_filled_when_the_head_covers_every_tset(
        self, budget, head, start, monkeypatch
    ):
        # Nine rows (a, b, a + b, a + 2b) mod 3 cover every pair of columns,
        # within the head at every head size.
        a, b = np.divmod(np.arange(9), 3)
        cells = np.random.default_rng(3).integers(0, 3, size=(self.N, 4))
        cells[:9] = np.stack([a, b, (a + b) % 3, (a + 2 * b) % 3], axis=1)
        begin, i = start_at(start, 4, 2)
        copied, _ = spy_fill(monkeypatch)
        counts = profile_from(Array(cells, 3), 2, begin)
        np.testing.assert_array_equal(counts, np.full(6 - i, 9))
        np.testing.assert_array_equal(counts, naive_oracle(Array(cells, 3), 2).counts[i:])
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


@RANDOM_ARRAY_START
class TestClassScans:
    @pytest.mark.parametrize("t,v,make_action", ACTIONS)
    def test_developed_profile_sums_covered_orbit_lengths(
        self, budget, head, start, t, v, make_action
    ):
        action = make_action(v)
        structure = orbits(t, v, action)
        for a in arrays(t, v, seed=v):
            covered = _ref_orbit_coverage(a, t, structure)
            begin, i = start_at(start, a.cols, t)
            counts = profile_from(develop(a, action), t, begin)
            np.testing.assert_array_equal(counts, (covered @ structure.lengths)[i:])

    @pytest.mark.parametrize("t,v,make_action", ACTIONS)
    def test_developed_scan_matches_orbit_count_on_base(
        self, budget, head, start, t, v, make_action
    ):
        # The developed builders accept on the tuple count of the rows they
        # return.  Counting every orbit on the base, with the v constant rows
        # appended for the affine group, must give the same count, so both
        # accept tests take the same draws.
        action = make_action(v)
        structure = orbits(t, v, action)
        for a in arrays(t, v, seed=v + 1):
            tail = constant_rows(a.cols, v).cells[: v if action.kind == "frobenius" else 0]
            base = np.vstack((a.cells, tail))
            developed = np.vstack((develop(a, action).cells, tail))
            begin, _ = start_at(start, a.cols, t)
            want = _ref_count_orbit_defects(base, v, t, structure, structure.n_orbits, begin)
            assert defects_from(developed, v, t, v**t, begin) == want


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
