"""Exhaustive coverage verification.

Every scan runs through one counting kernel, :func:`_scan`, which counts the
distinct tuples of column t-sets in batches and yields them in lexicographic
order.  Each batch (a chunk) is a run of consecutive t-sets described by
``(prefix, first, length)`` pieces.  A pure plan, :func:`_chunks`, cuts the
lex-ordered t-sets into chunks of one size, ``_CHUNK_BUDGET // N`` t-sets
(the last may be shorter), whatever the (t-1)-prefix runs they come from.
One rank builder, :func:`_ranks`, gathers a chunk's columns into a block of
tuple ranks, which :func:`_count` counts.  Its scratch memory stays within
the one budget, ``_CHUNK_BUDGET`` ranks, or one t-set's N ranks if that is
more, whatever N and v^t are.  Early-exit callers stop taking chunks, and a
scan may start at any t-set.

An explicit ``(B, t)`` array of t-sets is counted on all N rows by one gather
loop, :func:`_gather_counts`, in chunks within the same budget.  It serves
both the kernel's recounts below and :func:`_count_tsets`, which counts the
t-sets a resample may have changed for the resampling builder.

On tall arrays (N above ``head = v^t * (ln v^t + _HEAD_SLACK)`` rows) the
kernel counts every t-set on that many leading rows first, the head, where
nearly all of them already cover every tuple.  Only the t-sets short of v^t
in the head are expanded from their chunk's pieces and recounted on all N
rows before their chunk is yielded.  A t-set that covers all v^t tuples in
the head covers them in the whole array, so every count the kernel yields is
exact, as if all N rows had been counted.  Only the head rows are transposed
for the head counts; a column's N rows are transposed the first time a
recount reads it, so an array whose t-sets all cover v^t tuples in the head
is read no further than the head.

:func:`naive_oracle` recomputes the same profile by materializing projected
rows as Python tuples in a set — a deliberately different code path kept for
cross-validation and never used by the builders.

Predicates: an array has partial coverage m when every t-set covers at least
m distinct tuples; it has epsilon-almost coverage when all but
``floor(epsilon * C(k,t))`` t-sets do.  Witnesses are always the
lexicographically first defective t-set, so reports are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, compress, dropwhile
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core import Array, _as_int, _check_fraction, _check_m, _snap
from .errors import CapacityExceeded, StrengthTooSmall

# Guard on v^t and on C(k,t) for every exhaustive scan.
PROFILE_CAPACITY = 2**26
# Work guard for the brute-force oracle: C(k,t) * N * v^t.
ORACLE_CAPACITY = 10**8
# Scratch elements per kernel chunk: B*N ranks, so every chunk, head chunk or
# explicit t-sets, holds _CHUNK_BUDGET // N t-sets.  At 2^18 the t=3 k=60 v=3
# N=201 shape scans as fast as at 2^20 without raising the peak RSS.
_CHUNK_BUDGET = 2**18
# Head rows beyond the coupon-collector mean.  With N above
# head = v^t * (ln v^t + _HEAD_SLACK) rows, every t-set is counted on the head
# first, and only those short of v^t there are recounted on all N.  After h
# uniform rows a t-set misses v^t * exp(-h / v^t) tuples on average, so about
# exp(-_HEAD_SLACK) = 0.25% of t-sets are short at any v^t; a head of a fixed
# multiple of v^t leaves most of them short once v^t is in the thousands.  At
# v^t = 9 the head is 74 rows, near the 8 rows per tuple that did best there:
# the profile of a random 20000x100 v=3 t=2 array took 37-47 ms at heads of 1
# to 4 rows per tuple, 14 ms at 6 and 8 ms at 8, against 46 ms unsplit (2 cores,
# best of 9).
_HEAD_SLACK = 6

# (prefix, first, length): the t-sets prefix + (first + i,) for i < length.
_Piece = tuple[tuple[int, ...], int, int]
# (pieces, counts): counts holds the pieces' t-sets in order.
_Chunks = Iterator[tuple[list[_Piece], np.ndarray]]


class Defect(NamedTuple):
    """A column t-set covering fewer distinct tuples than required."""

    tset: tuple[int, ...]
    count: int


class PcaCheck(NamedTuple):
    ok: bool
    witness: Defect | None


class ApcaCheck(NamedTuple):
    ok: bool
    defects: list[Defect]
    allowed: int


@dataclass(frozen=True, eq=False)
class CoverageProfile:
    """Distinct-tuple counts for every column t-set, in lexicographic order."""

    t: int
    v: int
    k: int
    counts: np.ndarray

    @property
    def min_count(self) -> int:
        return int(self.counts.min()) if len(self.counts) else 0

    @property
    def tsets(self) -> Iterator[tuple[int, ...]]:
        return combinations(range(self.k), self.t)

    def defective(self, m: int) -> list[Defect]:
        """All t-sets covering fewer than m distinct tuples, in lex order."""
        _check_m(m, self.v**self.t)
        below = self.counts < m
        tsets = compress(self.tsets, below.tolist())
        return [Defect(tset, c) for tset, c in zip(tsets, self.counts[below].tolist())]

    def allowed(self, epsilon: float) -> int:
        """Defective t-sets an epsilon-almost array may have."""
        _check_fraction(epsilon)
        return _allowed(epsilon, self.k, self.t)

    def completeness(self, q: float) -> float:
        """The :func:`completeness` fraction."""
        _check_fraction(q, "q")
        threshold = math.ceil(_snap(q * self.v**self.t))
        return float(np.count_nonzero(self.counts >= threshold)) / len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageProfile):
            return NotImplemented
        return (
            (self.t, self.v, self.k) == (other.t, other.v, other.k)
            and bool(np.array_equal(self.counts, other.counts))
        )


def _check_t(t: int, k: int) -> int:
    """``t`` as a Python int, if it is an integer in [1, k]."""
    t = _as_int(t, "t")
    if t < 1 or t > k:
        raise StrengthTooSmall(f"t={t} outside [1, k={k}]")
    return t


def _head_rows(vt: int) -> int:
    """Leading rows every t-set is counted on before the short ones are recounted."""
    return math.ceil(vt * (math.log(vt) + _HEAD_SLACK))


def _lasts(firsts: tuple[int, ...], lengths: np.ndarray) -> np.ndarray:
    """The last column of each t-set of pieces with these firsts and lengths."""
    # The j-th t-set of piece i ends in column firsts[i] + j.
    offsets = np.array(firsts) - (np.cumsum(lengths) - lengths)
    return np.arange(lengths.sum()) + np.repeat(offsets, lengths)


def _tsets(pieces: list[_Piece]) -> np.ndarray:
    """The pieces' t-sets as one ``(B, t)`` array, in order."""
    prefixes, firsts, lengths = zip(*pieces)
    lengths = np.array(lengths)
    heads = np.repeat(np.array(prefixes, dtype=np.int64), lengths, axis=0)
    return np.column_stack((heads, _lasts(firsts, lengths)))


def _ranks(cols: np.ndarray, v: int, pieces: list[_Piece]) -> np.ndarray:
    """Tuple ranks of the pieces' t-sets as one ``(B, N)`` block, in order.

    One gather takes the last column of every t-set.  For t > 1, one row
    gather per prefix column builds each piece's prefix rank times v (its
    base), and each base is repeated once per t-set of its piece and added.
    """
    prefixes, firsts, lengths = zip(*pieces)
    lengths = np.array(lengths)
    ranks = cols[_lasts(firsts, lengths)]
    if prefixes[0]:  # t > 1
        base = 0
        for c in np.array(prefixes).T:
            base = (base + cols[c]) * v
        ranks += np.repeat(base, lengths, axis=0)
    return ranks


def _fill(
    cols: np.ndarray, filled: np.ndarray, cells: np.ndarray, tsets: np.ndarray
) -> np.ndarray:
    """``cols`` once it holds every column of the ``(B, t)`` array ``tsets``,
    as rows of ``cells.T``.

    Each column not yet ``filled`` is copied from ``cells`` on its own and
    marked filled; the others are left as they are.
    """
    wanted = np.zeros_like(filled)
    wanted[tsets] = True
    for c in np.flatnonzero(wanted & ~filled):
        cols[c] = cells[:, c]
    filled |= wanted
    return cols


def _prefix_runs(k: int, t: int, start: tuple[int, ...] | None = None) -> Iterator[_Piece]:
    """Every t-set of ``range(k)`` in lex order, one run per (t-1)-prefix.

    With a ``start`` t-set, the runs begin at it: its own prefix's run is cut
    to the t-sets from ``start`` on.
    """
    prefixes = combinations(range(k - 1), t - 1)
    if start is not None:
        before, first = tuple(start[:-1]), start[-1]
        yield before, first, k - first
        prefixes = dropwhile(lambda p: p <= before, prefixes)
    for prefix in prefixes:
        first = prefix[-1] + 1 if prefix else 0
        yield prefix, first, k - first


def _chunks(n: int, runs: Iterable[_Piece]) -> Iterator[list[_Piece]]:
    """The plan of a scan's head: the runs' t-sets in chunks of pieces, in order.

    Every chunk but the last holds exactly ``step = max(1, _CHUNK_BUDGET // n)``
    t-sets: ``_CHUNK_BUDGET`` ranks' worth, or one t-set if its ``n`` ranks
    are more.  The last may hold fewer, and a run may be cut between chunks.
    Recounts are not planned here: :func:`_gather_counts` takes their t-sets
    in chunks of the same size.
    """
    step = max(1, _CHUNK_BUDGET // max(n, 1))  # t-sets per chunk
    pieces: list[_Piece] = []
    held = 0
    for prefix, first, length in runs:
        while length:
            take = min(length, step - held)
            pieces.append((prefix, first, take))
            first, length, held = first + take, length - take, held + take
            if held == step:
                yield pieces
                pieces, held = [], 0
    if pieces:
        yield pieces


def _count(ranks: np.ndarray, vt: int) -> np.ndarray:
    """Distinct values in each row of a ``(B, N)`` block of tuple ranks below ``vt``.

    Tuples are counted by OR-reducing one-hot bits (v^t at most 64) or else
    by sorting rows.
    """
    if vt <= 64:
        bit = np.dtype(f"uint{max(8, 1 << (vt - 1).bit_length())}").type(1)
        bits = np.left_shift(bit, ranks, dtype=bit.dtype)
        counts = np.bitwise_count(np.bitwise_or.reduce(bits, axis=1))
    else:
        # numpy sorts 16-bit rows far faster than 8-bit ones
        ranks = ranks.astype(np.promote_types(ranks.dtype, np.uint16), copy=False)
        ranks = np.sort(ranks, axis=1)
        distinct = np.count_nonzero(ranks[:, 1:] != ranks[:, :-1], axis=1)
        counts = (ranks.shape[1] > 0) + distinct
    return counts.astype(np.int64)


def _scan(
    cells: np.ndarray, v: int, t: int, start: tuple[int, ...] | None = None
) -> _Chunks:
    """Distinct tuples covered per column t-set, in lexicographic chunks.

    The scan covers every t-set, or with a ``start`` t-set the t-sets from it
    on.  Both v^t and C(k,t) must stay within :data:`PROFILE_CAPACITY`.  The
    chunks follow the plan of :func:`_chunks`: each holds ``_CHUNK_BUDGET``
    ranks' worth of t-sets (the last may hold fewer), so that narrow or short
    arrays pay the per-chunk cost once per chunk, not per prefix.  Every
    chunk is counted as ``_count(_ranks(head_cols, v, pieces), vt)`` on a
    column-major copy of the head rows.

    With N above ``head = v^t * (ln v^t + _HEAD_SLACK)`` rows, the chunks are
    first counted, and sized, on the first ``head`` rows only.  Before a chunk
    is yielded, its t-sets that covered fewer than v^t tuples in the head are
    expanded into a ``(B, t)`` array and recounted over all N rows by
    :func:`_gather_counts`, on a column-major store whose columns
    :func:`_fill` copies the first time a recount reads them.  A t-set that
    covers all v^t tuples in the head covers them in the whole array, so
    every yielded count is exact.
    """
    n, k = cells.shape
    t = _check_t(t, k)
    vt = v**t
    if vt > PROFILE_CAPACITY:
        raise CapacityExceeded(f"v^t = {vt} exceeds {PROFILE_CAPACITY}")
    if math.comb(k, t) > PROFILE_CAPACITY:  # cheap: for v >= 2 the v^t check keeps t <= 26
        raise CapacityExceeded(f"C(k,t) = C({k},{t}) exceeds {PROFILE_CAPACITY}")
    dtype = np.min_scalar_type(vt - 1)
    head = min(n, _head_rows(vt))
    head_cols = np.ascontiguousarray(cells[:head].T, dtype)
    if head < n:  # the recount's columns, each filled when a recount first reads it
        cols, filled = np.empty((k, n), dtype), np.zeros(k, dtype=bool)
    for pieces in _chunks(head, _prefix_runs(k, t, start)):
        counts = _count(_ranks(head_cols, v, pieces), vt)
        short = np.flatnonzero(counts < vt) if head < n else ()
        if len(short):
            tsets = _tsets(pieces)[short]
            counts[short] = _gather_counts(_fill(cols, filled, cells, tsets), v, tsets)
        yield pieces, counts


def _gather_counts(cols: np.ndarray, v: int, tsets: np.ndarray) -> np.ndarray:
    """Distinct tuples covered by each t-set of the ``(B, t)`` array ``tsets``.

    ``cols`` holds the cells column-major, in a dtype that holds v^t - 1;
    only the columns the t-sets name are read.  Every count is exact, over
    all N rows.  The t-sets' columns are gathered in chunks of at most
    ``_CHUNK_BUDGET`` ranks (or one t-set's N if that is more).
    """
    n, t = cols.shape[1], tsets.shape[1]
    vt = v**t
    step = max(1, _CHUNK_BUDGET // max(n, 1))  # t-sets per chunk
    counts = np.empty(len(tsets), dtype=np.int64)
    for lo in range(0, len(tsets), step):
        chunk = tsets[lo : lo + step]
        ranks = cols[chunk[:, 0]]
        for j in range(1, t):
            ranks *= v
            ranks += cols[chunk[:, j]]
        counts[lo : lo + step] = _count(ranks, vt)
    return counts


def _count_tsets(cells: np.ndarray, v: int, tsets: np.ndarray) -> np.ndarray:
    """:func:`_gather_counts` of the ``(B, t)`` array ``tsets`` on a
    column-major copy of all of ``cells``, with no head stage."""
    vt = v ** tsets.shape[1]
    return _gather_counts(np.ascontiguousarray(cells.T, np.min_scalar_type(vt - 1)), v, tsets)


def coverage_profile(a: Array, t: int) -> CoverageProfile:
    """Count the distinct tuples each column t-set covers."""
    t = _check_t(t, a.cols)
    counts = np.concatenate([c for _, c in _scan(a.cells, a.v, t)])
    return CoverageProfile(t=t, v=a.v, k=a.cols, counts=counts)


def naive_oracle(a: Array, t: int) -> CoverageProfile:
    """Same contract as :func:`coverage_profile`, different implementation.

    Projects each row to a Python tuple and counts set sizes.  Guarded to
    small instances; exists purely to cross-check the primary counter.
    """
    t = _check_t(t, a.cols)
    work = math.comb(a.cols, t) * max(a.rows, 1) * a.v**t
    if work > ORACLE_CAPACITY:
        raise CapacityExceeded(f"oracle work {work} exceeds {ORACLE_CAPACITY}")
    rows = [tuple(int(x) for x in row) for row in a.cells]
    counts = []
    for tset in combinations(range(a.cols), t):
        seen = set()
        for row in rows:
            seen.add(tuple(row[j] for j in tset))
        counts.append(len(seen))
    return CoverageProfile(t=t, v=a.v, k=a.cols, counts=np.array(counts, dtype=np.int64))


def first_defect(
    cells: np.ndarray, v: int, t: int, m: int, start: tuple[int, ...] | None = None
) -> Defect | None:
    """Lexicographically first t-set covering < m distinct tuples, else None.

    Early-exit scan used by the resampling builder.  With a ``start`` t-set
    (increasing columns of ``cells``) only the t-sets from it on are scanned.
    """
    for pieces, counts in _scan(cells, v, t, start):
        below = np.flatnonzero(counts < m)
        if len(below):
            tset = _tsets(pieces)[below[0]]
            return Defect(tuple(tset.tolist()), int(counts[below[0]]))
    return None


def count_defects(cells: np.ndarray, v: int, t: int, m: int) -> int:
    """Exact number of t-sets covering fewer than m distinct tuples.

    One full scan, no early exit: the restart builders accept on this count
    and report it as their ``defective_tsets``.
    """
    return sum(int(np.count_nonzero(counts < m)) for _, counts in _scan(cells, v, t))


def is_pca(a: Array, t: int, m: int) -> PcaCheck:
    """Does every column t-set cover at least m distinct tuples?

    On failure the witness is the lex-first defective t-set with its count.
    """
    t = _check_t(t, a.cols)
    _check_m(m, a.v**t)
    defect = first_defect(a.cells, a.v, t, m)
    return PcaCheck(ok=defect is None, witness=defect)


def _allowed(epsilon: float, k: int, t: int) -> int:
    """``floor(epsilon * C(k,t))``: the defective t-sets epsilon allows.

    A product that sits on an integer (``core._snap``) counts as that integer,
    so 0.57 * C(25, 2) allows 171 although the double product is just below.
    """
    return math.floor(_snap(epsilon * math.comb(k, t)))


def is_apca(a: Array, t: int, m: int, epsilon: float) -> ApcaCheck:
    """Do all but ``floor(epsilon * C(k,t))`` t-sets cover at least m tuples?

    The report lists every defective t-set in lexicographic order.
    """
    t = _check_t(t, a.cols)
    _check_fraction(epsilon)
    _check_m(m, a.v**t)
    profile = coverage_profile(a, t)
    allowed, defects = profile.allowed(epsilon), profile.defective(m)
    return ApcaCheck(ok=len(defects) <= allowed, defects=defects, allowed=allowed)


def completeness(a: Array, q: float, t: int) -> float:
    """Fraction of t-sets covering at least ``q * v^t`` distinct tuples.

    The threshold is ``ceil(q * v^t)`` with an exact-integer product not
    rounded up (a count meeting the product exactly qualifies).  t and q are
    checked before the scan.
    """
    t = _check_t(t, a.cols)
    _check_fraction(q, "q")
    return coverage_profile(a, t).completeness(q)
