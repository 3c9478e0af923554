"""Exhaustive coverage verification.

Every scan runs through one counting kernel, :func:`_scan`, which counts the
distinct tuples of column t-sets in batches and yields them in lexicographic
order.  The batches (chunks) come from one walk, :func:`_lex_chunks`: each
is a range of consecutive lex ranks, ``step = max(1, _CHUNK_BUDGET //
max(N, t))`` of them for N rows counted (the last range may be shorter),
which :func:`_unrank` turns into an explicit ``(B, t)`` array of t-sets by
the combinatorial number system.  A chunk's ranks and its t-sets thus hold
at most ``_CHUNK_BUDGET`` entries each, or one t-set's N ranks if that is
more, whatever N and v^t are.  Early-exit callers stop taking chunks.  The
developed builders take their t-sets from the same walk, to count them on a
base's difference vectors.  :func:`_binomials`, :func:`_lex_ranks` and
:func:`_unrank` are the one lex numbering of t-sets; the resampling builder
indexes its table of short t-sets with them too.

Every ``(B, t)`` array of t-sets is counted by one gather loop,
:func:`_gather_counts`, which builds its tuple ranks column by column, in
chunks within the same budget, for :func:`_count` to count.  It serves the
kernel's chunks, the kernel's recounts below, :func:`_count_tsets`, which
counts on all N rows the t-sets through a resample's columns for the
resampling builder, and the developed builders' difference counts.

On tall arrays (N above ``head = v^t * (ln v^t + _HEAD_SLACK)`` rows) the
kernel counts every t-set on that many leading rows first, the head, where
nearly all of them already cover every tuple.  Only the t-sets of a chunk
short of v^t in the head are recounted on all N rows before their chunk is
yielded.  A t-set that covers all v^t tuples in the head covers them in the
whole array, so every count the kernel yields is exact, as if all N rows had
been counted.  Only the head rows are transposed for the head counts; a
column's N rows are transposed the first time a recount reads it, so an
array whose t-sets all cover v^t tuples in the head is read no further than
the head.

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
from itertools import combinations, compress
from typing import Iterator, NamedTuple

import numpy as np

from .core import Array, _as_int, _check_fraction, _check_m, _snap
from .errors import CapacityExceeded, StrengthTooSmall

# Guard on v^t and on C(k,t) for every exhaustive scan, and on the cells of
# every array a builder or a group table allocates.
PROFILE_CAPACITY = 2**26
# Work guard for the brute-force oracle: C(k,t) * N * v^t.
ORACLE_CAPACITY = 10**8
# Scratch elements per kernel chunk: B*N ranks and B*t t-set entries, so every
# chunk, head chunk or explicit t-sets, holds _CHUNK_BUDGET // max(N, t)
# t-sets.  At 2^18 the t=3 k=60 v=3 N=201 shape scans as fast as at 2^20
# without raising the peak RSS.
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


def _binomials(k: int, t: int) -> np.ndarray:
    """The ``(k+1, t+1)`` table of C(n, r) for n <= k and r <= t.

    Column r is the running sum of column r-1 shifted down one row, since
    C(n, r) is the sum of C(j, r-1) over j < n.
    """
    binom = np.zeros((k + 1, t + 1), dtype=np.int64)
    binom[:, 0] = 1
    for r in range(1, t + 1):
        np.cumsum(binom[:-1, r - 1], out=binom[1:, r])
    return binom


def _lex_ranks(tsets: np.ndarray, binom: np.ndarray) -> np.ndarray:
    """Lex ranks, among the t-sets of ``range(k)``, of the rows of a ``(B, t)`` array.

    ``binom`` is :func:`_binomials` of (k, t).  The t-sets after
    c_0 < ... < c_(t-1) in lex order number the sum of C(k-1-c_i, t-i)
    (the combinatorial number system on the columns k-1-c_i), so its rank
    is C(k,t) - 1 less that sum.
    """
    k, t = binom.shape[0] - 1, tsets.shape[1]
    return binom[k, t] - 1 - binom[k - 1 - tsets, t - np.arange(t)].sum(axis=1)


def _unrank(binom: np.ndarray, t: int, lo: int, hi: int) -> np.ndarray:
    """The t-sets of lex ranks ``lo`` to ``hi - 1``, as a ``(hi - lo, t)`` array.

    The inverse of :func:`_lex_ranks` on the same ``binom``: the rest
    C(k,t) - 1 - rank is written greedily as the sum of C(k-1-c_i, t-i), each
    k-1-c_i the largest n with C(n, t-i) within what is left, found by a
    search of column t-i.  The last term is C(k-1-c_(t-1), 1) = k-1-c_(t-1).
    """
    k = binom.shape[0] - 1
    rest = binom[k, t] - 1 - np.arange(lo, hi)
    tsets = np.empty((hi - lo, t), dtype=np.int64)
    for i in range(t - 1):
        column = binom[:, t - i]
        below = np.searchsorted(column, rest, side="right") - 1
        tsets[:, i] = k - 1 - below
        rest -= column[below]
    tsets[:, t - 1] = k - 1 - rest
    return tsets


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


def _check_cells(n_rows: int, k: int) -> None:
    """Refuse an N x k grid of more than :data:`PROFILE_CAPACITY` cells: the
    guard of every array a builder or a group table allocates."""
    if n_rows * k > PROFILE_CAPACITY:
        raise CapacityExceeded(f"N*k = {n_rows}*{k} exceeds {PROFILE_CAPACITY}")


def _scan_size(k: int, v: int, t: int) -> tuple[int, int]:
    """v^t and C(k,t), once both are checked against :data:`PROFILE_CAPACITY`:
    the guard of every exhaustive scan of a k-column array over v symbols."""
    vt = v**t
    if vt > PROFILE_CAPACITY:
        raise CapacityExceeded(f"v^t = {vt} exceeds {PROFILE_CAPACITY}")
    total = math.comb(k, t)  # cheap: for v >= 2 the v^t check keeps t <= 26
    if total > PROFILE_CAPACITY:
        raise CapacityExceeded(f"C(k,t) = C({k},{t}) exceeds {PROFILE_CAPACITY}")
    return vt, total


def _lex_chunks(k: int, t: int, rows: int) -> Iterator[np.ndarray]:
    """Every t-set of ``range(k)`` in lex order, in chunks of consecutive ranks.

    The chunks are the lex-rank ranges ``range(0, C(k,t), step)``, where
    ``step = max(1, _CHUNK_BUDGET // max(rows, t))`` (the last may be
    shorter), each built by :func:`_unrank` as a ``(B, t)`` array.  Counted
    on ``rows`` rows, a chunk's ranks and its t-sets thus each hold at most
    ``_CHUNK_BUDGET`` entries, or one t-set's ``rows`` ranks if that is
    more.  The caller checks C(k,t) against :data:`PROFILE_CAPACITY`.
    """
    binom = _binomials(k, t)
    total = int(binom[k, t])
    step = max(1, _CHUNK_BUDGET // max(rows, t))
    for lo in range(0, total, step):
        yield _unrank(binom, t, lo, min(lo + step, total))


def _scan(cells: np.ndarray, v: int, t: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Distinct tuples covered per column t-set, in lexicographic chunks.

    The scan covers every t-set.  Both v^t and C(k,t) must stay within
    :data:`PROFILE_CAPACITY`.  The chunks are those of
    ``_lex_chunks(k, t, head)``, each counted as
    ``_gather_counts(head_cols, v, tsets)`` on a column-major copy of the
    head rows.

    With N above ``head = v^t * (ln v^t + _HEAD_SLACK)`` rows, the chunks are
    first counted, and sized, on the first ``head`` rows only.  Before a chunk
    is yielded, its t-sets that covered fewer than v^t tuples in the head are
    recounted over all N rows by :func:`_gather_counts`, on a column-major
    store whose columns :func:`_fill` copies the first time a recount reads
    them.  A t-set that covers all v^t tuples in the head covers them in the
    whole array, so every yielded count is exact.  Each chunk is yielded as
    its ``(B, t)`` array of t-sets and their counts.
    """
    n, k = cells.shape
    t = _check_t(t, k)
    vt = _scan_size(k, v, t)[0]
    dtype = np.min_scalar_type(vt - 1)
    head = min(n, _head_rows(vt))
    head_cols = np.ascontiguousarray(cells[:head].T, dtype)
    if head < n:  # the recount's columns, each filled when a recount first reads it
        cols, filled = np.empty((k, n), dtype), np.zeros(k, dtype=bool)
    for tsets in _lex_chunks(k, t, head):
        counts = _gather_counts(head_cols, v, tsets)
        short = np.flatnonzero(counts < vt) if head < n else ()
        if len(short):
            recount = tsets[short]
            counts[short] = _gather_counts(_fill(cols, filled, cells, recount), v, recount)
        yield tsets, counts


def _gather_counts(cols: np.ndarray, v: int, tsets: np.ndarray) -> np.ndarray:
    """Distinct tuples covered by each t-set of the ``(B, t)`` array ``tsets``.

    ``cols`` holds the cells column-major, in a dtype that holds v^t - 1;
    only the columns the t-sets name are read, and each count is exact over
    every row ``cols`` holds.  Each t-set's tuple ranks are built column by
    column, one row gather per column, in chunks of at most ``_CHUNK_BUDGET``
    ranks (or one t-set's N if that is more).
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


def first_defect(cells: np.ndarray, v: int, t: int, m: int) -> Defect | None:
    """Lexicographically first t-set covering < m distinct tuples, else None.

    Early-exit scan for :func:`is_pca`: no chunk past the first defect's is
    counted.
    """
    for tsets, counts in _scan(cells, v, t):
        below = np.flatnonzero(counts < m)
        if len(below):
            return Defect(tuple(tsets[below[0]].tolist()), int(counts[below[0]]))
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
