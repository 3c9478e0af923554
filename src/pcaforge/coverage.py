"""Exhaustive coverage verification.

Every scan runs through one counting kernel, :func:`_scan`, which counts the
distinct tuples of column t-sets in batches and yields them in lexicographic
order.  Each batch (a chunk) is a run of consecutive t-sets described by
``(prefix, first, length)`` pieces: either part of one long (t-1)-prefix's
t-sets, or the whole t-set runs of several short prefixes.  Its scratch
memory stays within ``_CHUNK_BUDGET`` ranks, or one t-set's N ranks if that is
more, whatever N and v^t are.  Early-exit callers stop taking chunks.

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

from .core import Array, _check_fraction, _check_m
from .errors import CapacityExceeded, StrengthTooSmall

# Guard on v^t and on C(k,t) for every exhaustive scan.
PROFILE_CAPACITY = 2**26
# Work guard for the brute-force oracle: C(k,t) * N * v^t.
ORACLE_CAPACITY = 10**8
# Scratch elements per kernel chunk: B*N ranks.
_CHUNK_BUDGET = 2**20
# Prefixes whose t-sets span fewer ranks than this are packed into shared
# chunks; longer ones are ranked against a broadcast base without gathers.
_SHORT_SLICE = 2**15
# Ranks per packed chunk.  A quarter of the budget scans the t=3 k=60 v=3
# N=201 shape as fast as the whole budget, without raising the peak RSS.
_PACK_BUDGET = 2**18

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
        target = q * self.v**self.t
        threshold = math.ceil(target - 1e-9 * max(1.0, target))
        return float(np.count_nonzero(self.counts >= threshold)) / len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageProfile):
            return NotImplemented
        return (
            (self.t, self.v, self.k) == (other.t, other.v, other.k)
            and bool(np.array_equal(self.counts, other.counts))
        )


def _check_t(t: int, k: int) -> None:
    if t < 1 or t > k:
        raise StrengthTooSmall(f"t={t} outside [1, k={k}]")


def _packed_ranks(cols: np.ndarray, v: int, pieces: list[_Piece]) -> np.ndarray:
    """Tuple ranks of several short prefixes' t-sets as one ``(B, N)`` block.

    One row gather per prefix column builds the prefix bases, each base is
    repeated once per later column, and one more gather adds the later columns.
    """
    prefixes, firsts, lengths = zip(*pieces)
    lengths = np.array(lengths)
    # The j-th t-set of piece i ends in column firsts[i] + j.
    offsets = np.array(firsts) - (np.cumsum(lengths) - lengths)
    ranks = cols[np.arange(lengths.sum()) + np.repeat(offsets, lengths)]
    if prefixes[0]:  # t > 1
        base = 0
        for c in np.array(prefixes).T:
            base = (base + cols[c]) * v
        ranks += np.repeat(base, lengths, axis=0)
    return ranks


def _scan(cells: np.ndarray, v: int, t: int) -> _Chunks:
    """Distinct tuples covered per column t-set, in lexicographic chunks.

    Both v^t and C(k,t) must stay within :data:`PROFILE_CAPACITY`.  A
    (t-1)-prefix whose t-sets span at least ``_SHORT_SLICE`` ranks is ranked
    once, then every later column against it as one ``(B, N)`` slice of a
    column-major copy of the cells, within ``_CHUNK_BUDGET`` ranks per chunk.
    Consecutive prefixes with fewer ranks share chunks of up to
    ``_PACK_BUDGET`` ranks built by :func:`_packed_ranks`, so that narrow or
    short arrays pay the per-chunk cost once per packed chunk, not per
    prefix.  Tuples are counted by OR-reducing one-hot bits (v^t at most 64)
    or else by sorting rows.
    """
    n, k = cells.shape
    _check_t(t, k)
    vt = v**t
    if vt > PROFILE_CAPACITY:
        raise CapacityExceeded(f"v^t = {vt} exceeds {PROFILE_CAPACITY}")
    if math.comb(k, t) > PROFILE_CAPACITY:  # cheap: for v >= 2 the v^t check keeps t <= 26
        raise CapacityExceeded(f"C(k,t) = C({k},{t}) exceeds {PROFILE_CAPACITY}")
    cols = np.ascontiguousarray(cells.T, dtype=np.min_scalar_type(vt - 1))
    if vt <= 64:
        bit = np.dtype(f"uint{max(8, 1 << (vt - 1).bit_length())}").type(1)

    def count(ranks: np.ndarray) -> np.ndarray:
        if vt <= 64:
            bits = np.left_shift(bit, ranks, dtype=bit.dtype)
            counts = np.bitwise_count(np.bitwise_or.reduce(bits, axis=1))
        else:
            # numpy sorts 16-bit rows far faster than 8-bit ones
            ranks = ranks.astype(np.promote_types(ranks.dtype, np.uint16), copy=False)
            ranks = np.sort(ranks, axis=1)
            counts = (n > 0) + np.count_nonzero(ranks[:, 1:] != ranks[:, :-1], axis=1)
        return counts.astype(np.int64)

    step = max(1, min(k, _CHUNK_BUDGET // max(n, 1)))
    # A short prefix's t-sets always fit one packed chunk, so pieces never split.
    pack = min(_PACK_BUDGET, _CHUNK_BUDGET)
    short = min(_SHORT_SLICE, pack)
    per_pack = max(1, pack // max(n, 1))  # t-sets
    pieces: list[_Piece] = []
    held = 0
    for prefix in combinations(range(k - 1), t - 1):
        first = prefix[-1] + 1 if prefix else 0
        packs = n * (k - first) < short
        if pieces and (not packs or held + k - first > per_pack):
            yield pieces, count(_packed_ranks(cols, v, pieces))
            pieces, held = [], 0
        if packs:
            pieces.append((prefix, first, k - first))
            held += k - first
            continue
        base = 0
        for c in prefix:
            base = (base + cols[c]) * v
        for lo in range(first, k, step):
            ranks = base + cols[lo : lo + step]
            yield [(prefix, lo, len(ranks))], count(ranks)
    if pieces:
        yield pieces, count(_packed_ranks(cols, v, pieces))


def _count_below(chunks: _Chunks, required: int, stop_above: int | None) -> int:
    """t-sets counting below ``required``; ``stop_above + 1`` once past it."""
    defects = 0
    for _, counts in chunks:
        defects += int(np.count_nonzero(counts < required))
        if stop_above is not None and defects > stop_above:
            return stop_above + 1
    return defects


def coverage_profile(a: Array, t: int) -> CoverageProfile:
    """Count the distinct tuples each column t-set covers."""
    counts = np.concatenate([c for _, c in _scan(a.cells, a.v, t)])
    return CoverageProfile(t=t, v=a.v, k=a.cols, counts=counts)


def naive_oracle(a: Array, t: int) -> CoverageProfile:
    """Same contract as :func:`coverage_profile`, different implementation.

    Projects each row to a Python tuple and counts set sizes.  Guarded to
    small instances; exists purely to cross-check the primary counter.
    """
    _check_t(t, a.cols)
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

    Early-exit scan used by the resampling builder.
    """
    for pieces, counts in _scan(cells, v, t):
        below = np.flatnonzero(counts < m)
        if len(below):
            i = int(below[0])
            count = int(counts[i])
            for prefix, first, length in pieces:
                if i < length:
                    return Defect((*prefix, first + i), count)
                i -= length
    return None


def count_defects(
    cells: np.ndarray, v: int, t: int, m: int, *, stop_above: int | None = None
) -> int:
    """Number of t-sets covering < m tuples; stops early past ``stop_above``."""
    return _count_below(_scan(cells, v, t), m, stop_above)


def is_pca(a: Array, t: int, m: int) -> PcaCheck:
    """Does every column t-set cover at least m distinct tuples?

    On failure the witness is the lex-first defective t-set with its count.
    """
    _check_t(t, a.cols)
    _check_m(m, a.v**t)
    defect = first_defect(a.cells, a.v, t, m)
    return PcaCheck(ok=defect is None, witness=defect)


def _allowed(epsilon: float, k: int, t: int) -> int:
    """``floor(epsilon * C(k,t))``: the defective t-sets epsilon allows."""
    return math.floor(epsilon * math.comb(k, t))


def is_apca(a: Array, t: int, m: int, epsilon: float) -> ApcaCheck:
    """Do all but ``floor(epsilon * C(k,t))`` t-sets cover at least m tuples?

    The report lists every defective t-set in lexicographic order.
    """
    profile = coverage_profile(a, t)
    allowed, defects = profile.allowed(epsilon), profile.defective(m)
    return ApcaCheck(ok=len(defects) <= allowed, defects=defects, allowed=allowed)


def completeness(a: Array, q: float, t: int) -> float:
    """Fraction of t-sets covering at least ``q * v^t`` distinct tuples.

    The threshold is ``ceil(q * v^t)`` with an exact-integer product not
    rounded up (a count meeting the product exactly qualifies).
    """
    return coverage_profile(a, t).completeness(q)
