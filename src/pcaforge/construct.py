"""Constructive procedures: randomized builders and exact derandomization.

Every builder takes a :class:`~pcaforge.core.PcaParams` and nothing else.
All randomness comes from numpy's PCG64 generator seeded with the 64-bit seed
in the parameter bundle, and a builder reads nothing else (no clock), so its
:class:`BuildReport` is a pure function of the :class:`~pcaforge.core.PcaParams`:
equal parameters give equal reports, bit for bit on any platform.  Each
builder validates its parameters once and sizes its output once.  A build
whose output would exceed ``coverage.PROFILE_CAPACITY`` cells raises
``CapacityExceeded`` before any allocation, group tables included.  Every
claim a report states was established by the counts that accepted the rows
the builder returns, not by a second pass afterwards, and the returned array
wraps those very rows.  The Moser-Tardos builder accepts once every t-set
was counted at >= m tuples after its columns last changed; the developed
builders accept on one count of every t-set on their base's difference
vectors, which decides as a scan of the developed rows would (see below);
the other builders accept on one full scan of their rows.  Hitting an
iteration cap raises instead of returning a partial result.

The epsilon-almost builders are one Las Vegas restart algorithm: sample a
uniform array at the row count whose union bound holds for epsilon/2, accept
it when at most ``floor(epsilon * C(k,t))`` t-sets of the rows the builder
makes of it are defective, otherwise draw afresh.  At
epsilon/2 the expected number of defective t-sets is at most half the
allowance, so by Markov's inequality one attempt succeeds with probability
>= 1/2 and the expected number of attempts is at most 2.  One private loop
runs this for every such builder and accepts on the exact defect count of
each attempt, which the report states; attempts count from 1 and the failure
of attempt :data:`RESTART_CAP` raises ``IterationCap``, as does a
Moser-Tardos build needing more than :data:`RESAMPLE_CAP` resamples.

Builders:

* :func:`build_pca_moser_tardos` — start from a uniform random array at the
  local-lemma row count, then repeatedly take the lexicographically first
  t-set covering fewer than m tuples and redraw all N*t entries of those t
  columns.  (The classic resampling scheme redraws only the violating
  event's variables; redrawing whole columns is what this variant
  prescribes.)  One table marks each t-set, in lex order, short of m or
  not: one kernel scan fills it, and after a resample the t-sets through the
  redrawn columns, the only events sharing variables with it, are recounted.
  The table is exact after every recount, so its first short t-set is the
  one a full rescan would find, a seed builds the array such a rescan
  would, and the build ends, proved, when no t-set is short.  The table
  takes one byte per t-set.  Each resample emits one DEBUG record on the
  ``pcaforge`` logger: the t-set, its count and the number of t-sets
  recounted.
* :func:`build_apca_randomized` — the restart loop on whole arrays, sized by
  :func:`pcaforge.bounds.bound_apca` at epsilon/2.
* :func:`build_apca_cyclic` / :func:`build_apca_frobenius` — the restart loop
  on a small base array, developed over the group once accepted.
  The base size is the ``base_rows`` of
  :func:`~pcaforge.bounds.bound_apca_cyclic` or
  :func:`~pcaforge.bounds.bound_apca_frobenius` at epsilon/2.  The affine
  group also has the short orbit of constant tuples, which the v constant
  rows appended after developing cover in every t-set.  The accept count
  rests on an identity.  For a t-set with first column c0 write
  d(x) = (x_cj - x_c0) for j >= 1.  Over Z_v the developed row x + b covers
  the tuple y exactly when d(y) = d(x); over the affine group x -> a*x + b
  does exactly when d(y) = a*d(x), and the constant rows cover d(y) = 0.  So
  a t-set is complete in the developed rows exactly when the base's
  difference vectors, scaled by every multiplier a (a = 1 alone for Z_v) and
  with one zero row for the affine group, cover all v^(t-1) classes.  The
  count takes the t-sets in the kernel's lex chunks; in a chunk, the t-sets
  of one first column c0 share one store of those vectors, on which the
  kernel's gather loop counts their (t-1)-suffixes.  A rejected base is
  never developed.
* :func:`build_concat` — stack a partial-coverage component on a
  cyclic-development component.  Each component's scan proves its claim, and
  the stack keeps both: m <= m1, and added rows never lower a t-set's count.
* :func:`build_apca_derandomized` — deterministic rows, each filled cell by
  cell left to right by exact conditional expectation (the density scheme of
  Bryce & Colbourn): a cell takes the symbol that maximizes the expected
  number of (t-set, tuple) pairs the row newly covers with its later cells
  uniformly random, ties going to the smallest symbol.  Rows are added until
  at most ``floor(epsilon * C(k,t))`` t-sets miss a tuple, which happens
  within the union-bound row count; one scan of the rows then proves the
  claim.  The missing pairs are counted per t-set and tuple prefix, so each
  choice reads v counts per t-set through its column, O(C(k-1,t-1) v), and
  each row's covered pairs update t+1 counts per t-set; sizes whose
  C(k,t) x v^t pairs would exceed ``coverage.PROFILE_CAPACITY`` raise
  ``CapacityExceeded`` before allocating.  Supports full coverage targets
  (m = v^t) only.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import bounds
from .coverage import (
    PROFILE_CAPACITY, Defect, _allowed, _binomials, _check_cells, _count_tsets, _gather_counts,
    _lex_chunks, _lex_ranks, _scan, _scan_size, _unrank, count_defects,
)
from .core import (
    Array, BoundResult, PcaParams, _check_fraction, _check_full, validate,
)
from .errors import CapacityExceeded, IterationCap, PcaForgeError
from .galois import GroupAction, constant_rows, cyclic_action, develop, frobenius_action

# Iteration caps, read at call time: Moser-Tardos resamples per build and
# restart-loop attempts per build.
RESAMPLE_CAP = 1_000_000
RESTART_CAP = 64

_log = logging.getLogger("pcaforge")


@dataclass(frozen=True)
class BuildReport:
    """A verified array plus how it was produced."""

    array: Array
    iterations: int
    rng_seed: int
    bound_used: BoundResult
    verifier: str
    detail: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.array.rows


def _pcg64(seed: int | np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _sample(rng: np.random.Generator, n: int, k: int, v: int) -> np.ndarray:
    return rng.integers(0, v, size=(n, k), dtype=np.int64)


def _restart(
    params: PcaParams, rng: np.random.Generator, n_rows: int,
    count: Callable[[np.ndarray], int],
) -> tuple[np.ndarray, int, int]:
    """Draw ``n_rows x k`` arrays until ``count`` finds at most
    ``floor(epsilon * C(k,t))`` defective t-sets in one.

    ``count`` is the exact number of t-sets that cover fewer than m tuples in
    the rows the builder makes of a draw, so its value on the accepted draw
    proves their apca claim.  Returns that draw, the attempt count (from 1)
    and its count.
    """
    k, v = params.k, params.v
    allowed = _allowed(params.epsilon, k, params.t)
    for attempt in range(1, RESTART_CAP + 1):
        cells = _sample(rng, n_rows, k, v)
        defective = count(cells)
        if defective <= allowed:
            return cells, attempt, defective
    raise IterationCap(f"hit restart cap {RESTART_CAP}")


def _verified(
    params: PcaParams, cells: np.ndarray, bound: BoundResult, iterations: int, *,
    pca_m: int | None = None, apca_m: int | None = None, detail: dict | None = None,
) -> BuildReport:
    """Wrap the rows a builder made, neither copied nor rescanned, in a report
    stating the claims its counts have proved: one full scan for the apca
    restart builder and the derandomizer, one count of every t-set on the
    accepted base's difference vectors for the developed builders, and for
    Moser-Tardos every t-set counted at >= m after its columns last changed.

    ``pca_m`` claims every t-set covers that many tuples, ``apca_m`` that all
    but ``floor(epsilon * C(k,t))`` do.
    """
    t, epsilon = params.t, params.epsilon
    claims = [] if pca_m is None else [f"pca(t={t}, m={pca_m})"]
    if apca_m is not None:
        claims.append(f"apca(t={t}, m={apca_m}, epsilon={epsilon})")
    return BuildReport(
        array=Array._wrap(cells, params.v), iterations=iterations, rng_seed=params.seed,
        bound_used=bound, verifier=" + ".join(claims), detail=detail or {},
    )


def _full_coverage(params: PcaParams, what: str) -> PcaParams:
    """Validate a full-coverage (m = v^t) request with a positive epsilon."""
    params = validate(params)
    _check_full(params.m, params.vt, what)
    _check_fraction(params.epsilon, positive=True)
    return params


def _through(
    others: np.ndarray, binom: np.ndarray, columns: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """The lex ranks and the ``(B, t)`` array of the t-sets through
    ``columns``, in lex order without repeats.

    ``others`` holds the (t-1)-sets of ``range(k-1)``: moving each entry at or
    above column c up by one and putting c in front gives every t-set through
    c once, and one bubble pass moves c to its place in the sorted rest.
    """
    c = np.array(columns)[:, None, None]
    lifted = others + (others >= c)
    tsets = np.concatenate([np.broadcast_to(c, (*lifted.shape[:2], 1)), lifted], axis=2)
    for i in range(1, len(columns)):
        left = tsets[..., i - 1].copy()
        np.minimum(left, tsets[..., i], out=tsets[..., i - 1])
        np.maximum(left, tsets[..., i], out=tsets[..., i])
    tsets = tsets.reshape(-1, len(columns))
    ranks, first = np.unique(_lex_ranks(tsets, binom), return_index=True)
    return ranks, tsets[first]


def _defects(cells: np.ndarray, v: int, t: int, m: int) -> Iterator[Defect]:
    """The defects Moser-Tardos resamples, in the order of a full lex rescan.

    The caller redraws each defect's columns in ``cells`` before taking the
    next.  ``short`` marks, per t-set in lex order, whether it covers fewer
    than m tuples: one kernel scan fills it, and after each redraw every
    t-set through the redrawn columns is recounted, as no other count can
    change.  The table is exact after every recount, so its first ``True`` is
    the lex-first short t-set, the one a full rescan would find.
    """
    k = cells.shape[1]
    short = np.empty(_scan_size(k, v, t)[1], dtype=bool)
    lo = 0
    for _, counts in _scan(cells, v, t):
        np.less(counts, m, out=short[lo : lo + len(counts)])
        lo += len(counts)
    # built once the C(k,t) guard has passed
    others = _unrank(_binomials(k - 1, t - 1), t - 1, 0, math.comb(k - 1, t - 1))
    binom = _binomials(k, t)
    rank = int(short.argmax())  # a bool argmax stops at the first True
    while short[rank]:
        tset = tuple(_unrank(binom, t, rank, rank + 1)[0].tolist())
        count = int(_count_tsets(cells[:, tset], v, np.arange(t)[None])[0])
        yield Defect(tset, count)
        ranks, tsets = _through(others, binom, tset)
        short[ranks] = _count_tsets(cells, v, tsets) < m
        _log.debug("resampled t-set %s covering %d tuples; recounted %d t-sets",
                   tset, count, len(ranks))
        rank = int(short.argmax())


def _moser_tardos(params: PcaParams, rng: np.random.Generator) -> BuildReport:
    """The Moser-Tardos build of validated ``params``, drawing from ``rng``."""
    t, k, v, m = params.t, params.k, params.v, params.m
    bound = bounds.bound_pca_lll(t, k, v, m)
    _check_cells(bound.n_rows, k)
    cells = _sample(rng, bound.n_rows, k, v)
    resamples = 0
    for defect in _defects(cells, v, t, m):
        if resamples >= RESAMPLE_CAP:
            raise IterationCap(f"hit resample cap {RESAMPLE_CAP} at t-set {defect.tset}")
        cells[:, defect.tset] = _sample(rng, bound.n_rows, t, v)
        resamples += 1
    return _verified(params, cells, bound, resamples, pca_m=m)


def build_pca_moser_tardos(params: PcaParams) -> BuildReport:
    """Resampling builder for partial m-coverage at the local-lemma row count."""
    params = validate(params)
    return _moser_tardos(params, _pcg64(params.seed))


def algorithm_rows_apca(t: int, v: int, m: int, epsilon: float) -> int:
    """Row count used by the restart builder: the union-bound inequality at
    epsilon/2, leaving probability >= 1/2 that one sample already works."""
    return bounds.bound_apca(t, v, m, epsilon / 2).n_rows


def build_apca_randomized(params: PcaParams) -> BuildReport:
    """Sample-and-check builder for epsilon-almost partial m-coverage."""
    params = validate(params)
    t, k, v, m, epsilon = params.t, params.k, params.v, params.m, params.epsilon
    n_rows = algorithm_rows_apca(t, v, m, epsilon)
    _check_cells(n_rows, k)
    bound = bounds.bound_apca(t, v, m, epsilon)
    cells, attempts, defective = _restart(
        params, _pcg64(params.seed), n_rows, lambda cells: count_defects(cells, v, t, m)
    )
    detail = {"allowed": _allowed(epsilon, k, t), "defective_tsets": defective}
    return _verified(params, cells, bound, attempts, apca_m=m, detail=detail)


def _difference_counts(base: np.ndarray, action: GroupAction, tsets: np.ndarray) -> np.ndarray:
    """The difference classes each t-set of the lex-ordered ``(B, t)`` array
    ``tsets`` covers in the development of ``base`` over ``action``, followed
    for the affine group by the v constant rows, counted on the base's
    difference vectors without developing it.

    ``sub[x0, x]`` is x under the translation (one of ``perms[:v]``, the
    a = 1 elements) that sends x0 to 0: x - x0 mod v over Z_v, digit-wise
    mod p over GF(p^n) (XOR for p = 2).  The multipliers are the elements
    fixing 0.  In lex order the t-sets with first column c0 form one run,
    and row x gives there the difference vector ``sub[x_c0, x_j]`` (j > c0)
    under every multiplier; the constant rows give the zero vector.  One
    column-major store, in the kernel's dtype, holds those vectors for the
    run's c0, and :func:`~pcaforge.coverage._gather_counts` counts the run's
    (t-1)-suffixes on it.  By the identity in the module docstring a t-set
    is complete exactly when its count is v^(t-1).
    """
    n, k = base.shape
    v = action.v
    translations = action.perms[:v]
    sub = translations[np.argmax(translations == 0, axis=0)]
    dtype = np.min_scalar_type(v ** (tsets.shape[1] - 1) - 1)
    # scaled[x0, x, g]: sub[x0, x] under the g-th multiplier
    scaled = action.perms[action.perms[:, 0] == 0][:, sub].transpose(1, 2, 0).astype(dtype)
    developed = n * scaled.shape[2]
    cols = np.zeros((k, developed + (action.kind == "frobenius")), dtype)  # the zero row last
    starts = np.flatnonzero(np.diff(tsets[:, 0], prepend=-1))
    counts = []
    for c0, run in zip(tsets[starts, 0].tolist(), np.split(tsets[:, 1:], starts[1:])):
        cols[c0 + 1:, :developed] = scaled[base[:, c0], base[:, c0 + 1:].T].reshape(k - 1 - c0, -1)
        counts.append(_gather_counts(cols, v, run))
    return np.concatenate(counts)


def _build_developed(
    params: PcaParams, make_action: Callable[[int], GroupAction],
    bound_fn: Callable[[int, int, float], BoundResult], rng: np.random.Generator,
) -> BuildReport:
    """Restart on base arrays until their development over the group
    ``make_action(v)`` covers all v^t tuples in enough t-sets, then develop
    the accepted base once.  A draw's defects are the t-sets, taken in the
    chunks of :func:`~pcaforge.coverage._lex_chunks`, whose
    :func:`_difference_counts` fall short of v^(t-1).

    ``bound_fn`` at epsilon/2 gives the base size and the developed row
    count.  Before the group is built, that count is checked against the
    cell cap, and v^t and C(k,t) against the guard a scan of the developed
    rows applies, so the same sizes are refused as by such a scan; every
    store of difference vectors the count fills is smaller than the
    developed rows.
    The affine group also has a short orbit, its constant tuples, which the
    v constant rows, written after the developed rows in one buffer, cover
    in every t-set.
    """
    t, k, v, epsilon = params.t, params.k, params.v, params.epsilon
    half = bound_fn(t, v, epsilon / 2)
    _check_cells(half.n_rows, k)
    _scan_size(k, v, t)
    action = make_action(v)
    n_base, bound = half.detail["base_rows"], bound_fn(t, v, epsilon)
    # chunks sized by their t-sets alone: each run's gather keeps to the budget
    base, attempts, defective = _restart(params, rng, n_base, lambda base: sum(
        int(np.count_nonzero(_difference_counts(base, action, tsets) < v ** (t - 1)))
        for tsets in _lex_chunks(k, t, 1)
    ))
    tail = constant_rows(k, v) if action.kind == "frobenius" else None
    cells = develop(Array._wrap(base, v), action, tail).cells
    detail = {"base_rows": n_base, "defective_tsets": defective}
    return _verified(params, cells, bound, attempts, apca_m=v**t, detail=detail)


def build_apca_cyclic(params: PcaParams) -> BuildReport:
    """Cyclic-development builder for epsilon-almost full coverage (m = v^t).

    Samples base arrays and develops each over the cyclic group until all but
    ``floor(epsilon * C(k,t))`` t-sets of the developed array cover every
    tuple.  The base row count uses the halved-epsilon inequality so each
    sample succeeds with probability >= 1/2.
    """
    params = _full_coverage(params, "cyclic development targets m = v^t")
    return _build_developed(params, cyclic_action, bounds.bound_apca_cyclic, _pcg64(params.seed))


def build_apca_frobenius(params: PcaParams) -> BuildReport:
    """Affine-group builder for epsilon-almost full coverage (m = v^t).

    The appended constant rows cover the short orbit in every t-set
    unconditionally.
    """
    params = _full_coverage(params, "affine development targets m = v^t")
    # NotPrimePower and OrderTooLarge come before the cell cap; the table is small
    action = frobenius_action(params.v)
    return _build_developed(
        params, lambda v: action, bounds.bound_apca_frobenius, _pcg64(params.seed)
    )


def build_concat(params: PcaParams) -> BuildReport:
    """Stack a partial m-coverage component on an almost-full-coverage one.

    The output satisfies both guarantees: every t-set covers at least m
    tuples, and all but an epsilon fraction of t-sets cover all v^t tuples.
    Each holds for one component already, and stacking keeps it.  The
    components draw from independent streams spawned from the bundle seed.
    """
    params = validate(params)
    t, k, v, m, epsilon = params.t, params.k, params.v, params.m, params.epsilon
    bound = bounds.bound_concat(t, k, v, m, epsilon)
    _check_cells(bound.n_rows, k)
    m1 = bound.detail["m1"]
    seq1, seq2 = np.random.SeedSequence(params.seed).spawn(2)
    part1 = _moser_tardos(PcaParams(t, k, v, m1, 0.0, params.seed), _pcg64(seq1))
    part2 = _build_developed(
        PcaParams(t, k, v, v**t, epsilon, params.seed), cyclic_action,
        bounds.bound_apca_cyclic, _pcg64(seq2),
    )
    detail = {
        "m1": m1,
        "component_rows": (part1.n_rows, part2.n_rows),
        "component_iterations": (part1.iterations, part2.iterations),
    }
    return _verified(
        params, np.vstack([part1.array.cells, part2.array.cells]), bound,
        part1.iterations + part2.iterations, pca_m=m, apca_m=v**t, detail=detail,
    )


# -- derandomization -------------------------------------------------------------

def derandomize_rows(
    t: int, k: int, v: int, allowed: int, max_rows: int
) -> tuple[np.ndarray, list[int]]:
    """Add rows, each fixed cell by cell, until at most ``allowed`` t-sets
    miss a tuple.

    One table counts the (t-set, tuple) pairs no row covers yet, by prefix.
    Level q, for q = 0..t, holds C(k,t) v^q counts from ``base[q]`` on: at
    ``base[q] + i v^q + r``, how many missing tuples of t-set i start with
    the q-symbol prefix r.  Level 0 is each t-set's count of missing tuples
    and level t the 0/1 table of missing pairs.  Each row is
    filled left to right.  Cell j takes the symbol s that maximizes the
    expected number of pairs the row newly covers, given the row's cells left
    of j and with the cells right of j uniformly random; ties go to the
    smallest symbol.  Scaled by v^(t-1) that expectation is an exact integer:
    a t-set holding j at position p contributes the number of its missing
    tuples that agree with the row on its first p columns and have s at
    position p, times v^p.  That number is the level-(p+1) count of the row's
    prefix extended by s, so a cell reads the v children of one prefix per
    t-set.  A covered pair then lowers the t+1 counts on its path by one.

    The chosen row covers at least the expectation of a uniform row,
    ``missing / v^t`` pairs, so after N rows at most ``C(k,t) v^t
    (1 - v^-t)^N`` pairs are missing and the stop comes at or before the
    union-bound row count; ``max_rows`` is that count, and reaching it
    unstopped raises.  ``C(k,t) v^t`` and ``max_rows * k`` must stay within
    :data:`~pcaforge.coverage.PROFILE_CAPACITY`, checked before allocating.

    Returns the cells and the trace of missing pairs: the count before the
    first row, then after each row.
    """
    n_tsets, vt = math.comb(k, t), v**t
    if n_tsets * vt > PROFILE_CAPACITY or max_rows * k > PROFILE_CAPACITY:
        raise CapacityExceeded(f"C(k,t)*v^t = {n_tsets}*{vt} or N*k = {max_rows}*{k} "
                               f"exceeds {PROFILE_CAPACITY}")
    tsets = _unrank(_binomials(k, t), t, 0, n_tsets)
    level = np.arange(t + 1)
    base = np.concatenate(([0], np.cumsum(n_tsets * v**level)))
    missing = np.repeat((vt // v**level).astype(np.min_scalar_type(vt)), n_tsets * v**level)
    children = np.lib.stride_tricks.sliding_window_view(missing, v)
    # Per column: the t-sets i through it, at position p; where their
    # level-(p+1) counts start; and v^p.
    hits = [np.nonzero(tsets == j) for j in range(k)]
    columns = [(i, base[p + 1] + i * v ** (p + 1), v**p) for i, p in hits]
    cells = np.zeros((max_rows, k), dtype=np.int64)
    trace = [n_tsets * vt]
    while np.count_nonzero(missing[:n_tsets]) > allowed:
        if len(trace) > max_rows:
            raise PcaForgeError(f"internal: {max_rows} rows leave over {allowed} t-sets short")
        row = cells[len(trace) - 1]
        prefix = np.zeros(n_tsets, dtype=np.int64)  # each t-set's tuple so far
        for j, (i, start, weight) in enumerate(columns):
            row[j] = s = int(np.argmax(weight @ children[start + v * prefix[i]]))
            prefix[i] = v * prefix[i] + s
        # the covered tuple's prefixes, one per level; its count at level t is
        # 1 if the pair was missing, else 0
        path = base[:-1, None] + (prefix + vt * np.arange(n_tsets)) // (vt // v**level)[:, None]
        missing[path] -= missing[path[t]]
        trace.append(int(missing[:n_tsets].sum()))  # level 0 sums every missing pair
    return cells[:len(trace) - 1], trace


def build_apca_derandomized(params: PcaParams) -> BuildReport:
    """Deterministic builder for epsilon-almost full coverage (m = v^t only).

    Adds rows by :func:`derandomize_rows` until at most
    ``floor(epsilon * C(k,t))`` t-sets miss a tuple, which happens within the
    union-bound row count.  The expected-coverage score counts missing tuples
    of every t-set alike, which fits the full-coverage target only; smaller m
    is rejected.
    """
    params = _full_coverage(params, "derandomization supports m = v^t only")
    t, k, v, epsilon = params.t, params.k, params.v, params.epsilon
    bound = bounds.bound_apca(t, v, v**t, epsilon)
    allowed = _allowed(epsilon, k, t)
    cells, trace = derandomize_rows(t, k, v, allowed, bound.n_rows)
    # the stop rule read the table of missing pairs; the kernel proves the claim
    defective = count_defects(cells, v, t, v**t)
    if defective > allowed:
        raise PcaForgeError(f"internal: {defective} t-sets short, {allowed} allowed")
    detail = {"missing_trace": trace, "defective_tsets": defective}
    return _verified(params, cells, bound, 0, apca_m=v**t, detail=detail)
