"""Constructive procedures: randomized builders and exact derandomization.

Every builder takes a :class:`~pcaforge.core.PcaParams` and nothing else.
All randomness comes from numpy's PCG64 generator seeded with the 64-bit seed
in the parameter bundle, so a fixed seed reproduces the output array and the
iteration count bit for bit on any platform.  Every claim a
:class:`BuildReport` states was established by one full scan of the rows the
builder returns: the scan that accepted them, not a second pass afterwards.
Hitting an iteration cap raises instead of returning a partial result, and a
build whose output would exceed ``coverage.PROFILE_CAPACITY`` cells raises
``CapacityExceeded`` before anything is drawn.

The epsilon-almost builders are one Las Vegas restart algorithm: sample a
uniform array at the row count whose union bound holds for epsilon/2, turn it
into the rows the builder returns, accept them when at most
``floor(epsilon * C(k,t))`` t-sets are defective, otherwise draw afresh.  At
epsilon/2 the expected number of defective t-sets is at most half the
allowance, so by Markov's inequality one attempt succeeds with probability
>= 1/2 and the expected number of attempts is at most 2.  One private loop
runs this for every such builder; attempts count from 1 and the failure of
attempt :data:`RESTART_CAP` raises ``IterationCap``, as does a Moser-Tardos
build needing more than :data:`RESAMPLE_CAP` resamples.

Builders:

* :func:`build_pca_moser_tardos` — start from a uniform random array at the
  local-lemma row count, then repeatedly rescan column t-sets in lexicographic
  order and, at the first t-set covering fewer than m tuples, redraw all N*t
  entries of those t columns; the scan that finds no such t-set is the proof.
  (The classic resampling scheme redraws only the violating event's
  variables; redrawing whole columns is what this variant prescribes.)
* :func:`build_apca_randomized` — the restart loop on whole arrays, sized by
  :func:`pcaforge.bounds.bound_apca` at epsilon/2.
* :func:`build_apca_cyclic` / :func:`build_apca_frobenius` — the restart loop
  on a small base array, developed over the group before the accept scan.
  The base size is the ``base_rows`` of
  :func:`~pcaforge.bounds.bound_apca_cyclic` or
  :func:`~pcaforge.bounds.bound_apca_frobenius` at epsilon/2.  The affine
  group also has the short orbit of constant tuples, which the v constant
  rows appended after developing cover in every t-set.
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
  claim.  Each choice costs O(C(k-1,t-1) v) and
  each row one pass over the C(k,t) x v^t table of missing pairs; sizes whose
  table would exceed ``coverage.PROFILE_CAPACITY`` raise ``CapacityExceeded``
  before allocating.  Supports full coverage targets (m = v^t) only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from . import bounds
from .coverage import PROFILE_CAPACITY, _allowed, count_defects, first_defect
from .core import (
    Array, BoundResult, PcaParams, _check_fraction, _check_full, rank_weights, validate,
)
from .errors import CapacityExceeded, IterationCap, PcaForgeError
from .galois import GroupAction, constant_rows, cyclic_action, develop, frobenius_action

# Iteration caps, read at call time: Moser-Tardos resamples per build and
# restart-loop attempts per build.
RESAMPLE_CAP = 1_000_000
RESTART_CAP = 64


@dataclass(frozen=True)
class BuildReport:
    """A verified array plus how it was produced."""

    array: Array
    iterations: int
    rng_seed: int
    bound_used: BoundResult
    elapsed: float
    verifier: str
    detail: dict = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return self.array.rows


def _pcg64(seed: int | np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _check_cells(n_rows: int, k: int) -> None:
    if n_rows * k > PROFILE_CAPACITY:
        raise CapacityExceeded(f"N*k = {n_rows}*{k} exceeds {PROFILE_CAPACITY}")


def _sample(rng: np.random.Generator, n: int, k: int, v: int) -> np.ndarray:
    _check_cells(n, k)
    return rng.integers(0, v, size=(n, k), dtype=np.int64)


def _restart(
    params: PcaParams, rng: np.random.Generator, n_rows: int,
    make: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, int, int]:
    """Draw ``n_rows x k`` arrays until ``make`` turns one into rows in which
    at most ``floor(epsilon * C(k,t))`` t-sets cover fewer than m tuples.

    That count of the returned rows proves their apca claim.  Returns the
    rows, the attempt count (from 1) and their exact defective t-set count.
    """
    t, k, v, m = params.t, params.k, params.v, params.m
    allowed = _allowed(params.epsilon, k, t)
    for attempt in range(1, RESTART_CAP + 1):
        cells = make(_sample(rng, n_rows, k, v))
        defective = count_defects(cells, v, t, m, stop_above=allowed)
        if defective <= allowed:
            return cells, attempt, defective
    raise IterationCap(f"hit restart cap {RESTART_CAP}")


def _verified(
    params: PcaParams, array: Array, bound: BoundResult, start: float, iterations: int, *,
    pca_m: int | None = None, apca_m: int | None = None, detail: dict | None = None,
) -> BuildReport:
    """Wrap ``array`` in a report stating the claims its builder has proved.

    ``pca_m`` claims every t-set covers that many tuples, ``apca_m`` that all
    but ``floor(epsilon * C(k,t))`` do.
    """
    t, epsilon = params.t, params.epsilon
    claims = [] if pca_m is None else [f"pca(t={t}, m={pca_m})"]
    if apca_m is not None:
        claims.append(f"apca(t={t}, m={apca_m}, epsilon={epsilon})")
    return BuildReport(
        array=array, iterations=iterations, rng_seed=params.seed, bound_used=bound,
        elapsed=time.perf_counter() - start, verifier=" + ".join(claims), detail=detail or {},
    )


def _full_coverage(params: PcaParams, what: str) -> PcaParams:
    """Validate a full-coverage (m = v^t) request with a positive epsilon."""
    params = validate(params)
    _check_full(params.m, params.vt, what)
    _check_fraction(params.epsilon, positive=True)
    return params


def _moser_tardos(params: PcaParams, rng: np.random.Generator) -> BuildReport:
    params = validate(params)
    t, k, v, m = params.t, params.k, params.v, params.m
    start = time.perf_counter()
    bound = bounds.bound_pca_lll(t, k, v, m)
    cells = _sample(rng, bound.n_rows, k, v)
    resamples = 0
    while (defect := first_defect(cells, v, t, m)) is not None:
        if resamples >= RESAMPLE_CAP:
            raise IterationCap(f"hit resample cap {RESAMPLE_CAP} at t-set {defect.tset}")
        cells[:, defect.tset] = _sample(rng, bound.n_rows, t, v)
        resamples += 1
    return _verified(params, Array(cells, v), bound, start, resamples, pca_m=m)


def build_pca_moser_tardos(params: PcaParams) -> BuildReport:
    """Resampling builder for partial m-coverage at the local-lemma row count."""
    return _moser_tardos(params, _pcg64(params.seed))


def algorithm_rows_apca(t: int, v: int, m: int, epsilon: float) -> int:
    """Row count used by the restart builder: the union-bound inequality at
    epsilon/2, leaving probability >= 1/2 that one sample already works."""
    return bounds.bound_apca(t, v, m, epsilon / 2).n_rows


def build_apca_randomized(params: PcaParams) -> BuildReport:
    """Sample-and-check builder for epsilon-almost partial m-coverage."""
    params = validate(params)
    t, v, m, epsilon = params.t, params.v, params.m, params.epsilon
    start = time.perf_counter()
    n_rows = algorithm_rows_apca(t, v, m, epsilon)
    bound = bounds.bound_apca(t, v, m, epsilon)
    cells, attempts, defective = _restart(params, _pcg64(params.seed), n_rows, lambda c: c)
    detail = {"allowed": _allowed(epsilon, params.k, t), "defective_tsets": defective}
    return _verified(params, Array(cells, v), bound, start, attempts, apca_m=m, detail=detail)


def _build_developed(
    params: PcaParams, action: GroupAction, bound_fn: Callable[[int, int, float], BoundResult],
    rng: np.random.Generator,
) -> BuildReport:
    """Restart on base arrays until their development over ``action`` covers
    all v^t tuples in enough t-sets.

    ``bound_fn`` at epsilon/2 gives the base size and the developed row
    count, which is checked against the cell cap before the first draw.  The
    affine group also has a short orbit, its constant tuples, which the v
    constant rows appended after developing cover in every t-set.  A developed
    t-set covers all tuples exactly when the base with those rows covers every
    orbit, so the accept scan of the developed rows decides as an orbit count
    on the base would.
    """
    t, k, v, epsilon = params.t, params.k, params.v, params.epsilon
    start = time.perf_counter()
    half = bound_fn(t, v, epsilon / 2)
    _check_cells(half.n_rows, k)
    n_base, bound = half.detail["base_rows"], bound_fn(t, v, epsilon)
    tail = constant_rows(k, v).cells[: v if action.kind == "frobenius" else 0]
    cells, attempts, defective = _restart(
        params, rng, n_base,
        lambda base: np.vstack((develop(Array(base, v), action).cells, tail)),
    )
    detail = {"base_rows": n_base, "defective_tsets": defective}
    return _verified(params, Array(cells, v), bound, start, attempts, apca_m=v**t, detail=detail)


def build_apca_cyclic(params: PcaParams) -> BuildReport:
    """Cyclic-development builder for epsilon-almost full coverage (m = v^t).

    Samples base arrays and develops each over the cyclic group until all but
    ``floor(epsilon * C(k,t))`` t-sets of the developed array cover every
    tuple.  The base row count uses the halved-epsilon inequality so each
    sample succeeds with probability >= 1/2.
    """
    params = _full_coverage(params, "cyclic development targets m = v^t")
    return _build_developed(
        params, cyclic_action(params.v), bounds.bound_apca_cyclic, _pcg64(params.seed)
    )


def build_apca_frobenius(params: PcaParams) -> BuildReport:
    """Affine-group builder for epsilon-almost full coverage (m = v^t).

    The appended constant rows cover the short orbit in every t-set
    unconditionally.
    """
    params = _full_coverage(params, "affine development targets m = v^t")
    action = frobenius_action(params.v)  # raises NotPrimePower for composite non-powers
    return _build_developed(params, action, bounds.bound_apca_frobenius, _pcg64(params.seed))


def build_concat(params: PcaParams) -> BuildReport:
    """Stack a partial m-coverage component on an almost-full-coverage one.

    The output satisfies both guarantees: every t-set covers at least m
    tuples, and all but an epsilon fraction of t-sets cover all v^t tuples.
    Each holds for one component already, and stacking keeps it.  The
    components draw from independent streams spawned from the bundle seed.
    """
    params = validate(params)
    t, k, v, m, epsilon = params.t, params.k, params.v, params.m, params.epsilon
    start = time.perf_counter()
    bound = bounds.bound_concat(t, k, v, m, epsilon)
    _check_cells(bound.n_rows, k)
    m1 = bound.detail["m1"]
    seq1, seq2 = np.random.SeedSequence(params.seed).spawn(2)
    part1 = _moser_tardos(PcaParams(t, k, v, m1, 0.0, params.seed), _pcg64(seq1))
    part2 = _build_developed(
        PcaParams(t, k, v, v**t, epsilon, params.seed), cyclic_action(v),
        bounds.bound_apca_cyclic, _pcg64(seq2),
    )
    detail = {
        "m1": m1,
        "component_rows": (part1.n_rows, part2.n_rows),
        "component_iterations": (part1.iterations, part2.iterations),
    }
    return _verified(
        params, part1.array.stack(part2.array), bound, start,
        part1.iterations + part2.iterations, pca_m=m, apca_m=v**t, detail=detail,
    )


# -- derandomization -------------------------------------------------------------

def derandomize_rows(
    t: int, k: int, v: int, allowed: int, max_rows: int
) -> tuple[np.ndarray, list[int]]:
    """Add rows, each fixed cell by cell, until at most ``allowed`` t-sets
    miss a tuple.

    A boolean table holds the (t-set, tuple) pairs no row covers yet.  Each
    row is filled left to right.  Cell j takes the symbol s that maximizes the
    expected number of pairs the row newly covers, given the row's cells left
    of j and with the cells right of j uniformly random; ties go to the
    smallest symbol.  Scaled by v^(t-1) that expectation is an exact integer:
    a t-set holding j at position p contributes the number of its missing
    tuples that agree with the row on its first p columns and have s at
    position p, times v^p.  Those tuples form one block of consecutive ranks,
    so each count is a difference of prefix sums over the table.

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
    tsets = np.array(list(combinations(range(k), t)), dtype=np.int64)
    place = rank_weights(t, v)
    # Per column: the t-sets through it, at position p; its place value
    # v^(t-1-p) times 0..v (the edges of the v blocks it splits); and v^p.
    hits = [np.nonzero(tsets == j) for j in range(k)]
    columns = [(i, place[p, None] * np.arange(v + 1), vt // v // place[p]) for i, p in hits]
    missing = np.ones(n_tsets * vt, dtype=bool)  # pair (i, r) at i * v^t + r
    short = np.full(n_tsets, vt)  # missing tuples per t-set
    cells = np.zeros((max_rows, k), dtype=np.int64)
    trace = [n_tsets * vt]
    while np.count_nonzero(short) > allowed:
        if len(trace) > max_rows:
            raise PcaForgeError(f"internal: {max_rows} rows leave over {allowed} t-sets short")
        row = cells[len(trace) - 1]
        prefix = np.concatenate(([0], np.cumsum(missing)))
        # Start of each t-set's block of tuples that agree with the row so far.
        at = np.arange(0, n_tsets * vt, vt)
        for j, (idx, edges, weight) in enumerate(columns):
            row[j] = s = int(np.argmax(np.diff(weight @ prefix[at[idx, None] + edges])))
            at[idx] += edges[:, s]
        covered = missing[at]
        missing[at] = False
        short -= covered
        trace.append(trace[-1] - int(np.count_nonzero(covered)))
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
    start = time.perf_counter()
    bound = bounds.bound_apca(t, v, v**t, epsilon)
    allowed = _allowed(epsilon, k, t)
    cells, trace = derandomize_rows(t, k, v, allowed, bound.n_rows)
    # the stop rule read the table of missing pairs; the kernel proves the claim
    defective = count_defects(cells, v, t, v**t)
    if defective > allowed:
        raise PcaForgeError(f"internal: {defective} t-sets short, {allowed} allowed")
    detail = {"missing_trace": trace, "defective_tsets": defective}
    return _verified(params, Array(cells, v), bound, start, 0, apca_m=v**t, detail=detail)
