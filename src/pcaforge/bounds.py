"""Existence bounds for partial and almost-partial covering arrays.

Everything is evaluated in log space with double precision: the binomial
terms involved (e.g. C(4096, 2048)) overflow any machine integer, so no
integer binomial is ever formed.  Each bound returns a
:class:`~pcaforge.core.BoundResult` whose ``n_rows`` is the minimal integer
satisfying the bound's underlying expected-value inequality.  Where that
inequality is strict ("expected count below 1") the minimal integer enforces
strictness; where it is non-strict, equality at an exact-integer boundary is
accepted.  A naive ceiling gets both of those boundary cases wrong.

Formula labels used throughout (also the CSV vocabulary); :data:`FORMULAS`
holds them with their friendly names and evaluators:

========== ==============================================================
label      bound
========== ==============================================================
eq5        union bound over missing tuple sets (partial coverage)
eq6        local-lemma bound, needs k >= 2t (partial coverage)
eq7        asymptotic rewrite of eq6 (informational, real-valued only)
eq8        cyclic-development bound for partial coverage
eq8-t      eq8 with the factor t inside the log (the other published form)
apca       union bound allowing a defective fraction epsilon of t-sets
cyclic     cyclic-orbit bound for almost-full coverage (m = v^t)
frobenius  affine-group-orbit bound, prime-power v only (m = v^t)
concat     eq6 component stacked with a cyclic component (dual guarantee)
can-upper  classical full-coverage upper reference, (t-1) v^t log2 k
can-lower  classical full-coverage lower reference, v^(t-1) log2 k
========== ==============================================================

Every row count is the least N with (number of bad events) (chance that one
event survives a row)^N at most 1 (below 1 for eq5), and one of two private
skeletons finds it.  ``_partial`` serves eq5, eq6 and apca: C(v^t, m-1)
sets of m-1 tuples, each surviving a row with chance (m-1)/v^t, times the
formula's own factor (C(k,t) for eq5, e t C(k,t-1) for eq6, 1/epsilon for
apca); at m = 1 it gives one row.  ``_developed`` serves eq8, eq8-t, cyclic
and frobenius: a bad event survives a base row with chance
1 - missed/orbits, and n base rows develop into ``order n + tail`` rows
(v n for eq8, eq8-t and cyclic, v(v-1) n + v for frobenius).  concat adds
an eq6 and a cyclic result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import (
    BoundResult, _as_int, _check_fraction, _check_full, _check_m, _check_tkv, _snap,
)
from .errors import (
    DomainError,
    EmptyRange,
    KTooSmallForLLL,
    MConditionViolated,
    PcaForgeError,
    ROutOfRange,
    SOutOfRange,
)
from .galois import _prime_power

# n from which log_binomial leaves the log-gamma difference.  There lgamma(n+1)
# is about 6.6e5 while ln C(n, 1) is about 11, so for r = 1 the difference is
# off by about 2e-11 relative, and by more the larger n grows.  Below it every
# value stays bit for bit what the log-gamma difference gives.
_STIRLING_FROM_N = 2**16


def log_binomial(n: int, r: int) -> float:
    """ln C(n, r), to a relative 3e-11 or better, and 1e-15 from 2^16 on.

    Below :data:`_STIRLING_FROM_N` it is ``lgamma(n+1) - lgamma(r+1) -
    lgamma(n-r+1)``.  From there on, with r the smaller of r and n - r, it is
    Stirling's series for ``ln(n!/(n-r)!)`` minus ``lgamma(r+1)``:
    ``r ln n - (n-r+1/2) log1p(-r/n) - r + 1/(12n) - 1/(12(n-r))``, whose
    next term is below 1e-15 there.  No term cancels to a small difference,
    so ln C(10^16, 2) keeps its digits where the log-gamma difference gives 0.
    Numpy integers are taken as the equal Python ints; a non-integer n or r
    raises ``DomainError``.
    """
    n, r = _as_int(n, "n"), _as_int(r, "r")
    if r < 0 or r > n:
        raise ROutOfRange(f"r={r} outside [0, n={n}]")
    if n < _STIRLING_FROM_N:
        return math.lgamma(n + 1) - math.lgamma(r + 1) - math.lgamma(n - r + 1)
    r = min(r, n - r)
    return (r * math.log(n) - (n - r + 0.5) * math.log1p(-r / n) - r
            + 1 / (12 * n) - 1 / (12 * (n - r)) - math.lgamma(r + 1))


def _min_int(log_constant: float, log_ratio: float, *, strict: bool) -> tuple[float, int]:
    """Minimal integer N with ``N * log_ratio {>, >=} log_constant``.

    Returns ``(real_bound, n)`` where ``real_bound = log_constant / log_ratio``.
    When the real bound sits on an integer (``core._snap``), a strict
    inequality pushes one step past it and a non-strict one accepts it.
    """
    if log_ratio <= 0:
        raise DomainError("nonpositive log ratio")
    rb = log_constant / log_ratio
    snapped = _snap(rb)
    return rb, math.floor(snapped) + 1 if strict else math.ceil(snapped)


def _partial(
    source: str, log_events: float, vt: int, m: int, *, strict: bool = False
) -> BoundResult:
    """Least N with ``exp(log_events) C(v^t, m-1) ((m-1)/v^t)^N`` below 1 when
    ``strict``, at most 1 otherwise.  At m = 1 it is one row: any row covers
    one tuple in every t-set."""
    if m == 1:
        return BoundResult(real_bound=0.0, n_rows=1, source=source)
    rb, n = _min_int(log_events + log_binomial(vt, m - 1), math.log(vt / (m - 1)), strict=strict)
    return BoundResult(real_bound=rb, n_rows=n, source=source)


def _developed(source: str, log_events: float, orbits: int, missed: int, order: int, *,
               tail: int = 0, real_bound: float | None = None, **detail: int) -> BoundResult:
    """Least base count n with ``exp(log_events) (1 - missed/orbits)^n <= 1``,
    developed into ``order n + tail`` rows.  ``real_bound`` defaults to order
    times the real n; ``detail`` lists n as ``base_rows`` after its own keys."""
    rb, n = _min_int(log_events, math.log(orbits / (orbits - missed)), strict=False)
    real_bound = order * rb if real_bound is None else real_bound
    return BoundResult(real_bound=real_bound, n_rows=order * n + tail, source=source,
                       detail={**detail, "base_rows": n})


def bound_pca_union(t: int, k: int, v: int, m: int) -> BoundResult:
    """Union bound: rows needed so every t-set covers >= m distinct tuples.

    Minimal N with ``C(k,t) C(v^t, m-1) ((m-1)/v^t)^N < 1`` (strict).
    """
    t, v, k = _check_tkv(t, v, k)
    vt = v**t
    m = _check_m(m, vt)
    return _partial("eq5", log_binomial(k, t), vt, m, strict=True)


def bound_pca_lll(t: int, k: int, v: int, m: int) -> BoundResult:
    """Local-lemma bound, valid for k >= 2t; tighter than the union bound.

    Minimal N with ``e t C(k,t-1) C(v^t, m-1) ((m-1)/v^t)^N <= 1`` (non-strict).
    """
    t, v, k = _check_tkv(t, v, k)
    if k < 2 * t:
        raise KTooSmallForLLL(f"k={k} below 2t={2 * t}")
    vt = v**t
    m = _check_m(m, vt)
    return _partial("eq6", 1.0 + math.log(t) + log_binomial(k, t - 1), vt, m)


def bound_pca_asymptotic(t: int, k: float, v: int, m: int) -> float:
    """Asymptotic form of the local-lemma bound; informational, no row count.

    Returns ``(v^t (t-1) ln k / r) (1 - ln r / ln k)`` with r = v^t - m + 1.
    ``k`` may be real here (the formula is a smooth function of ln k).
    """
    t, v, _ = _check_tkv(t, v)
    vt = v**t
    m = _check_m(m, vt)
    r = vt - m + 1
    if not 1 < k < math.inf:  # also rejects NaN; math.isfinite overflows on huge ints
        raise DomainError(f"ln k must be positive and finite, got k={k}")
    if k <= r:
        raise DomainError(f"k={k} must exceed r={r}")
    lnk = math.log(k)
    return (vt * (t - 1) * lnk / r) * (1.0 - math.log(r) / lnk)


def bound_apca(t: int, v: int, m: int, epsilon: float) -> BoundResult:
    """Rows needed so all but an epsilon fraction of t-sets cover >= m tuples.

    Minimal N with ``C(v^t, m-1) ((m-1)/v^t)^N <= epsilon``; independent of k.
    """
    t, v, _ = _check_tkv(t, v)
    vt = v**t
    m = _check_m(m, vt)
    _check_fraction(epsilon, positive=True)
    return _partial("apca", -math.log(epsilon), vt, m)


def bound_apca_cyclic(t: int, v: int, epsilon: float) -> BoundResult:
    """Almost-full coverage (m = v^t) via development over the order-v cyclic group.

    ``real_bound`` is the closed form ``v^t ln(v^(t-1)/epsilon)``;
    ``n_rows = v * n`` with n the minimal integer satisfying the exact
    union-bound inequality ``v^(t-1) (1 - 1/v^(t-1))^n <= epsilon``, which is
    tighter than the closed form.  Base-row count n is in ``detail``.
    """
    t, v, _ = _check_tkv(t, v)
    _check_fraction(epsilon, positive=True)
    orbits = v ** (t - 1)
    return _developed("cyclic", math.log(orbits) - math.log(epsilon), orbits, 1, v,
                      real_bound=v**t * math.log(orbits / epsilon))


def bound_apca_frobenius(t: int, v: int, epsilon: float) -> BoundResult:
    """Almost-full coverage (m = v^t) via development over the affine group.

    Needs prime-power v.  ``real_bound`` is the closed form
    ``v^t ln(2 v^(t-2)/epsilon) + v``; ``n_rows = v(v-1) n + v`` with n minimal
    for the exact full-orbit inequality
    ``((v^(t-1)-1)/(v-1)) (1 - (v-1)/v^(t-1))^n <= epsilon``.
    """
    t, v, _ = _check_tkv(t, v)
    _prime_power(v)
    _check_fraction(epsilon, positive=True)
    orbits = v ** (t - 1)
    full_orbits = (orbits - 1) // (v - 1)
    return _developed("frobenius", math.log(full_orbits) - math.log(epsilon), orbits, v - 1,
                      v * (v - 1), tail=v,
                      real_bound=v**t * math.log(2 * v ** (t - 2) / epsilon) + v)


def bound_pca_cyclic(
    t: int, k: int, v: int, m: int, *, include_t_factor: bool = False
) -> BoundResult:
    """Partial coverage via cyclic development: miss at most s-1 orbits per t-set.

    ``s = ceil((v^t - m + 1)/v)`` must satisfy ``1 <= s < v^(t-1)``.  The
    default evaluates the bound as displayed,
    ``v (1 + ln{C(k,t-1) C(v^(t-1), s)}) / ln(v^(t-1)/(v^(t-1)-s))``;
    ``include_t_factor=True`` multiplies the log argument by t, matching the
    intermediate base-row inequality (both variants are exposed because the
    two published forms differ).  ``n_rows = v * n`` with n from the non-strict
    minimal-integer rule on the chosen form.
    """
    t, v, k = _check_tkv(t, v, k)
    vt = v**t
    m = _check_m(m, vt)
    source = "eq8-t" if include_t_factor else "eq8"
    if m == 1:
        return BoundResult(real_bound=0.0, n_rows=1, source=source)
    r = vt - m + 1
    s = -(-r // v)
    orbits = v ** (t - 1)
    if not 1 <= s < orbits:
        raise SOutOfRange(f"s={s} outside [1, v^(t-1)={orbits})")
    log_events = 1.0 + log_binomial(k, t - 1) + log_binomial(orbits, s)
    if include_t_factor:
        log_events += math.log(t)
    return _developed(source, log_events, orbits, s, v, s=s)


def concat_split(t: int, k: int, v: int, m: int, epsilon: float) -> tuple[int, int]:
    """(r, m1) for the concatenated construction: deficiency r and the partial
    coverage target ``m1 = v^t - r + 1`` of the first component.

    Checks the admissibility condition ``m <= v^t + 1 - ln k / ln(v/eps^(1/(t-1)))``.
    """
    t, v, k = _check_tkv(t, v, k)
    vt = v**t
    m = _check_m(m, vt)
    _check_fraction(epsilon, positive=True)
    # epsilon <= 1 keeps the denominator at least ln v >= ln 2
    denom = math.log(v) - math.log(epsilon) / (t - 1)
    r_real = math.log(k) / denom
    if m > vt + 1 - r_real:
        raise MConditionViolated(
            f"m={m} exceeds v^t + 1 - ln k/ln(v/eps^(1/(t-1))) = {vt + 1 - r_real:.6g}"
        )
    r = max(1, math.floor(r_real))
    return r, vt - r + 1


def bound_concat(t: int, k: int, v: int, m: int, epsilon: float) -> BoundResult:
    """Row budget for the stacked construction meeting both guarantees.

    Component 1 is the local-lemma bound at ``m1 = v^t - r + 1``; component 2
    is the cyclic development sized with the same halved-epsilon inequality its
    constructive routine uses, so ``n_rows`` upper-bounds the rows the builder
    actually emits.
    """
    r, m1 = concat_split(t, k, v, m, epsilon)
    comp1 = bound_pca_lll(t, k, v, m1)
    comp2 = bound_apca_cyclic(t, v, epsilon / 2)
    return BoundResult(
        real_bound=comp1.real_bound + comp2.real_bound,
        n_rows=comp1.n_rows + comp2.n_rows,
        source="concat",
        detail={"r": r, "m1": m1, "component_rows": (comp1.n_rows, comp2.n_rows)},
    )


def bound_can_reference(t: int, k: int, v: int) -> tuple[float, float]:
    """Classical full-coverage reference lines ``((t-1) v^t log2 k, v^(t-1) log2 k)``.

    Informational context for sweep tables; leading constants of the suppressed
    lower-order terms are not modeled.
    """
    t, v, k = _check_tkv(t, v, k)
    return ((t - 1) * v**t * math.log2(k), v ** (t - 1) * math.log2(k))


# -- sweeps ---------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    """One labeled bound formula: its CSV label, the name the ``bounds``
    table prints, how to evaluate it, whether it yields only a real value
    (no minimal row count), and whether ``bounds --all`` lists it."""

    label: str
    friendly: str
    evaluate: Callable[[int, int, int, int, float], BoundResult]
    informational: bool = False
    in_all: bool = True


def _informational(label: str, value: float) -> BoundResult:
    return BoundResult(real_bound=value, n_rows=0, source=label)


def _full_only(label: str, t: int, v: int, m: int) -> None:
    t, v, _ = _check_tkv(t, v)
    _check_full(m, v**t, f"{label} development bound targets m = v^t")


def _cyclic(t: int, k: int, v: int, m: int, epsilon: float) -> BoundResult:
    _full_only("cyclic", t, v, m)
    return bound_apca_cyclic(t, v, epsilon)


def _frobenius(t: int, k: int, v: int, m: int, epsilon: float) -> BoundResult:
    _full_only("frobenius", t, v, m)
    return bound_apca_frobenius(t, v, epsilon)


#: Every formula, in the order ``bounds --all`` prints them.  ``eq8-t`` is
#: reached from ``--all`` through ``--eq8-variant with-t`` instead.
FORMULAS: tuple[Formula, ...] = (
    Formula("eq5", "union", lambda t, k, v, m, e: bound_pca_union(t, k, v, m)),
    Formula("eq6", "lll", lambda t, k, v, m, e: bound_pca_lll(t, k, v, m)),
    Formula("eq7", "asymptotic",
            lambda t, k, v, m, e: _informational("eq7", bound_pca_asymptotic(t, k, v, m)),
            informational=True),
    Formula("eq8", "cyclic-pca", lambda t, k, v, m, e: bound_pca_cyclic(t, k, v, m)),
    Formula("eq8-t", "cyclic-pca-t",
            lambda t, k, v, m, e: bound_pca_cyclic(t, k, v, m, include_t_factor=True),
            in_all=False),
    Formula("apca", "apca", lambda t, k, v, m, e: bound_apca(t, v, m, e)),
    Formula("cyclic", "cyclic", _cyclic),
    Formula("frobenius", "frobenius", _frobenius),
    Formula("concat", "concat", lambda t, k, v, m, e: bound_concat(t, k, v, m, e)),
    Formula("can-upper", "can-upper",
            lambda t, k, v, m, e: _informational("can-upper", bound_can_reference(t, k, v)[0]),
            informational=True),
    Formula("can-lower", "can-lower",
            lambda t, k, v, m, e: _informational("can-lower", bound_can_reference(t, k, v)[1]),
            informational=True),
)

_BY_NAME = {name: f for f in FORMULAS for name in (f.label, f.friendly)}


def lookup_formula(name: str) -> Formula:
    """The registry entry for a formula label or friendly name."""
    formula = _BY_NAME.get(name)
    if formula is None:
        raise DomainError(f"unknown formula {name!r}")
    return formula


def evaluate_formula(
    formula: str, *, t: int, k: int, v: int, m: int, epsilon: float = 0.0
) -> BoundResult:
    """Evaluate one labeled formula at a parameter point."""
    return lookup_formula(formula).evaluate(t, k, v, m, epsilon)


@dataclass(frozen=True)
class SweepPoint:
    """One axis value with a result (or a gap marker) per formula."""

    value: int
    results: dict[str, BoundResult | None]
    gap_reasons: dict[str, str]


@dataclass(frozen=True)
class BoundSweep:
    """Bound values tabulated along one varying parameter."""

    axis: str
    formulas: tuple[str, ...]
    points: tuple[SweepPoint, ...]


def sweep(
    formulas: Sequence[str],
    axis: str,
    values: Sequence[int],
    *,
    t: int,
    k: int = 0,
    v: int,
    m: int = 0,
    epsilon: float = 0.0,
) -> BoundSweep:
    """Evaluate each formula at each axis value; infeasible points become
    explicit gap markers rather than silent omissions.

    ``axis`` is ``"m"`` or ``"k"``; the fixed parameters supply the rest.
    A parameter or axis value that is not an integer is a caller's bug, not
    an infeasible point: it raises ``DomainError`` before any point is
    evaluated, and no gap marker stands for it.
    """
    if axis not in ("m", "k"):
        raise DomainError(f"axis must be 'm' or 'k', got {axis!r}")
    t, k, v, m = (_as_int(x, name) for x, name in zip((t, k, v, m), "tkvm"))
    values = [_as_int(value, axis) for value in values]
    if not values:
        raise EmptyRange("sweep range is empty")
    canon = [lookup_formula(f).label for f in formulas]
    points = []
    for value in sorted(set(values)):
        point_k = value if axis == "k" else k
        point_m = value if axis == "m" else m
        results: dict[str, BoundResult | None] = {}
        gaps: dict[str, str] = {}
        for name in canon:
            try:
                results[name] = evaluate_formula(
                    name, t=t, k=point_k, v=v, m=point_m, epsilon=epsilon
                )
            except PcaForgeError as exc:  # gap marker, never silent omission
                results[name] = None
                gaps[name] = f"{type(exc).__name__}: {exc}"
        points.append(SweepPoint(value=value, results=results, gap_reasons=gaps))
    return BoundSweep(axis=axis, formulas=tuple(canon), points=tuple(points))
