"""Shared domain types and parameter validation: ``PcaParams``, the
parameter rules, ``Array`` and ``BoundResult``.

Symbols are 0-based ``{0, ..., v-1}`` everywhere in memory; the 1-based
presentation exists only as a file-format option in :mod:`pcaforge.artifact_io`.
All value types here are immutable and safe to share across workers.

Each parameter rule has one private checker here, which every module calls,
so a rule raises the same error class and message wherever it is enforced:
``_as_int`` (an integer, not a float or a string), ``_check_v`` (v >= 2),
``_check_tkv`` (integers t, v and k, and the 64-bit range of v^t and k),
``_check_m`` (an integer 1 <= m <= v^t), ``_check_real`` (a real number,
not a string, None or a complex), ``_check_fraction`` (a real epsilon or q
in [0, 1], or in (0, 1] for the almost-coverage bounds and builders) and
``_check_full`` (m = v^t for the full-coverage constructions).  The integer
checkers, ``_as_int``, ``_check_tkv`` and ``_check_m``, return the values they
checked as Python ints, so a numpy integer never reaches a result.  One rule,
``_snap``, decides when a real value sits on an integer: the bounds' row
counts, the defects epsilon allows and the completeness threshold all use it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AlphabetTooSmall,
    DimensionMismatch,
    DomainError,
    EpsilonOutOfRange,
    EpsilonZero,
    MNotFull,
    MOutOfRange,
    Overflow,
    SeedOutOfRange,
    StrengthTooSmall,
    SymbolOutOfRange,
)

# v^t must stay below this for parameters to be accepted at all (64-bit safe).
WIDE_INT_MAX = 2**63 - 1
# Relative slack used to recognize an exact-integer boundary in a real value.
_BOUNDARY_RTOL = 1e-9


@dataclass(frozen=True)
class PcaParams:
    """Validated parameter bundle threaded through bounds and builders.

    t: strength, k: columns, v: alphabet size, m: required distinct tuples
    per column t-set, epsilon: allowed defective fraction of t-sets,
    seed: 64-bit RNG seed.
    """

    t: int
    k: int
    v: int
    m: int
    epsilon: float = 0.0
    seed: int = 0

    @property
    def vt(self) -> int:
        return self.v**self.t


def _as_int(x: object, name: str) -> int:
    """``x`` as a Python int: numpy integers convert, floats and strings raise."""
    try:
        return operator.index(x)
    except TypeError:
        raise DomainError(f"{name}={x!r} must be an integer") from None


def _check_v(v: int) -> None:
    if v < 2:
        raise AlphabetTooSmall(f"alphabet size v={v} must be at least 2")


def _check_tkv(t: int, v: int, k: int | None = None) -> tuple[int, int, int | None]:
    """``(t, v, k)`` as Python ints, if t, v and k (when given) are integers,
    t >= 2, t <= k, v >= 2, and v^t and k fit in a 64-bit integer; the shared
    domain of :func:`validate` and the bounds."""
    t, v = _as_int(t, "t"), _as_int(v, "v")
    if k is not None:
        k = _as_int(k, "k")
    if t < 2:
        raise StrengthTooSmall(f"strength t={t} must be at least 2")
    if k is not None and k < t:
        raise StrengthTooSmall(f"strength t={t} exceeds column count k={k}")
    _check_v(v)
    if v > WIDE_INT_MAX or t * math.log(v) > math.log(WIDE_INT_MAX):
        raise Overflow(f"v^t = {v}^{t} exceeds the 64-bit range")
    if k is not None and k > WIDE_INT_MAX:
        raise Overflow(f"k={k} exceeds the 64-bit range")
    return t, v, k


def _check_m(m: int, vt: int) -> int:
    """``m`` as a Python int, if it is an integer in [1, v^t]."""
    m = _as_int(m, "m")
    if not 1 <= m <= vt:
        raise MOutOfRange(f"m={m} outside [1, v^t={vt}]")
    return m


def _check_real(x: object, name: str) -> None:
    if not isinstance(x, numbers.Real):
        raise DomainError(f"{name}={x!r} must be a real number")


def _check_fraction(x: float, name: str = "epsilon", *, positive: bool = False) -> None:
    """Raise unless ``x`` is a real number in [0, 1], or in (0, 1] when ``positive``."""
    _check_real(x, name)
    if positive and x <= 0:
        raise EpsilonZero(f"{name} must be positive")
    if not 0.0 <= x <= 1.0:  # also rejects NaN
        raise EpsilonOutOfRange(f"{name}={x} outside {'(0, 1]' if positive else '[0, 1]'}")


def _snap(x: float) -> int | float:
    """The integer ``x`` sits on, to a relative :data:`_BOUNDARY_RTOL`, else ``x``.

    A product or bound that is an integer in exact arithmetic may land a
    rounding error to either side of it; floors and ceilings of the snapped
    value treat it as that integer.
    """
    nearest = round(x)
    return nearest if abs(x - nearest) <= _BOUNDARY_RTOL * max(1.0, abs(x)) else x


def _check_full(m: int, vt: int, what: str) -> None:
    """Raise unless m = v^t; ``what`` names the construction that needs it."""
    if _as_int(m, "m") != vt:
        raise MNotFull(f"{what}, got m={m}")


def validate(params: PcaParams) -> PcaParams:
    """Return ``params`` if every invariant holds, else raise.

    Invariants: t, k, v, m and seed are integers, epsilon is a real number,
    2 <= t <= k, v >= 2, 1 <= m <= v^t, 0 <= epsilon <= 1, 0 <= seed < 2^64,
    and v^t and k fit in a 64-bit integer.  A bundle holding numpy integers
    comes back as a copy holding the equal Python ints.
    """
    ints = {name: _as_int(getattr(params, name), name) for name in ("t", "k", "v", "m", "seed")}
    _check_real(params.epsilon, "epsilon")
    if any(type(getattr(params, name)) is not int for name in ints):
        params = dataclasses.replace(params, **ints)
    _check_tkv(params.t, params.v, params.k)
    _check_m(params.m, params.vt)
    _check_fraction(params.epsilon)
    if not 0 <= params.seed < 2**64:
        raise SeedOutOfRange(f"seed={params.seed} outside [0, 2^64)")
    return params


def _as_cells(cells: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """The cells as a new 2-D int64 grid, converted and copied in one step.
    Every cell must be an integer (a float only when integral) within the
    64-bit range."""
    try:
        arr = np.asarray(cells)
    except ValueError:  # ragged rows
        raise DimensionMismatch("cells must form a rectangular grid") from None
    if arr.ndim == 1 and arr.size == 0:
        arr = arr.reshape(0, 0)
    if arr.ndim != 2:
        raise DimensionMismatch(f"cells must be 2-dimensional, got shape {arr.shape}")
    kind, big = arr.dtype.kind, []
    if kind == "O":  # Python ints past 64 bits, or not numbers at all
        if not all(isinstance(x, numbers.Integral) for x in arr.flat):
            raise DomainError("cells must be integers")
        big = [x for x in arr.flat if not -WIDE_INT_MAX - 1 <= x <= WIDE_INT_MAX]
    elif kind == "f":
        if not np.all(np.isfinite(arr) & (arr == np.round(arr))):
            raise DomainError("cells must be integers")
        big = arr[np.abs(arr) >= 2.0**63]
    elif kind == "u":
        big = arr[arr > WIDE_INT_MAX]
    elif kind not in "bi":
        raise DomainError(f"cells must be integers, got {arr.dtype}")
    if len(big):
        raise SymbolOutOfRange(f"symbol {int(big[0])} beyond the 64-bit range")
    return np.array(arr, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Array:
    """An N x k symbol grid over ``{0, ..., v-1}``, v an integer in [2, 2^63 - 1].

    The cell matrix is a private copy, made read-only on construction;
    operations that change contents return new arrays.
    """

    cells: np.ndarray
    v: int

    def __init__(self, cells: np.ndarray | Sequence[Sequence[int]], v: int):
        v = _as_int(v, "v")
        _check_v(v)
        if v > WIDE_INT_MAX:
            raise Overflow(f"alphabet size v={v} exceeds the 64-bit range")
        arr = _as_cells(cells)
        if arr.size and (arr.min() < 0 or arr.max() >= v):
            bad = arr[(arr < 0) | (arr >= v)].flat[0]
            raise SymbolOutOfRange(f"symbol {int(bad)} outside [0, {v})")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)
        object.__setattr__(self, "v", v)

    @classmethod
    def _wrap(cls, cells: np.ndarray, v: int) -> "Array":
        """The trusted constructor: an array over ``cells``, an int64 grid with
        every symbol in [0, v) that no one else holds.  The grid is made
        read-only, neither copied nor scanned."""
        cells.setflags(write=False)
        array = object.__new__(cls)
        object.__setattr__(array, "cells", cells)
        object.__setattr__(array, "v", v)
        return array

    @property
    def rows(self) -> int:
        return self.cells.shape[0]

    @property
    def cols(self) -> int:
        return self.cells.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Array):
            return NotImplemented
        return (
            self.v == other.v
            and self.cells.shape == other.cells.shape
            and bool(np.array_equal(self.cells, other.cells))
        )

    def __repr__(self) -> str:
        return f"Array(rows={self.rows}, cols={self.cols}, v={self.v})"

    def stack(self, other: "Array") -> "Array":
        """Vertical concatenation; both arrays must share cols and v."""
        if self.v != other.v or self.cols != other.cols:
            raise DimensionMismatch("stacked arrays must share column count and alphabet")
        return Array._wrap(np.vstack([self.cells, other.cells]), self.v)


@dataclass(frozen=True)
class BoundResult:
    """A real-valued existence bound and its minimal-integer row count.

    ``n_rows`` is the smallest integer satisfying the underlying expected-value
    inequality, honoring strict vs non-strict comparison at exact-integer
    boundaries (a naive ceiling is off by one there).  ``source`` is a stable
    formula label, e.g. ``"eq6"``.
    """

    real_bound: float
    n_rows: int
    source: str
    detail: dict = field(default_factory=dict, compare=False)
