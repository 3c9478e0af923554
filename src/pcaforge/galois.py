"""Finite fields of order <= 64 and symbol group actions.

Two actions on ``{0, ..., v-1}`` matter here: the cyclic shifts
``x -> x + c (mod v)`` (defined by integer arithmetic, so they exist for every
v >= 2) and, for prime-power v, the affine maps ``x -> a*x + b`` with a != 0
over the field of order v, which act sharply 2-transitively.  Acting
coordinatewise on t-tuples partitions ``[v]^t`` into orbits:

* cyclic: ``v^(t-1)`` orbits, all of length v;
* affine: ``(v^(t-1)-1)/(v-1)`` full orbits of length ``v(v-1)`` plus the one
  short orbit of length v made of the constant tuples.

These counts are the closed forms behind the development bounds in
:mod:`pcaforge.bounds`; no orbit is enumerated here.  :func:`develop` writes
every image of a base array's rows, and :func:`constant_rows` the rows that
cover the short orbit in every t-set.  The cyclic shift table, the constant
rows and a developed array are each checked against
:data:`~pcaforge.coverage.PROFILE_CAPACITY` cells before they are allocated.

Field tables come from one fixed irreducible polynomial per (p, n) (x itself
when v is prime), so element labels are deterministic across runs.  Which
polynomial is chosen changes row labels of developed arrays but no coverage
statistic (the orbit partitions are isomorphic either way).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import Array, _as_int, _check_v
from .coverage import _check_cells
from .errors import (
    DimensionMismatch, DomainError, NotPrimePower, OrderTooLarge, StructureMismatch,
    SymbolOutOfRange,
)

# Irreducible polynomials over GF(p), ascending coefficients, monic.
# One entry per proper prime power up to 64.
_IRREDUCIBLE = {
    (2, 2): (1, 1, 1),            # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),         # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),      # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1),   # x^5 + x^2 + 1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # x^6 + x + 1
    (3, 2): (1, 0, 1),            # x^2 + 1
    (3, 3): (1, 2, 0, 1),         # x^3 + 2x + 1
    (5, 2): (2, 0, 1),            # x^2 + 2
    (7, 2): (1, 0, 1),            # x^2 + 1
}


def _factor_prime_power(v: int) -> tuple[int, int] | None:
    """(p, n) with v = p^n, or None if v is not a prime power."""
    if v < 2:
        return None
    for p in range(2, v + 1):
        if p * p > v:
            return (v, 1)
        if v % p == 0:
            n = 0
            reduced = v
            while reduced % p == 0:
                reduced //= p
                n += 1
            return (p, n) if reduced == 1 else None
    return None


def _prime_power(v: int) -> tuple[int, int]:
    """(p, n) with v = p^n; raise NotPrimePower if v is not a prime power."""
    pn = _factor_prime_power(v)
    if pn is None:
        raise NotPrimePower(f"v={v} is not a prime power")
    return pn


def is_prime_power(v: int) -> bool:
    """Whether v = p^n for a prime p and n >= 1; v must be an integer."""
    return _factor_prime_power(_as_int(v, "v")) is not None


@dataclass(frozen=True, eq=False)
class Field:
    """Arithmetic tables for the field of order v = p^n.

    Elements are integers 0..v-1 encoding coefficient vectors in base p
    (digit i is the coefficient of x^i).  ``add`` and ``mul`` are v x v
    lookup tables.
    """

    v: int
    p: int
    n: int
    poly: tuple[int, ...]
    add: np.ndarray
    mul: np.ndarray


def field_make(v: int) -> Field:
    """Build the field of order v from its fixed irreducible polynomial."""
    v = _as_int(v, "v")
    p, n = _prime_power(v)
    if v > 64:
        raise OrderTooLarge(f"field order {v} above the supported maximum 64")
    # a prime field reduces modulo x, which the n - 1 = 0 shift steps never apply
    poly = _IRREDUCIBLE.get((p, n), (0, 1))
    place = p ** np.arange(n, dtype=np.int64)
    digits = np.arange(v, dtype=np.int64)[:, None] // place % p    # (v, n)
    add = (digits[:, None, :] + digits[None, :, :]) % p @ place
    # shifted[i] holds the digits of x^i * b for every b: multiply by x, then
    # subtract the carried top coefficient times the monic polynomial
    shifted = [digits]
    low = np.array(poly[:n], dtype=np.int64)
    for _ in range(n - 1):
        prev = shifted[-1]
        shifted.append((np.pad(prev[:, :-1], ((0, 0), (1, 0))) - prev[:, -1:] * low) % p)
    mul = np.einsum("ai,ibj->abj", digits, np.stack(shifted)) % p @ place
    add.setflags(write=False)
    mul.setflags(write=False)
    return Field(v=v, p=p, n=n, poly=poly, add=add, mul=mul)


@dataclass(frozen=True, eq=False)
class GroupAction:
    """A finite group acting on symbols, stored as one permutation per element.

    ``perms[g, x]`` is the image of symbol x under element g.  Element 0 is
    the identity; element order is fixed so developed row order is
    reproducible byte for byte.  A table that is not an integer array
    (``DomainError``), not shaped (order >= 1, v) (``DimensionMismatch``) or
    that holds a symbol outside [0, v) (``SymbolOutOfRange``) is refused on
    construction, so :func:`develop` never writes such a symbol.
    """

    kind: str  # "cyclic" | "frobenius"
    v: int
    perms: np.ndarray

    def __post_init__(self) -> None:
        perms = self.perms
        if not isinstance(perms, np.ndarray) or not np.issubdtype(perms.dtype, np.integer):
            raise DomainError("a group table must be an integer array")
        if perms.ndim != 2 or 0 in perms.shape or perms.shape[1] != self.v:
            raise DimensionMismatch(f"a group table over v={self.v} must be shaped "
                                    f"(order >= 1, {self.v}), got {perms.shape}")
        # a broadcast table repeats its entries along zero-stride axes: read one of each
        entries = perms[tuple(slice(None if step else 1) for step in perms.strides)]
        if entries.min() < 0 or entries.max() >= self.v:
            raise SymbolOutOfRange(f"a group table holds a symbol outside [0, {self.v})")

    @property
    def order(self) -> int:
        return self.perms.shape[0]


def cyclic_action(v: int) -> GroupAction:
    """The v shifts ``x -> x + c (mod v)``, c = 0..v-1."""
    v = _as_int(v, "v")
    _check_v(v)
    _check_cells(v, v)
    x = np.arange(v, dtype=np.int64)
    perms = (x[None, :] + np.arange(v, dtype=np.int64)[:, None]) % v
    perms.setflags(write=False)
    return GroupAction(kind="cyclic", v=v, perms=perms)


def frobenius_action(v: int) -> GroupAction:
    """The v(v-1) affine maps ``x -> a*x + b``, a != 0, over the order-v field.

    Elements are listed a = 1..v-1 outer, b = 0..v-1 inner, so (a=1, b=0) is
    the identity and comes first.  One action per order is built and shared;
    its table is read-only.
    """
    return _frobenius_action(_as_int(v, "v"))


# keyed on the int _as_int returns: a float v such as 2.0 hashes like 2 and
# would find its entry instead of raising
@functools.cache
def _frobenius_action(v: int) -> GroupAction:
    field = field_make(v)
    perms = field.add[field.mul[1:, None, :], np.arange(v)[None, :, None]].reshape(-1, v)
    perms.setflags(write=False)
    return GroupAction(kind="frobenius", v=v, perms=perms)


def develop(a: Array, action: GroupAction, tail: Array | None = None) -> Array:
    """Replace each row by its images under every group element.

    Output has ``rows * |G|`` rows ordered input row first, then element order,
    so results are byte-identical for a given input.  The rows of ``tail``,
    if given, follow in the same buffer: ``develop(a, action, tail)`` equals
    ``develop(a, action).stack(tail)`` without a second copy of the rows.
    """
    if action.v != a.v:
        raise StructureMismatch(f"action is over v={action.v}, array over v={a.v}")
    if tail is not None and (tail.v != a.v or tail.cols != a.cols):
        raise DimensionMismatch("a tail must share the array's column count and alphabet")
    n = a.rows * action.order
    total = n + (0 if tail is None else tail.rows)
    _check_cells(total, a.cols)
    out = np.empty((total, a.cols), dtype=np.int64)
    for block, row in zip(out[:n].reshape(a.rows, action.order, a.cols), a.cells):
        # every symbol is in [0, v), so "clip" never moves an index; unlike
        # "raise" it writes to ``out`` without a buffer
        np.take(action.perms, row, axis=1, out=block, mode="clip")
    if tail is not None:
        out[n:] = tail.cells
    return Array._wrap(out, a.v)


def constant_rows(k: int, v: int) -> Array:
    """The v rows (i, i, ..., i); they cover the constant tuple of every t-set."""
    k, v = _as_int(k, "k"), _as_int(v, "v")
    if k < 0:
        raise DomainError(f"k={k} must be nonnegative")
    _check_v(v)
    _check_cells(v, max(k, 1))  # the v symbols are listed even when k = 0
    return Array._wrap(np.repeat(np.arange(v, dtype=np.int64), k).reshape(v, k), v)
