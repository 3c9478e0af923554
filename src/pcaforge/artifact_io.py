"""Bit-exact text formats for arrays, sweeps, defect reports, build reports.

Array file layout (version tagged by the magic line)::

    pca-forge v1
    N k v base
    <N lines of k space-separated symbols>

Lines end with LF and carry no trailing whitespace, so a given array always
serializes to the same bytes.  ``base`` is 0 or 1: base-1 files present
symbols as ``{1, ..., v}`` and are normalized back to 0-based on read.  An
optional ``claims t=.. m=.. epsilon=..`` line may sit between the count line
and the body to record what the array is supposed to satisfy; nothing checks
the claims on load.

A body is *canonical* when it has N >= 1 rows of k >= 1 symbols, each token
is one ASCII digit, tokens are separated by single spaces and every row ends
with LF: exactly N*2k bytes.  The writer produces canonical bodies whenever
every symbol it prints is below 10 (v <= 10 in base 0, v <= 9 in base 1).
:func:`read_array` reads a canonical body as one N x k grid of 16-bit
(digit, separator) pairs, checked and turned into cells in one pass; every
other body is parsed row by row with ``int()``.  Both paths accept the same
files with the same cells and raise the same errors.  The writer looks every
cell up in a per-symbol byte table instead of formatting it on its own.

CSV outputs are deterministic: same input, same bytes.  Real values print
with 6 significant digits.  OS-level failures raise the builtin ``OSError``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bounds import BoundSweep, lookup_formula
from .construct import BuildReport
from .core import WIDE_INT_MAX, Array, PcaParams, _check_v
from .coverage import Defect
from .errors import DimensionMismatch, DomainError, ParseError, SymbolOutOfRange

MAGIC = "pca-forge v1"


@dataclass(frozen=True)
class ArrayFileHeader:
    """Parsed header of an array file."""

    rows: int
    cols: int
    v: int
    base: int
    claims: dict | None = None


def _format_claims(claims: dict) -> str:
    parts = []
    for key in ("t", "m", "epsilon"):
        if key in claims:
            parts.append(f"{key}={claims[key]}")
    return "claims " + " ".join(parts)


def _body_bytes(cells: np.ndarray, v: int, base: int) -> np.ndarray:
    """The body of an array file as a uint8 array.

    Each cell is looked up in a table holding every symbol's decimal token
    (shifted by ``base``), left-padded with zero bytes to a common width and
    followed by a space; the last column's space becomes an LF and the
    padding is dropped.  The table is indexed by symbol when v <= N*k and
    otherwise by the cell's rank among the distinct symbols, so it never has
    more than N*k entries.
    """
    n, k = cells.shape
    if n * k == 0:
        return np.full(n, ord("\n"), dtype=np.uint8)
    if v <= n * k:
        symbols, index = np.arange(v), cells
    else:
        symbols, inverse = np.unique(cells, return_inverse=True)
        index = inverse.reshape(n, k)
    rest = symbols + base
    table = np.zeros((len(rest), len(str(int(rest[-1]))) + 1), dtype=np.uint8)
    table[:, -1] = ord(" ")
    units = table.shape[1] - 2
    for place in range(units, -1, -1):
        shown = (rest > 0) | (place == units)  # left of the first digit: padding
        rest, digit = np.divmod(rest, 10)
        table[:, place] = np.where(shown, digit + ord("0"), 0)
    body = table[index]
    body[:, -1, -1] = ord("\n")
    return body[body != 0]


def write_array(
    a: Array, path: str | Path, *, base: int = 0, claims: dict | None = None
) -> None:
    """Serialize an array; ``base=1`` shifts symbols up by one on output."""
    if base not in (0, 1):
        raise DomainError(f"base must be 0 or 1, got {base}")
    lines = [MAGIC, f"{a.rows} {a.cols} {a.v} {base}"]
    if claims:
        lines.append(_format_claims(claims))
    with open(path, "wb") as out:
        out.write(("\n".join(lines) + "\n").encode("ascii"))
        out.write(_body_bytes(a.cells, a.v, base))


def _parse_claims(text: str, lineno: int) -> dict:
    claims: dict = {}
    for token in text.split()[1:]:
        key, _, value = token.partition("=")
        if key not in ("t", "m", "epsilon") or not value:
            raise ParseError(lineno, f"bad claims token {token!r}")
        try:
            claims[key] = float(value) if key == "epsilon" else int(value)
        except ValueError:
            raise ParseError(lineno, f"bad claims value {token!r}") from None
    return claims


def _parse_header(lines: list[str]) -> ArrayFileHeader:
    """The header from a file's lines: the magic line, the count line and, if
    the third line starts with ``claims``, the claims line."""
    if not lines or lines[0] != MAGIC:
        raise ParseError(1, f"expected magic line {MAGIC!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing count line")
    fields = lines[1].split()
    if len(fields) != 4:
        raise ParseError(2, f"count line needs 'N k v base', got {lines[1]!r}")
    try:
        n, k, v, base = (int(f) for f in fields)
    except ValueError:
        raise ParseError(2, f"count line needs integers, got {lines[1]!r}") from None
    if base not in (0, 1):
        raise ParseError(2, f"base must be 0 or 1, got {base}")
    if v > WIDE_INT_MAX:  # symbols up to v - 1 must fit the int64 cells
        raise ParseError(2, f"v={v} exceeds the 64-bit range")
    claims = None
    if len(lines) > 2 and lines[2].startswith("claims"):
        claims = _parse_claims(lines[2], 3)
    return ArrayFileHeader(rows=n, cols=k, v=v, base=base, claims=claims)


def _canonical_cells(data: bytes) -> tuple[np.ndarray, ArrayFileHeader] | None:
    """The 0-based cells and header of a valid file with a canonical body, or
    None for any other file.

    The body is taken as an N x k grid of little-endian 16-bit pairs:
    (digit, space), ..., (digit, LF).  It is accepted only when
    :func:`_parsed_cells` would accept it too, with the same cells, so the
    caller can fall back to that parser for every file this returns None for.
    """
    end = data.find(b"\n", data.find(b"\n") + 1) + 1  # past the count line
    if end and data.startswith(b"claims", end):
        end = data.find(b"\n", end) + 1
    if not end:
        return None
    try:
        header = _parse_header(data[:end].decode("ascii").split("\n")[:-1])
    except (UnicodeDecodeError, ParseError):
        return None
    n, k = header.rows, header.cols
    lo, hi = header.base, header.v - 1 + header.base
    if n < 1 or k < 1 or len(data) - end != 2 * n * k or hi < lo:
        return None
    # Each (digit, separator) byte pair is read as one little-endian 16-bit
    # number, separator * 256 + digit, less the pair of the smallest digit
    # allowed there.  A valid pair leaves its cell; any other pair leaves a
    # number above the digit span, or below zero, which wraps round to one
    # above it when read unsigned.
    least = np.full(k, 0x2000 + ord("0") + lo, dtype=np.uint16)
    least[-1] = 0x0A00 + ord("0") + lo
    pairs = np.frombuffer(data, dtype="<u2", offset=end).reshape(n, k)
    cells = np.subtract(pairs, least, dtype=np.int64)
    if cells.view(np.uint64).max() > min(hi, 9) - lo:
        return None
    return cells, header


def _row_fault(line: str, lineno: int, lo: int, hi: int) -> Exception:
    """The error for a row of the declared width that is known to be bad: its
    first non-integer token, else its first symbol outside [lo, hi]."""
    try:
        values = [int(p) for p in line.split()]
    except ValueError:
        return ParseError(lineno, f"non-integer symbol in {line!r}")
    value = next(x for x in values if not lo <= x <= hi)
    return SymbolOutOfRange(f"line {lineno}: symbol {value} outside [{lo}, {hi}]")


def _parsed_cells(data: bytes) -> tuple[np.ndarray, ArrayFileHeader]:
    """The 0-based cells and header of any file, parsed row by row."""
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "non-ASCII byte") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    header = _parse_header(lines)
    n, k = header.rows, header.cols
    body_start = 2 if header.claims is None else 3
    body = lines[body_start:]
    if len(body) != n:
        raise DimensionMismatch(f"declared {n} rows, file has {len(body)}")
    if n * k > len(data):  # every symbol takes at least one byte
        raise DimensionMismatch(f"declared {n}x{k} symbols, file has {len(data)} bytes")
    try:
        cells = np.zeros((n, k), dtype=np.int64)
    except ValueError:  # a negative or unrepresentable column count
        raise ParseError(2, f"no array has {n} rows and {k} columns") from None
    lo, hi = header.base, header.v - 1 + header.base
    for lineno, (row, line) in enumerate(zip(cells, body), body_start + 1):
        parts = line.split()
        if len(parts) != k:
            raise DimensionMismatch(f"line {lineno}: declared {k} columns, row has {len(parts)}")
        try:
            row[:] = parts  # numpy parses each token with int()
        except (ValueError, OverflowError):
            raise _row_fault(line, lineno, lo, hi) from None
    bad = np.flatnonzero(((cells < lo) | (cells > hi)).any(axis=1))
    if bad.size:
        raise _row_fault(body[bad[0]], body_start + bad[0] + 1, lo, hi)
    cells -= header.base
    return cells, header


def read_array(path: str | Path) -> tuple[Array, ArrayFileHeader]:
    """Parse and validate an array file; base-1 content is normalized to base 0."""
    data = Path(path).read_bytes()
    cells, header = _canonical_cells(data) or _parsed_cells(data)
    _check_v(header.v)
    return Array._wrap(cells, header.v), header


def _fmt_real(x: float) -> str:
    return f"{x:.6g}"


def sweep_csv_text(sweep: BoundSweep) -> str:
    """CSV body for a sweep: one row per (axis value, formula)."""
    lines = ["axis,formula,real_bound,n_rows,feasible"]
    for point in sweep.points:
        for formula in sweep.formulas:
            result = point.results[formula]
            if result is None:
                lines.append(f"{point.value},{formula},,,0")
            elif lookup_formula(formula).informational:
                lines.append(f"{point.value},{formula},{_fmt_real(result.real_bound)},,1")
            else:
                lines.append(
                    f"{point.value},{formula},{_fmt_real(result.real_bound)},{result.n_rows},1"
                )
    return "\n".join(lines) + "\n"


def write_sweep_csv(sweep: BoundSweep, path: str | Path) -> None:
    Path(path).write_text(sweep_csv_text(sweep), encoding="ascii", newline="\n")


def defects_csv_text(defects: list[Defect], v: int, t: int) -> str:
    """CSV body for a defect report: t-set indices, count, missing tuples."""
    vt = v**t
    lines = ["tset_indices,count,missing"]
    for defect in defects:
        indices = " ".join(str(i) for i in defect.tset)
        lines.append(f"{indices},{defect.count},{vt - defect.count}")
    return "\n".join(lines) + "\n"


def write_defects_csv(defects: list[Defect], v: int, t: int, path: str | Path) -> None:
    Path(path).write_text(defects_csv_text(defects, v, t), encoding="ascii", newline="\n")


def report_json_text(report: BuildReport, params: PcaParams) -> str:
    """Structured build record.  Timing is left out (``elapsed_ms`` is null) so
    that a fixed seed produces byte-identical report files run over run."""
    record = {
        "params": {
            "t": params.t,
            "k": params.k,
            "v": params.v,
            "m": params.m,
            "epsilon": params.epsilon,
        },
        "seed": report.rng_seed,
        "n_rows": report.n_rows,
        "iterations": report.iterations,
        "verifier": report.verifier,
        "bound": {
            "source": report.bound_used.source,
            "real_bound": report.bound_used.real_bound,
            "n_rows": report.bound_used.n_rows,
        },
        "elapsed_ms": None,
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def write_report_json(report: BuildReport, params: PcaParams, path: str | Path) -> None:
    Path(path).write_text(report_json_text(report, params), encoding="ascii", newline="\n")
