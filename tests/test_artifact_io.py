"""Tests for the array file format, CSV outputs, and build-report records."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcaforge import artifact_io
from pcaforge.artifact_io import (
    MAGIC,
    ArrayFileHeader,
    defects_csv_text,
    read_array,
    report_json_text,
    sweep_csv_text,
    write_array,
    write_defects_csv,
    write_sweep_csv,
)
from pcaforge.bounds import sweep
from pcaforge.construct import build_pca_moser_tardos
from pcaforge.core import WIDE_INT_MAX, Array, PcaParams
from pcaforge.coverage import coverage_profile
from pcaforge.errors import (
    DimensionMismatch, DomainError, Overflow, ParseError, PcaForgeError, SymbolOutOfRange,
)


class TestArrayFormat:
    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "a.pca"
        write_array(Array([[0, 1]], 2), path)
        assert path.read_bytes() == b"pca-forge v1\n1 2 2 0\n0 1\n"

    def test_base1_shifts_symbols(self, tmp_path):
        path = tmp_path / "a.pca"
        write_array(Array([[0, 1]], 2), path, base=1)
        assert path.read_bytes() == b"pca-forge v1\n1 2 2 1\n1 2\n"

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(100):
            n = int(rng.integers(0, 12))
            k = int(rng.integers(1, 9))
            v = int(rng.integers(2, 6))
            a = Array(rng.integers(0, v, size=(n, k)), v)
            path = tmp_path / f"r{i}.pca"
            write_array(a, path, base=int(rng.integers(0, 2)))
            loaded, _ = read_array(path)
            assert loaded == a

    def test_claims_round_trip(self, tmp_path):
        path = tmp_path / "a.pca"
        write_array(Array([[0, 1]], 2), path, claims={"t": 2, "m": 4, "epsilon": 0.25})
        loaded, header = read_array(path)
        assert header.claims == {"t": 2, "m": 4, "epsilon": 0.25}
        assert loaded == Array([[0, 1]], 2)

    @pytest.mark.parametrize("v", [5, np.int64(5), np.uint8(5), WIDE_INT_MAX])
    def test_alphabet_round_trip(self, tmp_path, v):
        path = tmp_path / "a.pca"
        a = Array([[0, 1], [4, 2]], v)
        assert type(a.v) is int
        write_array(a, path)
        loaded, header = read_array(path)
        assert loaded == a and header.v == v

    @pytest.mark.parametrize("v,error", [
        (2.0, DomainError), ("2", DomainError), (2**63, Overflow), (2**70, Overflow),
    ])
    def test_alphabet_the_reader_would_refuse(self, v, error):
        # these were accepted and written to files that read_array refuses:
        # "count line needs integers", "v exceeds the 64-bit range"
        with pytest.raises(error):
            Array([[0, 1]], v)

    def test_empty_array(self, tmp_path):
        path = tmp_path / "a.pca"
        write_array(Array(np.zeros((0, 3), dtype=np.int64), 2), path)
        loaded, header = read_array(path)
        assert loaded.rows == 0 and header.cols == 3

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("nonsense\n1 2 2 0\n0 1\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 1

    def test_malformed_count_line(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 2\n0 1\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 2

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 two 2 0\n0 1\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 2

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n2 2 2 0\n0 1\n")
        with pytest.raises(DimensionMismatch):
            read_array(path)

    def test_row_width_mismatch(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 3 2 0\n0 1\n")
        with pytest.raises(DimensionMismatch):
            read_array(path)

    def test_symbol_out_of_range_base0(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 2 2 0\n0 2\n")
        with pytest.raises(SymbolOutOfRange):
            read_array(path)

    def test_symbol_zero_invalid_in_base1(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 2 2 1\n0 1\n")
        with pytest.raises(SymbolOutOfRange):
            read_array(path)

    def test_non_integer_symbol(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 2 2 0\n0 x\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 3

    def test_golden_fixture(self):
        # committed base-1 file; in memory it is this exact 0-based constant,
        # a full-coverage array of strength 2 on three columns
        from pathlib import Path

        from pcaforge.coverage import is_pca

        path = Path(__file__).parent / "data" / "strength2_badge.pca"
        loaded, header = read_array(path)
        assert header.base == 1
        assert loaded == Array([[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], 2)
        assert is_pca(loaded, 2, 4).ok


# one fault on line 5 (the third body row) of an otherwise valid 3x3 file
SINGLE_FAULTS = [
    ("0", "0 1", DimensionMismatch, "line 5: declared 3 columns, row has 2"),
    ("0", "0 x 1", ParseError, "line 5: non-integer symbol in '0 x 1'"),
    ("0", "0 3 1", SymbolOutOfRange, "line 5: symbol 3 outside [0, 2]"),
    ("1", "1 0 2", SymbolOutOfRange, "line 5: symbol 0 outside [1, 3]"),
    ("0", "0 99999999999999999999 1", SymbolOutOfRange,
     "line 5: symbol 99999999999999999999 outside [0, 2]"),
    ("0", "0 -99999999999999999999 1", SymbolOutOfRange,
     "line 5: symbol -99999999999999999999 outside [0, 2]"),
    # within one row, a non-integer outranks a symbol too wide for 64 bits
    ("0", "99999999999999999999 x 1", ParseError,
     "line 5: non-integer symbol in '99999999999999999999 x 1'"),
]


@pytest.mark.parametrize("base,row,error,message", SINGLE_FAULTS)
def test_single_fault_class_and_line(tmp_path, base, row, error, message):
    path = tmp_path / "a.pca"
    good = "1 2 1" if base == "1" else "0 1 2"
    path.write_text(f"pca-forge v1\n3 3 3 {base}\n{good}\n{good}\n{row}\n")
    with pytest.raises(error) as err:
        read_array(path)
    assert str(err.value) == message


def test_declared_shape_beyond_file_size_allocates_nothing(tmp_path):
    # 10^15 declared symbols in a 40-byte file: rejected before any allocation
    path = tmp_path / "a.pca"
    path.write_bytes(b"pca-forge v1\n1 1000000000000000 2 0\n0 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch):
            read_array(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_multi_digit_base1_round_trip_bytes(tmp_path):
    a = Array(np.random.default_rng(5).integers(0, 64, size=(50, 12)), 64)
    first, second = tmp_path / "a.pca", tmp_path / "b.pca"
    write_array(a, first, base=1, claims={"t": 2, "m": 4096})
    loaded, header = read_array(first)
    assert loaded == a and header.base == 1
    write_array(loaded, second, base=1, claims=header.claims)
    assert second.read_bytes() == first.read_bytes()
    assert a.cells.max() == 63  # so the file holds the two-digit symbol 64


# -- reference codec: the row-by-row reader and the join writer --------------

def _reference_claims(text: str, lineno: int) -> dict:
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


def _reference_row_fault(line: str, lineno: int, lo: int, hi: int) -> Exception:
    try:
        values = [int(p) for p in line.split()]
    except ValueError:
        return ParseError(lineno, f"non-integer symbol in {line!r}")
    value = next(x for x in values if not lo <= x <= hi)
    return SymbolOutOfRange(f"line {lineno}: symbol {value} outside [{lo}, {hi}]")


def _reference_read(path) -> tuple[Array, ArrayFileHeader]:
    """The reader that parsed every file row by row with ``int()``, kept as
    the oracle for :func:`read_array`."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, "non-ASCII byte") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
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
    if v > WIDE_INT_MAX:
        raise ParseError(2, f"v={v} exceeds the 64-bit range")
    body_start = 2
    claims = None
    if len(lines) > 2 and lines[2].startswith("claims"):
        claims = _reference_claims(lines[2], 3)
        body_start = 3
    body = lines[body_start:]
    if len(body) != n:
        raise DimensionMismatch(f"declared {n} rows, file has {len(body)}")
    if n * k > len(data):
        raise DimensionMismatch(f"declared {n}x{k} symbols, file has {len(data)} bytes")
    try:
        cells = np.zeros((n, k), dtype=np.int64)
    except ValueError:
        raise ParseError(2, f"no array has {n} rows and {k} columns") from None
    lo, hi = (1, v) if base == 1 else (0, v - 1)
    for lineno, (row, line) in enumerate(zip(cells, body), body_start + 1):
        parts = line.split()
        if len(parts) != k:
            raise DimensionMismatch(f"line {lineno}: declared {k} columns, row has {len(parts)}")
        try:
            row[:] = parts
        except (ValueError, OverflowError):
            raise _reference_row_fault(line, lineno, lo, hi) from None
    bad = np.flatnonzero(((cells < lo) | (cells > hi)).any(axis=1))
    if bad.size:
        raise _reference_row_fault(body[bad[0]], body_start + bad[0] + 1, lo, hi)
    cells -= base
    return Array(cells, v), ArrayFileHeader(rows=n, cols=k, v=v, base=base, claims=claims)


def _outcome(reader, path):
    """What a reader makes of a file: its cells and header, or its error."""
    try:
        array, header = reader(path)
    except PcaForgeError as exc:
        return type(exc), str(exc)
    return array.cells.tolist(), array.v, header


def _join_text(a: Array, base: int = 0, claims: dict | None = None) -> bytes:
    """The file for ``a`` as the writer that joined each row's tokens made it."""
    lines = [MAGIC, f"{a.rows} {a.cols} {a.v} {base}"]
    if claims:
        lines.append("claims " + " ".join(f"{key}={claims[key]}" for key in claims))
    lines.extend(" ".join(map(str, row.tolist())) for row in a.cells + base)
    return ("\n".join(lines) + "\n").encode("ascii")


# Each mutation edits the text of body row ``i`` at token ``j`` (both drawn
# in range); ``lo`` and ``hi`` bound the file's symbols.
ROW_MUTATIONS = {
    "leading zero": lambda row, j, lo, hi: _retoken(row, j, lambda tok: "0" + tok),
    "plus sign": lambda row, j, lo, hi: _retoken(row, j, lambda tok: "+" + tok),
    "underscore": lambda row, j, lo, hi: _retoken(row, j, lambda tok: tok + "_0"),
    "double space": lambda row, j, lo, hi: _retoken(row, j, lambda tok: tok + " "),
    "trailing space": lambda row, j, lo, hi: row + " ",
    "carriage return": lambda row, j, lo, hi: row + "\r",
    "tab": lambda row, j, lo, hi: row.replace(" ", "\t", 1) if " " in row else "\t" + row,
    "non-ascii": lambda row, j, lo, hi: _retoken(row, j, lambda tok: tok + "\u00e9"),
    "below range": lambda row, j, lo, hi: _retoken(row, j, lambda tok: str(lo - 1)),
    "above range": lambda row, j, lo, hi: _retoken(row, j, lambda tok: str(hi + 1)),
}


def _retoken(row: str, j: int, edit) -> str:
    tokens = row.split(" ")
    tokens[j] = edit(tokens[j])
    return " ".join(tokens)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "a.pca"


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    v=st.integers(2, 12), base=st.sampled_from([0, 1]), n=st.integers(0, 5),
    k=st.integers(0, 5), claims=st.booleans(), data=st.data(),
    mutation=st.one_of(
        st.just("none"), st.sampled_from([*sorted(ROW_MUTATIONS), "missing final LF"])
    ),
)
def test_reader_matches_row_parser(scratch_file, v, base, n, k, claims, mutation, data):
    cells = data.draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=k, max_size=k), min_size=n, max_size=n
    ))
    array = Array(np.array(cells, dtype=np.int64).reshape(n, k), v)
    text = _join_text(array, base, {"t": 2, "m": 4} if claims else None).decode("ascii")
    if mutation == "missing final LF":
        text = text[:-1]
    elif mutation in ROW_MUTATIONS and n and k:
        lines = text.split("\n")
        i = 2 + claims + data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, k - 1))
        lines[i] = ROW_MUTATIONS[mutation](lines[i], j, base, v - 1 + base)
        text = "\n".join(lines)
    scratch_file.write_bytes(text.encode("utf-8"))
    assert _outcome(read_array, scratch_file) == _outcome(_reference_read, scratch_file)


# bodies of the canonical length, and headers around them, that one check
# of the byte-level reader must refuse, and ones at the edge of what it reads
EDGE_FILES = [
    b"pca-forge v1\n1 2 3 0\n0 1\n",  # a header of odd length: unaligned pairs
    b"pca-forge v1\n2 2 13 0\n0 1\n2 0\n",  # a header of even length
    b"pca-forge v1\n1 2 3 0\n0\n1 ",  # the separators of one row swapped
    b"pca-forge v1\n2 2 3 0\n0\n1 0 1\n",
    b"pca-forge v1\n1 3 10 1\n1 9 5\n",  # v = 10 in base 1: symbols up to 10
    b"pca-forge v1\n1 2 10 1\n0 9\n",
    b"pca-forge v1\n1 2 10 1\n: 1\n",
    b"pca-forge v1\n1 2 1 1\n1 1\n",
    b"pca-forge v1\n1 2 0 1\n1 1\n",  # no symbol at all: hi < lo
    b"pca-forge v1\n1 2 0 1\n0 0\n",
    b"pca-forge v1\n1 2 11 0\n0 :\n",  # ':' follows '9' but is no digit
    b"pca-forge v1\n1 2 3 0\n0\t1\n",
    b"pca-forge v1\n1 2 3 0\n0 1\r",
    b"pca-forge v1\n2 2 3 0\n0 1 2\n0\n",  # a row end moved by one token
    b"pca-forge v1\n2 1 3 0\n0\n\xff\n",
    b"pca-forge v1\n1 2 3 1\n0 1\n",
    b"pca-forge v1\n1 2 1 0\n0 0\n",
    b"pca-forge v1\n1 2 0 0\n0 0\n",
    b"pca-forge v1\n1 2 -4 0\n0 0\n",
    b"pca-forge v1\n0 2 3 0\n",
    b"pca-forge v1\n0 2 1 0\n",
    b"pca-forge v1\n1 2 3 0\n0 1\n\n",
    b"pca-forge v1\n1 2 3 0 \n0 1\n",
    b"pca-forge v1\n+1 2 3 0\n0 1\n",
    b"pca-forge v1\n1 2 3 2\n0 1\n",
    b"pca-forge v1\n1 2 3 0\xff\n0 1\n",
    b"pca-forge v1\r\n1 2 3 0\n0 1\n",
    b"pca-forge v1\n1 2 3 0\nclaims\n0 1\n",
    b"pca-forge v1\n1 2 3 0\nclaims t=x\n0 1\n",
    b"pca-forge v1\n1 2 3 0\nclaims t=2",
    b"pca-forge v1\n1 2 3 0",
]


@pytest.mark.parametrize("content", EDGE_FILES)
def test_reader_matches_row_parser_on_edge_files(tmp_path, content):
    path = tmp_path / "a.pca"
    path.write_bytes(content)
    assert _outcome(read_array, path) == _outcome(_reference_read, path)


def test_canonical_bodies_skip_the_row_parser(tmp_path, monkeypatch):
    # one digit per token, single spaces, LF-ended rows: read without the
    # row parser; a two-digit token sends the file to it
    def refuse(data):
        raise AssertionError("row parser called")

    monkeypatch.setattr(artifact_io, "_parsed_cells", refuse)
    path = tmp_path / "a.pca"
    header_parities = set()
    for v, base in ((10, 0), (9, 1), (10, 1), (64, 0)):
        a = Array(np.random.default_rng(v).integers(0, min(v, 10 - base), size=(30, 7)), v)
        for claims in (None, {"t": 2}):
            write_array(a, path, base=base, claims=claims)
            assert read_array(path)[0] == a
            header_parities.add((path.stat().st_size - 2 * a.rows * a.cols) % 2)
    assert header_parities == {0, 1}  # the 16-bit pairs are read unaligned too
    for content in (b"pca-forge v1\n1 2 3 0\n0 1\n", b"pca-forge v1\n2 2 13 0\n0 1\n2 0\n",
                    b"pca-forge v1\n1 2 10 1\n1 9\n"):
        assert artifact_io._canonical_cells(content) is not None
    # swapped separators and alphabets with no symbol go to the row parser
    for content in (b"pca-forge v1\n1 2 3 0\n0\n1 ", b"pca-forge v1\n1 2 0 1\n1 1\n",
                    b"pca-forge v1\n1 2 0 0\n0 0\n"):
        assert artifact_io._canonical_cells(content) is None
    write_array(Array([[0, 10]], 11), path)
    with pytest.raises(AssertionError, match="row parser called"):
        read_array(path)


def test_read_peak_memory(tmp_path):
    # the file's bytes, the int64 cells and a little more: no decoded text,
    # line list or second copy of the cells
    n, k = 2000, 100
    path = tmp_path / "a.pca"
    write_array(Array(np.random.default_rng(0).integers(0, 3, size=(n, k)), 3), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        array, _ = read_array(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert array.rows == n
    assert peak < size + 2 * 8 * n * k


WRITER_SHAPES = [(0, 4), (5, 0), (1, 1), (6, 5), (40, 3)]


@pytest.mark.parametrize("v", [2, 3, 10, 11, 64, 1000, 2**40])
@pytest.mark.parametrize("base", [0, 1])
@pytest.mark.parametrize("claims", [None, {"t": 3, "m": 5, "epsilon": 0.125}])
def test_writer_matches_join(tmp_path, v, base, claims):
    rng = np.random.default_rng(v)
    path = tmp_path / "a.pca"
    for n, k in WRITER_SHAPES:
        cells = rng.integers(0, v, size=(n, k))
        if n and k:
            cells[0, 0], cells[-1, -1] = v - 1, 0  # the widest and the narrowest token
        a = Array(cells, v)
        write_array(a, path, base=base, claims=claims)
        assert path.read_bytes() == _join_text(a, base, claims)
        assert read_array(path)[0] == a


class TestSweepCsv:
    def test_header_and_shape(self):
        s = sweep(["eq5", "eq6"], "m", [4], t=2, k=4, v=2)
        text = sweep_csv_text(s)
        lines = text.splitlines()
        assert lines[0] == "axis,formula,real_bound,n_rows,feasible"
        assert lines[1] == "4,eq5,11.0471,12,1"
        assert lines[2] == "4,eq6,15.5232,16,1"

    def test_gap_rows_are_explicit(self):
        s = sweep(["eq6"], "k", [5, 8], t=3, v=2, m=8)
        lines = sweep_csv_text(s).splitlines()
        assert lines[1] == "5,eq6,,,0"
        assert lines[2].startswith("8,eq6,")

    def test_informational_formula_has_no_rows(self):
        s = sweep(["can-upper"], "k", [4], t=2, v=2, m=4)
        lines = sweep_csv_text(s).splitlines()
        assert lines[1] == "4,can-upper,8,,1"

    def test_byte_identical_across_runs(self, tmp_path):
        s1 = sweep(["eq6", "eq8"], "m", list(range(4090, 4097)), t=6, k=20, v=4)
        s2 = sweep(["eq6", "eq8"], "m", list(range(4090, 4097)), t=6, k=20, v=4)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(s1, p1)
        write_sweep_csv(s2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fig_1a_row_count(self):
        # 24 m-values, two formulas, plus the header
        values = list(range(4**6 - 6 * 4 + 1, 4**6 + 1))
        assert len(values) == 24
        s = sweep(["eq6", "eq8"], "m", values, t=6, k=20, v=4)
        assert len(sweep_csv_text(s).splitlines()) == 1 + 24 * 2


class TestDefectsCsv:
    def test_format(self, tmp_path):
        from pcaforge.galois import constant_rows

        profile = coverage_profile(constant_rows(3, 2), 2)
        defects = profile.defective(4)
        text = defects_csv_text(defects, 2, 2)
        lines = text.splitlines()
        assert lines[0] == "tset_indices,count,missing"
        assert lines[1] == "0 1,2,2"
        path = tmp_path / "d.csv"
        write_defects_csv(defects, 2, 2, path)
        assert path.read_text() == text


class TestReportJson:
    def test_deterministic_without_elapsed(self):
        p = PcaParams(t=2, k=4, v=2, m=4, seed=11)
        r1 = build_pca_moser_tardos(p)
        r2 = build_pca_moser_tardos(p)
        assert report_json_text(r1, p) == report_json_text(r2, p)

    def test_fields(self):
        p = PcaParams(t=2, k=4, v=2, m=4, seed=11)
        record = json.loads(report_json_text(build_pca_moser_tardos(p), p))
        assert record["params"] == {"t": 2, "k": 4, "v": 2, "m": 4, "epsilon": 0.0}
        assert record["seed"] == 11
        assert record["n_rows"] == 16
        assert record["elapsed_ms"] is None
        assert record["verifier"].startswith("pca")
