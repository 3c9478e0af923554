"""Tests for the array file format, CSV outputs, and build-report records."""

import json
import tracemalloc

import numpy as np
import pytest

from pcaforge.artifact_io import (
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
from pcaforge.core import Array, PcaParams
from pcaforge.coverage import coverage_profile
from pcaforge.errors import DimensionMismatch, ParseError, SymbolOutOfRange


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

    def test_elapsed_opt_in(self):
        p = PcaParams(t=2, k=4, v=2, m=4, seed=11)
        record = json.loads(
            report_json_text(build_pca_moser_tardos(p), p, include_elapsed=True)
        )
        assert record["elapsed_ms"] >= 0
