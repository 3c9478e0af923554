"""Edge and error-path checks that don't fit a single module's test file."""

import time

import numpy as np
import pytest

from pcaforge.artifact_io import read_array, write_array
from pcaforge.bounds import FORMULAS, bound_apca, bound_apca_cyclic, evaluate_formula, sweep
from pcaforge.cli import main
from pcaforge.core import Array
from pcaforge.coverage import completeness, naive_oracle
from pcaforge.errors import (
    DimensionMismatch,
    DomainError,
    EpsilonOutOfRange,
    MNotFull,
    Overflow,
    ParseError,
    PcaForgeError,
    StrengthTooSmall,
    StructureMismatch,
    SymbolOutOfRange,
)
from pcaforge.galois import constant_rows, cyclic_action, develop


class TestBoundsEdges:
    def test_epsilon_above_one(self):
        with pytest.raises(EpsilonOutOfRange):
            bound_apca(2, 2, 4, 1.5)
        with pytest.raises(EpsilonOutOfRange):
            bound_apca_cyclic(2, 2, 2.0)

    def test_unknown_formula(self):
        with pytest.raises(DomainError):
            evaluate_formula("nope", t=2, k=4, v=2, m=4)
        with pytest.raises(DomainError):
            sweep(["nope"], "m", [4], t=2, k=4, v=2)

    def test_bad_axis(self):
        with pytest.raises(DomainError):
            sweep(["eq5"], "rows", [4], t=2, k=4, v=2)

    def test_sweep_gap_markers_only_for_package_errors(self):
        # a non-integer parameter is a caller bug, not an infeasible point:
        # it raises before the first point, and no sweep comes back
        for fixed, values in [({"v": "3"}, [4]), ({"v": 3.0}, [4]), ({"t": 2.5}, [4]),
                              ({}, [4, 4.5]), ({}, ["4"])]:
            result = None
            with pytest.raises(DomainError, match="must be an integer"):
                result = sweep(["eq5"], "m", values, **{"t": 2, "k": 4, "v": 2, **fixed})
            assert result is None

    @pytest.mark.parametrize("label", [f.label for f in FORMULAS])
    def test_vt_beyond_64_bits_is_overflow(self, label):
        # the rule validate() applies; v^t = 2^64 here
        with pytest.raises(Overflow):
            evaluate_formula(label, t=2, k=4, v=2**32, m=3, epsilon=0.1)

    def test_development_formulas_need_full_m(self):
        with pytest.raises(MNotFull):
            evaluate_formula("cyclic", t=2, k=4, v=2, m=3, epsilon=0.1)


class TestCoreEdges:
    def test_stack_mismatched(self):
        with pytest.raises(ValueError):
            Array([[0, 1]], 2).stack(Array([[0, 1, 0]], 2))
        with pytest.raises(ValueError):
            Array([[0, 1]], 2).stack(Array([[0, 1]], 3))

    def test_cells_must_be_2d(self):
        with pytest.raises(ValueError):
            Array(np.zeros((2, 2, 2), dtype=np.int64), 2)

    def test_stack_mismatch_is_package_error(self):
        with pytest.raises(DimensionMismatch):
            Array([[0, 1]], 2).stack(Array([[0, 1]], 3))

    @pytest.mark.parametrize("cells", [np.zeros((2, 2, 2), dtype=np.int64), [[0, 1], [0]]],
                             ids=["3-d", "ragged"])
    def test_cells_shape_is_package_error(self, cells):
        with pytest.raises(DimensionMismatch):
            Array(cells, 2)

    def test_fractional_cells_refused(self):
        # were truncated to [[0, 1]]
        with pytest.raises(DomainError, match="integers"):
            Array([[0.5, 1.7]], 2)

    def test_none_cell_refused(self):
        # leaked TypeError
        with pytest.raises(DomainError, match="integers"):
            Array([[1, None]], 2)

    def test_cell_past_int64_refused(self):
        # leaked OverflowError
        with pytest.raises(SymbolOutOfRange, match="64-bit"):
            Array(np.array([[0, 2**63]], dtype=object), 2)

    def test_string_cells_refused(self):
        # were reported as a ragged grid
        with pytest.raises(DomainError, match="integers"):
            Array([["a", "b"]], 2)

    def test_integral_float_and_unsigned_cells_accepted(self):
        assert Array([[1.0, 0.0]], 2) == Array([[1, 0]], 2)
        assert Array(np.array([[1, 0]], dtype=np.uint8), 2) == Array([[1, 0]], 2)


class TestGaloisEdges:
    def test_develop_rejects_mismatched_v(self):
        with pytest.raises(ValueError):
            develop(Array([[0, 1]], 2), cyclic_action(3))

    def test_develop_mismatch_is_package_error(self):
        with pytest.raises(StructureMismatch):
            develop(Array([[0, 1]], 2), cyclic_action(3))


class TestCoverageEdges:
    def test_oracle_strength_check(self):
        with pytest.raises(StrengthTooSmall):
            naive_oracle(constant_rows(3, 2), 5)

    def test_completeness_q_range(self):
        with pytest.raises(EpsilonOutOfRange):
            completeness(constant_rows(3, 2), 1.5, 2)


class TestArtifactIoEdges:
    def test_write_bad_base(self, tmp_path):
        with pytest.raises(ValueError):
            write_array(Array([[0, 1]], 2), tmp_path / "x.pca", base=2)

    def test_write_bad_base_is_package_error(self, tmp_path):
        with pytest.raises(DomainError):
            write_array(Array([[0, 1]], 2), tmp_path / "x.pca", base=2)

    def test_non_ascii_is_parse_error(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_bytes(b"pca-forge v1\n1 2 2 0\n0 \xc3\xa9\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 3

    def test_alphabet_beyond_64_bits_is_parse_error(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 2 99999999999999999999999 0\n0 99999999999999999999\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("count_line", ["0 -1 2 0", "0 4611686018427387904 2 0"])
    def test_unrepresentable_shape_is_parse_error(self, tmp_path, count_line):
        path = tmp_path / "a.pca"
        path.write_text(f"pca-forge v1\n{count_line}\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 2

    def test_bad_claims_token(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 2 2 0\nclaims q=9\n0 1\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("token", ["t=x", "m=2.5", "epsilon=half"])
    def test_bad_claims_value(self, tmp_path, token):
        path = tmp_path / "a.pca"
        path.write_text(f"pca-forge v1\n1 2 2 0\nclaims {token}\n0 1\n")
        with pytest.raises(ParseError) as err:
            read_array(path)
        assert err.value.line == 3

    def test_bad_base_value_in_header(self, tmp_path):
        path = tmp_path / "a.pca"
        path.write_text("pca-forge v1\n1 2 2 7\n0 1\n")
        with pytest.raises(ParseError):
            read_array(path)


class TestCliEdges:
    def test_verify_apca_violated_exit_1(self, tmp_path, capsys):
        path = tmp_path / "const.pca"
        write_array(constant_rows(4, 2), path)
        # every pair is defective at m = 3; allow none of them
        code = main(["verify", "--in", str(path), "--t", "2", "--m", "3",
                     "--epsilon", "0.01"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bounds_negative_epsilon_rows_skipped(self, capsys):
        code = main(["bounds", "--t", "2", "--k", "4", "--v", "2", "--m", "4",
                     "--formula", "apca"])
        assert code == 0
        assert "skipped: EpsilonZero" in capsys.readouterr().out

    def test_generate_bad_seed_exit_2(self, tmp_path, capsys):
        code = main(["generate", "--alg", "mt", "--t", "2", "--k", "4", "--v", "2",
                     "--m", "4", "--seed", "-3", "--out", str(tmp_path / "x.pca")])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--alg", "mt", "--t", "2", "--k", "4", "--v", "3000", "--m", "9000000"],
        ["--alg", "apca", "--t", "2", "--k", "4", "--v", "3000", "--m", "9000000",
         "--epsilon", "0.5"],
        ["--alg", "cyclic", "--t", "4", "--k", "6", "--v", "64", "--epsilon", "0.05"],
    ], ids=["mt", "apca", "cyclic"])
    def test_generate_oversize_exit_2(self, tmp_path, capsys, flags):
        # each output would hold more than PROFILE_CAPACITY cells
        out = tmp_path / "o.pca"
        assert main(["generate", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: CapacityExceeded: N*k")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--m", "3", "--epsilon", "1.5"],
        ["--m", "0"],
        ["--epsilon", "-0.5"],
        ["--m", "3", "--q", "2"],
        ["--epsilon", "0.1"],  # no apca claim is checked without --m
    ])
    def test_verify_rejects_flags_before_printing(self, tmp_path, capsys, flags):
        path = tmp_path / "const.pca"
        write_array(constant_rows(4, 2), path)
        code = main(["verify", "--in", str(path), "--t", "2", *flags])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_verify_non_ascii_exit_2(self, tmp_path, capsys):
        path = tmp_path / "a.pca"
        path.write_bytes(b"pca-forge v1\n1 2 2 0\n\xff 1\n")
        assert main(["verify", "--in", str(path), "--t", "2"]) == 2
        assert capsys.readouterr().err == "error: ParseError: line 3: non-ASCII byte\n"

    @pytest.mark.parametrize("values", ["3:x", "1:5:0", "1:2:3:4", "4,x"])
    def test_compare_bad_values_exit_2(self, capsys, values):
        code = main(["compare", "--axis", "m", "--values", values, "--t", "2", "--k", "4",
                     "--v", "2", "--formulas", "eq5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: DomainError: bad values")

    @pytest.mark.parametrize("stop", ["100000000000000", "1" + "0" * 30])
    def test_compare_huge_range_exit_2(self, capsys, stop):
        code = main(["compare", "--axis", "k", "--values", f"10:{stop}", "--t", "2",
                     "--v", "2", "--m", "3", "--formulas", "eq5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: CapacityExceeded: values")

    def test_verify_zero_rows_many_columns_exit_2(self, tmp_path, capsys):
        # N = 0 passes the reader's size guard; C(100000, 3) t-sets must not be walked
        path = tmp_path / "wide.pca"
        path.write_bytes(b"pca-forge v1\n0 100000 2 0\n")
        start = time.perf_counter()
        assert main(["verify", "--in", str(path), "--t", "3"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: CapacityExceeded: C(k,t)")

    def test_compare_vt_beyond_double_range_is_gap_row(self, capsys):
        code = main(["compare", "--axis", "m", "--values", "3", "--t", "2", "--k", "4",
                     "--v", "1" + "0" * 200, "--formulas", "eq5"])
        assert code == 0
        assert capsys.readouterr().out == "axis,formula,real_bound,n_rows,feasible\n3,eq5,,,0\n"

    def test_compare_k_beyond_64_bits_is_gap_row(self, capsys):
        huge = "1" + "0" * 400
        code = main(["compare", "--axis", "k", "--values", huge, "--t", "2", "--v", "3",
                     "--m", "3", "--formulas", "eq5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == f"axis,formula,real_bound,n_rows,feasible\n{huge},eq5,,,0\n"

    def test_compare_epsilon_above_one_is_gap_row_for_every_formula(self, capsys):
        # concat used to accept epsilon in (1, 2] and print feasible=1 rows
        code = main(["compare", "--axis", "m", "--values", "3:5", "--t", "2", "--k", "10",
                     "--v", "3", "--epsilon", "1.5", "--formulas", "concat,apca,cyclic"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 9
        assert all(row.endswith(",,,0") for row in rows)

    def test_verify_defects_csv_needs_m(self, tmp_path, capsys):
        path, csv_path = tmp_path / "const.pca", tmp_path / "defects.csv"
        write_array(constant_rows(4, 2), path)
        code = main(["verify", "--in", str(path), "--t", "2", "--defects-csv", str(csv_path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --defects-csv needs --m\n"
        assert not csv_path.exists()

    def test_verify_epsilon_needs_m_before_reading(self, tmp_path, capsys):
        # refused before the file is opened: this one does not exist
        code = main(["verify", "--in", str(tmp_path / "missing.pca"), "--t", "2",
                     "--epsilon", "0.1"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == "error: --epsilon needs --m\n"

    def test_generate_non_integer_env_seed_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCAFORGE_SEED", "abc")
        code = main(["generate", "--alg", "mt", "--t", "2", "--k", "4", "--v", "2",
                     "--m", "4", "--out", str(tmp_path / "x.pca")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: DomainError: PCAFORGE_SEED")

    def test_verify_missing_file_exit_2(self, tmp_path, capsys):
        code = main(["verify", "--in", str(tmp_path / "absent.pca"), "--t", "2"])
        assert code == 2
