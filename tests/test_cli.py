"""Tests for the command-line interface and its exit-code contract."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pcaforge import bounds, construct, coverage
from pcaforge.artifact_io import read_array, write_array
from pcaforge.cli import _build_parser, main
from pcaforge.core import Array
from pcaforge.coverage import is_pca
from pcaforge.galois import constant_rows


def full_factorial_file(tmp_path):
    rows = [[0, 0], [0, 1], [1, 0], [1, 1]]
    path = tmp_path / "full.pca"
    write_array(Array(np.array(rows), 2), path)
    return path


class TestBoundsCommand:
    def test_all_table(self, capsys):
        assert main(["bounds", "--t", "2", "--k", "4", "--v", "2", "--m", "4", "--all"]) == 0
        out = capsys.readouterr().out
        lines = {line.split()[0]: line.split() for line in out.splitlines()[1:]}
        assert lines["union"][2] == "12"
        assert lines["lll"][2] == "16"

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["bounds", "--t", "2", "--k", "4", "--v", "2", "--all"])
        assert err.value.code == 2

    def test_validation_failure_exit_2(self, capsys):
        code = main(["bounds", "--t", "2", "--k", "4", "--v", "2", "--m", "5", "--all"])
        assert code == 2
        assert "MOutOfRange" in capsys.readouterr().err

    def test_eq8_variant_flag(self, capsys):
        main(["bounds", "--t", "6", "--k", "20", "--v", "4", "--m", "4092",
              "--formula", "eq8", "--eq8-variant", "with-t"])
        out = capsys.readouterr().out
        assert "cyclic-pca-t" in out and "eq8-t" in out

    def test_single_formula(self, capsys):
        main(["bounds", "--t", "2", "--k", "4", "--v", "2", "--m", "4",
              "--formula", "union"])
        out = capsys.readouterr().out
        assert "union" in out and "lll" not in out


class TestParserReuse:
    """One parser serves every ``main`` call in a process."""

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_repeated_formula_flags_do_not_accumulate(self, capsys):
        argv = ["bounds", "--t", "2", "--k", "4", "--v", "2", "--m", "4",
                "--formula", "union", "--formula", "lll"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 3  # header, union, lll
        assert main(argv[:-2]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_generate_then_verify_print_what_fresh_processes_print(self, tmp_path, capsys):
        generate = ["generate", "--alg", "mt", "--t", "2", "--k", "8", "--v", "2",
                    "--m", "4", "--seed", "3", "--out", str(tmp_path / "a.pca")]
        verify = ["verify", "--in", str(tmp_path / "a.pca"), "--t", "2", "--m", "4",
                  "--q", "0.5"]
        in_process = []
        for argv in (generate, verify):
            assert main(argv) == 0
            in_process.append(capsys.readouterr().out)
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        fresh = [
            subprocess.run([sys.executable, "-m", "pcaforge.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=120, check=True).stdout
            for argv in (generate, verify)
        ]
        assert in_process == fresh


# `bounds --all` stdout recorded before the formula names moved into one table;
# the second point has skipped rows.
ALL_TABLES = [
    (["--t", "2", "--k", "10", "--v", "3", "--m", "9", "--epsilon", "0.05"],
     "formula       real_bound    n_rows  source\n"
     "union            50.9741        51  eq5\n"
     "lll              52.5794        53  eq6\n"
     "asymptotic       20.7233            eq7\n"
     "cyclic-pca       32.5641        33  eq8\n"
     "apca             44.0892        45  apca\n"
     "cyclic           36.8491        33  cyclic\n"
     "frobenius        36.1999        21  frobenius\n"
     "concat           95.6668        89  concat\n"
     "can-upper        29.8974            can-upper\n"
     "can-lower        9.96578            can-lower\n"),
    (["--t", "6", "--k", "20", "--v", "4", "--m", "4092"],
     "formula       real_bound    n_rows  source\n"
     "union            38776.9     38777  eq5\n"
     "lll              40312.4     40313  eq6\n"
     "asymptotic       5678.26            eq7\n"
     "cyclic-pca       48730.9     48732  eq8\n"
     "apca                   -         -  skipped: EpsilonZero\n"
     "cyclic                 -         -  skipped: MNotFull\n"
     "frobenius              -         -  skipped: MNotFull\n"
     "concat                 -         -  skipped: EpsilonZero\n"
     "can-upper        88513.1            can-upper\n"
     "can-lower        4425.65            can-lower\n"),
]


@pytest.mark.parametrize("point,table", ALL_TABLES, ids=["t2-v3", "t6-v4-skipped"])
def test_bounds_all_bytes(capsys, point, table):
    assert main(["bounds", *point, "--all"]) == 0
    assert capsys.readouterr().out == table


FORMULA_NAMES = sorted({name for f in bounds.FORMULAS for name in (f.label, f.friendly)})


@pytest.mark.parametrize("name", FORMULA_NAMES)
def test_every_formula_name_accepted(capsys, name):
    entry = bounds.lookup_formula(name)
    point = ["--t", "6", "--k", "20", "--v", "4", "--m", "4092"]
    assert main(["bounds", *point, "--formula", name]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == [entry.friendly]
    assert main(["compare", "--axis", "m", "--values", "4090,4092", *point[:6],
                 "--formulas", name]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert [line.split(",")[:2] for line in lines] == [["4090", entry.label],
                                                       ["4092", entry.label]]


class TestGenerateCommand:
    def test_mt_writes_verified_array(self, tmp_path, capsys):
        out = tmp_path / "a.pca"
        code = main(["generate", "--alg", "mt", "--t", "2", "--k", "4", "--v", "2",
                     "--m", "4", "--seed", "42", "--out", str(out)])
        assert code == 0
        array, _ = read_array(out)
        assert is_pca(array, 2, 4).ok

    def test_not_prime_power_exit_2(self, tmp_path, capsys):
        code = main(["generate", "--alg", "frobenius", "--t", "2", "--k", "6",
                     "--v", "6", "--epsilon", "0.25", "--seed", "1",
                     "--out", str(tmp_path / "x.pca")])
        assert code == 2
        assert "NotPrimePower" in capsys.readouterr().err

    def test_oversize_cyclic_exit_2(self, tmp_path, capsys):
        # the cell cap refuses it before the 10^5 x 10^5 shift table is built,
        # which ended in numpy's MemoryError and exit 1
        code = main(["generate", "--alg", "cyclic", "--t", "2", "--k", "10",
                     "--v", "100000", "--epsilon", "0.5", "--out", str(tmp_path / "x.pca")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: CapacityExceeded: N*k")

    def test_elapsed_on_stderr(self, tmp_path, capsys):
        assert main(["generate", "--alg", "mt", "--t", "2", "--k", "4", "--v", "2",
                     "--m", "4", "--seed", "1", "--out", str(tmp_path / "x.pca")]) == 0
        assert capsys.readouterr().err.startswith("elapsed: ")

    def test_iteration_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # frobenius seed 7 needs a second attempt, which a cap of one forbids
        monkeypatch.setattr(construct, "RESTART_CAP", 1)
        out = tmp_path / "x.pca"
        code = main(["generate", "--alg", "frobenius", "--t", "2", "--k", "10", "--v", "5",
                     "--epsilon", "0.05", "--seed", "7", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: IterationCap: hit restart cap 1\n"
        assert not out.exists()

    def test_same_seed_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.pca", tmp_path / "b.pca"
        ra, rb = tmp_path / "a.json", tmp_path / "b.json"
        for out, rep in ((a, ra), (b, rb)):
            main(["generate", "--alg", "apca", "--t", "2", "--k", "8", "--v", "2",
                  "--m", "4", "--epsilon", "0.1", "--seed", "7",
                  "--out", str(out), "--report", str(rep)])
        assert a.read_bytes() == b.read_bytes()
        assert ra.read_bytes() == rb.read_bytes()

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PCAFORGE_SEED", "55")
        a, b = tmp_path / "a.pca", tmp_path / "b.pca"
        main(["generate", "--alg", "mt", "--t", "2", "--k", "4", "--v", "2",
              "--m", "4", "--out", str(a)])
        main(["generate", "--alg", "mt", "--t", "2", "--k", "4", "--v", "2",
              "--m", "4", "--seed", "55", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_full_coverage_default_m(self, tmp_path, capsys):
        out = tmp_path / "c.pca"
        code = main(["generate", "--alg", "cyclic", "--t", "2", "--k", "5", "--v", "2",
                     "--epsilon", "0.25", "--seed", "3", "--out", str(out)])
        assert code == 0

    def test_mt_requires_m(self, tmp_path, capsys):
        code = main(["generate", "--alg", "mt", "--t", "2", "--k", "4", "--v", "2",
                     "--seed", "1", "--out", str(tmp_path / "x.pca")])
        assert code == 2

    @pytest.mark.parametrize(
        "alg,extra",
        [
            ("mt", ["--m", "4"]),
            ("apca", ["--m", "4", "--epsilon", "0.1"]),
            ("cyclic", ["--epsilon", "0.25"]),
            ("frobenius", ["--epsilon", "0.25"]),
            ("concat", ["--m", "3", "--epsilon", "0.25"]),
            ("derand", ["--epsilon", "0.5"]),
        ],
    )
    def test_every_algorithm_round_trips(self, tmp_path, capsys, alg, extra):
        out = tmp_path / f"{alg}.pca"
        code = main(["generate", "--alg", alg, "--t", "2", "--k", "5", "--v", "2",
                     "--seed", "11", "--out", str(out), *extra])
        assert code == 0
        array, header = read_array(out)
        assert array.cols == 5 and header.claims["t"] == 2


class TestVerifyCommand:
    def test_full_factorial_passes(self, tmp_path, capsys):
        path = full_factorial_file(tmp_path)
        code = main(["verify", "--in", str(path), "--t", "2", "--m", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "min_count=4" in out and "pca(m=4): pass" in out

    def test_constant_rows_fail_with_witness(self, tmp_path, capsys):
        path = tmp_path / "const.pca"
        write_array(constant_rows(4, 2), path)
        code = main(["verify", "--in", str(path), "--t", "2", "--m", "3"])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL at t-set (0, 1) covering 2" in out

    def test_completeness_line(self, tmp_path, capsys):
        path = full_factorial_file(tmp_path)
        code = main(["verify", "--in", str(path), "--t", "2", "--q", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "completeness(q=0.5)=1" in out

    def test_apca_mode(self, tmp_path, capsys):
        path = tmp_path / "const.pca"
        write_array(constant_rows(4, 2), path)
        code = main(["verify", "--in", str(path), "--t", "2", "--m", "3",
                     "--epsilon", "1.0"])
        assert code == 0
        assert "apca(m=3, epsilon=1.0): pass" in capsys.readouterr().out

    def test_apca_allows_the_exact_floor(self, tmp_path, capsys):
        # 0.57 * C(25, 2) is 171 exactly, though the double product is just below
        path = tmp_path / "const.pca"
        write_array(constant_rows(25, 2), path)
        code = main(["verify", "--in", str(path), "--t", "2", "--m", "4",
                     "--epsilon", "0.57"])
        assert code == 1
        assert "(300 defective, 171 allowed)" in capsys.readouterr().out

    def test_one_scan_answers_every_claim(self, tmp_path, capsys, monkeypatch):
        scans = []
        kernel = coverage._scan

        def counted(*args, **kwargs):
            scans.append(args[2])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(coverage, "_scan", counted)
        path = tmp_path / "const.pca"
        write_array(constant_rows(4, 2), path)
        for extra in (["--epsilon", "1.0"], []):
            scans.clear()
            code = main(["verify", "--in", str(path), "--t", "2", "--m", "3",
                         "--q", "0.5", *extra])
            assert code == (0 if extra else 1)
            assert scans == [2]

    def test_m_above_vt_exit_2(self, tmp_path, capsys):
        path = full_factorial_file(tmp_path)
        assert main(["verify", "--in", str(path), "--t", "2", "--m", "5"]) == 2
        assert "MOutOfRange" in capsys.readouterr().err

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.pca"
        path.write_text("garbage\n")
        code = main(["verify", "--in", str(path), "--t", "2", "--m", "4"])
        assert code == 2

    def test_defects_csv_written(self, tmp_path, capsys):
        path = tmp_path / "const.pca"
        write_array(constant_rows(4, 2), path)
        csv_path = tmp_path / "d.csv"
        main(["verify", "--in", str(path), "--t", "2", "--m", "3",
              "--defects-csv", str(csv_path)])
        assert csv_path.read_text().splitlines()[0] == "tset_indices,count,missing"


class TestCompareCommand:
    def test_figure_1a(self, capsys):
        assert main(["compare", "--figure", "1a"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "axis,formula,real_bound,n_rows,feasible"
        values = {}
        for line in lines[1:]:
            m, formula, real, _, _ = line.split(",")
            values.setdefault(int(m), {})[formula] = float(real)
        assert set(values) == set(range(4073, 4097))
        for m, row in values.items():
            if m == 4096:
                assert row["eq8"] < row["eq6"]
            else:
                assert row["eq6"] < row["eq8"]

    def test_figure_1b(self, capsys):
        assert main(["compare", "--figure", "1b"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        values = {}
        for line in lines:
            k, formula, real, _, _ = line.split(",")
            values.setdefault(int(k), {})[formula] = float(real)
        assert set(values) == set(range(12, 61, 4))
        for row in values.values():
            assert row["eq6"] < row["eq8"]

    def test_custom_single_point(self, capsys):
        code = main(["compare", "--axis", "m", "--values", "4", "--t", "2",
                     "--k", "4", "--v", "2", "--formulas", "eq5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert lines[1] == "4,eq5,11.0471,12,1"

    def test_output_file_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["compare", "--figure", "1b", "--out", str(p1)])
        main(["compare", "--figure", "1b", "--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_output_file_matches_stdout(self, tmp_path, capsys):
        path = tmp_path / "f.csv"
        assert main(["compare", "--figure", "1b"]) == 0
        printed = capsys.readouterr().out
        assert main(["compare", "--figure", "1b", "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == printed.encode("ascii")

    def test_custom_needs_axis(self, capsys):
        assert main(["compare", "--t", "2", "--v", "2"]) == 2

    def test_figure_conflicts_with_custom_flags(self, capsys):
        assert main(["compare", "--figure", "1a", "--axis", "m"]) == 2
