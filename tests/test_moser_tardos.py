"""The Moser-Tardos loop on its table of short t-sets against a full rescan
after every resample."""

import logging
import math
import tracemalloc
from itertools import combinations, islice

import numpy as np
import pytest

from pcaforge import construct, coverage
from pcaforge.cli import main
from pcaforge.construct import build_concat, build_pca_moser_tardos
from pcaforge.core import Array, PcaParams
from pcaforge.coverage import coverage_profile, first_defect


def _ref_defects(cells, v, t, m):
    """The loop the table replaced: every t-set rescanned after each resample."""
    while (defect := first_defect(cells, v, t, m)) is not None:
        yield defect


def _reference(monkeypatch, build, params):
    with monkeypatch.context() as patch:
        patch.setattr(construct, "_defects", _ref_defects)
        return build(params)


# the benchmark shape over its ten seeds, then the wider shapes; the t=2 k=300
# array has N = 31 rows, above the kernel's 30-row head at v^t = 4
SHAPES = [PcaParams(3, 60, 3, 26, 0.0, seed) for seed in range(10)] + [
    PcaParams(2, 40, 4, 14, 0.0, 0),
    PcaParams(2, 40, 4, 14, 0.0, 3),
    PcaParams(3, 30, 2, 8, 0.0, 0),
    PcaParams(4, 12, 2, 16, 0.0, 0),
    PcaParams(2, 300, 2, 4, 0.0, 0),
    PcaParams(2, 300, 2, 4, 0.0, 3),
]


class TestSameBuilds:
    @pytest.mark.parametrize("params", SHAPES, ids=str)
    def test_moser_tardos_matches_full_rescan(self, monkeypatch, params):
        want = _reference(monkeypatch, build_pca_moser_tardos, params)
        got = build_pca_moser_tardos(params)
        np.testing.assert_array_equal(got.array.cells, want.array.cells)
        assert got.iterations == want.iterations
        assert got == want

    def test_concat_matches_full_rescan(self, monkeypatch):
        params = PcaParams(2, 8, 3, 8, 0.1, 2)  # component 1 resamples twice
        want = _reference(monkeypatch, build_concat, params)
        got = build_concat(params)
        assert want.detail["component_iterations"][0] == 2
        np.testing.assert_array_equal(got.array.cells, want.array.cells)
        assert got.iterations == want.iterations
        assert got == want

    @pytest.mark.parametrize("t,k,v,m,n,seed", [
        (2, 12, 2, 4, 5, 0), (2, 10, 3, 8, 13, 1), (2, 10, 3, 8, 21, 1), (3, 9, 2, 7, 11, 0),
        (3, 9, 2, 7, 17, 2),
    ])
    def test_defect_sequence_on_tight_arrays(self, monkeypatch, t, k, v, m, n, seed):
        # So few rows that many t-sets are short at once: the first 60 defects
        # (all of them, when fewer) must come in the order of a full rescan.
        sequences = []
        for defects in (construct._defects, _ref_defects):
            rng = np.random.default_rng(seed)
            cells = rng.integers(0, v, size=(n, k))
            seen = []
            for defect in islice(defects(cells, v, t, m), 60):
                seen.append(defect)
                cells[:, defect.tset] = rng.integers(0, v, size=(n, t))
            sequences.append(seen)
        assert sequences[0] == sequences[1]


class TestHelpers:
    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_lex_ranks_enumerate_combinations(self, t):
        for k in range(t, 13):
            tsets = np.array(list(combinations(range(k), t)))
            ranks = coverage._lex_ranks(tsets, coverage._binomials(k, t))
            np.testing.assert_array_equal(ranks, np.arange(math.comb(k, t)))

    @pytest.mark.parametrize("t,k", [(2, 7), (3, 9), (4, 10)])
    def test_through_matches_brute_force(self, t, k):
        rng = np.random.default_rng(t * k)
        every = list(combinations(range(k), t))
        others = np.array(list(combinations(range(k - 1), t - 1))).reshape(-1, t - 1)
        binom = coverage._binomials(k, t)
        for _ in range(20):
            columns = tuple(sorted(rng.choice(k, size=t, replace=False).tolist()))
            want = [(i, s) for i, s in enumerate(every) if set(s) & set(columns)]
            ranks, tsets = construct._through(others, binom, columns)
            # lex order without repeats, each rank that of its t-set
            assert ranks.tolist() == [i for i, _ in want]
            assert [tuple(s) for s in tsets.tolist()] == [s for _, s in want]

    @pytest.mark.parametrize("t,v,n", [
        (2, 3, 200),  # N above the head of 74 rows
        (2, 9, 60),   # v^t = 81: the sort path
        (3, 5, 40),   # v^t = 125
        (3, 2, 1),
    ])
    @pytest.mark.parametrize("budget", [None, 64], ids=["default-budget", "budget-64"])
    def test_count_tsets_matches_profile(self, monkeypatch, t, v, n, budget):
        if budget is not None:
            monkeypatch.setattr(coverage, "_CHUNK_BUDGET", budget)
        k = 7
        a = Array(np.random.default_rng(v * n).integers(0, v, size=(n, k)), v)
        tsets = np.array(list(combinations(range(k), t)))
        want = coverage_profile(a, t).counts
        np.testing.assert_array_equal(coverage._count_tsets(a.cells, v, tsets), want)
        # any order, repeats kept
        order = np.random.default_rng(0).permutation(len(tsets))[: len(tsets) // 2]
        np.testing.assert_array_equal(
            coverage._count_tsets(a.cells, v, tsets[order]), want[order]
        )


class TestWork:
    def test_counted_tsets_per_build(self, monkeypatch):
        # A full rescan after every resample counted 71.9k t-sets per build
        # here.  The table counts each of the C(60,3) = 34,220 once, then per
        # resample the defect and the t-sets through its three columns: 46.6k
        # per build on average.  N = 201 is below the 251-row head, so no
        # t-set is counted twice in a scan.
        counted = []
        count = coverage._count

        def spy(ranks, vt):
            counted.append(len(ranks))
            return count(ranks, vt)

        monkeypatch.setattr(coverage, "_count", spy)
        total, through = math.comb(60, 3), math.comb(60, 3) - math.comb(57, 3)
        for seed in range(10):
            counted.clear()
            report = build_pca_moser_tardos(PcaParams(3, 60, 3, 26, 0.0, seed))
            assert sum(counted) == total + report.iterations * (through + 1)

    def test_no_array_of_every_tset(self):
        # C(3000, 2) = 4,498,500 t-sets: one int64 entry each is 36 MB
        tracemalloc.start()
        try:
            report = build_pca_moser_tardos(PcaParams(2, 3000, 2, 4, 0.0, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.iterations > 0
        assert peak < math.comb(3000, 2) * 8


class TestLogging:
    def test_one_debug_record_per_resample(self, caplog):
        caplog.set_level(logging.DEBUG, logger="pcaforge")
        report = build_pca_moser_tardos(PcaParams(3, 60, 3, 26, 0.0, 0))
        records = [r for r in caplog.records if r.name == "pcaforge"]
        assert report.iterations == 5
        assert len(records) == report.iterations
        for record in records:
            assert record.levelno == logging.DEBUG
            tset, count, stale = record.args
            assert len(tset) == 3 and count < 26 and stale > 0

    def test_default_level_emits_nothing(self, tmp_path, caplog, capsys):
        out = tmp_path / "a.pca"
        argv = ["generate", "--alg", "mt", "--t", "3", "--k", "20", "--v", "3", "--m", "26",
                "--seed", "4", "--out", str(out)]
        assert main(argv) == 0
        assert [r for r in caplog.records if r.name == "pcaforge"] == []
        assert "resampled" not in capsys.readouterr().err
