"""The coverage counting kernel against the loops it replaced and the oracle.

The ``_ref_*`` functions are the per-t-set loops ``pcaforge.coverage`` used
before its single batched kernel, kept unchanged as the reference.  Every
case runs under the default chunk budget and under tiny ones, which split
chunks inside one prefix.  Classes above 64 take the kernel's sort path.
"""

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest

from pcaforge import coverage
from pcaforge.cli import main
from pcaforge.core import Array, rank_weights
from pcaforge.coverage import (
    count_defects,
    count_orbit_defects,
    coverage_profile,
    first_defect,
    naive_oracle,
    orbit_coverage,
)
from pcaforge.galois import (
    OrbitStructure, constant_rows, cyclic_action, frobenius_action, orbits,
)


# -- reference: the loops the kernel replaced --------------------------------------

def _ref_distinct_counts(cells, v, t):
    k = cells.shape[1]
    weights = rank_weights(t, v)
    present = np.zeros(v**t, dtype=bool)
    counts = np.empty(math.comb(k, t), dtype=np.int64)
    for i, tset in enumerate(combinations(range(k), t)):
        ranks = cells[:, tset] @ weights
        present[ranks] = True
        counts[i] = np.count_nonzero(present)
        present[ranks] = False
    return counts


def _ref_first_defect(cells, v, t, m):
    weights = rank_weights(t, v)
    present = np.zeros(v**t, dtype=bool)
    for tset in combinations(range(cells.shape[1]), t):
        ranks = cells[:, tset] @ weights
        present[ranks] = True
        count = int(np.count_nonzero(present))
        present[ranks] = False
        if count < m:
            return coverage.Defect(tset, count)
    return None


def _ref_count_defects(cells, v, t, m, *, stop_above=None):
    weights = rank_weights(t, v)
    present = np.zeros(v**t, dtype=bool)
    defects = 0
    for tset in combinations(range(cells.shape[1]), t):
        ranks = cells[:, tset] @ weights
        present[ranks] = True
        count = int(np.count_nonzero(present))
        present[ranks] = False
        if count < m:
            defects += 1
            if stop_above is not None and defects > stop_above:
                return defects
    return defects


def _ref_orbit_coverage(a, t, structure):
    weights = rank_weights(t, a.v)
    present = np.zeros(structure.n_orbits, dtype=bool)
    counts = np.empty(math.comb(a.cols, t), dtype=np.int64)
    for i, tset in enumerate(combinations(range(a.cols), t)):
        oids = structure.orbit_index[a.cells[:, tset] @ weights]
        present[oids] = True
        counts[i] = np.count_nonzero(present)
        present[oids] = False
    return counts


def _ref_count_orbit_defects(
    cells, v, t, structure, required, *, exclude_orbit=None, stop_above=None
):
    weights = rank_weights(t, v)
    present = np.zeros(structure.n_orbits, dtype=bool)
    defects = 0
    for tset in combinations(range(cells.shape[1]), t):
        oids = structure.orbit_index[cells[:, tset] @ weights]
        present[oids] = True
        covered = int(np.count_nonzero(present))
        if exclude_orbit is not None and present[exclude_orbit]:
            covered -= 1
        present[oids] = False
        if covered < required:
            defects += 1
            if stop_above is not None and defects > stop_above:
                return defects
    return defects


# -- grid ----------------------------------------------------------------------------

# (t, v): v^t on both sides of the 64-class bit-mask limit, t = 1..4.
SHAPES = [(1, 2), (1, 64), (1, 65), (2, 3), (2, 8), (2, 9), (3, 2), (3, 4), (3, 5),
          (4, 2), (4, 3)]
ROWS = (0, 1, 7, 40)


@pytest.fixture(params=[None, 256, 16], ids=["default-budget", "budget-256", "budget-16"])
def budget(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(coverage, "_CHUNK_BUDGET", request.param)
    return request.param


def arrays(t, v, seed):
    """Random arrays with k = t and k = t + 3, over every row count in ROWS."""
    rng = np.random.default_rng(seed)
    for k in (t, t + 3):
        for n in ROWS:
            yield Array(rng.integers(0, v, size=(n, k)), v)


def synthetic_structure(t, v, n_classes, seed):
    """A rank -> class map using every class id, dressed as an orbit structure."""
    rng = np.random.default_rng(seed)
    index = np.concatenate([np.arange(n_classes), rng.integers(0, n_classes, v**t - n_classes)])
    rng.shuffle(index)
    reps = np.array([np.flatnonzero(index == c)[0] for c in range(n_classes)])
    lengths = np.bincount(index, minlength=n_classes)
    return OrbitStructure(t, v, "synthetic", index, reps, lengths, None)


FROBENIUS = [
    pytest.param(lambda: orbits(2, 4, frobenius_action(4)), id="frobenius-t2-v4"),
    pytest.param(lambda: orbits(3, 3, frobenius_action(3)), id="frobenius-t3-v3"),
]
STRUCTURES = [
    pytest.param(lambda: orbits(2, 3, cyclic_action(3)), id="cyclic-t2-v3"),
    *FROBENIUS,
    pytest.param(lambda: synthetic_structure(2, 9, 64, 1), id="synthetic-64-classes"),
    pytest.param(lambda: synthetic_structure(2, 9, 65, 2), id="synthetic-65-classes"),
    pytest.param(lambda: synthetic_structure(1, 70, 70, 3), id="synthetic-t1-70-classes"),
]


class TestTupleScans:
    @pytest.mark.parametrize("t,v", SHAPES)
    def test_profile_matches_reference_and_oracle(self, budget, t, v):
        for a in arrays(t, v, seed=t * 100 + v):
            counts = coverage_profile(a, t).counts
            assert counts.dtype == np.int64
            np.testing.assert_array_equal(counts, _ref_distinct_counts(a.cells, v, t))
            np.testing.assert_array_equal(counts, naive_oracle(a, t).counts)

    @pytest.mark.parametrize("t,v", SHAPES)
    def test_early_exit_scans_match_reference(self, budget, t, v):
        for a in arrays(t, v, seed=t * 100 + v + 1):
            for m in sorted({1, 2, min(a.rows, v**t), v**t}):
                assert first_defect(a.cells, v, t, m) == _ref_first_defect(a.cells, v, t, m)
                for stop_above in (None, 0, 2):
                    got = count_defects(a.cells, v, t, m, stop_above=stop_above)
                    want = _ref_count_defects(a.cells, v, t, m, stop_above=stop_above)
                    assert got == want


class TestClassScans:
    @pytest.mark.parametrize("make", STRUCTURES)
    def test_orbit_coverage_matches_reference(self, budget, make):
        structure = make()
        t, v = structure.t, structure.v
        for a in arrays(t, v, seed=v):
            np.testing.assert_array_equal(
                orbit_coverage(a, t, structure), _ref_orbit_coverage(a, t, structure)
            )

    @pytest.mark.parametrize("make", STRUCTURES)
    def test_orbit_defects_match_reference(self, budget, make):
        structure = make()
        t, v, n = structure.t, structure.v, structure.n_orbits
        for a in arrays(t, v, seed=v + 1):
            for required in sorted({1, n - 1, n}):
                for stop_above in (None, 0, 3):
                    got = count_orbit_defects(
                        a.cells, v, t, structure, required, stop_above=stop_above
                    )
                    want = _ref_count_orbit_defects(
                        a.cells, v, t, structure, required, stop_above=stop_above
                    )
                    assert got == want

    @pytest.mark.parametrize("make", FROBENIUS)
    def test_constant_rows_stand_in_for_the_short_orbit(self, budget, make):
        # The affine builders count every orbit on the base with the v constant
        # rows appended; that verdict is the base's with the short orbit left out.
        structure = make()
        t, v, n = structure.t, structure.v, structure.n_orbits
        for a in arrays(t, v, seed=v + 2):
            stacked = a.stack(constant_rows(a.cols, v)).cells
            for stop_above in (None, 0, 3):
                got = count_orbit_defects(stacked, v, t, structure, n, stop_above=stop_above)
                want = _ref_count_orbit_defects(
                    a.cells, v, t, structure, n - 1,
                    exclude_orbit=structure.short_orbit_id, stop_above=stop_above,
                )
                assert got == want


# -- generated arrays are the same as before the kernel ------------------------------

# sha256 of the file `generate` writes and of its `--report` JSON; the array
# hashes were recorded with the per-t-set loops, the report hashes with the
# restart builders before they shared one loop, the last two cases with the
# field tables and array codec built symbol by symbol, and the derand cases with
# the row-wise derandomizer that stops at the first row meeting the allowance.
GOLDEN = [
    (["mt", "2", "8", "2", "4", "0", "0"],
     "cf994c04acb53c7ba7883635e0a0a14fb1bce443b792277d7bebcb83fb6a6757",
     "278a4a33eaf9f211086710a2e9fa379bd10b789b7493bacf05c2a4141ecae85b"),
    (["mt", "3", "20", "3", "26", "0", "4"],
     "fcfe3fc7a51e3a1691884b3f64c6d954d8ddc581bee5724b8f5f85d7119cfe7a",
     "d2fc61ece07ec10af815bd7c3c198386656b77c9bb2a82c358a03a5e46729485"),
    (["apca", "2", "10", "3", "9", "0.05", "0"],
     "15b7d1117113d7b260504d5aa43b989205822486e79b97e4c8aec2b4a8a8dde3",
     "9eef679b04bc95b4df21a848d1c4ae82f107ef204e910cef9e006bf85a0e89d9"),
    (["cyclic", "2", "10", "4", "16", "0.05", "0"],
     "d174c40a2d0c19697cf2a5625e829f1b808c9b4ccb73a7340062ea7277af41be",
     "6fba729e0707a3bc883583649658b7eeb29b2ea2e62cbf50ff547a374d2c1b0d"),
    (["frobenius", "2", "10", "5", "25", "0.05", "0"],
     "c91a85ed12e4639a523e8a31acb87e191fa557f96e303b305660627fca34d5f4",
     "94e4fec070b2380808f46cca66a838f1bc918d843a6bca5dd93c708563019e63"),
    (["frobenius", "3", "8", "4", "64", "0.05", "0"],
     "0eb2d6b9447092602c3bb51848310c40e217f3dad5f7bcbb0a7be4f38ba84e6b",
     "73653577b05f32ff4b7886f045354cca3f28ebda96a0f7932b5c37ca3b84f895"),
    (["concat", "2", "8", "3", "8", "0.1", "2"],
     "f42de89c381703f5ecb4b80fc6826758bacc80e9de2ad1e63a485e2a763cf2a0",
     "3b7fbb96b19a24068b8fb64af354c34601af8cbd6cd44149508bccb9121809ef"),
    (["derand", "2", "10", "3", "9", "0.5", "0"],
     "bc66d11f827a3e007260686f50b869089f7459ae54309c62237a0d71e6e4e776",
     "02b6778bd89a8e372cfb3b2d22d0ff60013e1eb2a292444c6f83b8430d188254"),
    (["derand", "3", "8", "2", "8", "0.2", "0"],
     "952e63c31c1bedbea9eb3dd43758f58def5c1ba76fb0e483870f0f305ecb6d78",
     "4cc424f69b00ef791df66c690b87eb222ec575b94f8a5b1dcc189a58bdbb66e5"),
    (["frobenius", "2", "60", "64", "4096", "0.05", "0"],
     "4ed24584f06b0be1286509d52313a26b69131d5c34481ec95360f81e3d8d245b",
     "c3ab92cbab6d39b92a2399acd8639ff9eef1ffae3541f5087662a81e255d5af9"),
    (["cyclic", "2", "10", "16", "256", "0.05", "0", "--base", "1"],
     "e2dd65f9c9d3f65d00c4255db0e420a90f24e8d6d528379f50a7083673de230d",
     "e9c6c2b8ae84d15a6988fb743f85bbb61022942f0ec029dd1728a6bf094b688b"),
]


@pytest.mark.parametrize("spec,sha,report_sha", GOLDEN,
                         ids=[" ".join(s[:4] + s[7:]) for s, _, _ in GOLDEN])
def test_generate_unchanged(tmp_path, capsys, spec, sha, report_sha):
    alg, t, k, v, m, epsilon, seed, *extra = spec
    out, report = tmp_path / "a.pca", tmp_path / "r.json"
    argv = ["generate", "--alg", alg, "--t", t, "--k", k, "--v", v, "--m", m,
            "--epsilon", epsilon, "--seed", seed, "--out", str(out), "--report", str(report),
            *extra]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
