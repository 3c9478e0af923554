"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they pass.  Statistical criteria use fixed seed blocks so results
are reproducible; the resample-growth check re-runs once on an independent
seed block before failing.
"""

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from orbit_reference import orbits, rank_weights

from pcaforge import construct
from pcaforge.artifact_io import read_array, sweep_csv_text, write_array
from pcaforge.bounds import (
    bound_apca,
    bound_concat,
    bound_pca_lll,
    bound_pca_union,
    log_binomial,
    sweep,
)
from pcaforge.construct import (
    algorithm_rows_apca,
    build_apca_derandomized,
    build_apca_randomized,
    build_concat,
    build_pca_moser_tardos,
)
from pcaforge.core import Array, PcaParams
from pcaforge.coverage import coverage_profile, first_defect, is_apca, is_pca, naive_oracle
from pcaforge.galois import cyclic_action, develop, frobenius_action


def _report(num: int, ok: bool, desc: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def exact_min_rows(mult: Fraction, ratio: Fraction, bound: Fraction, strict: bool) -> int:
    n, lhs = 0, Fraction(mult)
    while not (lhs < bound if strict else lhs <= bound):
        lhs *= ratio
        n += 1
        assert n < 10_000
    return n


def test_c01_comparison_sweep_m_axis():
    start = time.perf_counter()
    values = list(range(4**6 - 6 * 4 + 1, 4**6 + 1))
    result = sweep(["eq6", "eq8"], "m", values, t=6, k=20, v=4)
    ok = len(result.points) == 24
    for point in result.points:
        eq6, eq8 = point.results["eq6"], point.results["eq8"]
        ok = ok and eq6 is not None and eq8 is not None
        if point.value == 4096:
            ok = ok and eq8.real_bound < eq6.real_bound
        else:
            ok = ok and eq6.real_bound < eq8.real_bound
    ok = ok and time.perf_counter() - start < 1.0
    _report(1, ok, "eq6 beats eq8 on m in [4073, 4096] except the full-coverage point")


def test_c02_comparison_sweep_k_axis():
    start = time.perf_counter()
    result = sweep(["eq6", "eq8"], "k", list(range(12, 61)), t=6, v=4, m=4092)
    ok = all(
        p.results["eq6"].real_bound < p.results["eq8"].real_bound for p in result.points
    )
    ok = ok and time.perf_counter() - start < 1.0
    _report(2, ok, "eq6 beats eq8 at m=4092 for every k in [12, 60]")


def test_c03_bound_spot_values():
    checks = []

    union = bound_pca_union(2, 4, 2, 4)
    union_oracle = math.log(math.comb(4, 2) * math.comb(4, 3)) / math.log(4 / 3)
    checks.append(abs(union.real_bound - union_oracle) <= 1e-9 * union_oracle)
    checks.append(union.n_rows == 12)
    checks.append(
        union.n_rows
        == exact_min_rows(Fraction(6 * 4), Fraction(3, 4), Fraction(1), strict=True)
    )

    lll = bound_pca_lll(2, 4, 2, 4)
    lll_oracle = (1 + math.log(2 * 4 * math.comb(4, 3))) / math.log(4 / 3)
    checks.append(abs(lll.real_bound - lll_oracle) <= 1e-9 * lll_oracle)
    checks.append(lll.n_rows == 16)

    apca = bound_apca(2, 2, 4, 0.01)
    apca_oracle = math.log(math.comb(4, 3) / 0.01) / math.log(4 / 3)
    checks.append(abs(apca.real_bound - apca_oracle) <= 1e-9 * apca_oracle)
    checks.append(apca.n_rows == 21)
    checks.append(
        apca.n_rows
        == exact_min_rows(Fraction(4), Fraction(3, 4), Fraction(1, 100), strict=False)
    )

    alg2_rows = algorithm_rows_apca(2, 2, 4, 0.01)
    alg2_oracle = math.log(2 * math.comb(4, 3) / 0.01) / math.log(4 / 3)
    checks.append(abs(bound_apca(2, 2, 4, 0.005).real_bound - alg2_oracle) <= 1e-9 * alg2_oracle)
    checks.append(alg2_rows == 24)
    checks.append(
        alg2_rows
        == exact_min_rows(Fraction(4), Fraction(3, 4), Fraction(1, 200), strict=False)
    )

    _report(3, all(checks), "spot row counts 12/16/21/24 match high-precision oracles")


def test_c04_moser_tardos_resamples_in_full_rescan_order():
    # The resampling builder's table of short t-sets is checked against a
    # full rescan at every resample of a small grid, so a stale entry fails
    # here within seconds instead of spinning toward RESAMPLE_CAP below.
    ok = True
    for t, v in ((2, 2), (2, 3), (3, 2)):
        for k in (6, 9):
            m = v**t
            n = bound_pca_lll(t, k, v, m).n_rows
            for seed in range(5):
                rng = np.random.default_rng(seed)
                cells = rng.integers(0, v, size=(n, k))
                for resamples, defect in enumerate(construct._defects(cells, v, t, m)):
                    ok = ok and resamples < 200 and defect == first_defect(cells, v, t, m)
                    if not ok:
                        break
                    cells[:, defect.tset] = rng.integers(0, v, size=(n, t))
                ok = ok and first_defect(cells, v, t, m) is None
    _report(4, ok, "every resample takes the defect a full rescan finds, up to none left")


def test_c04_moser_tardos_validity_grid():
    start = time.perf_counter()
    ok = True
    for t in (2, 3):
        for v in (2, 3):
            vt = v**t
            for k in (6, 8, 10, 12):
                for m in (vt, vt - 1, math.ceil(vt / 2)):
                    for seed in range(20):
                        params = PcaParams(t=t, k=k, v=v, m=m, seed=seed)
                        report = build_pca_moser_tardos(params)
                        ok = ok and is_pca(report.array, t, m).ok
    ok = ok and time.perf_counter() - start < 60.0
    _report(4, ok, "resampling builder terminates verified on the (t, v, k, m) grid")


def test_c05_moser_tardos_growth_in_k():
    def ratio_for(block: int) -> float:
        means = {}
        for k in (8, 16, 32, 64):
            counts = [
                build_pca_moser_tardos(
                    PcaParams(t=2, k=k, v=2, m=4, seed=block + s)
                ).iterations
                for s in range(50)
            ]
            means[k] = sum(counts) / len(counts)
        return math.inf if means[8] == 0 else means[64] / means[8]

    ratio = ratio_for(0)
    if ratio > 12:  # tolerate one unlucky block: re-run on an independent one
        ratio = ratio_for(10_000)
    _report(5, ratio <= 12, f"mean resamples grow at most 12x from k=8 to k=64 (ratio {ratio:.2f})")


def test_c06_restart_expectation():
    start = time.perf_counter()
    iterations = [
        build_apca_randomized(
            PcaParams(t=2, k=10, v=2, m=4, epsilon=0.01, seed=s)
        ).iterations
        for s in range(100)
    ]
    mean = sum(iterations) / len(iterations)
    ok = mean <= 3 and time.perf_counter() - start < 10.0
    _report(6, ok, f"mean sample count over 100 seeds is {mean:.2f} <= 3")


def test_c07_development_identity():
    rng = np.random.default_rng(2024)
    structures = {
        ("cyclic", v): orbits(2, v, cyclic_action(v)) for v in (2, 3, 4)
    }
    structures.update(
        {("frobenius", v): orbits(2, v, frobenius_action(v)) for v in (2, 3, 4)}
    )
    actions = {
        ("cyclic", v): cyclic_action(v) for v in (2, 3, 4)
    }
    actions.update({("frobenius", v): frobenius_action(v) for v in (2, 3, 4)})
    ok = True
    for i in range(200):
        v = int(rng.integers(2, 5))
        kind = ("cyclic", "frobenius")[i % 2]
        n = int(rng.integers(1, 5))
        k = int(rng.integers(2, 7))
        base = Array(rng.integers(0, v, size=(n, k)), v)
        action, structure = actions[(kind, v)], structures[(kind, v)]
        developed_counts = coverage_profile(develop(base, action), 2).counts
        weights = rank_weights(2, v)
        for idx, tset in enumerate(combinations(range(k), 2)):
            oids = {int(structure.orbit_index[r]) for r in base.cells[:, tset] @ weights}
            expected = sum(int(structure.lengths[o]) for o in oids)
            ok = ok and developed_counts[idx] == expected
    _report(7, ok, "developed distinct counts equal covered-orbit length sums (200 bases)")


def test_c08_orbit_structure_closed_forms():
    ok = True
    for t in (2, 3, 4):
        for v in (2, 3, 4, 5, 7, 8, 9):
            cyc = orbits(t, v, cyclic_action(v))
            ok = ok and cyc.n_orbits == v ** (t - 1) and bool(np.all(cyc.lengths == v))
            frob = orbits(t, v, frobenius_action(v))
            full = (v ** (t - 1) - 1) // (v - 1)
            ok = ok and frob.n_orbits == full + 1
            ok = ok and int(frob.lengths[frob.short_orbit_id]) == v
            others = [
                int(x) for o, x in enumerate(frob.lengths) if o != frob.short_orbit_id
            ]
            ok = ok and all(x == v * (v - 1) for x in others)
            ok = ok and int(cyc.lengths.sum()) == v**t == int(frob.lengths.sum())
    _report(8, ok, "orbit counts and lengths match closed forms on the full grid")


def test_c09_oracle_equivalence():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(1000):
        t = int(rng.integers(2, 4))
        v = int(rng.integers(2, 4))
        k = int(rng.integers(t, 9))
        n = int(rng.integers(0, 21))
        a = Array(rng.integers(0, v, size=(n, k)), v)
        ok = ok and coverage_profile(a, t) == naive_oracle(a, t)
    _report(9, ok, "presence-buffer counter equals the brute-force oracle on 1000 instances")


def test_c10_concat_dual_guarantee():
    cases = [
        (2, 2, 8, 3, 0.25),
        (2, 2, 12, 3, 0.25),
        (2, 2, 16, 3, 0.25),
        (2, 2, 16, 3, 2 / 16 ** (1 / 2)),
        (2, 3, 8, 8, 0.25),
        (2, 3, 12, 8, 0.25),
        (3, 2, 8, 6, 0.5),
        (3, 2, 12, 6, 0.5),
        (3, 2, 16, 6, 0.5),
        (3, 3, 8, 26, 0.5),
    ]
    ok = len(cases) == 10
    for t, v, k, m, eps in cases:
        params = PcaParams(t=t, k=k, v=v, m=m, epsilon=eps, seed=404)
        report = build_concat(params)
        ok = ok and is_pca(report.array, t, m).ok
        ok = ok and is_apca(report.array, t, v**t, eps).ok
        ok = ok and report.n_rows <= bound_concat(t, k, v, m, eps).n_rows
    _report(10, ok, "stacked builder meets both guarantees within its bound (10 cases)")


def test_c11_derandomization():
    params = PcaParams(t=2, k=5, v=2, m=4, epsilon=0.5)
    r1 = build_apca_derandomized(params)
    r2 = build_apca_derandomized(params)
    ok = r1.array == r2.array
    ok = ok and bytes(r1.array.cells) == bytes(r2.array.cells)
    ok = ok and is_apca(r1.array, 2, 4, 0.5).ok
    ok = ok and r1.n_rows <= r1.bound_used.n_rows
    trace = r1.detail["missing_trace"]
    ok = ok and all(b * 4 <= a * 3 for a, b in zip(trace, trace[1:]))
    _report(11, ok, "derandomized builder is bit-stable, verified, within its bound, "
                    "and each row covers at least its share of missing pairs")


def test_c12_reductions():
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(200):
        k = int(rng.integers(3, 7))
        n = int(rng.integers(1, 11))
        a = Array(rng.integers(0, 2, size=(n, k)), 2)
        eps = 0.9 / math.comb(k, 2)
        ok = ok and is_apca(a, 2, 4, eps).ok == is_pca(a, 2, 4).ok
    for t, k, v, m in [(2, 4, 2, 4), (2, 6, 2, 3), (3, 8, 2, 7)]:
        eps = 0.1 / math.comb(k, t)
        ok = ok and bound_apca(t, v, m, eps).n_rows >= bound_pca_union(t, k, v, m).n_rows
        # the two numerators differ by exactly the ln C(k,t) term
        lhs = log_binomial(k, t) + log_binomial(v**t, m - 1)
        rhs = math.log(math.comb(k, t) * math.comb(v**t, m - 1))
        ok = ok and abs(lhs - rhs) <= 1e-9 * abs(rhs)
    _report(12, ok, "tiny-epsilon almost-coverage collapses to plain partial coverage")


def test_c13_io_round_trip(tmp_path):
    rng = np.random.default_rng(123)
    ok = True
    for i in range(500):
        n = int(rng.integers(0, 10))
        k = int(rng.integers(1, 8))
        v = int(rng.integers(2, 5))
        a = Array(rng.integers(0, v, size=(n, k)), v)
        path = tmp_path / "roundtrip.pca"
        write_array(a, path, base=i % 2)
        loaded, _ = read_array(path)
        ok = ok and loaded == a
    s1 = sweep_csv_text(sweep(["eq6", "eq8"], "k", list(range(12, 61, 4)), t=6, v=4, m=4092))
    s2 = sweep_csv_text(sweep(["eq6", "eq8"], "k", list(range(12, 61, 4)), t=6, v=4, m=4092))
    ok = ok and s1.encode() == s2.encode()
    _report(13, ok, "array files round-trip in both bases; sweep CSVs byte-stable")
