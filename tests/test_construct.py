"""Tests for the randomized builders and the derandomized one."""

import math
import tracemalloc

import numpy as np
import pytest

from pcaforge import construct
from pcaforge.bounds import bound_concat, bound_pca_lll
from pcaforge.construct import (
    build_apca_cyclic,
    build_apca_derandomized,
    build_apca_frobenius,
    build_apca_randomized,
    build_concat,
    build_pca_moser_tardos,
    derandomize_rows,
)
from pcaforge.core import Array, PcaParams
from pcaforge.coverage import is_apca, is_pca
from pcaforge.errors import (
    CapacityExceeded,
    EpsilonZero,
    IterationCap,
    KTooSmallForLLL,
    MNotFull,
    NotPrimePower,
    PcaForgeError,
)


class TestMoserTardos:
    def test_spot_case(self):
        report = build_pca_moser_tardos(PcaParams(t=2, k=4, v=2, m=4, seed=12345))
        assert report.n_rows == bound_pca_lll(2, 4, 2, 4).n_rows == 16
        assert is_pca(report.array, 2, 4).ok

    def test_m1_zero_resamples(self):
        report = build_pca_moser_tardos(PcaParams(t=2, k=6, v=2, m=1, seed=0))
        assert report.iterations == 0
        assert report.n_rows == 1

    def test_k_too_small(self):
        with pytest.raises(KTooSmallForLLL):
            build_pca_moser_tardos(PcaParams(t=2, k=3, v=2, m=4))

    def test_deterministic(self):
        p = PcaParams(t=2, k=6, v=2, m=4, seed=99)
        r1 = build_pca_moser_tardos(p)
        r2 = build_pca_moser_tardos(p)
        assert r1.array == r2.array
        assert r1.iterations == r2.iterations

    def test_seed_changes_output(self):
        r1 = build_pca_moser_tardos(PcaParams(t=2, k=6, v=2, m=4, seed=1))
        r2 = build_pca_moser_tardos(PcaParams(t=2, k=6, v=2, m=4, seed=2))
        assert r1.array != r2.array

    def test_full_coverage_target_gives_covering_array(self):
        # m = v^t partial coverage is exactly the covering-array property
        for seed in range(5):
            report = build_pca_moser_tardos(PcaParams(t=2, k=5, v=2, m=4, seed=seed))
            assert is_pca(report.array, 2, 4).ok

    def test_postcondition_grid(self):
        for t, v, k in [(2, 2, 6), (2, 3, 7), (3, 2, 8)]:
            m = v**t - 1
            report = build_pca_moser_tardos(PcaParams(t=t, k=k, v=v, m=m, seed=7))
            assert is_pca(report.array, t, m).ok

    def test_iteration_cap_raises(self, monkeypatch):
        # seed 0 samples one defective t-set, so a cap of zero must raise
        monkeypatch.setattr(construct, "RESAMPLE_CAP", 0)
        with pytest.raises(IterationCap, match="hit resample cap 0 at t-set"):
            build_pca_moser_tardos(PcaParams(t=2, k=12, v=2, m=4, seed=0))


class TestApcaRandomized:
    def test_spot_case_row_count(self):
        report = build_apca_randomized(PcaParams(t=2, k=10, v=2, m=4, epsilon=0.01, seed=5))
        assert report.n_rows == 24
        assert is_apca(report.array, 2, 4, 0.01).ok

    def test_epsilon_one_first_sample(self):
        report = build_apca_randomized(PcaParams(t=2, k=8, v=2, m=4, epsilon=1.0, seed=5))
        assert report.iterations == 1

    def test_epsilon_zero(self):
        with pytest.raises(EpsilonZero):
            build_apca_randomized(PcaParams(t=2, k=8, v=2, m=4, epsilon=0.0))

    def test_deterministic(self):
        p = PcaParams(t=2, k=9, v=2, m=4, epsilon=0.05, seed=77)
        assert build_apca_randomized(p).array == build_apca_randomized(p).array

    def test_reported_defects_are_true_count(self):
        report = build_apca_randomized(PcaParams(t=2, k=10, v=2, m=4, epsilon=0.2, seed=3))
        check = is_apca(report.array, 2, 4, 0.2)
        assert report.detail["defective_tsets"] == len(check.defects)


class TestApcaCyclic:
    def test_spot_case(self):
        report = build_apca_cyclic(PcaParams(t=2, k=6, v=2, m=4, epsilon=0.25, seed=8))
        assert report.n_rows == 2 * report.detail["base_rows"]
        assert is_apca(report.array, 2, 4, 0.25).ok

    def test_closed_form_row_bound(self):
        # developed rows stay within v^t ln(2 v^(t-1)/eps) + v
        for t, v, eps in [(2, 2, 0.25), (2, 3, 0.1), (3, 2, 0.2)]:
            p = PcaParams(t=t, k=6, v=v, m=v**t, epsilon=eps, seed=4)
            report = build_apca_cyclic(p)
            assert report.n_rows <= v**t * math.log(2 * v ** (t - 1) / eps) + v

    def test_base_covering_all_orbits_gives_covering_array(self):
        # k = t = 2, v = 2: base rows (0,0) and (0,1) cover both orbits of the
        # only t-set, so the development is a full covering array
        report = build_apca_cyclic(PcaParams(t=2, k=4, v=2, m=4, epsilon=0.01, seed=21))
        # with epsilon this small the accept test allows zero defective t-sets
        assert is_pca(report.array, 2, 4).ok

    def test_m_not_full(self):
        with pytest.raises(MNotFull):
            build_apca_cyclic(PcaParams(t=2, k=6, v=2, m=3, epsilon=0.25))

    def test_deterministic(self):
        p = PcaParams(t=2, k=6, v=3, m=9, epsilon=0.25, seed=13)
        assert build_apca_cyclic(p).array == build_apca_cyclic(p).array


class TestApcaFrobenius:
    def test_spot_case(self):
        report = build_apca_frobenius(PcaParams(t=2, k=6, v=3, m=9, epsilon=0.25, seed=8))
        n = report.detail["base_rows"]
        assert report.n_rows == 3 * 2 * n + 3
        assert is_apca(report.array, 2, 9, 0.25).ok

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            build_apca_frobenius(PcaParams(t=2, k=6, v=6, m=36, epsilon=0.25))

    def test_constant_rows_present(self):
        report = build_apca_frobenius(PcaParams(t=2, k=5, v=2, m=4, epsilon=0.5, seed=2))
        tail = report.array.cells[-2:]
        assert tail.tolist() == [[0] * 5, [1] * 5]

    def test_deterministic(self):
        p = PcaParams(t=2, k=5, v=4, m=16, epsilon=0.3, seed=6)
        assert build_apca_frobenius(p).array == build_apca_frobenius(p).array


class TestConcat:
    def test_dual_guarantee(self):
        p = PcaParams(t=2, k=8, v=2, m=3, epsilon=0.25, seed=31)
        report = build_concat(p)
        assert is_pca(report.array, 2, 3).ok
        assert is_apca(report.array, 2, 4, 0.25).ok

    def test_row_count_is_component_sum(self):
        p = PcaParams(t=2, k=8, v=2, m=3, epsilon=0.25, seed=31)
        report = build_concat(p)
        rows1, rows2 = report.detail["component_rows"]
        assert report.n_rows == rows1 + rows2
        assert report.n_rows <= bound_concat(2, 8, 2, 3, 0.25).n_rows

    def test_asymptotically_matched_epsilon(self):
        # the epsilon choice that matches the two component scales
        t, v, k = 2, 2, 16
        eps = v ** (t - 1) / k ** (1 / v)
        p = PcaParams(t=t, k=k, v=v, m=3, epsilon=eps, seed=17)
        report = build_concat(p)
        assert is_pca(report.array, t, 3).ok
        assert is_apca(report.array, t, v**t, eps).ok

    def test_deterministic(self):
        p = PcaParams(t=2, k=8, v=2, m=3, epsilon=0.25, seed=9)
        r1, r2 = build_concat(p), build_concat(p)
        assert r1.array == r2.array and r1.iterations == r2.iterations


class TestDerandomized:
    def test_deterministic_and_verified(self):
        p = PcaParams(t=2, k=5, v=2, m=4, epsilon=0.5)
        r1 = build_apca_derandomized(p)
        r2 = build_apca_derandomized(p)
        assert r1.array == r2.array
        assert is_apca(r1.array, 2, 4, 0.5).ok

    def test_trace_monotone_nonincreasing(self):
        report = build_apca_derandomized(PcaParams(t=2, k=5, v=2, m=4, epsilon=0.5))
        trace = report.detail["missing_trace"]
        assert len(trace) == report.n_rows + 1
        for a, b in zip(trace, trace[1:]):
            assert b * 4 <= a * 3

    def test_single_tset_full_factorial(self):
        # k = t: each row covers one new tuple, so the v^t rows are the v^t
        # tuples, each once
        cells, trace = derandomize_rows(2, 2, 2, 0, 4)
        assert sorted(map(tuple, cells.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert trace == [4, 3, 2, 1, 0]

    def test_final_trace_counts_missing_pairs(self):
        from pcaforge.coverage import coverage_profile

        report = build_apca_derandomized(PcaParams(t=2, k=4, v=2, m=4, epsilon=0.8))
        trace = report.detail["missing_trace"]
        missing = sum(4 - int(c) for c in coverage_profile(report.array, 2).counts)
        assert trace[-1] == missing

    def test_rows_failing_the_scan_raise(self, monkeypatch):
        # the stop rule reads derandomize_rows' own table; the kernel has the last word
        def one_constant_row(t, k, v, allowed, max_rows):
            return np.zeros((1, k), dtype=np.int64), [0]

        monkeypatch.setattr(construct, "derandomize_rows", one_constant_row)
        with pytest.raises(PcaForgeError, match="internal: 10 t-sets short, 5 allowed"):
            build_apca_derandomized(PcaParams(t=2, k=5, v=2, m=4, epsilon=0.5))

    def test_m_not_full(self):
        with pytest.raises(MNotFull):
            build_apca_derandomized(PcaParams(t=2, k=5, v=2, m=3, epsilon=0.5))

    def test_capacity_guard(self):
        # a union bound of 37 rows: far past any v^N candidate enumeration
        report = build_apca_derandomized(PcaParams(t=2, k=5, v=2, m=4, epsilon=1e-4))
        assert report.n_rows <= report.bound_used.n_rows == 37
        assert is_apca(report.array, 2, 4, 1e-4).ok

    def test_oversize_refused_before_allocating(self):
        for t, k, v in [
            (2, 3, 8192),  # N = 1.26e9 rows: the cells alone would need 30 GB
            (2, 6000, 2),  # 8 rows, but a missing table of C(k,t) v^t = 7.2e7 cells
        ]:
            tracemalloc.start()
            try:
                with pytest.raises(CapacityExceeded):
                    build_apca_derandomized(PcaParams(t=t, k=k, v=v, m=v**t, epsilon=0.5))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_epsilon_zero(self):
        with pytest.raises(EpsilonZero):
            build_apca_derandomized(PcaParams(t=2, k=5, v=2, m=4, epsilon=0.0))


class TestCapacityGuard:
    @pytest.mark.parametrize("build,epsilon", [
        (build_pca_moser_tardos, 0.0),
        (build_apca_randomized, 0.5),
    ])
    def test_huge_alphabet_refused_before_allocating(self, build, epsilon):
        # v^t = 4e10: a presence buffer of that size would need 37 GiB
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded):
                build(PcaParams(t=2, k=4, v=200000, m=2, epsilon=epsilon))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("build,params", [
        (build_pca_moser_tardos, PcaParams(t=2, k=4, v=3000, m=9_000_000)),
        (build_apca_randomized, PcaParams(t=2, k=4, v=3000, m=9_000_000, epsilon=0.5)),
        (build_apca_cyclic, PcaParams(t=4, k=6, v=64, m=64**4, epsilon=0.05)),
        (build_concat, PcaParams(t=3, k=10, v=60, m=2, epsilon=0.01)),
    ], ids=["mt", "apca", "cyclic", "concat"])
    def test_oversize_output_refused_before_allocating(self, build, params):
        # v^t fits the scan guard, but N*k does not: the mt array alone is
        # 171,829,581 x 4 cells, the cyclic one 271,212,096 developed x 6;
        # each concat component fits, their 6,841,486 x 10 stack does not
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded, match=r"N\*k"):
                build(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestBuildReport:
    def test_fields(self):
        report = build_pca_moser_tardos(PcaParams(t=2, k=4, v=2, m=4, seed=1))
        assert report.rng_seed == 1
        assert report.bound_used.source == "eq6"
        assert report.elapsed >= 0.0
        assert report.verifier == "pca(t=2, m=4)"

    def test_stacking_never_decreases_counts(self):
        rng = np.random.default_rng(14)
        from pcaforge.coverage import coverage_profile

        a = Array(rng.integers(0, 2, size=(5, 6)), 2)
        b = Array(rng.integers(0, 2, size=(3, 6)), 2)
        before = coverage_profile(a, 2).counts
        after = coverage_profile(a.stack(b), 2).counts
        assert np.all(after >= before)
