"""Tests for the randomized builders and the derandomized one."""

import math
import tracemalloc

import numpy as np
import pytest

from pcaforge.bounds import bound_concat, bound_pca_lll
from pcaforge.construct import (
    build_apca_cyclic,
    build_apca_derandomized,
    build_apca_frobenius,
    build_apca_randomized,
    build_concat,
    build_pca_moser_tardos,
    derandomize_columns,
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

    def test_iteration_cap_raises(self):
        # cap of zero: the first defect (if any) must raise, never return bad output
        try:
            report = build_pca_moser_tardos(
                PcaParams(t=2, k=12, v=2, m=4, seed=3), max_resamples=0
            )
        except IterationCap:
            return
        assert is_pca(report.array, 2, 4).ok  # got lucky: sampled clean


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
        trace = report.detail["estimator_trace"]
        assert len(trace) == 5 + 1
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9

    def test_single_tset_full_factorial(self):
        # k = t: with N = v^t rows the rows are the v^t tuples, each once
        cells, trace = derandomize_columns(2, 2, 2, 4)
        assert sorted(map(tuple, cells.tolist())) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert trace[-1] == 0.0

    def test_final_trace_counts_missing_pairs(self):
        from pcaforge.coverage import coverage_profile

        report = build_apca_derandomized(PcaParams(t=2, k=4, v=2, m=4, epsilon=0.8))
        trace = report.detail["estimator_trace"]
        # after all columns are fixed the estimator is the exact missing count
        missing = sum(4 - int(c) for c in coverage_profile(report.array, 2).counts)
        assert trace[-1] == pytest.approx(missing, abs=1e-9)

    def test_estimator_equals_true_conditional_expectation(self):
        # for full-coverage targets the score is not just a bound: it equals
        # the exact expected missing-pair count, verifiable by enumerating
        # every completion of the unfixed columns
        from itertools import product

        from test_derandomize import _pessimistic_estimator
        from pcaforge.coverage import coverage_profile

        t, k, v, n = 2, 3, 2, 3
        rng = np.random.default_rng(3)
        cells = rng.integers(0, v, size=(n, k), dtype=np.int64)
        for n_fixed in range(k + 1):
            free = k - n_fixed
            total, count = 0.0, 0
            for completion in product(range(v), repeat=n * free):
                trial = cells.copy()
                if free:
                    trial[:, n_fixed:] = np.array(completion).reshape(n, free)
                counts = coverage_profile(Array(trial, v), t).counts
                total += sum(v**t - int(c) for c in counts)
                count += 1
            expected = total / count
            estimator = _pessimistic_estimator(cells, n_fixed, t, v)
            assert estimator == pytest.approx(expected, rel=1e-12)

    def test_m_not_full(self):
        with pytest.raises(MNotFull):
            build_apca_derandomized(PcaParams(t=2, k=5, v=2, m=3, epsilon=0.5))

    def test_capacity_guard(self):
        # 37 rows: far past any v^N candidate enumeration, cheap cell by cell
        report = build_apca_derandomized(PcaParams(t=2, k=5, v=2, m=4, epsilon=1e-4))
        assert report.n_rows == 37
        assert is_apca(report.array, 2, 4, 1e-4).ok

    def test_oversize_refused_before_allocating(self):
        # N = 1.26e9 rows: the cells alone would need 30 GB
        tracemalloc.start()
        try:
            with pytest.raises(CapacityExceeded):
                build_apca_derandomized(PcaParams(t=2, k=3, v=8192, m=8192**2, epsilon=0.5))
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
