"""Tests for coverage profiles, predicates, and the naive cross-check oracle."""

import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcaforge import coverage
from pcaforge.core import Array
from pcaforge.coverage import (
    completeness,
    count_defects,
    coverage_profile,
    first_defect,
    is_apca,
    is_pca,
    naive_oracle,
)
from pcaforge.errors import (
    CapacityExceeded,
    DomainError,
    EpsilonOutOfRange,
    MOutOfRange,
    StrengthTooSmall,
)
from pcaforge.galois import constant_rows


def full_factorial(t: int, v: int) -> Array:
    rows = list(product(range(v), repeat=t))
    return Array(np.array(rows, dtype=np.int64), v)


def random_array(rng, n, k, v) -> Array:
    return Array(rng.integers(0, v, size=(n, k)), v)


class TestCoverageProfile:
    def test_full_factorial(self):
        profile = coverage_profile(full_factorial(3, 2), 3)
        assert np.all(profile.counts == 8)

    def test_constant_rows(self):
        profile = coverage_profile(constant_rows(5, 3), 2)
        assert np.all(profile.counts == 3)

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(1)
        a = random_array(rng, 6, 5, 2)
        assert coverage_profile(a, 2) == naive_oracle(a, 2)

    def test_lex_order_and_length(self):
        profile = coverage_profile(full_factorial(2, 2).stack(Array([[0, 0]], 2)), 2)
        assert len(profile.counts) == 1
        profile5 = coverage_profile(constant_rows(5, 2), 2)
        assert len(profile5.counts) == math.comb(5, 2)
        assert list(profile5.tsets)[0] == (0, 1)

    def test_t_above_k(self):
        with pytest.raises(StrengthTooSmall):
            coverage_profile(constant_rows(3, 2), 4)

    def test_capacity_guard(self):
        a = Array(np.zeros((1, 30), dtype=np.int64), 8)
        with pytest.raises(CapacityExceeded):
            coverage_profile(a, 30)

    def test_tset_capacity_guard(self):
        a = Array(np.zeros((0, 100000), dtype=np.int64), 2)
        with pytest.raises(CapacityExceeded, match=r"C\(k,t\)"):
            coverage_profile(a, 3)

    def test_counts_within_range(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n = int(rng.integers(1, 15))
            v = int(rng.integers(2, 4))
            a = random_array(rng, n, 5, v)
            counts = coverage_profile(a, 2).counts
            assert np.all(counts >= 1)
            assert np.all(counts <= min(n, v**2))


class TestNaiveOracle:
    def test_empty_array(self):
        a = Array(np.zeros((0, 4), dtype=np.int64), 2)
        assert np.all(naive_oracle(a, 2).counts == 0)

    def test_single_row(self):
        a = Array([[0, 1, 0, 1]], 2)
        assert np.all(naive_oracle(a, 2).counts == 1)

    def test_guard(self):
        a = Array(np.zeros((2000, 20), dtype=np.int64), 3)
        with pytest.raises(CapacityExceeded):
            naive_oracle(a, 6)

    def test_agreement_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = int(rng.integers(2, 4))
            v = int(rng.integers(2, 4))
            k = int(rng.integers(t, 9))
            n = int(rng.integers(0, 21))
            a = Array(rng.integers(0, v, size=(n, k)), v)
            assert coverage_profile(a, t) == naive_oracle(a, t)


class TestPredicates:
    def test_m1_always_true(self):
        rng = np.random.default_rng(3)
        assert is_pca(random_array(rng, 1, 4, 2), 2, 1).ok

    def test_full_factorial_is_covering(self):
        assert is_pca(full_factorial(2, 2), 2, 4).ok

    def test_witness(self):
        check = is_pca(Array([[0, 0], [0, 1]], 2), 2, 3)
        assert not check.ok
        assert check.witness.tset == (0, 1) and check.witness.count == 2

    def test_witness_is_lex_first(self):
        # column 2 is constant, so (0, 2) and (1, 2) are defective; (0, 1) is not
        a = Array([[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0]], 2)
        check = is_pca(a, 2, 4)
        assert check.witness.tset == (0, 2)

    def test_pca_t_above_k(self):
        with pytest.raises(StrengthTooSmall):
            is_pca(constant_rows(3, 2), 4, 1)

    def test_m_above_vt(self):
        a = full_factorial(2, 2)
        with pytest.raises(MOutOfRange):
            is_pca(a, 2, 5)
        with pytest.raises(MOutOfRange):
            is_apca(a, 2, 5, 0.5)

    def test_apca_epsilon_one(self):
        rng = np.random.default_rng(4)
        assert is_apca(random_array(rng, 2, 5, 2), 2, 4, 1.0).ok

    def test_apca_tiny_epsilon_equals_pca(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = random_array(rng, int(rng.integers(1, 10)), 5, 2)
            eps = 0.5 / math.comb(5, 2)
            assert is_apca(a, 2, 4, eps).ok == is_pca(a, 2, 4).ok

    def test_apca_allows_budgeted_defects(self):
        # full factorial extended by a constant column: every pair touching
        # the constant column is defective at m = 4
        base = full_factorial(2, 2)
        a = Array(np.hstack([base.cells, np.zeros((4, 1), dtype=np.int64)]), 2)
        assert not is_pca(a, 2, 4).ok
        defect_pairs = 2  # (0,2) and (1,2)
        eps_ok = defect_pairs / math.comb(3, 2)
        assert is_apca(a, 2, 4, eps_ok).ok
        assert not is_apca(a, 2, 4, (defect_pairs - 1) / math.comb(3, 2)).ok

    @pytest.mark.parametrize("m,epsilon,error", [
        (2.5, 0.1, DomainError), (5, 0.1, MOutOfRange), (4, 1.5, EpsilonOutOfRange),
    ])
    def test_apca_checks_arguments_before_scanning(self, monkeypatch, m, epsilon, error):
        scans = []
        monkeypatch.setattr(coverage, "_scan", lambda *args: scans.append(args))
        with pytest.raises(error):
            is_apca(full_factorial(2, 2), 2, m, epsilon)
        assert scans == []

    def test_apca_report_lists_defects(self):
        a = Array([[0, 0, 0]], 2)
        check = is_apca(a, 2, 2, 1.0)
        assert check.ok
        assert [d.tset for d in check.defects] == [(0, 1), (0, 2), (1, 2)]


class TestCompleteness:
    def test_q_zero(self):
        rng = np.random.default_rng(6)
        assert completeness(random_array(rng, 3, 4, 2), 0.0, 2) == 1.0

    def test_full_factorial_q_one(self):
        assert completeness(full_factorial(2, 2), 1.0, 2) == 1.0

    def test_exact_integer_threshold_not_rounded_up(self):
        # v constant rows cover exactly v tuples; q v^t = 2 exactly at q = 0.5
        assert completeness(constant_rows(4, 2), 0.5, 2) == 1.0

    @pytest.mark.parametrize("q,t,error", [
        (1.5, 2, EpsilonOutOfRange), ("1", 2, DomainError), (0.5, 2.0, DomainError),
        (0.5, 7, StrengthTooSmall),
    ])
    def test_checks_arguments_before_scanning(self, monkeypatch, q, t, error):
        # q = 1.5 used to be refused only after every t-set was counted
        scans = []
        monkeypatch.setattr(coverage, "_scan", lambda *args: scans.append(args))
        with pytest.raises(error):
            completeness(constant_rows(6, 3), q, t)
        assert scans == []

    def test_nonincreasing_in_q(self):
        rng = np.random.default_rng(7)
        a = random_array(rng, 5, 5, 2)
        values = [completeness(a, q, 2) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
        assert values == sorted(values, reverse=True)


class TestProperties:
    def test_row_append_monotone(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            v = int(rng.integers(2, 4))
            a = random_array(rng, int(rng.integers(1, 8)), 5, v)
            extra = Array(rng.integers(0, v, size=(1, 5)), v)
            before = coverage_profile(a, 2).counts
            after = coverage_profile(a.stack(extra), 2).counts
            assert np.all(after >= before)

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, derandomize=True)
    def test_column_relabel_invariance(self, seed):
        # permuting symbols within one column leaves all counts unchanged
        rng = np.random.default_rng(seed)
        v = int(rng.integers(2, 4))
        a = random_array(rng, int(rng.integers(1, 10)), 4, v)
        col = int(rng.integers(0, 4))
        perm = rng.permutation(v)
        cells = a.cells.copy()
        cells[:, col] = perm[cells[:, col]]
        relabeled = Array(cells, v)
        assert coverage_profile(a, 2) == coverage_profile(relabeled, 2)

    def test_covering_array_predicate(self):
        # hand-verified full-coverage status for 5-row strength-2 candidates
        good = Array(
            [[0, 0, 0, 0], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]], 2
        )
        assert is_pca(good, 2, 4).ok
        bad = Array(
            [[0, 0, 0, 0], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 1]], 2
        )
        assert not is_pca(bad, 2, 4).ok


class TestScanHelpers:
    def test_first_defect_matches_profile(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a = random_array(rng, int(rng.integers(1, 12)), 6, 2)
            m = int(rng.integers(1, 5))
            defect = first_defect(a.cells, 2, 2, m)
            defects = coverage_profile(a, 2).defective(m)
            if defects:
                assert defect == defects[0]
            else:
                assert defect is None

    def test_count_defects_counts_every_tset(self):
        a = constant_rows(6, 2)  # every pair covers 2 of 4 tuples
        total = math.comb(6, 2)
        assert count_defects(a.cells, 2, 2, 4) == total
