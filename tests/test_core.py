"""Tests for domain types, validation, tuple ranking, and projection."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcaforge.construct import build_pca_moser_tardos
from pcaforge.core import (
    Array,
    PcaParams,
    project,
    tuple_rank,
    tuple_unrank,
    validate,
)
from pcaforge.errors import (
    AlphabetTooSmall,
    ColumnOutOfRange,
    DomainError,
    EpsilonOutOfRange,
    MOutOfRange,
    Overflow,
    RankOutOfRange,
    SeedOutOfRange,
    StrengthTooSmall,
    SymbolOutOfRange,
    UnsortedColumnSet,
)


class TestValidate:
    def test_ok(self):
        p = PcaParams(t=2, k=4, v=2, m=4, epsilon=0.0)
        assert validate(p) is p

    def test_m_too_large(self):
        with pytest.raises(MOutOfRange):
            validate(PcaParams(t=2, k=4, v=2, m=5))

    def test_m_zero(self):
        with pytest.raises(MOutOfRange):
            validate(PcaParams(t=2, k=4, v=2, m=0))

    def test_k_below_t(self):
        with pytest.raises(StrengthTooSmall):
            validate(PcaParams(t=3, k=2, v=2, m=1))

    def test_t_below_two(self):
        with pytest.raises(StrengthTooSmall):
            validate(PcaParams(t=1, k=4, v=2, m=1))

    def test_alphabet_too_small(self):
        with pytest.raises(AlphabetTooSmall):
            validate(PcaParams(t=2, k=4, v=1, m=1))

    def test_epsilon_out_of_range(self):
        with pytest.raises(EpsilonOutOfRange):
            validate(PcaParams(t=2, k=4, v=2, m=4, epsilon=1.5))

    def test_overflow(self):
        with pytest.raises(Overflow):
            validate(PcaParams(t=64, k=70, v=3, m=1))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        with pytest.raises(SeedOutOfRange):
            validate(PcaParams(t=2, k=4, v=2, m=4, seed=seed))

    def test_seed_largest_64_bit(self):
        p = PcaParams(t=2, k=4, v=2, m=4, seed=2**64 - 1)
        assert validate(p) is p

    @pytest.mark.parametrize("field,value", [
        ("t", 2.0), ("k", 5.0), ("v", 2.0), ("m", 3.5), ("seed", 1.5), ("t", "2"),
        ("m", "4"), ("epsilon", "0.1"), ("epsilon", None), ("epsilon", 0.5j),
    ])
    def test_non_integer_params(self, field, value):
        # m=3.5 built and claimed pca(t=2, m=3.5); seed=1.5 and
        # epsilon="0.1" escaped as a builtin TypeError
        p = dataclasses.replace(PcaParams(t=2, k=5, v=2, m=4, epsilon=0.25), **{field: value})
        with pytest.raises(DomainError):
            validate(p)
        with pytest.raises(DomainError):
            build_pca_moser_tardos(p)

    def test_numpy_integers_are_python_ints(self):
        # t=np.int64(2) died with AttributeError: bit_length in the kernel
        p = PcaParams(*map(np.int64, (2, 5, 2, 3)), epsilon=np.float64(0.0), seed=np.uint64(7))
        want = PcaParams(2, 5, 2, 3, 0.0, 7)
        got = validate(p)
        assert got == want
        assert all(type(x) is int for x in (got.t, got.k, got.v, got.m, got.seed))
        assert build_pca_moser_tardos(p).array == build_pca_moser_tardos(want).array


class TestTupleRank:
    def test_zero_tuple(self):
        assert tuple_rank((0, 0, 0), 2) == 0

    def test_mixed_radix(self):
        assert tuple_rank((1, 0), 2) == 2

    def test_hand_value(self):
        # 1*16 + 2*4 + 3 = 27
        assert tuple_rank((1, 2, 3), 4) == 27

    def test_symbol_out_of_range(self):
        with pytest.raises(SymbolOutOfRange):
            tuple_rank((0, 2), 2)

    def test_unrank_zero(self):
        assert tuple_unrank(0, 3, 2) == (0, 0, 0)

    def test_unrank_two(self):
        assert tuple_unrank(2, 2, 2) == (1, 0)

    def test_unrank_hand_value(self):
        assert tuple_unrank(27, 3, 4) == (1, 2, 3)

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            tuple_unrank(8, 3, 2)
        with pytest.raises(RankOutOfRange):
            tuple_unrank(-1, 3, 2)

    def test_bijection_exhaustive(self):
        # exhaustive round trip over the whole supported spot-check grid
        for t in range(2, 7):
            for v in range(2, 6):
                for r in range(v**t):
                    assert tuple_rank(tuple_unrank(r, t, v), v) == r

    @given(st.integers(2, 6), st.integers(2, 5), st.data())
    @settings(max_examples=200, derandomize=True)
    def test_bijection_random_tuples(self, t, v, data):
        x = tuple(data.draw(st.integers(0, v - 1)) for _ in range(t))
        assert tuple_unrank(tuple_rank(x, v), t, v) == x


class TestArray:
    def test_shape(self):
        a = Array([[0, 1, 2], [2, 1, 0]], 3)
        assert a.rows == 2 and a.cols == 3

    def test_symbol_check(self):
        with pytest.raises(SymbolOutOfRange):
            Array([[0, 3]], 3)

    def test_cells_read_only(self):
        a = Array([[0, 1]], 2)
        with pytest.raises(ValueError):
            a.cells[0, 0] = 1

    def test_cells_are_a_private_copy(self):
        cells = np.array([[0, 1]], dtype=np.int64)
        a = Array(cells, 2)
        cells[0, 0] = 1
        assert a.cells.tolist() == [[0, 1]] and cells.flags.writeable

    def test_narrow_cells_copied_once(self):
        # uint8 cells become one int64 grid, not a converted grid and its copy
        cells = np.random.default_rng(0).integers(0, 3, size=(500, 200), dtype=np.uint8)
        tracemalloc.start()
        try:
            a = Array(cells, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert a.cells.dtype == np.int64 and np.array_equal(a.cells, cells)
        assert peak < 1.5 * 8 * cells.size

    def test_derived_arrays_are_read_only_copies(self):
        a = Array([[0, 1, 2], [2, 1, 0]], 3)
        for derived in (a.stack(a), project(a, (0, 2))):
            assert derived.cells.flags.c_contiguous and not derived.cells.flags.writeable
            assert not np.shares_memory(derived.cells, a.cells)

    def test_equality(self):
        assert Array([[0, 1]], 2) == Array([[0, 1]], 2)
        assert Array([[0, 1]], 2) != Array([[1, 0]], 2)
        assert Array([[0, 1]], 2) != Array([[0, 1]], 3)

    def test_stack(self):
        a = Array([[0, 1]], 2).stack(Array([[1, 0]], 2))
        assert a.cells.tolist() == [[0, 1], [1, 0]]

    def test_empty(self):
        a = Array(np.zeros((0, 4), dtype=np.int64), 2)
        assert a.rows == 0 and a.cols == 4


class TestProject:
    def test_identity(self):
        a = Array([[0, 1, 2], [2, 1, 0]], 3)
        assert project(a, (0, 1, 2)) == a

    def test_single_column(self):
        a = Array([[0, 1, 2], [2, 1, 0]], 3)
        assert project(a, (1,)).cells.tolist() == [[1], [1]]

    def test_hand_projection(self):
        a = Array([[0, 1, 2], [2, 1, 0]], 3)
        assert project(a, (0, 2)).cells.tolist() == [[0, 2], [2, 0]]

    def test_column_out_of_range(self):
        with pytest.raises(ColumnOutOfRange):
            project(Array([[0, 1]], 2), (0, 2))

    def test_unsorted(self):
        with pytest.raises(UnsortedColumnSet):
            project(Array([[0, 1]], 2), (1, 0))
        with pytest.raises(UnsortedColumnSet):
            project(Array([[0, 1]], 2), (0, 0))

    def test_composition(self):
        # projecting to C then restricting further equals projecting directly
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(3, 9))
            n = int(rng.integers(1, 12))
            v = int(rng.integers(2, 5))
            a = Array(rng.integers(0, v, size=(n, k)), v)
            c2 = sorted(rng.choice(k, size=int(rng.integers(2, k + 1)), replace=False))
            inner = sorted(rng.choice(len(c2), size=int(rng.integers(1, len(c2) + 1)),
                                      replace=False))
            c1 = [c2[i] for i in inner]
            assert project(a, c1) == project(project(a, c2), inner)
