"""Tests for domain types, validation and the package's public names."""

import ast
import dataclasses
import inspect
import tracemalloc

import numpy as np
import pytest

import pcaforge
from pcaforge import core, errors, galois
from pcaforge.construct import build_pca_moser_tardos
from pcaforge.core import Array, PcaParams, validate
from pcaforge.errors import (
    AlphabetTooSmall,
    DomainError,
    EpsilonOutOfRange,
    MOutOfRange,
    Overflow,
    SeedOutOfRange,
    StrengthTooSmall,
    SymbolOutOfRange,
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
        stacked = a.stack(a)
        assert stacked.cells.flags.c_contiguous and not stacked.cells.flags.writeable
        assert not np.shares_memory(stacked.cells, a.cells)

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


def test_public_surface():
    # every exported name resolves, and the exports are exactly the public
    # names the package module imports
    assert all(hasattr(pcaforge, name) for name in pcaforge.__all__)
    imported = [
        alias.asname or alias.name
        for node in ast.parse(inspect.getsource(pcaforge)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(pcaforge.__all__) == sorted(n for n in imported if not n.startswith("_"))
    # the orbit enumerator, the tuple helpers and the errors only they raised
    removed = ("act", "OrbitStructure", "orbits", "ORBIT_CAPACITY", "rank_weights",
               "tuple_rank", "tuple_unrank", "project", "RankOutOfRange",
               "ColumnOutOfRange", "UnsortedColumnSet")
    for module in (pcaforge, core, galois, errors):
        assert [name for name in removed if hasattr(module, name)] == []
