"""Tests for finite fields, group actions, orbits, and development."""

import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from orbit_reference import orbits, rank_weights

from pcaforge import coverage
from pcaforge.bounds import bound_apca_frobenius
from pcaforge.core import Array
from pcaforge.coverage import coverage_profile
from pcaforge.errors import (
    CapacityExceeded, DimensionMismatch, DomainError, NotPrimePower, OrderTooLarge,
)
from pcaforge.galois import (
    _IRREDUCIBLE,
    GroupAction,
    constant_rows,
    cyclic_action,
    develop,
    field_make,
    frobenius_action,
    is_prime_power,
)

PRIME_POWERS_TO_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    37, 41, 43, 47, 49, 53, 59, 61, 64,
]


class TestPrimePower:
    def test_recognizes_all(self):
        for v in range(2, 65):
            assert is_prime_power(v) == (v in PRIME_POWERS_TO_64)

    def test_checked_callers_raise(self):
        with pytest.raises(NotPrimePower):
            field_make(12)
        with pytest.raises(NotPrimePower):
            bound_apca_frobenius(2, 12, 0.1)


class TestField:
    def test_prime_field_is_mod_arithmetic(self):
        f = field_make(5)
        for a in range(5):
            for b in range(5):
                assert f.add[a, b] == (a + b) % 5
                assert f.mul[a, b] == (a * b) % 5

    def test_gf4_multiplicative_orders(self):
        # every nonzero element has multiplicative order dividing 3
        f = field_make(4)
        for a in range(1, 4):
            x = a
            order = 1
            while x != 1:
                x = int(f.mul[x, a])
                order += 1
            assert 3 % order == 0

    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            field_make(12)

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            field_make(128)

    @pytest.mark.parametrize("v", PRIME_POWERS_TO_64)
    def test_axioms_exhaustive(self, v):
        f = field_make(v)
        add, mul = f.add, f.mul
        elems = np.arange(v)
        # commutativity and identities
        assert np.array_equal(add, add.T)
        assert np.array_equal(mul, mul.T)
        assert np.array_equal(add[0], elems)
        assert np.array_equal(mul[1], elems)
        assert np.all(mul[0] == 0)
        # every element has an additive inverse, every nonzero a multiplicative one
        assert np.all(np.sort(add, axis=1) == elems)  # add[a] is a permutation
        assert all(0 in add[a] for a in range(v))
        for a in range(1, v):
            assert 1 in mul[a]
            assert np.array_equal(np.sort(mul[a, 1:]), elems[1:])  # no zero divisors
        # associativity and distributivity, exhaustively via table composition
        assert np.array_equal(add[add, :], add[:, add])
        assert np.array_equal(mul[mul, :], mul[:, mul])
        assert np.array_equal(mul[add, :], add[mul[:, :, None], mul[:, None, :]].transpose(1, 2, 0))

    def test_multiplicative_group_cyclic(self):
        # some element generates all v-1 nonzero elements
        for v in (4, 8, 9, 25, 27):
            f = field_make(v)
            found = False
            for g in range(1, v):
                x, seen = 1, set()
                for _ in range(v - 1):
                    x = int(f.mul[x, g])
                    seen.add(x)
                if len(seen) == v - 1:
                    found = True
                    break
            assert found, f"no generator found for v={v}"


# -- frozen loop-based reference: the tables as first built, entry by entry ----

def _ref_digits(e, p, n):
    out = []
    for _ in range(n):
        out.append(e % p)
        e //= p
    return out


def _ref_undigits(d, p):
    e = 0
    for c in reversed(d):
        e = e * p + c
    return e


def _ref_field(v):
    p, n = next((p, n) for p in range(2, v + 1) for n in range(1, 7) if p**n == v)
    if n == 1:
        xy = np.arange(v, dtype=np.int64)
        return (0, 1), (xy[:, None] + xy[None, :]) % v, (xy[:, None] * xy[None, :]) % v
    poly = _IRREDUCIBLE[(p, n)]
    add = np.zeros((v, v), dtype=np.int64)
    mul = np.zeros((v, v), dtype=np.int64)
    digit_cache = [_ref_digits(e, p, n) for e in range(v)]
    for a in range(v):
        da = digit_cache[a]
        for b in range(v):
            db = digit_cache[b]
            add[a, b] = _ref_undigits([(x + y) % p for x, y in zip(da, db)], p)
            prod = [0] * (2 * n - 1)
            for i, x in enumerate(da):
                if x:
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
            for deg in range(2 * n - 2, n - 1, -1):
                c = prod[deg]
                if c:
                    prod[deg] = 0
                    for j in range(n):
                        prod[deg - n + j] = (prod[deg - n + j] - c * poly[j]) % p
            mul[a, b] = _ref_undigits(prod[:n], p)
    return poly, add, mul


def _ref_frobenius_perms(v):
    _, add, mul = _ref_field(v)
    perms = np.zeros((v * (v - 1), v), dtype=np.int64)
    i = 0
    for a in range(1, v):
        for b in range(v):
            perms[i] = add[mul[a], b]
            i += 1
    return perms


def _assert_same_table(got, want):
    assert got.dtype == np.int64
    assert not got.flags.writeable
    assert np.array_equal(got, want)


@pytest.mark.parametrize("v", PRIME_POWERS_TO_64)
class TestAgainstLoopReference:
    def test_field_tables(self, v):
        poly, add, mul = _ref_field(v)
        f = field_make(v)
        assert f.poly == poly
        _assert_same_table(f.add, add)
        _assert_same_table(f.mul, mul)

    def test_frobenius_perms(self, v):
        _assert_same_table(frobenius_action(v).perms, _ref_frobenius_perms(v))


@pytest.mark.parametrize("v", PRIME_POWERS_TO_64)
def test_affine_maps_form_a_sharply_two_transitive_group(v):
    # Over a field the maps x -> a*x + b (a != 0) are permutations forming a
    # group that sends the pair (0, 1) to each pair of distinct symbols once,
    # which splits [v]^2 into the v constant pairs and one orbit of the other
    # v(v-1): the orbit counts behind the affine bounds, checked here on the
    # action's own table at every supported order.
    perms = frobenius_action(v).perms
    # every map is a permutation
    assert (np.sort(perms, axis=1) == np.arange(v)).all()
    pairs = perms[:, 0] * v + perms[:, 1]
    x, y = np.divmod(np.arange(v * v), v)
    np.testing.assert_array_equal(np.sort(pairs), np.flatnonzero(x != y))
    # closed under composition: h then g is the element sending (0, 1) where it does
    element = np.full(v * v, -1)
    element[pairs] = np.arange(len(perms))
    for g, h in np.random.default_rng(v).integers(0, len(perms), size=(200, 2)):
        composed = perms[g][perms[h]]
        assert np.array_equal(perms[element[composed[0] * v + composed[1]]], composed)


class TestActions:
    def test_cyclic_identity_first(self):
        a = cyclic_action(5)
        assert np.array_equal(a.perms[0], np.arange(5))
        assert a.order == 5

    def test_cyclic_bit_flip(self):
        a = cyclic_action(2)
        assert a.perms[1][[0, 1]].tolist() == [1, 0]

    def test_frobenius_identity_first(self):
        a = frobenius_action(4)
        assert np.array_equal(a.perms[0], np.arange(4))
        assert a.order == 4 * 3

    def test_frobenius_hand_value(self):
        # x -> 2x + 1 mod 3 sends (0,1,2) to (1,0,2)
        a = frobenius_action(3)
        element = (2 - 1) * 3 + 1  # a=2, b=1 in the listed order
        assert a.perms[element][[0, 1, 2]].tolist() == [1, 0, 2]

    def test_frobenius_needs_prime_power(self):
        with pytest.raises(NotPrimePower):
            frobenius_action(6)

    def test_frobenius_cache_keeps_the_integer_check(self):
        # the cached action of 2 must not answer for 2.0, which hashes alike
        assert frobenius_action(np.int64(2)) is frobenius_action(2)
        with pytest.raises(DomainError):
            frobenius_action(2.0)

    def test_all_elements_are_permutations(self):
        for action in (cyclic_action(6), frobenius_action(5), frobenius_action(8)):
            for perm in action.perms:
                assert sorted(perm.tolist()) == list(range(action.v))


class TestOrbits:
    """The tests' orbit enumerator against hand values and closed forms."""

    def test_cyclic_t2_v2(self):
        st = orbits(2, 2, cyclic_action(2))
        assert st.n_orbits == 2
        tuples = list(product(range(2), repeat=2))
        groups = [{tuples[r] for r in range(4) if st.orbit_index[r] == o} for o in range(2)]
        assert {(0, 0), (1, 1)} in groups
        assert {(0, 1), (1, 0)} in groups

    def test_frobenius_t2_v3(self):
        st = orbits(2, 3, frobenius_action(3))
        assert st.n_orbits == 2
        assert sorted(st.lengths.tolist()) == [3, 6]
        assert st.lengths[st.short_orbit_id] == 3

    def test_t1_single_orbit(self):
        st = orbits(1, 4, cyclic_action(4))
        assert st.n_orbits == 1 and st.lengths[0] == 4

    def test_cyclic_closed_form(self):
        for t in (2, 3, 4):
            for v in (2, 3, 4, 5):
                st = orbits(t, v, cyclic_action(v))
                assert st.n_orbits == v ** (t - 1)
                assert np.all(st.lengths == v)
                assert st.lengths.sum() == v**t

    def test_frobenius_closed_form(self):
        for t in (2, 3, 4):
            for v in (2, 3, 4, 5):
                st = orbits(t, v, frobenius_action(v))
                full = (v ** (t - 1) - 1) // (v - 1)
                assert st.n_orbits == full + 1
                assert int(st.lengths[st.short_orbit_id]) == v
                full_lengths = [
                    int(x) for o, x in enumerate(st.lengths) if o != st.short_orbit_id
                ]
                assert all(x == v * (v - 1) for x in full_lengths)
                assert st.lengths.sum() == v**t

    def test_short_orbit_is_constant_tuples(self):
        st = orbits(3, 4, frobenius_action(4))
        members = [
            x for r, x in enumerate(product(range(4), repeat=3))
            if st.orbit_index[r] == st.short_orbit_id
        ]
        assert members == [(c, c, c) for c in range(4)]

    def test_representatives_are_minimum_rank(self):
        for st in (orbits(3, 3, cyclic_action(3)), orbits(2, 5, frobenius_action(5))):
            for o, rep in enumerate(st.representatives):
                members = np.nonzero(st.orbit_index == o)[0]
                assert rep == members.min()

    def test_closure_exhaustive(self):
        # acting by any element maps each orbit onto itself (v^t <= 4096)
        cases = [
            (2, 2, cyclic_action(2)), (3, 2, frobenius_action(2)),
            (2, 4, frobenius_action(4)), (4, 3, cyclic_action(3)),
            (6, 4, cyclic_action(4)),
        ]
        for t, v, action in cases:
            st = orbits(t, v, action)
            weights = rank_weights(t, v)
            for r, x in enumerate(product(range(v), repeat=t)):
                for e in range(action.order):
                    image = action.perms[e][list(x)] @ weights
                    assert st.orbit_index[image] == st.orbit_index[r]


class TestDevelop:
    def test_writes_in_place(self):
        # one GF(64) base row developed into 4032 x 60 cells: the output is
        # the only large allocation, where a buffered take would double it
        action = frobenius_action(64)
        base = Array(np.random.default_rng(0).integers(0, 64, size=(1, 60)), 64)
        tracemalloc.start()
        try:
            out = develop(base, action)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.rows == 4032
        assert peak < 1.25 * out.cells.nbytes

    def test_single_row_cyclic(self):
        out = develop(Array([[0, 1]], 2), cyclic_action(2))
        assert sorted(map(tuple, out.cells.tolist())) == [(0, 1), (1, 0)]

    def test_row_counts(self):
        base = Array([[0, 1, 2], [1, 1, 0]], 3)
        assert develop(base, cyclic_action(3)).rows == 2 * 3
        assert develop(base, frobenius_action(3)).rows == 2 * 3 * 2

    def test_preserves_columns(self):
        base = Array([[0, 1, 2, 0]], 3)
        assert develop(base, cyclic_action(3)).cols == 4

    def test_empty_base_and_read_only_output(self):
        assert develop(Array(np.zeros((0, 3), dtype=np.int64), 3), cyclic_action(3)).rows == 0
        assert develop(Array(np.zeros((2, 0), dtype=np.int64), 3), cyclic_action(3)).rows == 6
        out = develop(Array([[0, 1]], 2), cyclic_action(2))
        assert not out.cells.flags.writeable

    def test_tail_follows_developed_rows(self):
        base = Array([[0, 1, 2], [1, 1, 0]], 3)
        action = frobenius_action(3)
        out = develop(base, action, constant_rows(3, 3))
        assert out == develop(base, action).stack(constant_rows(3, 3))
        assert not out.cells.flags.writeable
        assert develop(base, action, Array(np.zeros((0, 3), dtype=np.int64), 3)).rows == 12
        for tail in (constant_rows(2, 3), constant_rows(3, 2)):
            with pytest.raises(DimensionMismatch):
                develop(base, action, tail)

    def test_row_order_deterministic(self):
        base = Array([[0, 1], [1, 2]], 3)
        action = cyclic_action(3)
        out = develop(base, action)
        # input row major, then element order
        expected = []
        for row in base.cells:
            for e in range(action.order):
                expected.append([int(action.perms[e][c]) for c in row])
        assert out.cells.tolist() == expected

    def test_coverage_identity(self):
        # per t-set, the developed distinct-tuple count equals the summed
        # lengths of orbits covered by the base
        rng = np.random.default_rng(11)
        for v, make in [(2, cyclic_action), (3, cyclic_action), (4, cyclic_action),
                        (2, frobenius_action), (3, frobenius_action), (4, frobenius_action)]:
            action = make(v)
            st = orbits(2, v, action)
            for _ in range(20):
                k = int(rng.integers(2, 6))
                base = Array(rng.integers(0, v, size=(3, k)), v)
                developed = develop(base, action)
                counts = coverage_profile(developed, 2).counts
                # reconstruct the covered length sum per t-set
                weights = rank_weights(2, v)
                for i, tset in enumerate(combinations(range(k), 2)):
                    oids = {int(st.orbit_index[r]) for r in base.cells[:, tset] @ weights}
                    assert counts[i] == sum(int(st.lengths[o]) for o in oids)


class TestDevelopmentLemma:
    def test_tuple_covered_iff_orbit_touched(self):
        # developed projection contains x exactly when the base projection
        # contains some member of x's orbit
        rng = np.random.default_rng(17)
        for v, make in [(2, cyclic_action), (3, frobenius_action), (4, cyclic_action)]:
            action = make(v)
            st = orbits(2, v, action)
            weights = rank_weights(2, v)
            for _ in range(10):
                k = int(rng.integers(2, 6))
                base = Array(rng.integers(0, v, size=(3, k)), v)
                developed = develop(base, action)
                for tset in combinations(range(k), 2):
                    base_rows = set((base.cells[:, tset] @ weights).tolist())
                    dev_rows = set((developed.cells[:, tset] @ weights).tolist())
                    base_orbits = {int(st.orbit_index[r]) for r in base_rows}
                    for x in range(v**2):
                        assert (x in dev_rows) == (int(st.orbit_index[x]) in base_orbits)


class TestConstantRows:
    def test_shape_and_values(self):
        assert constant_rows(3, 2).cells.tolist() == [[0, 0, 0], [1, 1, 1]]

    def test_covers_short_orbit_everywhere(self):
        rows = constant_rows(5, 3)
        st = orbits(2, 3, frobenius_action(3))
        for tset in combinations(range(5), 2):  # exactly the short orbit in every t-set
            oids = {int(st.orbit_index[r]) for r in rows.cells[:, tset] @ rank_weights(2, 3)}
            assert oids == {st.short_orbit_id}



class TestCapacity:
    """Each group table and developed array is refused before it is allocated
    once it would hold more than PROFILE_CAPACITY cells."""

    def test_cyclic_shift_table(self):
        # the v x v table would take 728 TiB
        with pytest.raises(CapacityExceeded, match=r"N\*k = 10000000\*10000000 "):
            cyclic_action(10**7)

    def test_constant_rows(self):
        with pytest.raises(CapacityExceeded, match=r"N\*k = 10000000\*1000000 "):
            constant_rows(10**6, 10**7)
        # the v symbols are listed even without a column
        with pytest.raises(CapacityExceeded, match=r"N\*k = 10000000000\*1 "):
            constant_rows(0, 10**10)

    def test_developed_rows(self):
        # every element maps x to x, but the group lists it 10^12 times; the
        # table is a broadcast view, so it takes no memory
        action = GroupAction("cyclic", 2, np.broadcast_to(np.arange(2), (10**12, 2)))
        base = Array([[0, 1]], 2)
        with pytest.raises(CapacityExceeded, match=r"N\*k = 1000000000000\*2 "):
            develop(base, action)
        with pytest.raises(CapacityExceeded, match=r"N\*k = 1000000000002\*2 "):
            develop(base, action, constant_rows(2, 2))

    def test_a_table_at_the_capacity_is_built(self, monkeypatch):
        monkeypatch.setattr(coverage, "PROFILE_CAPACITY", 12)
        assert cyclic_action(3).order == 3
        assert constant_rows(6, 2).rows == 2
        base, action = Array([[0, 1, 0]], 2), cyclic_action(2)
        assert develop(base, action, constant_rows(3, 2)).rows == 4
        for call in (lambda: cyclic_action(4), lambda: constant_rows(7, 2),
                     lambda: develop(base.stack(base), action, constant_rows(3, 2))):
            with pytest.raises(CapacityExceeded, match="exceeds 12"):
                call()
