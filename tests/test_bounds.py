"""Tests for bound formulas against independent high-precision oracles.

The oracles never share code with the module under test: logs of binomials
come from ``math.log(math.comb(...))`` (exact big-int then one log), and
minimal row counts come from exact rational arithmetic on the underlying
inequalities.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from pcaforge.bounds import (
    FORMULAS,
    bound_apca,
    bound_apca_cyclic,
    bound_apca_frobenius,
    bound_can_reference,
    bound_concat,
    bound_pca_asymptotic,
    bound_pca_cyclic,
    bound_pca_lll,
    bound_pca_union,
    concat_split,
    evaluate_formula,
    log_binomial,
    sweep,
)
from pcaforge.errors import (
    DomainError,
    EmptyRange,
    EpsilonOutOfRange,
    EpsilonZero,
    KTooSmallForLLL,
    MConditionViolated,
    NotPrimePower,
    PcaForgeError,
    ROutOfRange,
    SOutOfRange,
)


def exact_min_rows(mult: Fraction, ratio: Fraction, bound: Fraction, strict: bool) -> int:
    """Minimal N with mult * ratio^N {<, <=} bound, by exact rational descent."""
    n = 0
    lhs = Fraction(mult)
    while not (lhs < bound if strict else lhs <= bound):
        lhs *= ratio
        n += 1
        assert n < 10_000
    return n


class TestLogBinomial:
    def test_small(self):
        assert log_binomial(4, 3) == pytest.approx(math.log(4), rel=1e-12)

    def test_zero_choice(self):
        assert log_binomial(100, 0) == pytest.approx(0.0, abs=1e-12)

    def test_near_full(self):
        assert log_binomial(4096, 4095) == pytest.approx(math.log(4096), rel=1e-12)

    def test_against_exact(self):
        for n, r in [(10, 4), (100, 37), (4096, 100), (4096, 2048), (1024, 6)]:
            assert log_binomial(n, r) == pytest.approx(
                math.log(math.comb(n, r)), rel=1e-12
            )

    def test_symmetry(self):
        for n, r in [(10, 3), (4096, 7), (999, 400)]:
            assert log_binomial(n, r) == pytest.approx(
                log_binomial(n, n - r), rel=1e-10
            )

    @pytest.mark.parametrize("n", [10**6, 10**12, 10**16, 2**63 - 1])
    def test_huge_n_small_r(self, n):
        # the log-gamma difference cancels here: from about n = 10^16 it gave 0
        for r in (1, 2, 3):
            for choose in (r, n - r):
                assert log_binomial(n, choose) == pytest.approx(
                    math.log(math.comb(n, choose)), rel=1e-12
                )

    def test_across_the_switch(self):
        # below 2^16 the log-gamma difference stays, off by up to 2.3e-11 at r = 1
        for n, rel in ((2**16 - 1, 3e-11), (2**16, 1e-14), (2**16 + 1, 1e-14)):
            for r in (1, 5, 1000, n // 2):
                assert log_binomial(n, r) == pytest.approx(math.log(math.comb(n, r)), rel=rel)

    def test_union_and_lll_rows_nondecreasing_in_k(self):
        ks = sorted({8, 100, 2**16 - 1, 2**16, 2**16 + 1, 2**63 - 1,
                     *(10**e for e in range(3, 19))})
        for bound in (bound_pca_union, bound_pca_lll):
            rows = [bound(2, k, 3, 4).n_rows for k in ks]
            assert rows == sorted(rows), bound.__name__

    def test_non_integer_arguments(self):
        for n, r in [(10.5, 2), (10, 2.0), ("10", 2)]:
            with pytest.raises(DomainError, match="must be an integer"):
                log_binomial(n, r)
        assert log_binomial(np.int64(2**62), np.int64(2)) == log_binomial(2**62, 2)

    def test_r_out_of_range(self):
        with pytest.raises(ROutOfRange):
            log_binomial(4, 5)
        with pytest.raises(ROutOfRange):
            log_binomial(4, -1)


class TestUnionBound:
    def test_spot_value(self):
        res = bound_pca_union(2, 4, 2, 4)
        oracle = math.log(math.comb(4, 2) * math.comb(4, 3)) / math.log(4 / 3)
        assert res.real_bound == pytest.approx(oracle, rel=1e-9)
        assert res.n_rows == 12

    def test_exact_integer_boundary(self):
        # real bound is exactly 1; strictness forces 2 rows
        res = bound_pca_union(2, 2, 2, 2)
        assert res.real_bound == pytest.approx(1.0, rel=1e-9)
        assert res.n_rows == 2

    def test_degenerate_m1(self):
        res = bound_pca_union(2, 4, 2, 1)
        assert res.n_rows == 1 and res.real_bound == 0.0

    def test_n_rows_exact(self):
        for (t, k, v, m) in [(2, 4, 2, 4), (2, 6, 3, 9), (3, 7, 2, 8), (2, 10, 2, 3)]:
            vt = v**t
            expected = exact_min_rows(
                Fraction(math.comb(k, t) * math.comb(vt, m - 1)),
                Fraction(m - 1, vt),
                Fraction(1),
                strict=True,
            )
            assert bound_pca_union(t, k, v, m).n_rows == expected

    def test_ceiling_envelope(self):
        # minimal integer sits within one of the real bound's ceiling
        for (t, k, v, m) in [(2, 4, 2, 4), (3, 8, 2, 8), (2, 12, 3, 9)]:
            res = bound_pca_union(t, k, v, m)
            assert math.ceil(res.real_bound) - 1 <= res.n_rows <= math.ceil(res.real_bound) + 1

    def test_monotone_in_m_and_k(self):
        prev = 0.0
        for m in range(2, 17):
            rb = bound_pca_union(2, 6, 4, m).real_bound
            assert rb >= prev
            prev = rb
        prev = 0.0
        for k in range(4, 20):
            rb = bound_pca_union(2, k, 2, 4).real_bound
            assert rb >= prev
            prev = rb


class TestLllBound:
    def test_spot_value(self):
        res = bound_pca_lll(2, 4, 2, 4)
        oracle = (1 + math.log(2 * math.comb(4, 1) * math.comb(4, 3))) / math.log(4 / 3)
        assert res.real_bound == pytest.approx(oracle, rel=1e-9)
        assert res.n_rows == 16

    def test_k_too_small(self):
        with pytest.raises(KTooSmallForLLL):
            bound_pca_lll(2, 3, 2, 4)

    def test_large_point_against_oracle(self):
        # a comparison-sweep input point at full coverage
        res = bound_pca_lll(6, 20, 4, 4096)
        vt = 4**6
        oracle = (1 + math.log(6 * math.comb(20, 5)) + math.log(math.comb(vt, vt - 1))) / math.log(
            vt / (vt - 1)
        )
        assert res.real_bound == pytest.approx(oracle, rel=1e-9)
        assert res.n_rows == math.ceil(oracle)

    def test_full_coverage_identity(self):
        # rb * ln(v^t/(v^t-1)) == 1 + ln(t C(k,t-1) v^t) when m = v^t
        for (t, k, v) in [(2, 4, 2), (2, 8, 3), (3, 6, 2), (6, 20, 4)]:
            vt = v**t
            res = bound_pca_lll(t, k, v, vt)
            lhs = res.real_bound * math.log(vt / (vt - 1))
            rhs = 1 + math.log(t * math.comb(k, t - 1) * vt)
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_monotone_in_k(self):
        values = [bound_pca_lll(2, k, 2, 4).real_bound for k in range(4, 30)]
        assert values == sorted(values)

    def test_monotone_in_m(self):
        values = [bound_pca_lll(2, 8, 3, m).real_bound for m in range(2, 10)]
        assert values == sorted(values)


class TestAsymptotic:
    def test_direct_substitution(self):
        t, v, k = 6, 4, 1024
        r = v * (t - 1)
        m = v**t - r + 1
        expected = 4096 * 5 * math.log(1024) / 20 * (1 - math.log(20) / math.log(1024))
        assert bound_pca_asymptotic(t, k, v, m) == pytest.approx(expected, rel=1e-12)

    def test_r_one(self):
        # m = v^t makes the correction factor vanish
        t, v, k = 2, 2, 50
        assert bound_pca_asymptotic(t, k, v, v**t) == pytest.approx(
            4 * 1 * math.log(50), rel=1e-12
        )

    def test_real_k(self):
        # ln k = 1 at k = e: value collapses to v^t (t-1)
        assert bound_pca_asymptotic(2, math.e, 2, 4) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("k", [1, -math.inf, math.nan, math.inf])
    def test_domain_error(self, k):
        # k = nan returned nan, k = inf returned inf
        with pytest.raises(DomainError):
            bound_pca_asymptotic(2, k, 2, 4)

    def test_integer_k_past_the_double_range(self):
        # ln(10^400) = 400 ln 10; m = v^t makes the correction factor vanish
        assert bound_pca_asymptotic(2, 10**400, 2, 4) == pytest.approx(
            4 * 400 * math.log(10), rel=1e-12
        )


class TestApcaBound:
    def test_spot_value(self):
        res = bound_apca(2, 2, 4, 0.01)
        oracle = math.log(math.comb(4, 3) / 0.01) / math.log(4 / 3)
        assert res.real_bound == pytest.approx(oracle, rel=1e-9)
        assert res.n_rows == 21

    def test_epsilon_zero(self):
        with pytest.raises(EpsilonZero):
            bound_apca(2, 2, 4, 0.0)

    def test_small_epsilon_recovers_union(self):
        # with epsilon below 1/C(k,t) the row count reaches the union bound's
        t, k, v, m = 2, 4, 2, 4
        eps = 0.1 / math.comb(k, t)
        assert bound_apca(t, v, m, eps).n_rows >= bound_pca_union(t, k, v, m).n_rows

    def test_full_coverage_closed_form(self):
        # m = v^t: the bound stays below v^t ln(v^t/eps)
        for (t, v, eps) in [(2, 2, 0.1), (2, 3, 0.01), (3, 2, 0.05)]:
            vt = v**t
            res = bound_apca(t, v, vt, eps)
            assert res.real_bound <= vt * math.log(vt / eps) + 1e-9

    def test_monotone_in_epsilon(self):
        bounds_ = [bound_apca(2, 2, 4, e).real_bound for e in (0.001, 0.01, 0.1, 0.5, 1.0)]
        assert bounds_ == sorted(bounds_, reverse=True)

    def test_n_rows_exact(self):
        for eps_frac in (Fraction(1, 100), Fraction(1, 4), Fraction(1, 2)):
            expected = exact_min_rows(
                Fraction(math.comb(4, 3)), Fraction(3, 4), eps_frac, strict=False
            )
            assert bound_apca(2, 2, 4, float(eps_frac)).n_rows == expected

    def test_dominance_against_union(self):
        # below epsilon = 1/C(k,t) the k-free bound must dominate the union
        # bound; above it, the union bound dominates (both directions follow
        # from implication between the two tail inequalities)
        import numpy as np

        rng = np.random.default_rng(41)
        for _ in range(300):
            t = int(rng.integers(2, 5))
            k = int(rng.integers(t, 15))
            v = int(rng.integers(2, 6))
            m = int(rng.integers(2, min(v**t, 400) + 1))
            eps = float(rng.choice([1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0]))
            union = bound_pca_union(t, k, v, m).n_rows
            apca = bound_apca(t, v, m, eps).n_rows
            ckt = math.comb(k, t)
            if eps < 1.0 / ckt:
                assert apca >= union
            elif eps > 1.0 / ckt:
                assert apca <= union


class TestCyclicApcaBound:
    def test_spot_value(self):
        res = bound_apca_cyclic(2, 2, 0.01)
        assert res.detail["base_rows"] == 8
        assert res.n_rows == 16
        assert res.real_bound == pytest.approx(4 * math.log(200), rel=1e-9)

    def test_boundary_epsilon_one(self):
        res = bound_apca_cyclic(2, 2, 1.0)
        assert res.detail["base_rows"] == 1
        assert res.n_rows == 2

    def test_exact_below_theorem_form(self):
        for t in (2, 3, 4, 6):
            for v in (2, 3, 4):
                for eps in (0.1, 0.01):
                    res = bound_apca_cyclic(t, v, eps)
                    assert res.n_rows <= math.ceil(res.real_bound)

    def test_epsilon_zero(self):
        with pytest.raises(EpsilonZero):
            bound_apca_cyclic(2, 2, 0.0)


class TestFrobeniusApcaBound:
    def test_not_prime_power(self):
        with pytest.raises(NotPrimePower):
            bound_apca_frobenius(2, 6, 0.01)

    def test_spot_value(self):
        res = bound_apca_frobenius(2, 3, 0.01)
        assert res.detail["base_rows"] == 5
        assert res.n_rows == 6 * 5 + 3 == 33

    def test_exact_below_theorem_form(self):
        for t in (2, 3, 4):
            for v in (2, 3, 4, 5):
                for eps in (0.1, 0.01):
                    res = bound_apca_frobenius(t, v, eps)
                    assert res.n_rows <= math.ceil(res.real_bound)


class TestCyclicPcaBound:
    def test_s_window(self):
        # m = v^t - v + 1 .. v^t all give s = 1
        for m in (4093, 4094, 4095, 4096):
            assert bound_pca_cyclic(6, 20, 4, m).detail["s"] == 1
        assert bound_pca_cyclic(6, 20, 4, 4092).detail["s"] == 2

    def test_s_out_of_range(self):
        # m = 2 at t = v = 2 pushes s to v^(t-1), where the log argument diverges
        with pytest.raises(SOutOfRange):
            bound_pca_cyclic(2, 4, 2, 2)

    def test_exception_point_full_coverage(self):
        # the one m where the development bound beats the local-lemma bound
        eq6 = bound_pca_lll(6, 20, 4, 4096).real_bound
        eq8 = bound_pca_cyclic(6, 20, 4, 4096).real_bound
        assert eq8 < eq6

    def test_beaten_below_full_coverage(self):
        eq6 = bound_pca_lll(6, 20, 4, 4092).real_bound
        eq8 = bound_pca_cyclic(6, 20, 4, 4092).real_bound
        assert eq6 < eq8

    def test_variant_with_t(self):
        printed = bound_pca_cyclic(6, 20, 4, 4092)
        with_t = bound_pca_cyclic(6, 20, 4, 4092, include_t_factor=True)
        assert with_t.real_bound > printed.real_bound
        assert with_t.source == "eq8-t" and printed.source == "eq8"
        # the variants differ exactly by v ln t / ln(...) in the real bound
        vtm1 = 4**5
        delta = 4 * math.log(6) / math.log(vtm1 / (vtm1 - 2))
        assert with_t.real_bound - printed.real_bound == pytest.approx(delta, rel=1e-9)

    def test_n_rows_multiple_of_v(self):
        res = bound_pca_cyclic(6, 20, 4, 4092)
        assert res.n_rows % 4 == 0
        assert res.n_rows == 4 * res.detail["base_rows"]


class TestConcatBound:
    def test_corollary_choice(self):
        # epsilon = v^(t-1)/k^(1/v) keeps both components at the same scale
        t, v, k = 3, 2, 64
        eps = v ** (t - 1) / k ** (1 / v)
        res = bound_concat(t, k, v, 5, eps)
        assert math.isfinite(res.real_bound)
        rows1, rows2 = res.detail["component_rows"]
        assert res.n_rows == rows1 + rows2
        assert res.detail["r"] == 4 and res.detail["m1"] == 5

    def test_r_nonpositive(self):
        # v <= epsilon^(1/(t-1)) would kill the log denominator; epsilon <= 1
        # rules that out, so such an epsilon is out of range
        with pytest.raises(EpsilonOutOfRange):
            bound_concat(3, 8, 2, 4, 16.0)

    def test_m_condition_violated(self):
        # large k with lax epsilon gives deficiency r_real ~ 10, so full
        # coverage m = v^t is out of reach
        with pytest.raises(MConditionViolated):
            bound_concat(2, 1000, 2, 4, 0.99)

    def test_deficiency_matches_reduced_target(self):
        # r = v(t-1) regime: first component aims at v^t + 1 - v(t-1)
        t, v = 3, 2
        r_target = v * (t - 1)
        # choose k so ln k / ln(v/eps^(1/(t-1))) = r_target with eps = v^(t-1)/k^(1/v)
        # at t=3, v=2: denominator = ln(2/(2/k^(1/4)))... solve numerically instead:
        # pick k = 256, eps from the asymptotically matching choice
        k = 256
        eps = v ** (t - 1) / k ** (1 / v)
        res = bound_concat(t, k, v, 2, eps)
        assert res.detail["m1"] == v**t - res.detail["r"] + 1

    def test_deficiency_exact_where_ratio_is_an_integer(self):
        # at epsilon = 1 and k = v^n, r = ln k / ln v is exactly n; the double
        # lands just below n at 1000 = 10^3 and 243 = 3^5, and just above it
        # at 5^12, among others, so m = v^t + 1 - n is admissible
        assert concat_split(2, 1000, 10, 90, 1.0) == (3, 98)
        assert concat_split(2, 5**12, 5, 14, 1.0) == (12, 14)
        for t, v, n in itertools.product(range(2, 5), range(2, 17), range(1, 50)):
            if t <= v**n <= 10**15 and n <= v**t:
                want = (n, v**t - n + 1)
                assert concat_split(t, v**n, v, 1, 1.0) == want, (t, v, n)
                assert concat_split(t, v**n, v, v**t + 1 - n, 1.0) == want, (t, v, n)


class TestCanReference:
    def test_spot_values(self):
        assert bound_can_reference(2, 4, 2) == (8.0, 4.0)
        assert bound_can_reference(3, 8, 2) == (48.0, 12.0)

    def test_monotone_in_k(self):
        uppers = [bound_can_reference(2, k, 2)[0] for k in range(4, 40)]
        assert uppers == sorted(uppers)


class TestSweep:
    def test_full_coverage_exception_point(self):
        values = list(range(4096 - 24 + 1, 4097))
        result = sweep(["eq6", "eq8"], "m", values, t=6, k=20, v=4)
        assert len(result.points) == 24
        for point in result.points:
            eq6, eq8 = point.results["eq6"], point.results["eq8"]
            assert eq6 is not None and eq8 is not None
            if point.value == 4096:
                assert eq8.real_bound < eq6.real_bound
            else:
                assert eq6.real_bound < eq8.real_bound

    def test_k_axis(self):
        result = sweep(["eq6", "eq8"], "k", list(range(12, 61, 4)), t=6, v=4, m=4092)
        for point in result.points:
            assert point.results["eq6"].real_bound < point.results["eq8"].real_bound

    def test_gap_markers(self):
        # k = 5 < 2t makes eq6 infeasible; the point still appears
        result = sweep(["eq6", "eq5"], "k", [5, 8], t=3, v=2, m=8)
        gap_point = result.points[0]
        assert gap_point.results["eq6"] is None
        assert "KTooSmallForLLL" in gap_point.gap_reasons["eq6"]
        assert gap_point.results["eq5"] is not None

    def test_single_point(self):
        result = sweep(["eq5"], "m", [4], t=2, k=4, v=2)
        assert len(result.points) == 1
        assert result.points[0].results["eq5"].n_rows == 12

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            sweep(["eq5"], "m", [], t=2, k=4, v=2)

    def test_aliases(self):
        result = evaluate_formula("union", t=2, k=4, v=2, m=4)
        assert result.source == "eq5" and result.n_rows == 12


# A point every formula accepts, and the formulas that read k and m at all;
# eq7 reads k as a real number.
POINT = dict(t=2, k=10, v=3, m=9, epsilon=0.1)
READS = {
    "k": {"eq5", "eq6", "eq8", "eq8-t", "concat", "can-upper", "can-lower"},
    "m": {f.label for f in FORMULAS} - {"can-upper", "can-lower"},
}
NON_INTEGERS = [("t", 2.0), ("k", 10.5), ("k", 10.0), ("v", 3.0), ("m", 8.5), ("m", 9.0),
                ("m", "9")]


class TestIntegerParameters:
    @pytest.mark.parametrize("label,name,value", [
        (f.label, name, value) for f in FORMULAS for name, value in NON_INTEGERS
        if f.label in READS.get(name, {f.label})
    ])
    def test_non_integer_parameter(self, label, name, value):
        # eq5 returned n_rows = 38 at m = 8.5 (t=2 k=10 v=3), 52 at k = 10.5
        # and 51 at t = 2.0 (m = 8)
        with pytest.raises(DomainError, match=f"{name}="):
            evaluate_formula(label, **{**POINT, name: value})

    @pytest.mark.parametrize("label", ["eq5", "eq6", "eq8", "eq8-t"])
    def test_numpy_k_past_the_stirling_switch(self, label):
        # 12 k overflowed int64 in log_binomial: eq5 raised a builtin
        # OverflowError at k = 2^62, with warnings ignored
        point = {**POINT, "k": 2**62}
        got = evaluate_formula(label, **{**point, "k": np.int64(2**62)})
        assert got == evaluate_formula(label, **point)

    @pytest.mark.parametrize("label", [f.label for f in FORMULAS])
    def test_numpy_integers(self, label):
        point = {**POINT, **{name: np.int64(POINT[name]) for name in ("t", "k", "v", "m")}}
        assert evaluate_formula(label, **point) == evaluate_formula(label, **POINT)

    @pytest.mark.parametrize("label", [f.label for f in FORMULAS])
    def test_numpy_integers_give_python_numbers(self, label):
        # concat held np.float64 and np.int64 values, and json.dumps of its
        # detail failed; results compare equal whatever their number types
        point = {**POINT, **{name: np.int64(POINT[name]) for name in ("t", "k", "v", "m")}}
        assert repr(evaluate_formula(label, **point)) == repr(evaluate_formula(label, **POINT))


def _pin_grid():
    """Every t, v, edge m, k and epsilon of the pinned grid, m = v^t + 1 and
    epsilon = 1.5 included so that each error path is hashed too."""
    for t, v in itertools.product((2, 3, 4, 6), (2, 3, 4, 8, 9, 2**20)):
        vt = v**t
        for m in sorted({1, 2, 3, vt // 2, vt - v, vt - v + 1, vt - 1, vt, vt + 1}):
            for k, epsilon in itertools.product((3, 5, 12, 10**6, 10**9),
                                                (0.0, 1e-9, 0.05, 1.0, 1.5)):
                yield dict(t=t, k=k, v=v, m=m, epsilon=epsilon)


# sha256 over (real_bound, n_rows, source, detail) of every formula at every
# grid point, or the error class name where the point is infeasible.  It pins
# each bound bit for bit, where the tests above check real_bound approximately.
PIN_SHA256 = "d1a7fd9796149f29fe31343e7f0aa884cfd0205d84316c26ce0322eeac6ca423"


def test_every_formula_pinned_on_a_grid():
    digest = hashlib.sha256()
    for point in _pin_grid():
        for formula in FORMULAS:
            try:
                r = evaluate_formula(formula.label, **point)
            except PcaForgeError as exc:
                digest.update(type(exc).__name__.encode())
            else:
                digest.update(repr((r.real_bound, r.n_rows, r.source, r.detail)).encode())
    assert digest.hexdigest() == PIN_SHA256
