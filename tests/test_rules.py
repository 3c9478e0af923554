"""One rule, one verdict: every entry point that enforces a parameter rule
raises the same error class and message for the same bad value."""

import math

import pytest

from pcaforge.bounds import (
    bound_apca,
    bound_concat,
    bound_pca_asymptotic,
    bound_pca_cyclic,
    bound_pca_lll,
    bound_pca_union,
    evaluate_formula,
)
from pcaforge.construct import (
    build_apca_cyclic,
    build_apca_derandomized,
    build_apca_randomized,
    build_pca_moser_tardos,
)
from pcaforge.core import Array, PcaParams, validate
from pcaforge.coverage import coverage_profile, is_apca, is_pca
from pcaforge.errors import (
    AlphabetTooSmall,
    EpsilonOutOfRange,
    EpsilonZero,
    KTooSmallForLLL,
    MOutOfRange,
    Overflow,
    PcaForgeError,
)
from pcaforge.galois import constant_rows, cyclic_action

T, K, V = 2, 10, 3  # v^t = 9
ARRAY = constant_rows(K, V)


def _formula(label: str, name: str, **point):
    """Evaluate one registry formula with parameter ``name`` left open."""
    return lambda x: evaluate_formula(label, **point, **{name: x})


def _verdicts(entries: dict, value) -> dict:
    """Each entry point's (error class, message) for one bad value."""
    out = {}
    for name, call in entries.items():
        with pytest.raises(PcaForgeError) as err:
            call(value)
        out[name] = (type(err.value), str(err.value))
    return out


M_ENTRIES = {
    "validate": lambda m: validate(PcaParams(T, K, V, m)),
    "eq5": lambda m: bound_pca_union(T, K, V, m),
    "eq6": lambda m: bound_pca_lll(T, K, V, m),
    "eq7": lambda m: bound_pca_asymptotic(T, K, V, m),
    "eq8": lambda m: bound_pca_cyclic(T, K, V, m),
    "eq8-t": lambda m: bound_pca_cyclic(T, K, V, m, include_t_factor=True),
    "apca": lambda m: bound_apca(T, V, m, 0.1),
    "concat": lambda m: bound_concat(T, K, V, m, 0.1),
    "defective": lambda m: coverage_profile(ARRAY, T).defective(m),
    "is_pca": lambda m: is_pca(ARRAY, T, m),
    "is_apca": lambda m: is_apca(ARRAY, T, m, 0.1),
}


@pytest.mark.parametrize("m", [0, -5, V**T + 1])
def test_m_rule(m):
    verdicts = _verdicts(M_ENTRIES, m)
    assert verdicts == dict.fromkeys(verdicts, (MOutOfRange, f"m={m} outside [1, v^t={V**T}]"))


ALMOST_FORMULAS = {
    label: _formula(label, "epsilon", t=T, k=K, v=V, m=V**T)
    for label in ("apca", "cyclic", "frobenius", "concat")
}


@pytest.mark.parametrize("epsilon", [1.5, math.nan])
def test_epsilon_rule_of_almost_coverage_formulas(epsilon):
    verdicts = _verdicts(ALMOST_FORMULAS, epsilon)
    expected = (EpsilonOutOfRange, f"epsilon={epsilon} outside (0, 1]")
    assert verdicts == dict.fromkeys(verdicts, expected)


def test_epsilon_zero_rule():
    entries = {
        **ALMOST_FORMULAS,
        "apca-builder": lambda e: build_apca_randomized(PcaParams(T, K, V, 4, e)),
        "cyclic-builder": lambda e: build_apca_cyclic(PcaParams(T, K, V, V**T, e)),
        "derand-builder": lambda e: build_apca_derandomized(PcaParams(T, K, V, V**T, e)),
    }
    verdicts = _verdicts(entries, 0.0)
    assert verdicts == dict.fromkeys(verdicts, (EpsilonZero, "epsilon must be positive"))


@pytest.mark.parametrize("epsilon", [-0.5, 1.5, math.nan])
def test_epsilon_rule_of_validation_and_verification(epsilon):
    entries = {
        "validate": lambda e: validate(PcaParams(T, K, V, 4, e)),
        "allowed": lambda e: coverage_profile(ARRAY, T).allowed(e),
        "is_apca": lambda e: is_apca(ARRAY, T, 4, e),
    }
    verdicts = _verdicts(entries, epsilon)
    expected = (EpsilonOutOfRange, f"epsilon={epsilon} outside [0, 1]")
    assert verdicts == dict.fromkeys(verdicts, expected)


@pytest.mark.parametrize("v", [0, 1])
def test_v_rule(v):
    entries = {
        "validate": lambda v: validate(PcaParams(T, K, v, 1)),
        "eq5": lambda v: bound_pca_union(T, K, v, 1),
        "Array": lambda v: Array([[0, 0]], v),
        "cyclic_action": cyclic_action,
        "constant_rows": lambda v: constant_rows(K, v),
    }
    verdicts = _verdicts(entries, v)
    expected = (AlphabetTooSmall, f"alphabet size v={v} must be at least 2")
    assert verdicts == dict.fromkeys(verdicts, expected)


@pytest.mark.parametrize("k", [2**63, 10**400], ids=["2^63", "10^400"])
def test_k_rule(k):
    entries = {
        "validate": lambda k: validate(PcaParams(T, k, V, 4)),
        **{label: _formula(label, "k", t=T, v=V, m=4, epsilon=0.1)
           for label in ("eq5", "eq6", "eq8", "eq8-t", "concat", "can-upper", "can-lower")},
    }
    verdicts = _verdicts(entries, k)
    assert verdicts == dict.fromkeys(verdicts, (Overflow, f"k={k} exceeds the 64-bit range"))


def test_k_at_the_64_bit_limit_is_accepted():
    k = 2**63 - 1
    assert validate(PcaParams(T, k, V, 4)).k == k
    assert bound_pca_union(T, k, V, 4).source == "eq5"


def test_lll_k_rule():
    entries = {
        "eq6": lambda k: bound_pca_lll(T, k, V, 4),
        "mt-builder": lambda k: build_pca_moser_tardos(PcaParams(T, k, V, 4)),
    }
    verdicts = _verdicts(entries, 3)
    assert verdicts == dict.fromkeys(verdicts, (KTooSmallForLLL, "k=3 below 2t=4"))
