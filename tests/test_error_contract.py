"""Fuzz the public entry points: whatever the input, only a ``PcaForgeError``
(or ``OSError`` for I/O) may escape."""

import math
import numbers

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pcaforge.artifact_io import MAGIC, read_array
from pcaforge.bounds import FORMULAS, evaluate_formula
from pcaforge.core import WIDE_INT_MAX, Array, PcaParams, validate
from pcaforge.coverage import completeness, coverage_profile, is_apca, is_pca, naive_oracle
from pcaforge.errors import DomainError, PcaForgeError, StrengthTooSmall
from pcaforge.galois import (
    GroupAction, constant_rows, cyclic_action, develop, field_make, frobenius_action,
    is_prime_power,
)

small = st.integers(-3, 9)
# sizes past the 64-bit range and past the double range
huge = st.sampled_from([2**63 - 1, 2**63, 10**400])
sizes = st.one_of(small, huge)
epsilons = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([math.nan, math.inf, 0.0, 1.0]))
# and values that are not real numbers at all
fractions = st.one_of(epsilons, st.sampled_from(["0.1", None, 1j]))
FUZZ = settings(max_examples=60, deadline=None)


def loose(ints):
    """``ints``, or numpy integers, floats and strings where an integer belongs."""
    return st.one_of(ints, small.map(np.int64), st.floats(-3, 9), st.sampled_from(["2", "0.5"]))


def _contained(call, *args, **kwargs):
    try:
        call(*args, **kwargs)
    except (PcaForgeError, OSError):
        pass


def _outcome(call, *args):
    """``call(*args)``, or the class of the package error it raises."""
    try:
        return call(*args)
    except PcaForgeError as exc:
        return type(exc)


def _integral(*xs):
    return all(isinstance(x, numbers.Integral) for x in xs)


def _validated(*fields):
    """The bundle :func:`validate` returns, or the class of the error it raises."""
    return _outcome(validate, PcaParams(*fields))


@FUZZ
@given(loose(small), loose(sizes), loose(sizes), loose(small),
       fractions,
       loose(st.integers(-2, 2**64 + 1)))
@example(2, 10**400, 3, 3, 0.0, 0)
@example(2, 2**63, 3, 3, 0.0, 0)
@example(2, 5, 2, 3.5, 0.0, 0)
@example(np.int64(2), 5, 2, 4, 0.0, 0)
@example(2, 5, 2, 4, "0.1", 1.5)
def test_validate(t, k, v, m, epsilon, seed):
    ints = (t, k, v, m, seed)
    got = _validated(t, k, v, m, epsilon, seed)
    if not all(isinstance(x, numbers.Integral) for x in ints):
        assert got is DomainError
    elif not isinstance(epsilon, numbers.Real):
        assert got is DomainError
    else:  # numpy integers behave exactly like the equal Python ints
        assert got == _validated(*map(int, ints[:4]), epsilon, int(seed))
    if isinstance(got, PcaParams):
        # a validated bundle holds Python ints, and is safe for the bounds:
        # k and v^t fit in 64 bits
        assert all(type(getattr(got, name)) is int for name in ("t", "k", "v", "m", "seed"))
        assert got.k <= WIDE_INT_MAX and got.v**got.t <= WIDE_INT_MAX


@FUZZ
@given(st.sampled_from([f.label for f in FORMULAS]), small, sizes, sizes, st.integers(-3, 80),
       fractions)
@example("eq5", 2, 10**400, 3, 3, 0.0)
@example("concat", 2, 10**400, 3, 3, 0.5)
@example("apca", 2, 5, 3, 4, "0.1")  # these two raised a builtin TypeError
@example("cyclic", 2, 5, 3, 9, "x")
def test_evaluate_formula(label, t, k, v, m, epsilon):
    _contained(evaluate_formula, label, t=t, k=k, v=v, m=m, epsilon=epsilon)


COVERAGE_CALLS = {
    "coverage_profile": lambda a, t, m: coverage_profile(a, t).counts.tolist(),
    "naive_oracle": lambda a, t, m: naive_oracle(a, t).counts.tolist(),
    "completeness": lambda a, t, m: completeness(a, 0.5, t),
    "is_pca": lambda a, t, m: is_pca(a, t, m),
    "is_apca": lambda a, t, m: is_apca(a, t, m, 0.1),
    "defective": lambda a, t, m: coverage_profile(a, t).defective(m),
}
READS_M = ("is_pca", "is_apca", "defective")
COVERED = Array(np.random.default_rng(0).integers(0, 3, size=(12, 4)), 3)


def _coverage_outcome(call, t, m):
    """A coverage entry point's result on ``COVERED``, or its error class."""
    return _outcome(call, COVERED, t, m)


@FUZZ
@given(st.sampled_from(sorted(COVERAGE_CALLS)), loose(st.integers(-1, 5)),
       loose(st.integers(-1, 10)))
@example("coverage_profile", np.int64(2), 5)  # died with AttributeError in the kernel
@example("coverage_profile", 2.0, 5)  # these three raised a builtin TypeError
@example("naive_oracle", 2.0, 5)
@example("completeness", 2.0, 5)
@example("is_pca", 2, 2.5)  # these three returned a verdict
@example("is_apca", 2, 2.5)
@example("defective", 2, 2.5)
def test_coverage_entry_points(name, t, m):
    call = COVERAGE_CALLS[name]
    got = _coverage_outcome(call, t, m)
    if not isinstance(t, numbers.Integral):
        assert got is DomainError
    elif name in READS_M and not isinstance(m, numbers.Integral):
        # t is checked first
        assert got is (DomainError if 1 <= t <= COVERED.cols else StrengthTooSmall)
    else:  # numpy integers behave exactly like the equal Python ints
        assert got == _coverage_outcome(call, int(t), int(m) if name in READS_M else m)


FRACTION_CALLS = {
    "completeness": lambda a, x: completeness(a, x, 2),
    "is_apca": lambda a, x: is_apca(a, 2, 3, x),
}


@FUZZ
@given(st.sampled_from(sorted(FRACTION_CALLS)), fractions)
@example("completeness", "x")  # these two raised a builtin TypeError
@example("is_apca", "x")
@example("is_apca", None)
@example("completeness", 1j)
def test_coverage_fractions(name, x):
    try:
        FRACTION_CALLS[name](COVERED, x)
    except PcaForgeError as exc:
        assert not isinstance(x, numbers.Real) or not 0 <= x <= 1
        assert isinstance(x, numbers.Real) or type(exc) is DomainError
    else:
        assert isinstance(x, numbers.Real) and 0 <= x <= 1


# array cells: integers, floats, None, strings and the first values past int64
cell_values = st.one_of(small, st.floats(), st.none(), st.text(max_size=2),
                        st.sampled_from([2**63, -(2**63) - 1, 2**63 - 1, -(2**63)]))


@FUZZ
@given(st.lists(st.lists(cell_values, max_size=4), max_size=4), small)
@example([[0.5, 1.7]], 2)
@example([[1, None]], 2)
@example([["a", "b"]], 2)
@example([[0, 2**63]], 2)
def test_array_holds_its_cells(cells, v):
    try:
        a = Array(cells, v)
    except PcaForgeError:
        return
    # an accepted grid holds exactly the values it was given
    assert len(a.cells) == len(cells)
    assert all(list(row) == got for row, got in zip(cells, a.cells.tolist()))


@FUZZ
@given(loose(st.integers(2, 6)), loose(st.integers(2, 6)), st.booleans(),
       st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3), min_size=1, max_size=3))
@example(3, 2.5, False, [[0, 1, 2]])  # cyclic_action returned a float group
@example(4, 4.0, True, [[0, 1, 2]])  # raised a builtin TypeError
def test_develop_with_any_action(v, action_v, affine, rows):
    action = _outcome(frobenius_action if affine else cyclic_action, action_v)
    if not isinstance(action, GroupAction):
        assert _integral(action_v) or action is DomainError
        return
    assert type(action.v) is int
    try:
        a = Array(rows, v)
    except PcaForgeError:
        return
    _contained(develop, a, action)


@pytest.mark.parametrize("call", [
    lambda: cyclic_action(2.5),
    lambda: field_make(4.0),
    lambda: frobenius_action(4.0),
    lambda: constant_rows(2.5, 2),
    lambda: constant_rows(-1, 2),
], ids=["cyclic_action(2.5)", "field_make(4.0)", "frobenius_action(4.0)",
        "constant_rows(2.5, 2)", "constant_rows(-1, 2)"])
def test_sizes_must_be_integers(call):
    # each returned a float result or raised a builtin TypeError or ValueError
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: cyclic_action(2.0),
    lambda: cyclic_action("3"),
    lambda: field_make(np.float64(4)),
    lambda: constant_rows(2.0, 2),
    lambda: constant_rows(2, 2.0),
], ids=["cyclic_action(2.0)", "cyclic_action('3')", "field_make(np.float64(4))",
        "constant_rows(2.0, 2)", "constant_rows(2, 2.0)"])
def test_integral_floats_and_strings_are_not_sizes(call):
    # 2.0 == 2 and int("3") == 3, yet neither is an integer size
    with pytest.raises(DomainError, match="must be an integer"):
        call()


@FUZZ
@given(st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=48).map(lambda b: f"{MAGIC}\n".encode() + b),
    st.tuples(small, small, small, st.integers(-1, 2), st.binary(max_size=24)).map(
        lambda h: f"{MAGIC}\n{h[0]} {h[1]} {h[2]} {h[3]}\n".encode() + h[4]),
))
def test_read_array_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "a.pca"
    path.write_bytes(data)
    _contained(read_array, path)


@pytest.mark.parametrize("v", [4.0, "4", None])
def test_is_prime_power_rejects_non_integers(v):
    # these raised a builtin TypeError from the factoring loop
    with pytest.raises(DomainError, match="must be an integer"):
        is_prime_power(v)
