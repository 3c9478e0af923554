"""Differential tests for the row-wise derandomizer.

Every output is checked against ``naive_oracle``: it must leave at most
``floor(epsilon * C(k,t))`` t-sets short, within the union-bound row count,
with an exact missing-pair trace that falls by at least a 1/v^t share per row.
On tiny shapes the rows are compared with a reference that scores each cell
by enumerating every completion of its row.
"""

import math
from itertools import combinations, product

import pytest

from pcaforge.artifact_io import read_array
from pcaforge.bounds import bound_apca
from pcaforge.cli import main
from pcaforge.construct import build_apca_derandomized, derandomize_rows
from pcaforge.core import Array, PcaParams
from pcaforge.coverage import ORACLE_CAPACITY, is_apca, naive_oracle
from pcaforge.errors import PcaForgeError


def _grid():
    for t in (2, 3, 4):
        for v in (2, 3, 4):
            for k in sorted({t, t + 1, 8}):
                for epsilon in (0.05, 0.3, 0.5):
                    n = bound_apca(t, v, v**t, epsilon).n_rows
                    if math.comb(k, t) * n * v**t <= ORACLE_CAPACITY:
                        yield pytest.param(t, k, v, epsilon, id=f"t{t}-k{k}-v{v}-e{epsilon}")


def _short(cells, t: int, v: int) -> int:
    """t-sets missing at least one tuple, by the oracle."""
    return sum(int(c) < v**t for c in naive_oracle(Array(cells, v), t).counts)


@pytest.mark.parametrize("t,k,v,epsilon", list(_grid()))
def test_verified_within_bound_with_exact_trace(t, k, v, epsilon):
    params = PcaParams(t=t, k=k, v=v, m=v**t, epsilon=epsilon)
    report = build_apca_derandomized(params)
    cells, vt = report.array.cells, v**t
    allowed = math.floor(epsilon * math.comb(k, t))
    assert _short(cells, t, v) <= allowed
    assert report.n_rows <= report.bound_used.n_rows
    trace = report.detail["missing_trace"]
    assert len(trace) == report.n_rows + 1 and trace[0] == math.comb(k, t) * vt
    # each row covers at least the expectation of a uniform row
    assert all(b * vt <= a * (vt - 1) for a, b in zip(trace, trace[1:]))
    assert trace[-1] == sum(vt - int(c) for c in naive_oracle(report.array, t).counts)
    # the stop is the first row count that meets the allowance
    assert _short(cells[:-1], t, v) > allowed
    assert build_apca_derandomized(params).array == report.array


def _reference_rows(t: int, k: int, v: int, allowed: int) -> list[list[int]]:
    """The derandomizer's rows by brute force: each cell takes the first symbol
    maximizing the newly covered pairs summed over every completion of its row."""
    tsets = list(combinations(range(k), t))
    missing = {(tset, x) for tset in tsets for x in product(range(v), repeat=t)}
    rows = []
    while len({tset for tset, _ in missing}) > allowed:
        row = []
        for j in range(k):
            def gain(s):
                return sum(
                    (tset, tuple(full[c] for c in tset)) in missing
                    for rest in product(range(v), repeat=k - j - 1)
                    for full in [row + [s, *rest]]
                    for tset in tsets
                )
            row.append(max(range(v), key=gain))
        rows.append(row)
        missing -= {(tset, tuple(row[c] for c in tset)) for tset in tsets}
    return rows


@pytest.mark.parametrize("t,k,v,allowed", [
    (2, 3, 2, 0), (2, 4, 3, 0), (2, 4, 3, 2), (2, 5, 2, 0), (2, 5, 2, 4), (3, 4, 2, 0),
    (3, 5, 2, 3),
])
def test_rows_match_brute_force_reference(t, k, v, allowed):
    cells, _ = derandomize_rows(t, k, v, allowed, 10 * v**t)
    assert cells.tolist() == _reference_rows(t, k, v, allowed)


def test_row_cap_reached_unstopped_raises():
    # k = t needs all v^t rows to cover its one t-set
    with pytest.raises(PcaForgeError, match="internal"):
        derandomize_rows(2, 2, 2, 0, 3)


def test_epsilon_one_needs_no_rows():
    report = build_apca_derandomized(PcaParams(t=2, k=5, v=2, m=4, epsilon=1.0))
    assert report.n_rows == 0 and report.detail["missing_trace"] == [40]
    assert is_apca(report.array, 2, 4, 1.0).ok


def test_cli_builds_request_past_old_enumeration_limit(tmp_path, capsys):
    # a union bound of 25 rows over v=3: the 3^25 candidate columns of an
    # exhaustive search
    out = tmp_path / "derand.pca"
    code = main(["generate", "--alg", "derand", "--t", "2", "--k", "10", "--v", "3",
                 "--epsilon", "0.5", "--out", str(out)])
    assert code == 0
    array, header = read_array(out)
    assert array.rows <= 25 and (array.cols, array.v) == (10, 3)
    assert header.claims == {"t": 2, "m": 9, "epsilon": 0.5}
    assert is_apca(array, 2, 9, 0.5).ok
    assert _short(array.cells, 2, 3) <= math.floor(0.5 * 45)
