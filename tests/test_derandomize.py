"""Differential tests for the row-wise derandomizer.

Every output is checked against ``naive_oracle``: it must leave at most
``floor(epsilon * C(k,t))`` t-sets short, within the union-bound row count,
with an exact missing-pair trace that falls by at least a 1/v^t share per row.
On tiny shapes the rows are compared with a reference that scores each cell
by enumerating every completion of its row; a few wider shapes are pinned by
sha256.
"""

import hashlib
import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from pcaforge.artifact_io import read_array
from pcaforge.bounds import bound_apca
from pcaforge.cli import main
from pcaforge.construct import build_apca_derandomized, derandomize_rows
from pcaforge.core import Array, PcaParams
from pcaforge.coverage import ORACLE_CAPACITY, _allowed, is_apca, naive_oracle
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


def _derandomize(t: int, k: int, v: int, epsilon: float):
    n_rows = bound_apca(t, v, v**t, epsilon).n_rows
    return derandomize_rows(t, k, v, _allowed(epsilon, k, t), n_rows)


# sha256 of the int64 cells and of repr(trace), recorded before the rows were
# scored from per-prefix counts
WIDE = [
    ((2, 60, 5, 0.05), 72,
     "90d43c99b75551a22c6e67ea2a2df01f3afb11f958e978371667e95e8cba4395",
     "2c1515d5602f5382b7b8de954e5da3d65ada9896f2f160c2f8d588744e4a40fa"),
    ((3, 20, 4, 0.05), 209,
     "c0272dc75b20b906979e803fa3ff2f8d643602d461f0fdf4c647e0452940714e",
     "a310fd9db93e5e19953bada8639bb151670967f66ff7db86a0f1c9a656d7e7e9"),
    ((4, 10, 3, 0.1), 223,
     "c8e62c7c4b3ddaab58eb7567257e045ecdb07ac09d2d1fcf85db1070376aa10b",
     "3f7f97df02e5c265f8e50fbb0d22b74f7f134259f22cc1e8fa760ba11a1d5c11"),
    ((2, 200, 2, 0.01), 14,
     "9c0e7b90f527f7e5f293e36940e4d81fdde1b82ed1ab5ae2b6ce29f0ce8b60e5",
     "e391d3146a8f555f05dfa4999c9c3589bc5d5dad6b4414dc0dce67a9b8f47299"),
]


@pytest.mark.parametrize("shape,rows,sha,trace_sha", WIDE,
                         ids=["t{}-k{}-v{}-e{}".format(*w[0]) for w in WIDE])
def test_wide_rows_unchanged(shape, rows, sha, trace_sha):
    cells, trace = _derandomize(*shape)
    assert len(cells) == rows
    assert hashlib.sha256(cells.astype(np.int64).tobytes()).hexdigest() == sha
    assert hashlib.sha256(repr(trace).encode()).hexdigest() == trace_sha


def test_peak_memory_below_16_bytes_per_pair():
    # C(12,3) * 4^3 = 14,080 (t-set, tuple) pairs: a per-row int64 prefix sum
    # over them and its concatenated copy would take 16 bytes per pair alone
    tracemalloc.start()
    try:
        cells, _ = _derandomize(3, 12, 4, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cells) > 0
    assert peak < 16 * math.comb(12, 3) * 4**3


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
