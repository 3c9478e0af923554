"""Differential tests for the cell-by-cell derandomizer.

Every trace entry is checked against the estimator's reference definition,
``_pessimistic_estimator``, and the final array against ``naive_oracle``.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from pcaforge.artifact_io import read_array
from pcaforge.bounds import bound_apca
from pcaforge.cli import main
from pcaforge.construct import build_apca_derandomized
from pcaforge.core import PcaParams
from pcaforge.coverage import ORACLE_CAPACITY, is_apca, naive_oracle


def _pessimistic_estimator(cells: np.ndarray, n_fixed: int, t: int, v: int) -> float:
    """Expected missing (t-set, tuple) pairs when columns >= n_fixed are random.

    For a t-set with f fixed columns, the probability that tuple x is missing
    is ``(1 - v^(f-t))^c`` where c counts rows whose fixed projection matches
    x; summing over x gives ``v^(t-f) * sum_q beta^(count_q)``.  With all
    columns fixed this is exactly the number of missing pairs.

    The reference definition of the derandomizer's estimator, recomputed from
    scratch per t-set; the tests compare the trace of
    :func:`~pcaforge.construct.derandomize_columns` with it.
    """
    n, k = cells.shape
    total = 0.0
    for tset in combinations(range(k), t):
        fixed = [c for c in tset if c < n_fixed]
        f = len(fixed)
        if f == 0:
            total += v**t * (1.0 - v**-t) ** n
            continue
        beta = 1.0 - float(v) ** (f - t)
        ranks = np.zeros(n, dtype=np.int64)
        for c in fixed:
            ranks = ranks * v + cells[:, c]
        cnt = np.bincount(ranks, minlength=v**f)
        if beta == 0.0:
            # fully fixed t-set: count tuples with no matching row
            total += float(np.count_nonzero(cnt == 0))
        else:
            total += float(v) ** (t - f) * float((beta**cnt).sum())
    return total


def _grid():
    for t in (2, 3, 4):
        for v in (2, 3, 4):
            for k in sorted({t, t + 1, 8}):
                for epsilon in (0.05, 0.3, 0.5):
                    n = bound_apca(t, v, v**t, epsilon).n_rows
                    if math.comb(k, t) * n * v**t <= ORACLE_CAPACITY:
                        yield pytest.param(t, k, v, epsilon, id=f"t{t}-k{k}-v{v}-e{epsilon}")


@pytest.mark.parametrize("t,k,v,epsilon", list(_grid()))
def test_matches_reference_estimator_and_oracle(t, k, v, epsilon):
    params = PcaParams(t=t, k=k, v=v, m=v**t, epsilon=epsilon)
    report = build_apca_derandomized(params)
    cells = report.array.cells
    trace = report.detail["estimator_trace"]
    assert len(trace) == k + 1
    for j, value in enumerate(trace):
        assert value == pytest.approx(_pessimistic_estimator(cells, j, t, v), rel=1e-9, abs=1e-9)
    assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))
    missing = sum(v**t - int(c) for c in naive_oracle(report.array, t).counts)
    assert trace[-1] == pytest.approx(missing, abs=1e-9)
    assert is_apca(report.array, t, v**t, epsilon).ok
    assert build_apca_derandomized(params).array == report.array


def test_cli_builds_request_past_old_enumeration_limit(tmp_path, capsys):
    # 25 rows over v=3: the 3^25 candidate columns of an exhaustive search
    out = tmp_path / "derand.pca"
    code = main(["generate", "--alg", "derand", "--t", "2", "--k", "10", "--v", "3",
                 "--epsilon", "0.5", "--out", str(out)])
    assert code == 0
    array, header = read_array(out)
    assert (array.rows, array.cols, array.v) == (25, 10, 3)
    assert header.claims == {"t": 2, "m": 9, "epsilon": 0.5}
    assert is_apca(array, 2, 9, 0.5).ok
    assert naive_oracle(array, 2).min_count == 9
