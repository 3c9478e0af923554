"""Every builder's output checked by the independent oracle against the claim
its report states, on a small grid that includes seeds needing a restart, and
each claim proved by one kernel scan of the rows the builder returns, for
a developed build by the scans of its base's difference vectors, or for a
Moser-Tardos build by one scan of its first draw and the recount of the
t-sets through each resample's columns."""

import math
import re
from itertools import combinations

import numpy as np
import pytest

from pcaforge import construct, coverage
from pcaforge.construct import (
    build_apca_cyclic,
    build_apca_derandomized,
    build_apca_frobenius,
    build_apca_randomized,
    build_concat,
    build_pca_moser_tardos,
)
from pcaforge.core import Array, PcaParams
from pcaforge.coverage import naive_oracle
from pcaforge.errors import IterationCap
from pcaforge.galois import constant_rows, cyclic_action, develop, field_make, frobenius_action

CLAIM = re.compile(r"(a?pca)\(t=(\d+), m=(\d+)(?:, epsilon=([0-9.e-]+))?\)")


def _check_claims(report, t):
    """Recount the report's array with ``naive_oracle`` for each claim in its
    verifier string; return how many claims were checked."""
    counts = naive_oracle(report.array, t).counts
    claims = list(CLAIM.finditer(report.verifier))
    assert " + ".join(claim.group(0) for claim in claims) == report.verifier
    for kind, claim_t, m, epsilon in (claim.groups() for claim in claims):
        assert int(claim_t) == t
        defective = int((counts < int(m)).sum())
        if kind == "pca":
            assert defective == 0
        else:
            assert defective <= math.floor(float(epsilon) * len(counts))
            assert report.detail.get("defective_tsets", defective) == defective
    return len(claims)


def _grid():
    for t in (2, 3):
        for v in (2, 3, 4, 5):
            vt = v**t
            k = 2 * t + 1
            for seed in (0, 1, 2):
                yield "mt", build_pca_moser_tardos, PcaParams(t, k, v, vt // 2, 0.0, seed)
                yield "apca", build_apca_randomized, PcaParams(t, k, v, vt - 1, 0.1, seed)
                yield "cyclic", build_apca_cyclic, PcaParams(t, k, v, vt, 0.1, seed)
                yield "frobenius", build_apca_frobenius, PcaParams(t, k, v, vt, 0.1, seed)
                yield "concat", build_concat, PcaParams(t, k, v, vt // 2, 0.2, seed)
            yield "derand", build_apca_derandomized, PcaParams(t, k, v, vt, 0.3, 0)


GRID = list(_grid())


@pytest.mark.parametrize(
    "build,params", [(b, p) for _, b, p in GRID],
    ids=[f"{name} t={p.t} v={p.v} seed={p.seed}" for name, _, p in GRID],
)
def test_builder_meets_reported_claims(build, params):
    report = build(params)
    assert report.array.cols == params.k and report.array.v == params.v
    n_claims = _check_claims(report, params.t)
    assert n_claims == (2 if build is build_concat else 1)


RESTARTING = pytest.mark.parametrize("build,params", [
    (build_apca_randomized, PcaParams(2, 10, 3, 9, 0.05, 0)),
    (build_apca_cyclic, PcaParams(2, 10, 4, 16, 0.05, 0)),
    (build_apca_frobenius, PcaParams(2, 10, 5, 25, 0.05, 7)),
], ids=["apca", "cyclic", "frobenius"])


@RESTARTING
def test_restarting_seed_meets_reported_claims(build, params):
    report = build(params)
    assert report.iterations == 2
    assert _check_claims(report, params.t) == 1


@RESTARTING
def test_restarting_seed_hits_restart_cap(monkeypatch, build, params):
    monkeypatch.setattr(construct, "RESTART_CAP", 1)
    with pytest.raises(IterationCap, match="hit restart cap 1"):
        build(params)


def _difference_arrays(base, v, t, affine):
    """For each first column c0, the rows x_j - x_c0 (j > c0) of ``base``
    under every multiplier, plus one zero row for the affine group; built
    from the field tables or mod v, not from the group action."""
    if affine:
        field = field_make(v)
        neg = np.argmax(field.add == 0, axis=1)
        minus, multipliers = (lambda x, x0: field.add[x, neg[x0]]), field.mul[1:]
    else:
        minus, multipliers = (lambda x, x0: (x - x0) % v), [np.arange(v)]
    arrays = []
    for c0 in range(base.shape[1] - t + 1):
        diffs = minus(base[:, c0 + 1:], base[:, c0, None])
        zero = np.zeros((int(affine), diffs.shape[1]), dtype=np.int64)
        arrays.append(np.concatenate([scale[diffs] for scale in multipliers] + [zero]))
    return arrays


def _sorted_rows(cells):
    return cells[np.lexsort(cells.T[::-1])]


def _replay_resamples(scanned, drawn, resampled, counted, k):
    """Check a Moser-Tardos build's proof step by step; return its final cells.

    One kernel scan reads the first draw.  Each resample counts the defect on
    its own t columns, then, once ``drawn`` has redrawn them, recounts exactly
    the t-sets through those columns on the redrawn cells, in lex order.
    """
    cells = drawn[0].copy()
    np.testing.assert_array_equal(scanned[0], cells)
    assert len(counted) == 2 * len(resampled)
    for i, tset in enumerate(resampled):
        (own, own_tsets), (recounted, tsets) = counted[2 * i : 2 * i + 2]
        t = len(tset)
        np.testing.assert_array_equal(own, cells[:, tset])
        np.testing.assert_array_equal(own_tsets, [list(range(t))])
        cells[:, tset] = drawn[1 + i]
        np.testing.assert_array_equal(recounted, cells)
        through = [s for s in combinations(range(k), t) if set(s) & set(tset)]
        assert [tuple(s) for s in tsets.tolist()] == through
    return cells


@pytest.mark.parametrize("build,params", [
    (build_pca_moser_tardos, PcaParams(2, 8, 3, 9, 0.0, 0)),
    (build_pca_moser_tardos, PcaParams(2, 8, 2, 4, 0.0, 0)),  # 2 resamples
    (build_apca_randomized, PcaParams(2, 7, 3, 8, 0.1, 0)),
    (build_apca_randomized, PcaParams(2, 10, 3, 9, 0.05, 0)),  # restarts
    (build_apca_cyclic, PcaParams(2, 7, 3, 9, 0.1, 0)),
    (build_apca_cyclic, PcaParams(2, 10, 4, 16, 0.05, 0)),  # restarts
    (build_apca_frobenius, PcaParams(2, 7, 4, 16, 0.1, 0)),
    (build_apca_frobenius, PcaParams(2, 10, 5, 25, 0.05, 7)),  # restarts
    (build_apca_derandomized, PcaParams(2, 10, 3, 9, 0.5, 0)),
    (build_concat, PcaParams(2, 8, 3, 8, 0.1, 2)),  # component 1 resamples twice
], ids=["mt", "mt-resampling", "apca", "apca-restarting", "cyclic", "cyclic-restarting",
        "frobenius", "frobenius-restarting", "derand", "concat"])
def test_each_claim_scanned_once_on_returned_rows(monkeypatch, build, params):
    scanned, drawn, resampled, counted = [], [], [], []
    scan, sample, defects = coverage._scan, construct._sample, construct._defects
    count_tsets = construct._count_tsets

    def recording_scan(cells, *args, **kwargs):
        scanned.append(np.array(cells))  # a copy: resampling redraws cells in place
        return scan(cells, *args, **kwargs)

    def recording_sample(*args):
        cells = sample(*args)
        drawn.append(cells.copy())
        return cells

    def recording_defects(*args):
        for defect in defects(*args):
            resampled.append(defect.tset)
            yield defect

    def recording_count_tsets(cells, v, tsets):
        counted.append((np.array(cells), tsets.copy()))
        return count_tsets(cells, v, tsets)

    monkeypatch.setattr(coverage, "_scan", recording_scan)
    monkeypatch.setattr(construct, "_scan", recording_scan)
    monkeypatch.setattr(construct, "_sample", recording_sample)
    monkeypatch.setattr(construct, "_defects", recording_defects)
    monkeypatch.setattr(construct, "_count_tsets", recording_count_tsets)
    report = build(params)
    cells, k = report.array.cells, params.k
    if build is build_concat:
        resamples = report.detail["component_iterations"][0]
        assert len(resampled) == resamples
        rows = report.detail["component_rows"][0]
        final = _replay_resamples(scanned, drawn[: resamples + 1], resampled, counted, k)
        np.testing.assert_array_equal(final, cells[:rows])
        attempts = report.detail["component_iterations"][1]
        scanned, cells = scanned[1:], cells[rows:]
    elif build in (build_apca_cyclic, build_apca_frobenius):
        attempts = report.iterations
    else:
        if build is build_pca_moser_tardos:
            assert len(scanned) == 1 and len(resampled) == report.iterations
            final = _replay_resamples(scanned, drawn, resampled, counted, k)
            np.testing.assert_array_equal(final, cells)
            return
        if build is build_apca_derandomized:
            assert len(scanned) == 1
        else:
            assert len(scanned) == report.iterations
        np.testing.assert_array_equal(scanned[-1], cells)
        return
    # A developed claim rests on the difference vectors of the accepted base,
    # the last one drawn, and on the identity that test_coverage_kernel.py
    # checks: each attempt scans one difference array per first column, and
    # no scan reads developed rows.
    t, k, v = params.t, params.k, params.v
    affine = build is build_apca_frobenius
    assert len(scanned) == attempts * (k - t + 1)
    assert all(scan.shape[1] < k for scan in scanned)
    base = drawn[-1]
    for got, want in zip(scanned[-(k - t + 1):], _difference_arrays(base, v, t, affine),
                         strict=True):
        np.testing.assert_array_equal(_sorted_rows(got), _sorted_rows(want))
    action = frobenius_action(v) if affine else cyclic_action(v)
    tail = constant_rows(k, v).cells[: v if affine else 0]
    np.testing.assert_array_equal(
        np.vstack([develop(Array(base, v), action).cells, tail]), cells
    )
