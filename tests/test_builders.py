"""Every builder's output checked by the independent oracle against the claim
its report states, on a small grid that includes seeds needing a restart."""

import math
import re

import pytest

from pcaforge import construct
from pcaforge.construct import (
    build_apca_cyclic,
    build_apca_derandomized,
    build_apca_frobenius,
    build_apca_randomized,
    build_concat,
    build_pca_moser_tardos,
)
from pcaforge.core import PcaParams
from pcaforge.coverage import naive_oracle
from pcaforge.errors import IterationCap

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
