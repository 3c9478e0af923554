"""Output checks that share no code with pcaforge.

Arrays are parsed from the bytes on disk and their coverage is recounted with
a vectorized counter written here, so a fault in the library's reader, writer
or counting kernels cannot agree with itself and pass unnoticed.
"""

from __future__ import annotations

import math
from itertools import combinations
from pathlib import Path

import numpy as np

MAGIC = b"pca-forge v1"
# Cells gathered per chunk; keeps the check's memory small next to the program's.
CHUNK_CELLS = 1 << 18


class CheckFailed(Exception):
    """An op's output does not hold what it claims."""


def parse_array(path: Path) -> tuple[np.ndarray, int, dict]:
    """Parse an array file into 0-based cells, v and its claims line."""
    try:
        return _parse(path.read_bytes().split(b"\n"))
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: malformed array file: {exc}") from None


def _parse(lines: list[bytes]) -> tuple[np.ndarray, int, dict]:
    if lines[-1] != b"" or lines[0] != MAGIC:
        raise CheckFailed("bad magic line or missing final newline")
    n, k, v, base = (int(x) for x in lines[1].split())
    claims: dict = {}
    body_start = 2
    if lines[2].startswith(b"claims"):
        for token in lines[2].split()[1:]:
            key, _, value = token.decode().partition("=")
            claims[key] = float(value) if key == "epsilon" else int(value)
        body_start = 3
    body = lines[body_start:-1]
    if len(body) != n:
        raise CheckFailed(f"declared {n} rows, found {len(body)}")
    cells = np.array(b" ".join(body).split(), dtype=np.int64) - base
    if cells.size != n * k:
        raise CheckFailed(f"expected {n * k} symbols, found {cells.size}")
    if cells.size and (cells.min() < 0 or cells.max() >= v):
        raise CheckFailed(f"symbol outside [0, {v})")
    return cells.reshape(n, k), v, claims


def class_counts(
    cells: np.ndarray,
    v: int,
    t: int,
    classes: np.ndarray | None = None,
    n_classes: int | None = None,
    exclude: int | None = None,
) -> np.ndarray:
    """Distinct classes each lex t-set covers.

    With ``classes`` None a class is a t-tuple; otherwise ``classes`` maps
    tuple rank to class id (an orbit), and ``exclude`` drops one class from
    the tally.
    """
    n, k = cells.shape
    if n_classes is None:
        n_classes = v**t
    tsets = np.array(list(combinations(range(k), t)), dtype=np.intp).reshape(-1, t)
    weights = v ** np.arange(t - 1, -1, -1, dtype=np.int64)
    counts = np.empty(len(tsets), dtype=np.int64)
    step = max(1, CHUNK_CELLS // max(n * t, 1))
    for lo in range(0, len(tsets), step):
        block = tsets[lo:lo + step]
        ids = cells[:, block] @ weights  # (n, b) tuple ranks
        if classes is not None:
            ids = classes[ids]
        ids = ids.T + (np.arange(len(block), dtype=np.int64) * n_classes)[:, None]
        present = np.zeros(len(block) * n_classes, dtype=bool)
        present[ids.ravel()] = True
        present = present.reshape(len(block), n_classes)
        got = present.sum(axis=1)
        if exclude is not None:
            got -= present[:, exclude]
        counts[lo:lo + len(block)] = got
    return counts


def check_claims(cells: np.ndarray, v: int, t: int, m: int, epsilon: float) -> None:
    """Raise unless all but floor(epsilon * C(k,t)) t-sets cover m tuples."""
    counts = class_counts(cells, v, t)
    defects = int(np.count_nonzero(counts < m))
    allowed = math.floor(epsilon * math.comb(cells.shape[1], t))
    if defects > allowed:
        raise CheckFailed(f"{defects} t-sets cover < {m} tuples, {allowed} allowed")
