"""Write the verify-file workload's input and print the verdict it must get.

``run.py`` starts this as a child process before timing starts, so that the
input's cells and the recount behind the verdict never count towards the
benchmark process's peak memory::

    python3 perfbench/verify_input.py --seed 7 --out perfbench/out/in.pca [--tiny]

The array is written with the program's own writer.  The verdict is counted
by ``checks.class_counts``, which shares no code with pcaforge, and printed as
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

import checks

SRC = Path(__file__).resolve().parent.parent / "src"
T, V, M, EPSILON, Q = 2, 3, 9, 0.01, 1.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import pcaforge
    from pcaforge import artifact_io

    n, k, pairs = (300, 12, 2) if args.tiny else (20000, 100, 5)
    gen = np.random.default_rng(args.seed)
    cells = gen.integers(0, V, size=(n, k), dtype=np.uint8)
    # Copying a column onto another leaves that pair covering only the
    # v diagonal tuples, so the verdict has defects to report.
    cols = gen.permutation(k)[: 2 * pairs].reshape(pairs, 2)
    cells[:, cols[:, 1]] = cells[:, cols[:, 0]]
    artifact_io.write_array(pcaforge.Array(cells, V), args.out)

    counts = checks.class_counts(cells, V, T)
    print(json.dumps({
        "rows": n, "cols": k, "v": V, "t": T, "m": M, "epsilon": EPSILON, "q": Q,
        "min_count": int(counts.min()),
        "defects": int(np.count_nonzero(counts < M)),
        "allowed": math.floor(EPSILON * math.comb(k, T)),
        "completeness": np.count_nonzero(counts >= V**T) / len(counts),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
