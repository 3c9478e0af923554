"""Watch the derandomized builder fix its cells one at a time.

The score is the exact expected number of missing (column pair, tuple) pairs
when the cells not yet fixed are uniformly random.  Cells are fixed column by
column, top row first; each takes the symbol that minimizes the score, ties
going to the smallest symbol.  The old score is the average over the choices,
so it can never rise, and once all cells are fixed it is the literal count of
missing pairs, so the final array is guaranteed to satisfy the almost-coverage
target.  Counts kept per column pair make each choice cost O(k v), so a build
costs O(N k^2 v) here instead of scoring all v^N candidate columns; sizes
whose counts would not fit the scan capacity are refused before allocating.
The trace below is the score before any column, then after each column.  No
randomness anywhere: two runs produce byte-identical arrays.
"""

import pcaforge as pf
from pcaforge.core import PcaParams

params = PcaParams(t=2, k=5, v=2, m=4, epsilon=0.5)
first = pf.build_apca_derandomized(params)
second = pf.build_apca_derandomized(params)

print(f"rows sized by the almost-coverage bound: {first.bound_used.n_rows}")
print(f"estimator trace (before any column, then after each):")
for j, value in enumerate(first.detail["estimator_trace"]):
    label = "start" if j == 0 else f"col {j - 1} fixed"
    print(f"  {label:<12} {value:.6f}")

print(f"\nruns identical: {first.array == second.array}")
print(f"array:\n{first.array.cells}")

check = pf.is_apca(first.array, 2, 4, 0.5)
print(f"almost-coverage check: defective pairs {len(check.defects)} "
      f"of allowed {check.allowed} -> {'ok' if check.ok else 'VIOLATED'}")
