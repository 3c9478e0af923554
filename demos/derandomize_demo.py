"""Watch the derandomized builder add its rows one at a time.

A table holds the (column pair, tuple) pairs no row covers yet.  Each row is
filled left to right: a cell takes the symbol that maximizes the expected
number of pairs the row newly covers when the cells right of it are uniformly
random, ties going to the smallest symbol.  That expectation is an exact
integer count, and the finished row covers at least what a uniform row would
on average, a 1/v^t share of the missing pairs.  Rows are added until at most
floor(epsilon * C(k,t)) column pairs miss a tuple, which happens within the
union-bound row count; sizes whose table would not fit the scan capacity are
refused before allocating.  The trace below is the exact number of missing
pairs before the first row, then after each row.  No randomness anywhere: two
runs produce byte-identical arrays.
"""

import math

import pcaforge as pf
from pcaforge.core import PcaParams

params = PcaParams(t=2, k=5, v=2, m=4, epsilon=0.5)
first = pf.build_apca_derandomized(params)
second = pf.build_apca_derandomized(params)

print(f"rows: {first.n_rows} (the almost-coverage bound allows {first.bound_used.n_rows})")
allowed = math.floor(params.epsilon * math.comb(params.k, params.t))
print(f"stop once at most {allowed} column pairs miss a tuple")
print("missing (pair, tuple) trace (before any row, then after each):")
for r, value in enumerate(first.detail["missing_trace"]):
    label = "start" if r == 0 else f"row {r - 1} added"
    print(f"  {label:<12} {value}")

print(f"\nruns identical: {first.array == second.array}")
print(f"array:\n{first.array.cells}")

check = pf.is_apca(first.array, 2, 4, 0.5)
print(f"almost-coverage check: defective pairs {len(check.defects)} "
      f"of allowed {check.allowed} -> {'ok' if check.ok else 'VIOLATED'}")
