"""Show the difference identity that developed builds are accepted on.

Developing a base array over a symbol group writes every image of each base
row.  The developed row x + b covers the pair tuple (y_i, y_j) exactly when
y_j - y_i = x_j - x_i, and under the affine maps x -> a*x + b exactly when
y_j - y_i = a*(x_j - x_i) for some a != 0, the constant rows covering
y_j - y_i = 0.  Each difference is shared by v tuples, so the developed count
is v times the number of differences the base gives, and a pair is complete
exactly when they are all v.  The developed builders therefore count a base's
differences and develop only the base they accept.
"""

from itertools import combinations

import numpy as np

import pcaforge as pf

V, T, K = 3, 2, 4

rng = np.random.default_rng(5)
base = pf.Array(rng.integers(0, V, size=(2, K)), V)
print(f"base ({base.rows} rows):\n{base.cells}")

field = pf.field_make(V)
neg = np.argmax(field.add == 0, axis=1)  # x + neg[x] = 0 in the field
cases = (
    ("cyclic", pf.develop(base, pf.cyclic_action(V)), lambda x0, x1: {(x1 - x0) % V}),
    # every multiple a*(x1 - x0), and 0 from the v constant rows that follow
    ("affine", pf.develop(base, pf.frobenius_action(V), pf.constant_rows(K, V)),
     lambda x0, x1: {field.mul[a, field.add[x1, neg[x0]]] for a in range(V)}),
)
for name, developed, differences in cases:
    counts = pf.coverage_profile(developed, T).counts
    print(f"\n{name}: {developed.rows} developed rows")
    print(f"{'pair':>8} {'differences':>12} {'developed count':>16}")
    for i, (c0, c1) in enumerate(combinations(range(K), T)):
        diffs = sorted({int(d) for x in base.cells for d in differences(x[c0], x[c1])})
        assert counts[i] == V * len(diffs)
        print(f"{str((c0, c1)):>8} {str(diffs):>12} {counts[i]:>16}")
print("\nidentity holds: developed count = v * number of base differences")
