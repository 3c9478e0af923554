"""Show orbit structures and the development identity on a tiny example.

Developing a base array over a symbol group replaces each covered orbit by
all of its tuples, so the developed array's distinct-tuple count per column
pair equals the summed lengths of the orbits its base covers.  That identity
is what makes a small random base enough for almost-full coverage.

The developed builders accept a base on its difference vectors instead.  The
developed row x + b covers the pair tuple (y_i, y_j) exactly when
y_j - y_i = x_j - x_i, and under the affine maps x -> a*x + b exactly when
y_j - y_i = a*(x_j - x_i) for some a != 0, the constant rows covering
y_j - y_i = 0.  Each difference is shared by v tuples, so the developed count
is v times the number of differences the base gives, and a pair is complete
exactly when they are all v.
"""

from itertools import combinations

import numpy as np

import pcaforge as pf
from pcaforge.core import rank_weights

V, T, K = 3, 2, 4

for name, action in (("cyclic", pf.cyclic_action(V)), ("affine", pf.frobenius_action(V))):
    st = pf.orbits(T, V, action)
    print(f"{name} action on v={V}: |G|={action.order}, {st.n_orbits} orbits, "
          f"lengths {sorted(st.lengths.tolist())}")
    for o in range(st.n_orbits):
        members = [pf.tuple_unrank(r, T, V) for r in np.nonzero(st.orbit_index == o)[0]]
        tag = " (short)" if o == st.short_orbit_id else ""
        print(f"  orbit {o}{tag}: {members}")

rng = np.random.default_rng(5)
base = pf.Array(rng.integers(0, V, size=(2, K)), V)
action = pf.cyclic_action(V)
st = pf.orbits(T, V, action)
developed = pf.develop(base, action)
print(f"\nbase ({base.rows} rows):\n{base.cells}")
print(f"developed ({developed.rows} rows):\n{developed.cells}")

counts = pf.coverage_profile(developed, T).counts
weights = rank_weights(T, V)
print(f"\n{'pair':>8} {'orbits covered':>15} {'developed count':>16}")
for i, pair in enumerate(combinations(range(K), T)):
    oids = {int(st.orbit_index[r]) for r in base.cells[:, pair] @ weights}
    length_sum = sum(int(st.lengths[o]) for o in oids)
    assert counts[i] == length_sum
    print(f"{str(pair):>8} {len(oids):>15} {counts[i]:>16}")
print("\nidentity holds: developed count = sum of covered orbit lengths")

# The same base over the affine group, with the v constant rows appended.
field = pf.field_make(V)
neg = np.argmax(field.add == 0, axis=1)  # x + neg[x] = 0 in the field
developed_affine = pf.develop(base, pf.frobenius_action(V)).stack(pf.constant_rows(K, V))
cases = (
    ("cyclic", developed, lambda x0, x1: {(x1 - x0) % V}),
    # every multiple a*(x1 - x0), and 0 from the constant rows
    ("affine", developed_affine,
     lambda x0, x1: {field.mul[a, field.add[x1, neg[x0]]] for a in range(V)}),
)
for name, dev, differences in cases:
    counts = pf.coverage_profile(dev, T).counts
    print(f"\n{name}: {dev.rows} developed rows")
    print(f"{'pair':>8} {'differences':>12} {'developed count':>16}")
    for i, (c0, c1) in enumerate(combinations(range(K), T)):
        diffs = sorted({int(d) for x in base.cells for d in differences(x[c0], x[c1])})
        assert counts[i] == V * len(diffs)
        print(f"{str((c0, c1)):>8} {str(diffs):>12} {counts[i]:>16}")
print("\nidentity holds: developed count = v * number of base differences")
