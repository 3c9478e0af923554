"""Show orbit structures and the development identity on a tiny example.

Developing a base array over a symbol group replaces each covered orbit by
all of its tuples, so the developed array's distinct-tuple count per column
pair equals the summed lengths of the orbits its base covers.  That identity
is what makes a small random base enough for almost-full coverage.
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
