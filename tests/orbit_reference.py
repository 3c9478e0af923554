"""The orbit enumerator the tests hold the package against.

The package knows orbits only through their closed-form counts (see
:mod:`pcaforge.galois`).  This module enumerates them, one group element
applied to one representative at a time, so that the closed forms, the
development identity and the kernel's developed counts have an independent
oracle.  Tuples of ``[v]^t`` are ranked mixed-radix, coordinate 0 most
significant, which is the order of ``itertools.product(range(v), repeat=t)``.
"""

from dataclasses import dataclass

import numpy as np


def rank_weights(t, v):
    """Mixed-radix weights making coordinate 0 most significant."""
    return v ** np.arange(t - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class Orbits:
    """The partition of ``[v]^t`` under a coordinatewise group action.

    ``orbit_index[r]`` is the orbit id of the tuple with rank r,
    ``representatives[o]`` the least rank in orbit o and ``lengths[o]`` its
    size.  For the affine action ``short_orbit_id`` names the orbit of the
    constant tuples, else it is None.
    """

    orbit_index: np.ndarray
    representatives: np.ndarray
    lengths: np.ndarray
    short_orbit_id: int | None

    @property
    def n_orbits(self):
        return len(self.lengths)


def orbits(t, v, action):
    """Every orbit of ``[v]^t`` under ``action``, in increasing representative rank."""
    weights = rank_weights(t, v)
    orbit_index = np.full(v**t, -1, dtype=np.int64)
    representatives, lengths = [], []
    for r in range(v**t):
        if orbit_index[r] < 0:
            # the ranks of every group element applied to the tuple with rank r
            members = np.unique(action.perms[:, (r // weights) % v] @ weights)
            orbit_index[members] = len(lengths)
            representatives.append(r)
            lengths.append(len(members))
    short = int(orbit_index[0]) if action.kind == "frobenius" else None
    return Orbits(orbit_index, np.array(representatives), np.array(lengths), short)
