"""The partner system filled entry by entry, as the numeric route built it before its layouts were planned.

The plan of a bond layout (scattering._plan) must put the same numbers in
the same places; this is the reference it is checked against.  It walks
the bond clusters and writes one band entry at a time, taking the hops
from a dict and each phase from scattering._phase where it is needed.
"""

import math

import numpy as np

import qhscatter.scattering as scattering


def reference_partner_system(bonds, p):
    """(ab, rhs, layout) of the partner system of bonds at angle p (one float, or a 1-D array)."""
    one = isinstance(p, float)
    c2 = 2.0 * (math.cos(p) if one else np.cos(p))
    hop = {b: math.sqrt((1.0 - g) * (1.0 + g)) for b, g in bonds.items()}
    clusters, n = scattering._bond_clusters(bonds)
    angles = () if one else (len(p),)
    ab = np.zeros((7 * n, *angles), dtype=np.complex128, order="F")
    rhs = np.zeros((n, *angles), dtype=np.complex128, order="F")
    layout = []
    col = 1
    for r0, r1 in clusters:
        s, e = r0 - 1, r1 + 1
        if not layout:
            for i, j in ((0, s), (1, s + 1)):
                w = scattering._phase(j, p)
                ab[4 + i] = -w.conjugate()
                ab[6 * (col + i) + i + 4] = 1.0
                rhs[i] = w
        else:
            g1, g2, a = layout[-1][1], s, col
            col += 2
            relations = ((a - 1, g1 - 1, a - 2), (a, g1, a - 1), (a + 1, g2, col), (a + 2, g2 + 1, col + 1))
            for i, j, cj in relations:
                w = scattering._phase(j - g1, p)
                ab[6 * cj + i + 4] = 1.0
                ab[6 * a + i + 4] = -w
                ab[6 * a + i + 10] = -w.conjugate()
        layout.append((s, e, col))
        for i in range(col + 1, col + e - s):
            k = i - col + s
            ab[7 * i - 2] = -hop.get(k - 1, 1.0)
            ab[7 * i + 4] = c2
            ab[7 * i + 10] = -hop.get(k, 1.0)
        col += e - s + 1
    for i, j in ((col - 1, e - 1), (col, e)):
        ab[6 * (i - 1) + i + 4] = 1.0
        ab[6 * col + i + 4] = -scattering._phase(j, p)
    return ab, rhs, layout
