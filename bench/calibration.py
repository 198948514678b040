"""Scaling of timings to a reference machine speed.

On a shared virtual machine the speed of a vCPU drifts as other tenants
load the host: on a 2-vCPU virtual machine (Python 3.11.7), a fixed
pure-Python loop ran up to 1.8x slower for stretches of 5 to 60 seconds,
and the medians of 22-second windows of ``qhscatter verify`` passes spread
(IQR / median) by 14 to 44 %.  Every timed interval is therefore bracketed
by a short fixed kernel that does not touch qhscatter, and reported as

    seconds x REFERENCE_S / (mean kernel time before and after)

which reads as seconds at the machine's typical speed.  Of the kernels
tried there, small-array numpy calls from a Python loop tracked the
package best: with it the median ``wall_s`` of ten ``verify`` runs spread
by 4 to 7 % where raw seconds spread by 13 %.  The raw seconds are kept in the
run metadata.  Because the kernel never calls the package, a change to the
package moves scaled and raw times by the same factor.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median time of one kernel() call on that machine (numpy 2.4.6)
REFERENCE_S = 0.009


def kernel() -> float:
    """Small-array numpy calls from a Python loop, like the package's per-point work."""
    a = np.zeros(64, dtype=np.complex128)
    acc = 0.0
    for k in range(1500):
        b = a * 0.5 + 1.0
        a[k % 64] = complex(k, 1)
        acc += float(np.abs(b).max())
    return acc


def speed_sample() -> float:
    """Median of three kernel timings, in seconds."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two speed samples, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2.0)
