"""A fixed numpy workload that gauges how fast the machine runs right now.

The gsfr studies spend their time in small dense products and small
eigenvalue solves driven from Python loops. On a shared virtual machine
the speed of such code swings by up to ~2x within seconds, in CPU time
as well as in wall time, so it is not time stolen by the hypervisor
alone. The benchmark runs this workload on the same core next
to every timed call and set-up, and multiplies each measured time by
`units * UNIT_S / seconds(units)`: the time is reported in seconds at a
fixed reference speed. The workload imports nothing from gsfr, so a
change to the program leaves it unchanged.
"""

from __future__ import annotations

import time

import numpy as np

# seconds one unit takes at the reference speed: about its time on the
# 2-core VM (Python 3.11, numpy 2.4, single-threaded OpenBLAS) that
# measured baseline.json. Changing it rescales every reported time.
UNIT_S = 0.008


def _unit(a, u, m):
    acc = 0.0
    for i in range(500):
        k1 = a @ u
        k2 = a @ (u + 0.5e-3 * k1)
        u = u + 1e-3 / 6.0 * (k1 + 2.0 * k2)
        if i % 4 == 0:
            acc += float(np.max(np.abs(np.linalg.eigvals(m))))
    return acc


def seconds(units: int) -> float:
    """Wall seconds for `units` units of the workload, after one untimed unit."""
    # fixed inputs built without numpy.random, whose import would add ~5 MiB to peak_rss_mb
    i = np.arange(32.0)
    a = np.cos(np.add.outer(i, 2.0 * i)) / 32
    u = np.sin(i)
    m = np.exp(1j * np.add.outer(i[:4], i[:4] ** 2)) + np.diag(i[:4])
    _unit(a, u, m)
    t0 = time.perf_counter()
    for _ in range(units):
        _unit(a, u, m)
    return time.perf_counter() - t0
