"""A fixed piece of Python that gauges how fast the host runs right now.

It builds and walks a graph of small dicts and lists and collects it, the
kind of heap work that dominates framedprod, and it never changes, so its
time moves only with the host.
"""

from __future__ import annotations

import gc
import random
import time

NODES = 20000
# timed metrics are scaled to the host speed at which the probe takes this
# long; on the shared 2-vCPU Xeon guest (CPython 3.11) the bounds were set
# on it took 0.2 to 0.28 s
NOMINAL_S = 0.25


def probe():
    """Seconds one fixed round of heap work takes."""
    gc.collect()
    t0 = time.perf_counter()
    rng = random.Random(1)
    nodes = [{"id": i, "nbr": [], "pos": (i, 2 * i)} for i in range(NODES)]
    for _ in range(3 * NODES):
        a = nodes[rng.randrange(NODES)]
        b = nodes[rng.randrange(NODES)]
        a["nbr"].append(b)
        b["nbr"].append(a)
    total = 0
    for node in nodes:
        for other in node["nbr"]:
            total += other["id"]
    del nodes
    gc.collect()
    return time.perf_counter() - t0
