"""A fixed reference program that gauges the host's speed.

    python3 benchmark/reference.py

run.py times it between the commands it measures, to rescale their wall
times to one host speed (see `Reference` in run.py), in one of two ways.
As a child process it is interpreter start-up and the imports of numpy and
yaml, like the start of every coldpipe command, and then a little compute.
Imported, `compute` alone is timed: pure-Python arithmetic as in `verify`'s
brute force and numpy operations on small arrays as in `solve`'s DP fill.
The program prints the compute's checksum, which run.py checks.  It imports
nothing from coldpipe and must not change, or old and new figures stop
being comparable.
"""

from __future__ import annotations

import itertools

import numpy as np
import yaml  # noqa: F401  -- imported for its start-up cost, as coldpipe does


def py_kernel() -> float:
    """Max-plus replays of every ordering of 7 devices, as a brute force does."""
    total = 0.0
    for order in itertools.permutations(range(7)):
        ready = 0.0
        for stage, device in enumerate(order):
            ready = max(ready, device * 0.5 + stage) + (stage * device + 1) / 7.0
        total += ready
    return total


def np_kernel() -> float:
    """Min-plus relaxations over 61x61 segment tables, as the DP fill does."""
    n = 61
    grid = np.arange(n, dtype=float)
    load = (grid[None, :] - grid[:, None]) / 3.0
    comp = (grid[None, :] - grid[:, None]) / 5.0
    valid = load > 0
    comm = np.linspace(0.0, 1.0, n)
    prev = np.zeros(n)
    for _ in range(2500):
        cand = (np.maximum(load, prev[:, None]) + comm[:, None]) + comp
        cand = np.where(valid, cand, np.inf)
        idx = np.argmin(cand, axis=0)
        vals = cand[idx, np.arange(n)]
        prev = np.where(vals < np.inf, vals, 0.0) * 0.5
    return float(prev.sum())


def compute() -> tuple[float, float]:
    return py_kernel(), np_kernel()


if __name__ == "__main__":
    print(repr(compute()))
