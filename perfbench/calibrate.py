"""A fixed reference workload that gauges how fast the host runs Python right now.

Usage (the benchmark runs it in a fresh process and times it from spawn to
exit, as it times the ``swati`` commands)::

    python3 perfbench/calibrate.py

On a shared host the speed of one core drifts by a fifth or more, in phases
that last from seconds to minutes, so the same ``swati`` command takes 2.8 s
in one minute and 4.2 s in the next. The benchmark runs this program between
its timed commands and scales its times by ``REFERENCE_S`` over this
program's mean time in the run, without the fastest and the slowest: a value
then reads as seconds at the speed the host had when ``REFERENCE_S`` was
measured. A fresh process is timed, not a call
in the benchmark's own process, because a new process's speed tracks that of
the next new process much more closely than a long-lived process's does.

The kernel does what dominates ``swati match`` in small: a per-pair Python
loop that builds a small numpy vector and takes a dot product, and a sort of
index pairs by a key that reads a numpy matrix. It does not import swati, so
no change to swati can move it.
"""

from __future__ import annotations

import random
import sys

import numpy as np

# this program's typical spawn-to-exit time on the machine that measured the
# seed baseline (a shared 2-vCPU Linux VM, Python 3.11.7)
REFERENCE_S = 0.52


def kernel() -> float:
    rng = random.Random(12345)
    keys = [f"k{i:05d}" for i in range(1500)]
    table = {key: rng.random() for key in keys}
    weights = np.array([0.4, 0.3, 0.2, 0.1])
    total = 0.0
    for i in range(60):
        a = table[keys[i]]
        for j in range(0, 1500, 3):
            cue = np.array([a, table[keys[j]], 0.5, float(j & 1)])
            x = float(cue @ weights)
            total += x if x < 0.6 else 1.0 - x
    grid = np.random.default_rng(7).random((300, 300))
    order = sorted(
        ((i, j) for i in range(300) for j in range(300)),
        key=lambda ij: (-grid[ij[0], ij[1]], keys[ij[0]], keys[ij[1]]),
    )
    return total + order[0][0]


if __name__ == "__main__":
    kernel()
    sys.exit(0)
