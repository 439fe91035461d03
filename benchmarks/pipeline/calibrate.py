"""The measuring stick: a fixed piece of work timed next to every
measured step, so host-speed drift can be divided out.

On a shared box the same ``ert-repro`` invocation takes anywhere from
1x to 2x as long from one minute to the next (and its CPU time grows
with it, so it is the core that slows, not the scheduler).  ``run.py``
keeps one of these processes alive, asks it for a reading before and
after each timed step, and scales the step's time by
``workloads.NOMINAL_CAL_S / reading``.  The work mixes what the program
does: table gathers, small-array numpy sweeps and interpreter-bound
bookkeeping.

**Never change the work below**: every recorded number is in units of
it.  It prints the numpy version, then answers each line on stdin with
one elapsed time on stdout.
"""

from __future__ import annotations

import sys
import time

import numpy as np


def _tables() -> "tuple[np.ndarray, np.ndarray]":
    rng = np.random.default_rng(0)
    table = rng.integers(0, 1 << 20, size=(1 << 19, 4), dtype=np.int64)
    return table, rng.integers(0, 1 << 19, size=4096)


def reading(table: np.ndarray, idx: np.ndarray) -> float:
    lanes = np.zeros((8, 128), dtype=np.int32)
    ones = np.ones((8, 128), dtype=np.int32)
    total = 0
    seen = {}
    start = time.perf_counter()
    for step in range(3600):
        idx = table[idx & ((1 << 19) - 1), step & 3]
        for _ in range(6):
            lanes = np.maximum(lanes + ones, ones)
            lanes[:, 1:] = np.maximum(lanes[:, 1:], lanes[:, :-1] - 1)
        for j in range(120):
            total += j * j % 7
            seen[j] = total
    return time.perf_counter() - start


def main() -> int:
    table, idx = _tables()
    print(np.__version__, flush=True)
    for _request in sys.stdin:
        print(repr(reading(table, idx)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
