"""The machine's current speed, from fixed reference computations.

The 2-core shared machine this benchmark was defined on changed speed
by up to 1.8x within minutes, with CPU time tracking wall time, so
longer runs did not average the drift out.  The benchmark therefore times a
reference just before every timed query, and after every set-up, and
reports each wall time divided by the slowdown the reference showed:

    time at nominal speed = wall time / (reference time / nominal time)

Neither reference uses beliefprop code, so a change to the program
cannot move them; a program that gets slower reads slower at nominal
speed.  There are two, because the in-process one did not track the
CLI runs' drift:

- in-process: interpreted Python (dict, tuple and list work) and small
  numpy reductions, as the engine does.  Used where the query runs in
  the benchmark's own process.
- child: a new interpreter that imports numpy and exits.  Used where
  each query is a new process (the ``cli`` workload), whose time went
  with process start-up and imports, not with the in-process reference.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

IN_PROCESS_NOMINAL_MS = 8.0
CHILD_NOMINAL_MS = 180.0
_ARRAY = np.random.default_rng(0).random((27, 27, 81))


def _python_part() -> dict:
    d: dict[tuple[int, int], int] = {}
    for i in range(6000):
        key = (i & 63, i % 7)
        d[key] = d.get(key, 0) + i
        row = [i, i + 1, i + 2]
        row.sort()
    return d


def _numpy_part() -> float:
    s = 0.0
    for _ in range(40):
        s += float((_ARRAY * 1.0001).sum(axis=2).max())
    return s


def in_process_slowdown() -> float:
    """Wall time of the in-process reference ÷ IN_PROCESS_NOMINAL_MS."""
    t0 = perf_counter()
    _python_part()
    _numpy_part()
    return (perf_counter() - t0) * 1e3 / IN_PROCESS_NOMINAL_MS


def child_slowdown() -> float:
    """Wall time of ``python -c "import numpy"`` ÷ CHILD_NOMINAL_MS."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return (perf_counter() - t0) * 1e3 / CHILD_NOMINAL_MS
