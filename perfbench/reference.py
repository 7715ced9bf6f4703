"""Fixed reference kernels that measure the speed of the machine, not the program.

On a shared host the speed of one core drifts, by a third and more, over
seconds to minutes.  The timed loop runs a kernel between tasks and reports
each task's time at the reference speed, the speed at which one kernel run
takes ``REF_MS``: wall time * REF_MS / (kernel time measured around the
task).  The kernels call nothing in ``epislope``, so a change to the program
cannot move them; a program that gets faster shows as faster at the
reference speed.

Different code does not drift alike: in one fast phase of the host
interpreted loops ran 40% faster and memory-bound numpy 20%.  So there are
three kernels, and each workload names the one whose work is like its own:

- ``loops``: interpreted loops over numpy scalars and dicts (the 1-D
  envelope loop, node lookup) and mid-size numpy on 10k-element arrays;
- ``dense``: one max-norm distance matrix of 1 000 planar points, whose
  16 MB temporaries go through memory as ``geometry.pairwise`` does;
- ``fractions``: squared rational norms of sparse points shaped like the
  exceptions of ``nogoodlsc``, tested against rational radii, as the exact
  path does.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import List

import numpy as np

REF_MS = 50.0  # kernel time, in ms, that defines the reference speed
NEAREST = 2  # kernel runs on each side of a task whose median gives its speed

_rng = np.random.default_rng(20181227)
_LINE = _rng.uniform(-1.0, 1.0, 10001)
_CLOUD = _rng.uniform(-1.0, 1.0, (400, 2))
_DENSE = _rng.uniform(-1.0, 1.0, (1000, 2))
# (index, value) pairs of e_i/n + e_1/(i n), as in nogoodlsc, for n = 1..3
_SPARSE = [((0, Fraction(1, i * n)), (i - 1, Fraction(1, n)))
           for n in range(1, 4) for i in range(2, 120)]
_REACHES = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 9), Fraction(1, 64))


def _loops() -> float:
    fwd = _LINE.copy()
    for i in range(1, len(fwd)):  # numpy-scalar loop, as in a 1-D envelope
        cand = fwd[i - 1] + 0.01
        if cand < fwd[i]:
            fwd[i] = cand
    table = {}
    for i in range(15000):  # rounded-key dict, as in a node lookup
        key = round(float(_LINE[i % len(_LINE)]) * 1e3, 6)
        table[key] = table.get(key, 0) + 1
    acc = float(fwd.sum()) + len(table)
    for block in np.split(_CLOUD, 4):  # in blocks, so the kernel adds little to peak RSS
        d = np.abs(block[:, None, :] - _CLOUD[None, :, :]).max(axis=2)
        acc += float(d.min(axis=1).sum())
    for _ in range(25):
        acc += float(np.minimum.accumulate(np.sort(_LINE * 1.5)).sum())
    return acc


def _dense() -> float:
    d = np.abs(_DENSE[:, None, :] - _DENSE[None, :, :]).max(axis=2)
    return float(d.min(axis=1).sum())


def _fractions() -> int:
    inside = 0
    for reach in _REACHES:
        for point in _SPARSE:
            diff = {}  # point minus the origin, entry by entry
            for i, v in point:
                diff[i] = v - diff.get(i, Fraction(0))
            nsq = sum((v * v for v in diff.values()), Fraction(0))
            inside += nsq <= reach * reach
    return inside


KERNELS = {"loops": _loops, "dense": _dense, "fractions": _fractions}


def kernel_ms(kind: str) -> float:
    """Wall time of one run of kernel `kind`, in ms."""
    kernel = KERNELS[kind]
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1000.0


class KernelLog:
    """The kernel runs of one timed loop."""

    def __init__(self, kind: str):
        self.kind = kind
        self.at: List[int] = []  # run j ran just before task at[j]
        self.ms: List[float] = []

    def run(self, next_task: int) -> float:
        """Run the kernel before task `next_task` (or after the last task) and
        return its time in ms."""
        ms = kernel_ms(self.kind)
        self.at.append(next_task)
        self.ms.append(ms)
        return ms

    def speeds(self, tasks: int) -> List[float]:
        """Kernel time around each task 0 .. tasks-1: the median of the NEAREST
        runs before it and the NEAREST after it."""
        out = []
        j = 0
        for i in range(tasks):
            while j < len(self.at) and self.at[j] <= i:
                j += 1  # runs [0, j) ran before task i
            out.append(statistics.median(self.ms[max(0, j - NEAREST):j + NEAREST]))
        return out
