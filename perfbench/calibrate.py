"""Machine-speed calibration for the benchmark's absolute timings.

On a shared machine the CPU's speed drifts by tens of percent from one
minute to the next, so the same request takes different times in two
runs of the same code.  :class:`Calibration` times a fixed kernel, one
that shares no code with the program under test, between the measured
blocks.  Absolute timings are then reported at a *reference speed*:
``measured × REFERENCE_US / kernel median``.  A change to the program
moves them; a change in machine speed, which moves the kernel equally,
does not.  Ratios of two sides measured together (``hum_over_orig``)
need no calibration.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: the kernel's median time on the reference machine: a 2-vCPU x86_64
#: VM running CPython 3.11.7, measured at a quiet time.
REFERENCE_US = 95.0
#: kernel runs per calibration sample point.
REPEATS = 8


class _Row:
    __slots__ = ("key", "name", "size")

    def __init__(self, key: int, name: str, size: int) -> None:
        self.key = key
        self.name = name
        self.size = size

    def label(self) -> str:
        return f"{self.name}#{self.key}:{self.size}"


def kernel() -> int:
    """Interpreter-bound work shaped like a request: objects, method
    calls, dict lookups, string formatting and a sort."""
    rows = [_Row(i, f"user{i}", i * 37 % 1000) for i in range(120)]
    index = {row.name: row for row in rows}
    total = 0
    for i in range(0, 120, 3):
        row = index[f"user{i}"]
        total += len(row.label()) + (row.size if row.key % 2 else 0)
    ordered = sorted(rows, key=lambda r: (r.size, r.name))
    return total + len(repr([r.label() for r in ordered[:20]]))


class Calibration:
    """Kernel timings collected over one run."""

    def __init__(self) -> None:
        self.samples: List[int] = []

    def sample(self) -> float:
        """Time the kernel ``REPEATS`` times; returns the scale factor
        those runs alone give, for work measured just before."""
        clock = time.perf_counter_ns
        runs = []
        for _ in range(REPEATS):
            t0 = clock()
            kernel()
            runs.append(clock() - t0)
        self.samples += runs
        return REFERENCE_US * 1e3 / statistics.median(runs)

    @property
    def kernel_us(self) -> float:
        return statistics.median(self.samples) / 1e3

    @property
    def scale(self) -> float:
        """Multiply a measured time by this to get it at reference speed."""
        return REFERENCE_US / self.kernel_us
