"""The machine's speed, sampled during the workload with a fixed reference kernel.

On a shared 2-vCPU virtual machine, other tenants slowed every process by
1.3-2x, changing within a second and lasting up to minutes; the guest saw
no steal time and CPU time equalled wall time, so no statistic over one
run removes a slowdown that lasts the whole run.  So while a pass runs, a
``Meter`` interrupts it every INTERVAL_S of the process's CPU time
(SIGVTALRM) and times SAMPLE_UNITS units of a fixed pure-Python reference
kernel: sparse products over Q and a fraction-free rank, the kind of work
the package does.  An interval of the pass, less the time spent in samples inside it,
is then scaled by NOMINAL_UNIT_S over the kernel's mean time per unit in
that interval:

    reference seconds = busy seconds * NOMINAL_UNIT_S / mean unit seconds

A slowdown that hits the kernel and the package alike cancels.  A change
to the package does not touch the kernel, which lives here and calls
nothing of the package, and runs with the garbage collector off so that
the size of the package's heap does not leak into it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05  # CPU seconds between samples
SAMPLE_UNITS = 2  # kernel units in one sample, a few milliseconds
BURST_UNITS = 20  # kernel units in a burst outside a pass
NOMINAL_UNIT_S = 1e-3  # the scale: one kernel unit counts as this many seconds


def _poly(seed: int, terms: int) -> dict:
    """A sparse trivariate polynomial over Q from a linear congruential stream."""
    poly: dict = {}
    x = seed
    for _ in range(terms):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x % 5, (x >> 3) % 5, (x >> 6) % 4)
        poly[key] = poly.get(key, 0) + Fraction((x >> 9) % 19 - 9, (x >> 14) % 7 + 1)
    return {k: v for k, v in poly.items() if v}


_A = _poly(1, 24)
_B = _poly(2, 24)


def reference_unit() -> int:
    """One unit of fixed work: a sparse product over Q and a 7x7 Bareiss elimination."""
    product: dict = {}
    for ka, va in _A.items():
        for kb, vb in _B.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            product[key] = product.get(key, 0) + va * vb
    rows = [[(i * 7 + j * 3) % 11 - 5 + (i == j) * 3 for j in range(7)] for i in range(7)]
    prev = 1
    for c in range(7):
        pivot = next((r for r in range(c, 7) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, 7):
            rows[r] = [(rows[c][c] * rows[r][j] - rows[r][c] * rows[c][j]) // prev for j in range(7)]
        prev = rows[c][c]
    return len(product)


def unit_seconds(units: int = BURST_UNITS) -> float:
    """Seconds per kernel unit over ``units`` units."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(units):
            reference_unit()
        return (time.perf_counter() - start) / units
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Samples of the kernel's speed while the ``with`` block runs.

    A sample is taken on entry, every INTERVAL_S of CPU time, and on exit,
    so that every interval has one on each side.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # (start, end, seconds per unit)
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        per_unit = unit_seconds(SAMPLE_UNITS)
        self.samples.append((start, time.perf_counter(), per_unit))

    def __enter__(self) -> "Meter":
        self._sample()
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, self._previous)
        self._sample()

    def busy(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` outside the samples taken in between."""
        return end - start - sum(e - s for s, e, _ in self.samples if s >= start and e <= end)

    def reference(self, start: float, end: float) -> float:
        """Busy seconds from ``start`` to ``end``, in reference seconds.

        The speed is the mean of the samples in between; an interval too
        short to hold one takes the mean of the nearest sample on each side.
        """
        units = [u for s, e, u in self.samples if s >= start and e <= end]
        if not units:
            before = [u for s, e, u in self.samples if e <= start]
            after = [u for s, e, u in self.samples if s >= end]
            units = before[-1:] + after[:1]
        return self.busy(start, end) * NOMINAL_UNIT_S / statistics.fmean(units)
