"""Machine-speed calibration for the wall-clock metrics.

The sizing machine (a 2-vCPU VM) runs identical Python work anywhere
between 1.4 s and 2.4 s depending on the minute: its speed shifts by
±15 % for tens of seconds at a time, which no amount of repetition inside
one 20 s run averages out.  So every wall-clock measurement is
interleaved with :func:`spin` — a fixed mix of the operations the lock
service itself is made of (heap, dict, tuple, call) — and reported in
seconds of a machine on which one spin takes :data:`REFERENCE_S`:

    normalised = measured * REFERENCE_S / (mean spin time during the measurement)

On identical work this cut the quartile spread from 12 % to 3 % per
two-second unit.  Both sides of a before/after comparison are normalised
by the same loop, which lives here and not under ``src/``.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Sequence

#: Seconds one :func:`spin` takes on the reference machine (a typical spin
#: on the sizing machine; only its constancy matters).
REFERENCE_S = 0.0004

#: Wall seconds of simulation between two spins.
SLICE_WALL_S = 0.02


def spin() -> float:
    """One calibration pass; returns the wall seconds it took."""

    started = time.perf_counter()
    heap: list = []
    table: dict = {}
    total = 0
    for i in range(700):
        heapq.heappush(heap, ((i * 7919) % 1013, i))
        table[i & 63] = (i, total)
        total += len(table) + table.get((i * 31) & 63, (0, 0))[0]
        if i & 1:
            heapq.heappop(heap)
    return time.perf_counter() - started


def speed_factor(spins: Sequence[float]) -> float:
    """What to multiply a wall time by to express it in reference seconds.

    The mean spin, with each spin clipped at 1.5 times the median: one
    spin that was descheduled for 10 ms is a third of all the time spent
    spinning in a unit but a hundredth of the unit, so unclipped it would
    pass for a slow machine.  (Over 30 identical units: quartile spread
    12 % raw, 5.2 % plain mean, 5.7 % median, 3.3 % clipped mean.)
    """

    ceiling = 1.5 * statistics.median(spins)
    return REFERENCE_S * len(spins) / sum(min(s, ceiling) for s in spins)
