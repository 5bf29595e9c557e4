"""Host-speed reference, drift correction, and percentile helpers.

Raw host time on a small shared machine drifts by tens of percent within
one process and across processes, while the simulated-cycle metrics
repeat exactly.  The drift is a slower host, not descheduling (CPU time
tracks wall time), so a fixed piece of Python work slows by about the
same factor as the program under test.  :class:`HostClock` times such a
fixed reference kernel between measured spans and rescales every span by
the rolling median of the reference times around it:

    corrected = raw * REF_NOMINAL_NS / local_reference

A corrected time therefore reads "how long this span takes on a host on
which the reference kernel takes exactly ``REF_NOMINAL_NS``".
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import threading
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Nominal reference duration: corrected spans are expressed on a host
#: where one reference run takes exactly this long.
REF_NOMINAL_NS = 1_000_000.0

#: Measured time between reference samples.  The host's speed swings by
#: over half within a few hundred milliseconds, so the reference must be
#: short and frequent (about 5% overhead).
REF_INTERVAL_NS = 20_000_000

#: Reference samples on each side of a span that its correction uses.
REF_HALF_WINDOW = 3

#: Sizes of the reference kernel's parts (about 1 ms in all on a 2-vCPU
#: x86 host).
_REF_ITEMS = 400
_REF_TRIPS = 1_500

_REF_ARRAY = np.random.default_rng(0).random(8192)


@dataclass(frozen=True)
class _Item:
    key: int
    weight: float
    tag: str


def reference_kernel() -> int:
    """Fixed work shaped like the program's: objects, dicts, numpy.

    Building frozen dataclasses, reading their attributes and sorting
    them by a key function tracks the serve layer's host time across
    processes far better than int/dict work alone: over six same-seed
    processes the corrected median kmeans request varied by 1.0% against
    2.6% (coefficient of variation).  The dict loop and the small sort
    cover the rest of the program's mix.
    """
    items = [_Item(i, i * 0.5, "t%d" % (i & 63)) for i in range(_REF_ITEMS)]
    items.sort(key=lambda item: (item.tag, -item.weight))
    acc = sum(item.key for item in items if item.tag.endswith("1"))
    table = {}
    for i in range(_REF_TRIPS):
        k = (i * 40503) & 1023
        table[k] = table.get(k, 0) + i
        acc ^= table[k]
    ordered = np.sort(_REF_ARRAY)
    return acc + int(ordered[0] * 1e6)


class HostClock:
    """Reference samples taken between spans, and span correction."""

    def __init__(self) -> None:
        #: ``(midpoint_ns, duration_ns)`` per reference run, in time order.
        self.samples: List[Tuple[int, int]] = []
        self._times: List[int] = []
        self._next_due = 0

    def sample(self) -> int:
        """Time one reference run with GC paused; returns its ns.

        Refuses to run beside another live thread: background work in
        the program would slow the reference and flatter every
        corrected span.
        """
        if threading.active_count() != 1:
            raise RuntimeError(
                f"reference timed with {threading.active_count()} live "
                "threads; it must be the only one"
            )
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            reference_kernel()
            end = time.perf_counter_ns()
        finally:
            if was_enabled:
                gc.enable()
        self.add_sample((start + end) // 2, end - start)
        self._next_due = end + REF_INTERVAL_NS
        return end - start

    def sample_if_due(self) -> None:
        """Sample when ``REF_INTERVAL_NS`` has passed since the last one."""
        if time.perf_counter_ns() >= self._next_due:
            self.sample()

    def add_sample(self, at_ns: int, duration_ns: int) -> None:
        """Record one reference run; samples must arrive in time order."""
        if self._times and at_ns < self._times[-1]:
            raise ValueError("reference samples must be in time order")
        self.samples.append((at_ns, duration_ns))
        self._times.append(at_ns)

    def local_reference(self, at_ns: int) -> float:
        """Median of the reference samples nearest a point in time."""
        if not self.samples:
            raise RuntimeError("no reference samples taken")
        k = bisect.bisect_left(self._times, at_ns)
        lo = max(0, k - REF_HALF_WINDOW)
        hi = min(len(self.samples), k + REF_HALF_WINDOW)
        return statistics.median(d for _, d in self.samples[lo:hi])

    def correct(self, start_ns: int, raw_ns: int) -> float:
        """One span's duration rescaled to the nominal host speed."""
        local = self.local_reference(start_ns + raw_ns // 2)
        return raw_ns * REF_NOMINAL_NS / local

    def median_ns(self) -> float:
        """Median reference duration over the whole run."""
        return statistics.median(d for _, d in self.samples)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not len(values):
        raise ValueError("percentile of no samples")
    return float(np.percentile(values, q))


def samples_beyond(count: int, q: float) -> int:
    """Samples ranked strictly above the ``q`` percentile's position."""
    if count < 1:
        return 0
    return count - 1 - int(math.floor((count - 1) * q / 100.0))


#: Fewest samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
