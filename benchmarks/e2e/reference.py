"""Host speed, measured by a fixed reference computation.

On a shared host the same code runs at full speed one second and at
half speed the next, and slow stretches last from seconds to minutes,
as other tenants come and go.  No estimator over a 20 s run removes
that: when the whole run falls in a slow stretch, even its fastest
moment is slow.  So the benchmark measures the host's speed alongside
the program.  Every ~20 ms, at a boundary between two timed segments,
it runs :func:`kernel` — a fixed piece of interpreter work that owes
nothing to the program under test — and times it.  A rolling median of
those samples gives the host's slowdown at any moment, relative to the
kernel's time :data:`REF_S` on a quiet host, and every timed segment
is divided by the slowdown at its midpoint.  The kernel's own time is
left out of the segment it ran in.

The kernel is allocation-heavy — tuples through a binary heap and a
dict — because that is what slows down with the program.  Over 300-
to 480-second recordings of three workloads on a two-vCPU shared VM,
whose speed wandered between 1.0x and 2.4x, the spread of the
normalised 20 s-window times was 1.7–3.6%, against 18–24% raw.  Pure
arithmetic, a filter over a list of objects, random reads of a large
array and small NumPy calls tracked the program less well (2.8–13%,
and worse than this kernel on every workload).
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

__all__ = ["EVERY_S", "REF_S", "SPEED", "Speedometer", "kernel"]

#: The kernel's time on a quiet host: the 5th percentile of its samples
#: on the two-vCPU Xeon VM behind the README's numbers.  It only sets
#: the scale, so a normalised time reads as seconds on that host.
REF_S = 0.39e-3
#: Least time between two samples taken at segment boundaries.
EVERY_S = 0.02
#: Samples in the rolling median that smooths the kernel's own jitter.
WINDOW = 5

_KEYS = [((i * 7919) % 1009) / 1009.0 for i in range(600)]


def kernel() -> int:
    """Fixed allocation-heavy interpreter work: a heap of tuples and a dict."""
    heap: list[tuple[float, int]] = []
    seen: dict[int, float] = {}
    for i, key in enumerate(_KEYS):
        heapq.heappush(heap, (key, i))
        seen[i] = key
    while heap:
        heapq.heappop(heap)
    return len(seen)


class Speedometer:
    """Samples of the kernel's time over a run, and the slowdown they give."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        #: Seconds spent running the kernel, to take out of timed spans.
        self.spent = 0.0
        #: Off during traced cycles, whose per-layer shares it would skew.
        self.active = True
        self._last = float("-inf")

    def due(self, now: float) -> bool:
        return self.active and now - self._last >= EVERY_S

    def sample(self) -> float:
        """Run the kernel once and return the seconds it took.

        Garbage collection is held off for the kernel's few hundred
        tuples, so the program's own collections fall where they would
        without it.
        """
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.times.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        self._last = t1
        return t1 - t0

    def slowdown(self, at: np.ndarray | float) -> np.ndarray:
        """Host slowdown at each time in ``at``: 1.0 is the quiet host.

        The rolling median of the ``WINDOW`` samples around the first
        one taken at or after that time, over :data:`REF_S`.
        """
        padded = np.pad(np.asarray(self.durations), WINDOW // 2, mode="edge")
        smooth = np.median(np.lib.stride_tricks.sliding_window_view(padded, WINDOW), axis=1)
        nearest = np.minimum(np.searchsorted(self.times, at), len(smooth) - 1)
        return smooth[nearest] / REF_S


SPEED = Speedometer()
