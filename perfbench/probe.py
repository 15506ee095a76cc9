"""Host-speed probe: a fixed numpy kernel mix, timed around every timed event.

On a 2-core VM that shares its host with other tenants, the speed of a
core drifts by a quarter or more over seconds to minutes: a fixed float32
gemm loop runs anywhere from 33 to 42 iterations per second within one
minute, with CPU time equal to wall time (the slowdown is not time spent
descheduled). Medians within one run cannot remove a drift that lasts
longer than the run, so the end-to-end times are reported at a reference
host speed instead: each timed event (an SGD step, a tree, a request, a
pipeline run, a set-up) is scaled by ``REF_S / p``, where ``p`` is the median
time of the probes run next to it. A long event also pauses for probes
inside it, at the first conv or split-search call PAUSE_EVERY_S after the
last probe; their time is left out of the event, and each stretch between
them is scaled by its own neighbours.

A probe is a fixed mix of the kernels the workloads spend their time in: a
conv-shaped float32 gemm, the stable argsort and cumsum of exact-greedy split
search, and memory-bound elementwise maps. (A loop of small per-call numpy
ops swung twice as far as the workloads did, so it is left out.) Its inputs
do not depend on the seed and no ``rxgb`` code runs in it, so at a steady
host speed a change to the program moves the scaled times in the same
proportion as the raw ones. A probe evicts some cache, so an untraced op
runs a little slower than it would alone; that cost is the same at every
commit.

On ten seeds of 30 s runs on a 2-core VM, scaling cut the spread between
runs (quartile distance over median) of the median SGD step from 16% to 4%,
of the tree from 11% to 5%, of the batch-1 request from 11% to 4%, of the
batch-256 request from 15% to 6% and of the pipeline run from 4% to 2%. It
does not follow the page-fault time of large fresh buffers (about a sixth
of a batch-256 request), which varies on its own. The unscaled times, less
the probes inside them, and every probe are kept in the run's details.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.025      # probe time at the reference host speed; scaled = raw * REF_S / p
WINDOW_S = 1.0     # probes this close to an event count towards its p
PAUSE_EVERY_S = 0.5  # inside an op, probe at the first pause point this long after the last


class Probe:
    """Runs the kernel mix on ``mark()`` and scales events by the probes near them.

    Probes may run inside a timed event (see ``pausing``): their time is left
    out of the event, and each stretch between them is scaled by its own
    neighbours, so a long event follows the drift within it.
    """

    def __init__(self):
        rng = np.random.default_rng(20240513)
        self.a = rng.standard_normal((64, 576), dtype=np.float32)
        self.b = rng.standard_normal((576, 4704), dtype=np.float32)
        self.x = rng.standard_normal((1000, 128), dtype=np.float32)
        self.g = rng.standard_normal(1000)
        self.e = rng.standard_normal(1 << 19, dtype=np.float32)
        self.starts: list[float] = []    # probe start times, increasing
        self.mids: list[float] = []      # probe midpoints, same order
        self.times: list[float] = []     # probe durations, same order

    def kernels(self) -> None:
        self.a @ self.b
        order = np.argsort(self.x, axis=0, kind="stable")
        np.cumsum(self.g[order], axis=0)
        y = np.where(self.e > 0, self.e, 0.25 * self.e)
        np.sign(y, out=y)
        y *= self.e

    def mark(self) -> float:
        """Run the probe once and record it; returns its duration."""
        t0 = perf_counter()
        self.kernels()
        t1 = perf_counter()
        self.starts.append(t0)
        self.mids.append(0.5 * (t0 + t1))
        self.times.append(t1 - t0)
        return t1 - t0

    @contextlib.contextmanager
    def pausing(self, points):
        """Within the block, a call to any ``(module, name)`` in ``points`` is
        followed by a probe once PAUSE_EVERY_S has passed since the last one.

        The package reaches these functions through module attribute lookups,
        so the replacement is seen by every caller; the originals come back on
        exit.
        """
        originals = [(mod, name, getattr(mod, name)) for mod, name in points]

        def paused(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                if perf_counter() - self.starts[-1] - self.times[-1] >= PAUSE_EVERY_S:
                    self.mark()
                return out
            return call

        for mod, name, fn in originals:
            setattr(mod, name, paused(fn))
        try:
            yield
        finally:
            for mod, name, fn in originals:
                setattr(mod, name, fn)

    def _inner(self, t0: float, t1: float) -> list[int]:
        """Indices of the probes that ran wholly inside [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return [i for i in range(lo, hi) if self.starts[i] + self.times[i] <= t1]

    def busy(self, t0: float, t1: float) -> float:
        """The interval's duration less the probes inside it."""
        return (t1 - t0) - sum(self.times[i] for i in self._inner(t0, t1))

    def speed(self, t0: float, t1: float) -> float:
        """Median probe time near the interval [t0, t1].

        Takes every probe within WINDOW_S of the interval, and always the last
        probe before it and the first after it, so an event longer than the
        probe spacing is still bracketed.
        """
        mids = self.mids
        if not mids:
            raise ValueError("no probe was run")
        lo = bisect.bisect_left(mids, t0 - WINDOW_S)
        hi = bisect.bisect_right(mids, t1 + WINDOW_S)
        lo = min(lo, max(0, bisect.bisect_left(mids, t0) - 1))
        hi = max(hi, min(len(mids), bisect.bisect_right(mids, t1) + 1))
        return statistics.median(self.times[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """The interval's busy time at the reference host speed: each stretch
        between the probes inside it is scaled by the probes near that stretch."""
        total, cur = 0.0, t0
        for i in self._inner(t0, t1):
            total += (self.starts[i] - cur) * REF_S / self.speed(cur, self.starts[i])
            cur = self.starts[i] + self.times[i]
        return total + (t1 - cur) * REF_S / self.speed(cur, t1)
