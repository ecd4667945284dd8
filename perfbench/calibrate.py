"""Host-speed calibration: time a fixed kernel alongside the workload.

The benchmark runs on shared hosts whose speed drifts by up to a half for
minutes at a time, in CPU time as much as in wall time, because other
tenants contend for the same cores and caches.  A fixed pure-Python kernel
timed between the cases of a workload slows down with it.  Each case's time
is divided by the mean kernel time of the SIDE samples taken just before
and the SIDE taken just after it and multiplied by REF_KERNEL_S, giving its time on a host where the kernel
takes REF_KERNEL_S: reference seconds.

The kernel is a frozen copy of the package's inner loop (a sparse
polynomial product with Fraction coefficients, keyed by exponent tuples).
It lives here, not in the package, so no change to the code under test can
change it.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction
from typing import List, Tuple

# a fixed nominal kernel time; on the reference host, a 2-core x86-64 VM,
# the kernel took 0.020 to 0.034 s as the host's load changed
REF_KERNEL_S = 0.025
# sample the kernel again once this much time has passed since the last
EVERY_S = 0.25
# kernel samples taken on each side of a piece of work to scale it
SIDE = 2


def _operands():
    rng = random.Random(5)

    def poly():
        return {(rng.randint(0, 9), rng.randint(0, 9)):
                Fraction(rng.randint(1, 50), rng.randint(1, 7))
                for _ in range(40)}

    return poly(), poly()


_A, _B = _operands()


def kernel() -> int:
    """Three rounds of a 40-by-40-term polynomial product."""
    a, b = _A, _B
    for _ in range(3):
        out = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = out.get(e, Fraction(0)) + ca * cb
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        a = dict(list(out.items())[:40])
    return len(out)


def time_kernel() -> float:
    """One timed kernel run, with the cyclic collector paused, so that a
    collection of the workload's heap is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Kernel samples taken between pieces of work, and the scaling of a
    piece of work by the samples on either side of it."""

    def __init__(self):
        # (start, end, kernel seconds)
        self.samples: List[Tuple[float, float, float]] = []
        self.spent = 0.0

    def sample(self) -> float:
        t0 = time.perf_counter()
        k = time_kernel()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, k))
        self.spent += t1 - t0
        return k

    def maybe_sample(self) -> None:
        if time.perf_counter() - self.samples[-1][1] >= EVERY_S:
            self.sample()

    def local(self, start: float, end: float) -> float:
        """Mean kernel time of the last SIDE samples before `start` and the
        first SIDE after `end`."""
        before = [k for _, t1, k in self.samples if t1 <= start]
        after = [k for t0, _, k in self.samples if t0 >= end]
        near = before[-SIDE:] + after[:SIDE]
        return sum(near) / len(near)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds of the work done between start and end."""
        return (end - start) * REF_KERNEL_S / self.local(start, end)
