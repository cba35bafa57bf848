"""The host's current speed, read from a fixed reference kernel.

The benchmark runs on shared hosts whose speed changes from second to second
and in phases of minutes: the same library call can take twice as long in
one minute as in the next, and a whole run can fall in a slow phase.  Every
timed step of the benchmark therefore sits between two runs of ``kernel``, a
fixed piece of pure Python that does the kind of work the library does
(bit masks, dict lookups, exact ``Fraction`` sums over subsets), and its time
is rescaled by how fast the kernel ran around it:

    scaled = elapsed * KERNEL_S / mean(kernel time before, kernel time after)

A kernel time is the median of a batch of runs: one run, plus one for every
``KERNEL_S / KERNEL_SHARE`` of the timed work the batch follows, so that a
long step is rescaled by a steadier reading at a cost of about
``KERNEL_SHARE`` of its time.

``scaled`` is the step's time on a host on which the kernel takes
``KERNEL_S``, the kernel's typical time on the host where the baseline was
taken (2-vCPU Intel Xeon, Sapphire Rapids, under KVM; Python 3.11).  A
slower library reads slower at any host speed; a slower host does not.  The
kernel does not touch ``fislab``, so no change to the library changes it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from math import comb

KERNEL_S = 0.0035
KERNEL_SHARE = 0.05
_M = 7
_LABELS = tuple((r * 2654435761 >> 7) & 1 for r in range(1 << _M))


def kernel() -> tuple:
    """Exact Shapley-style values of a fixed labelling of 2^7 points."""
    full = (1 << _M) - 1
    table = {mask: sum(_LABELS[r] for r in range(1 << _M) if r & mask == mask)
             for mask in range(full + 1)}
    values = []
    for i in range(_M):
        bit = 1 << i
        acc = Fraction(0)
        for s in range(full + 1):
            if not s & bit:
                acc += Fraction(table[s | bit] - table[s],
                                _M * comb(_M - 1, bin(s).count("1")))
        values.append(acc)
    return tuple(sorted(values))


def kernel_s(after_s: float = 0.0) -> float:
    """Median wall time of a batch of kernel runs that follows after_s
    seconds of timed work."""
    times = []
    for _ in range(1 + int(after_s * KERNEL_SHARE / KERNEL_S)):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(elapsed: float, before: float, after: float) -> float:
    """elapsed rescaled to a host on which the kernel takes KERNEL_S."""
    return elapsed * KERNEL_S * 2 / (before + after)
