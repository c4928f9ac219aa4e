"""A fixed reference loop that reads how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by up to 2x in
phases of seconds to minutes, on every vCPU of the guest at once and with
no steal time to show for it.  A run that falls into a slow phase would
read as a regression of the program.  So every pass times this loop in
the process that does the work, between its tasks, and each latency is
reported at a fixed reference speed:

    scaled = measured * NOMINAL_S / reference_s()

where the loop's time is read next to the measured interval.  The loop
uses no orbitfuncs code, so a change to the library moves the scaled
times as it moves the measured ones; only the host's speed cancels.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# What reference_s() reads on an idle 2-vCPU KVM guest on a Sapphire
# Rapids Xeon (Python 3.11).  It only sets the unit: scaled times are
# seconds on a host that runs the loop in this time.
NOMINAL_S = 0.5e-3


def _loop() -> float:
    t0 = time.perf_counter()
    table = {}
    acc = Fraction(0)
    total = 0
    for i in range(1, 160):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[(i % 31, i % 29)] = acc
        total += sum(sorted((i % 13, i % 7, i % 11, i % 5)))
    return time.perf_counter() - t0


def reference_s() -> float:
    """The best of three timings of the loop, with the garbage collector
    held off, so that the heap the program left behind does not count as
    host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_loop() for _ in range(3))
    finally:
        if enabled:
            gc.enable()
