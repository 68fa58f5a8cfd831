"""Scaling of measured times to a reference machine speed.

On a shared virtual machine the speed of the same pure-Python loop drifts by
10-20 % over seconds to minutes, whatever the process does; on a 2-vCPU
Xeon VM, medians of the same 30 s run varied by 7-18 % between runs.  A run
therefore times a fixed loop between the operations it measures, and every
time it reports is scaled to reference speed by ``REFERENCE_S / loop_s``,
with ``loop_s`` the median of those loop times (see :func:`speed_factor`).
On that VM this brought the spread of run medians down to 2-8 %.

The loop mixes the operations the code under test spends its time on
(tuples and lists of small ints, breadth-first labelling, set lookups and
Fraction arithmetic) and imports nothing from origamikz, so no change to the
package can change it.  Raw times are recorded beside the scaled ones.
"""

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# calibration_s() on an idle 2.1 GHz Xeon vCPU with CPython 3.11
REFERENCE_S = 0.016

_DEGREE = 40


def _loop():
    d = _DEGREE
    p = tuple((i * 7 + 3) % d for i in range(d))
    q = tuple((i * 11 + 5) % d for i in range(d))
    seen = set()
    acc = Fraction(0)
    for r in range(900):
        start = r % d
        label = [-1] * d
        label[start] = 0
        order = [start]
        for cur in order:
            for nxt in (p[cur], q[cur]):
                if label[nxt] < 0:
                    label[nxt] = len(order)
                    order.append(nxt)
        seen.add(tuple(label[p[i]] for i in range(d)))
        p = tuple(q[p[i]] for i in range(d))
        acc += Fraction(r + 1, r + 2) * Fraction(3, 7)
    return len(seen), acc


def calibration_s(repeats=3):
    """Median seconds of the fixed loop.

    The garbage collector is off meanwhile (the loop makes no cycles), so
    the heap the code under test leaves behind does not change the result.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(repeats):
            t0 = perf_counter()
            _loop()
            samples.append(perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def speed_factor(loop_samples):
    """Factor taking seconds measured during a run to reference speed."""
    return REFERENCE_S / statistics.median(loop_samples)
