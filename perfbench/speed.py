"""Machine-speed probe that makes timings steady on a shared host.

On a shared machine the speed of one core changes by up to 2x within
seconds and drifts over minutes, and a library operation and a pure
Python loop slow down together. So the benchmark runs a fixed
stdlib-only probe before each operation and reports every time of the
run scaled by REFERENCE_S / (median probe time of the run): the time
the operation would take if the machine ran the probe at its reference
speed. Medians over many operations absorb the fast changes; the
scaling removes the slow drift between runs. The probe does
the kind of work that dominates the library (Fraction arithmetic on big
integers) but calls nothing in the library, so a change to the library
cannot move it. The raw times are kept in the run record.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

# Median probe time on the reference machine (2-core Xeon, Python 3.11).
REFERENCE_S = 0.0200


def probe() -> float:
    """Seconds taken by one fixed partial harmonic sum in Fractions.

    Its denominators grow to thousands of bits, so, like the library,
    it spends its time in big-integer multiplication and gcd.
    """
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(i * 7919 % 1009, i)
    return perf_counter() - start


class SpeedLog:
    """Probe times taken between the operations of one run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(probe())

    def factor(self) -> float:
        """Multiply a raw time of this run by this to get its time at reference speed."""
        return REFERENCE_S / statistics.median(self.samples)
