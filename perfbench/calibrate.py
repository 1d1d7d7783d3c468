"""Machine-speed calibration for the timed metrics.

The benchmark runs on shared machines whose speed drifts by up to a
factor of two within seconds. Each timed stretch of work is bracketed by
runs of a fixed pure-Python loop that uses no coinfactory code; a time
is then reported in reference seconds: wall time scaled by REFERENCE_S
over the loop's wall time at that moment. A change to coinfactory moves
the work but not the loop, so it shows in full; a change in machine
speed moves both and largely cancels. Measured over five seeds, this cut
the spread of plan_sampling's op_ms from 0.39 to 0.03 of its median.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# the loop's wall time on the 2-core reference machine in its fast state
REFERENCE_S = 0.0036


def calibration_s() -> float:
    """Fastest of three timings of the loop; a preempted timing only runs long."""
    return min(_loop_s() for _ in range(3))


def _loop_s() -> float:
    """Wall time of the fixed loop: integer, dict, string, big-int and Fraction work."""
    t0 = perf_counter()
    x = 0
    for i in range(24000):
        x += i * i
    table = {}
    for i in range(6000):
        table[str(i)] = i
    big = 3 ** 4000
    for i in range(1, 400):
        big = big * (i + 7) // (i + 1)
    acc = Fraction(0)
    for i in range(1, 240):
        acc += Fraction(1, i)
    return perf_counter() - t0


def scaled(wall_s: float, before: float, after: float) -> float:
    """wall_s in reference seconds, against the mean of the bracketing calibrations."""
    return wall_s * REFERENCE_S * 2 / (before + after)
