"""Machine speed, measured by a fixed pure-Python loop.

On a shared machine the CPU's speed drifts by tens of percent over tens of
seconds, the same for every Python workload.  The benchmark times this loop
right before and after each pass and reports each pass's time scaled to a
machine on which the loop runs at REFERENCE_HZ: reference seconds.  The loop
calls nothing in segclip, so no change to segclip moves it, while a change
of machine speed moves it and the workload alike.
"""

import random
import time
from fractions import Fraction

# Loop runs per second of the machine the figures are scaled to; about what
# a 2-core x86-64 VM running CPython 3.11 reaches.
REFERENCE_HZ = 150.0

_rng = random.Random(0)
_SEGMENTS = [((_rng.uniform(-10, 20), _rng.uniform(-10, 20)),
              (_rng.uniform(-10, 20), _rng.uniform(-10, 20)))
             for _ in range(2_000)]


def loop() -> float:
    """A fixed mix of the work segclip's layers do: tuple unpacking and float
    arithmetic as in the clippers, integer ratios as in the exact oracle,
    and 9-digit text as in the segment file format."""
    acc = 0.0
    for _ in range(6):
        out = []
        for (ax, ay), (bx, by) in _SEGMENTS:
            if ax < 0.0 and bx < 0.0:
                continue
            d = bx - ax
            y = ay + (by - ay) * (0.0 - ax) / d if d else ay
            out.append((0.0, y))
            acc += y
        acc += len(out)
    for (ax, ay), (bx, by) in _SEGMENTS[:700]:
        (n1, d1), (n2, d2) = ax.as_integer_ratio(), by.as_integer_ratio()
        scale = max(d1, d2)
        x, y = n1 * (scale // d1), n2 * (scale // d2)
        acc += Fraction(x * y + 1, scale * scale).numerator & 7
    for (ax, ay), (bx, by) in _SEGMENTS[:800]:
        line = f"{ax:.9g} {ay:.9g} {bx:.9g} {by:.9g}"
        acc += sum(map(float, line.split()))
    return acc


def measure() -> float:
    """Runs of `loop` per second now, the best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        loop()
        best = min(best, time.perf_counter() - t0)
    return 1.0 / best
