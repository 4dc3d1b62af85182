"""Ground-truth clipping in exact rational arithmetic plus differential checks.

`exact_clip` intersects the parametric segment with the window's four closed
half-planes using integer arithmetic on a common power-of-two scale (every
finite double is a rational, so the conversion is lossless) and reports the
clipped endpoints as `fractions.Fraction` values.  No rounding happens
anywhere, which makes it a trustworthy referee for the floating-point
clippers: `check_equivalence` replays a seeded corpus through a clipper
and the oracle and reports any disagreement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .baselines import get_clipper
from .geom import Counters, Point, Segment, Window, validate_window

DEFAULT_WINDOW = Window(0.0, 10.0, 0.0, 10.0)


def default_region(window: Window = DEFAULT_WINDOW, factor: float = 3.0) -> Window:
    """Square sampling region centered on the window, `factor` times its extent.

    With the default factor, segments land in a useful mix of dispositions:
    some wholly outside, some crossing, some inside.
    """
    cx = (window.x_left + window.x_right) / 2.0
    cy = (window.y_bottom + window.y_top) / 2.0
    half = factor * window.extent() / 2.0
    return Window(cx - half, cx + half, cy - half, cy + half)


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic corpus recipe: same spec, same segments, bit for bit."""

    seed: int
    count: int
    region: Window = default_region()


def gen_segments(spec: GeneratorSpec) -> list[Segment]:
    """Segments with endpoints drawn uniformly and independently from the
    spec's region; a pure function of the spec."""
    rng = random.Random(spec.seed)
    uniform = rng.uniform
    xl, xr, yb, yt = spec.region
    return [
        Segment(Point(uniform(xl, xr), uniform(yb, yt)),
                Point(uniform(xl, xr), uniform(yb, yt)))
        for _ in range(spec.count)
    ]


def exact_clip(s: Segment, w: Window) -> Optional[Segment]:
    """Mathematically exact closed-window clipping.

    Accepts float, int or Fraction coordinates.  Returns None when the
    parametric interval is empty, otherwise a Segment of Fraction
    coordinates; a single-point overlap yields a degenerate a == b result.
    """
    (x1, y1), (x2, y2) = s
    ratios = (x1.as_integer_ratio(), y1.as_integer_ratio(),
              x2.as_integer_ratio(), y2.as_integer_ratio(),
              w[0].as_integer_ratio(), w[1].as_integer_ratio(),
              w[2].as_integer_ratio(), w[3].as_integer_ratio())
    scale = 1
    for _, d in ratios:
        if d > scale:
            scale = d
    if any(scale % d for _, d in ratios):  # non-dyadic denominators
        scale = math.lcm(*(d for _, d in ratios))
    X1, Y1, X2, Y2, XL, XR, YB, YT = (n * (scale // d) for n, d in ratios)

    dx = X2 - X1
    dy = Y2 - Y1
    # Clipped parameter range [lo, hi] as integer fractions, denominators > 0.
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 1
    for p, q in ((-dx, X1 - XL), (dx, XR - X1), (-dy, Y1 - YB), (dy, YT - Y1)):
        if p == 0:
            if q < 0:
                return None
        elif p < 0:  # t >= q/p
            n, d = -q, -p
            if n * lo_d > lo_n * d:
                lo_n, lo_d = n, d
        else:  # t <= q/p
            n, d = q, p
            if n * hi_d < hi_n * d:
                hi_n, hi_d = n, d
    if lo_n * hi_d > hi_n * lo_d:
        return None
    return Segment(
        Point(Fraction(X1 * lo_d + dx * lo_n, scale * lo_d),
              Fraction(Y1 * lo_d + dy * lo_n, scale * lo_d)),
        Point(Fraction(X1 * hi_d + dx * hi_n, scale * hi_d),
              Fraction(Y1 * hi_d + dy * hi_n, scale * hi_d)),
    )


@dataclass
class EquivalenceReport:
    """Outcome of replaying one corpus through a clipper and the oracle."""

    clipper: str
    tolerance: float
    cases_run: int = 0
    decision_mismatches: int = 0
    coordinate_mismatches: int = 0
    max_coordinate_error: float = 0.0
    failures: list[Segment] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.decision_mismatches == 0 and self.coordinate_mismatches == 0

    def summary(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        return (f"verify {self.clipper}: {status} -- {self.cases_run} cases, "
                f"{self.decision_mismatches} decision mismatches, "
                f"{self.coordinate_mismatches} coordinate mismatches "
                f"(tolerance {self.tolerance:g}), "
                f"max coordinate error {self.max_coordinate_error:.3e}")


@lru_cache(maxsize=2)
def _corpus_with_oracle(spec: GeneratorSpec, w: Window):
    """Corpus plus per-segment exact results, cached so that checking several
    clippers against the same corpus prices the oracle only once."""
    segments = gen_segments(spec)
    return segments, [exact_clip(s, w) for s in segments]


def _point_set_error(out: Segment, exact: Segment) -> float:
    """Largest coordinate deviation, endpoint order ignored."""
    (oax, oay), (obx, oby) = out
    eax, eay = float(exact.a.x), float(exact.a.y)
    ebx, eby = float(exact.b.x), float(exact.b.y)
    direct = max(abs(oax - eax), abs(oay - eay), abs(obx - ebx), abs(oby - eby))
    if direct == 0.0:
        return 0.0
    swapped = max(abs(oax - ebx), abs(oay - eby), abs(obx - eax), abs(oby - eay))
    return min(direct, swapped)


def check_equivalence(clipper, spec: GeneratorSpec, w: Window,
                      tolerance: float = 1e-9) -> EquivalenceReport:
    """Differential run of one clipper against the exact oracle.

    Coordinates are compared with absolute allowance
    tolerance * max(1, window extent); accept/reject decisions must agree
    exactly.  Raises UnknownClipperError for an unknown id.
    """
    clip = get_clipper(clipper)
    validate_window(w)
    abs_tol = tolerance * max(1.0, w.extent())
    segments, exacts = _corpus_with_oracle(spec, w)
    counters = Counters()
    report = EquivalenceReport(clipper=clipper, tolerance=tolerance)
    for s, exact in zip(segments, exacts):
        report.cases_run += 1
        out = clip(s, w, counters)
        if (out is None) != (exact is None):
            report.decision_mismatches += 1
            report.failures.append(s)
            continue
        if out is None:
            continue
        err = _point_set_error(out, exact)
        if err > report.max_coordinate_error:
            report.max_coordinate_error = err
        if err > abs_tol:
            report.coordinate_mismatches += 1
            report.failures.append(s)
    return report
