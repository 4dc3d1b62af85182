"""Ground-truth clipping in exact rational arithmetic plus differential checks.

`exact_clip` intersects the parametric segment with the window's four closed
half-planes using integer arithmetic over the lcm of all coordinate
denominators (every finite double is a rational with a power-of-two
denominator, so the conversion is lossless) and reports the
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

from .baselines import clip_many, get_clipper
from .geom import (DEFAULT_WINDOW, Counters, Point, Segment, Window,
                   gc_paused, validate_window)

# sampling region extent over window extent: segments then land in a useful
# mix of dispositions, some wholly outside, some crossing, some inside
REGION_FACTOR = 3.0


def default_region(window: Window = DEFAULT_WINDOW) -> Window:
    """Square sampling region centered on the window, `REGION_FACTOR` times
    its extent."""
    cx = (window.x_left + window.x_right) / 2.0
    cy = (window.y_bottom + window.y_top) / 2.0
    half = REGION_FACTOR * window.extent() / 2.0
    return Window(cx - half, cx + half, cy - half, cy + half)


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic corpus recipe: same spec, same segments, bit for bit."""

    seed: int
    count: int
    region: Window = default_region()


def gen_segments(spec: GeneratorSpec) -> list[Segment]:
    """Segments with endpoints drawn uniformly and independently from the
    spec's region; a pure function of the spec.

    Each coordinate is `lo + (hi - lo) * random()`, drawn in the order x1,
    y1, x2, y2: the formula and call order of `random.Random.uniform`, so a
    spec gives the same corpus as drawing with `uniform`, bit for bit.
    Cyclic GC is paused while the list is built.
    """
    rand = random.Random(spec.seed).random
    xl, xr, yb, yt = spec.region
    width, height = xr - xl, yt - yb
    new = tuple.__new__
    with gc_paused():
        return [
            new(Segment,
                (new(Point, (xl + width * rand(), yb + height * rand())),
                 new(Point, (xl + width * rand(), yb + height * rand()))))
            for _ in range(spec.count)
        ]


@lru_cache(maxsize=8)
def _window_ratios(w: Window) -> tuple[int, int, int, int, int]:
    """(wd, XL, XR, YB, YT): the window's bounds as integers over wd, the lcm
    of their denominators.  Numerically equal windows have equal ratios, so
    they may share a cache entry."""
    ratios = [v.as_integer_ratio() for v in w]
    d = math.lcm(*(q for _, q in ratios))
    return (d, *(n * (d // q) for n, q in ratios))


def exact_clip(s: Segment, w: Window) -> Optional[Segment]:
    """Mathematically exact closed-window clipping.

    Accepts float, int or Fraction coordinates.  Returns None when the
    parametric interval is empty, otherwise a Segment of Fraction
    coordinates; a single-point overlap yields a degenerate a == b result.
    A segment with both endpoints strictly beyond the same boundary is
    rejected by comparing coordinates, which Python does exactly across
    float, int and Fraction (so such a segment is rejected even with an
    infinite coordinate); every other segment is converted to integers,
    and a non-finite coordinate there raises.
    """
    (x1, y1), (x2, y2) = s
    xl, xr, yb, yt = w
    if ((x1 < xl and x2 < xl) or (x1 > xr and x2 > xr)
            or (y1 < yb and y2 < yb) or (y1 > yt and y2 > yt)):
        return None
    wd, XL, XR, YB, YT = _window_ratios(w)
    n1, d1 = x1.as_integer_ratio()
    n2, d2 = y1.as_integer_ratio()
    n3, d3 = x2.as_integer_ratio()
    n4, d4 = y2.as_integer_ratio()
    scale = math.lcm(wd, d1, d2, d3, d4)
    k = scale // wd
    XL, XR, YB, YT = XL * k, XR * k, YB * k, YT * k
    X1 = n1 * (scale // d1)
    Y1 = n2 * (scale // d2)
    dx = n3 * (scale // d3) - X1
    dy = n4 * (scale // d4) - Y1
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


@lru_cache(maxsize=1)
def _corpus_with_oracle(spec: GeneratorSpec, w: Window):
    """Corpus plus per-segment exact results, cached so that checking several
    clippers against the same corpus prices the oracle only once.  Callers
    check all their clippers on one corpus before the next, so only the
    latest is kept.  An accepted result is kept as its four coordinates
    (ax, ay, bx, by), each the float nearest the exact value, as
    `float(Fraction)` gives it.
    Cyclic GC is paused while they are built."""
    with gc_paused():
        segments = gen_segments(spec)
        exacts = []
        append = exacts.append
        for s in segments:
            r = exact_clip(s, w)
            if r is not None:
                (ax, ay), (bx, by) = r
                r = (ax.numerator / ax.denominator,
                     ay.numerator / ay.denominator,
                     bx.numerator / bx.denominator,
                     by.numerator / by.denominator)
            append(r)
    return segments, exacts


def _point_set_error(out: Segment, exact: tuple[float, ...]) -> float:
    """Largest coordinate deviation of `out` from the exact endpoints
    (ax, ay, bx, by), endpoint order ignored."""
    (oax, oay), (obx, oby) = out
    eax, eay, ebx, eby = exact
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
    exactly.  Raises UnknownClipperError for an unknown id and ValueError
    unless the tolerance is finite and >= 0.
    """
    clip = get_clipper(clipper)
    validate_window(w)
    if not 0.0 <= tolerance < math.inf:  # also false for NaN
        raise ValueError(
            f"tolerance must be finite and >= 0: {tolerance!r}")
    abs_tol = tolerance * max(1.0, w.extent())
    segments, exacts = _corpus_with_oracle(spec, w)
    report = EquivalenceReport(clipper=clipper, tolerance=tolerance,
                               cases_run=len(segments))
    # the clip results are compared and freed before GC resumes, so that
    # no collection rescans them
    with gc_paused():
        outs = clip_many(clip, segments, w, Counters())
        for s, out, exact in zip(segments, outs, exacts):
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
        del outs
    return report
