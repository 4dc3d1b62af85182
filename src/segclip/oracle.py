"""Ground-truth clipping in exact rational arithmetic plus differential checks.

`exact_clip` intersects the parametric segment with the window's four closed
half-planes using integer arithmetic over the lcm of all coordinate
denominators (every finite double is a rational with a power-of-two
denominator, so the conversion is lossless).  The decision is exact, and
each moved endpoint coordinate is rounded once, to the nearest float, which
makes it a trustworthy referee for the floating-point clippers:
`check_equivalence` replays a seeded corpus through a clipper
and the oracle and reports any disagreement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

from .baselines import clip_many, get_clipper
from .geom import (DEFAULT_WINDOW, Counters, Point, Segment, Window,
                   gc_paused, validate_window)

# sampling region extent over window extent: segments then land in a useful
# mix of dispositions, some wholly outside, some crossing, some inside
REGION_FACTOR = 3.0
_CHUNK = 4096  # segments `check_equivalence` clips per batch call


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

    def __post_init__(self):  # count 0 is an empty corpus
        if self.count < 0:
            raise ValueError(f"count must be >= 0: {self.count}")


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
    """Mathematically exact closed-window clipping, rounded once to floats.

    Accepts float, int or Fraction coordinates.  Returns None when the
    parametric interval is empty.  Otherwise each endpoint the interval
    keeps (t = 0 or t = 1) is the input's own Point, and a segment wholly
    inside is returned as is; a moved endpoint's coordinates are the
    floats nearest the exact values (`int / int` rounds correctly, so each
    is bit for bit `float(Fraction)`).  A single-point overlap yields a
    degenerate a == b result.

    A segment with both endpoints strictly beyond the same boundary is
    rejected by comparing coordinates, which Python does exactly across
    float, int and Fraction (so such a segment is rejected even with an
    infinite coordinate); every other segment is converted to integers
    over the lcm of all denominators, and a non-finite coordinate there
    raises.
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
    # Clipped parameter range [lo, hi] as integer fractions, denominators > 0;
    # lo only ever rises above 0 and hi only ever falls below 1.
    lo_n, lo_d = 0, 1
    hi_n, hi_d = 1, 1
    # p == 0 has q >= 0: the same-side test above rejected every q < 0
    for p, q in ((-dx, X1 - XL), (dx, XR - X1), (-dy, Y1 - YB), (dy, YT - Y1)):
        if p < 0:  # t >= q/p
            n, d = -q, -p
            if n * lo_d > lo_n * d:
                lo_n, lo_d = n, d
        elif p > 0:  # t <= q/p
            n, d = q, p
            if n * hi_d < hi_n * d:
                hi_n, hi_d = n, d
    if lo_n * hi_d > hi_n * lo_d:
        return None
    if lo_n == 0 and hi_n == hi_d:
        return s
    new = tuple.__new__  # skips the named tuples' own __new__
    a, b = s
    if lo_n:
        d = scale * lo_d
        a = new(Point, ((X1 * lo_d + dx * lo_n) / d,
                        (Y1 * lo_d + dy * lo_n) / d))
    if hi_n != hi_d:
        d = scale * hi_d
        b = new(Point, ((X1 * hi_d + dx * hi_n) / d,
                        (Y1 * hi_d + dy * hi_n) / d))
    return new(Segment, (a, b))


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


_cached = None  # ((spec, w, clip_exact), segments, exact results) or None


def _corpus_with_oracle(spec: GeneratorSpec, w: Window, clip_exact):
    """Corpus plus per-segment exact results, cached so that checking several
    clippers against the same corpus prices the oracle only once.  Callers
    check all their clippers on one corpus before the next, so only the
    latest is kept, and dropped before the next is built.  `clip_exact` is
    the `exact_clip` the caller sees (this module's own, a test's spy or a
    tracing wrapper), called once per segment in order, and part of the key,
    compared with `==`.  A build that raises leaves the cache empty.  Its
    caller, `check_equivalence`, pauses cyclic GC around the build."""
    global _cached
    key = (spec, w, clip_exact)
    entry = _cached  # read once, so that no caller mixes two entries
    if entry is None or entry[0] != key:
        _cached = entry = None
        segments = gen_segments(spec)
        _cached = entry = (key, segments, [clip_exact(s, w) for s in segments])
    return entry[1], entry[2]


def _endpoint_error(out: Segment, exact: Segment) -> float:
    """Largest coordinate deviation of `out` from the exact endpoints, taken
    in order (every clipper keeps its input's endpoint order); inf when an
    output coordinate is NaN."""
    (oax, oay), (obx, oby) = out
    (eax, eay), (ebx, eby) = exact
    errs = (abs(oax - eax), abs(oay - eay), abs(obx - ebx), abs(oby - eby))
    # max() keeps a NaN only as its first argument; a sum keeps every NaN
    return math.inf if math.isnan(sum(errs)) else max(errs)


def check_equivalence(clipper, spec: GeneratorSpec, w: Window,
                      tolerance: float = 1e-9) -> EquivalenceReport:
    """Differential run of one clipper against the exact oracle.

    Coordinates are compared endpoint by endpoint, in order, with absolute
    allowance tolerance * max(1, window extent), and a NaN coordinate is an
    infinite error; accept/reject decisions must agree exactly.  Raises
    UnknownClipperError for an unknown id and ValueError unless the window
    and the spec's region are valid windows and the tolerance is finite
    and >= 0.
    """
    clip = get_clipper(clipper)
    validate_window(w)
    # a default region can overflow where the window does not
    validate_window(spec.region)
    if not 0.0 <= tolerance < math.inf:  # also false for NaN
        raise ValueError(
            f"tolerance must be finite and >= 0: {tolerance!r}")
    abs_tol = tolerance * max(1.0, w.extent())
    # one pause covers the corpus build, the clipping and the comparison;
    # outputs are clipped and compared `_CHUNK` segments at a time, and each
    # chunk's are freed before the next is clipped, so that no collection
    # rescans them and at most one chunk of them is alive
    with gc_paused():
        segments, exacts = _corpus_with_oracle(spec, w, exact_clip)
        report = EquivalenceReport(clipper=clipper, tolerance=tolerance,
                                   cases_run=len(segments))
        counters = Counters()
        for i in range(0, len(segments), _CHUNK):
            chunk = segments[i:i + _CHUNK]
            outs = clip_many(clip, chunk, w, counters)
            for s, out, exact in zip(chunk, outs, exacts[i:i + _CHUNK]):
                if out == exact:  # both None, or the same points in order
                    continue
                if out is None or exact is None:
                    report.decision_mismatches += 1
                    report.failures.append(s)
                    continue
                err = _endpoint_error(out, exact)
                if err > report.max_coordinate_error:
                    report.max_coordinate_error = err
                if err > abs_tol:
                    report.coordinate_mismatches += 1
                    report.failures.append(s)
            del outs
    return report
