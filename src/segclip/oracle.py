"""Ground-truth clipping in exact rational arithmetic plus differential checks.

`exact_clip` intersects the parametric segment with the window's closed
half-planes in integer arithmetic, and only with those an endpoint lies
strictly beyond.  Every finite double is a rational with a power-of-two
denominator, so the conversion is lossless: float coordinates are scaled by
one power of two per window, chosen from the window's magnitude and applied
as two float factors (so that [0,1e-300]^2's 2**1049 works too), and any
coordinate that scale leaves fractional (or an int, a Fraction, or a window
with non-dyadic bounds) goes over the lcm of all denominators instead.  The
latest window's frame is kept for the next call.  The decision is exact,
and each moved endpoint coordinate off the window edge is rounded once, to
the nearest float, which makes it a trustworthy referee for the
floating-point clippers: `check_equivalence` replays a seeded corpus
through a clipper and the oracle and reports any disagreement.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .baselines import clip_many, get_clipper
from .geom import (DEFAULT_WINDOW, Counters, SegmentTuple, Window,
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


def gen_segments(spec: GeneratorSpec) -> list[SegmentTuple]:
    """Plain `((x1, y1), (x2, y2))` tuples of floats whose endpoints are
    drawn uniformly and independently from the spec's region; a pure
    function of the spec.

    Each coordinate is `lo + (hi - lo) * random()`, drawn in the order x1,
    y1, x2, y2: the formula and call order of `random.Random.uniform`, so a
    spec gives the same corpus as drawing with `uniform`, bit for bit.
    Cyclic GC is paused while the list is built.  Raises ValueError when
    the region's width or height is not finite (finite bounds near +-1e308
    can overflow them), since every coordinate would then be infinite.
    """
    rand = random.Random(spec.seed).random
    xl, xr, yb, yt = spec.region
    width, height = xr - xl, yt - yb
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError("sampling region width and height must be finite: "
                         f"{spec.region!r}")
    with gc_paused():
        return [((xl + width * rand(), yb + height * rand()),
                 (xl + width * rand(), yb + height * rand()))
                for _ in range(spec.count)]


def _over_lcm(values) -> tuple:
    """(D, [v * D for v in values]): D is the lcm of the values'
    denominators, and each v * D an int.  Raises ValueError for a NaN and
    OverflowError for an infinity."""
    ratios = [v.as_integer_ratio() for v in values]
    D = math.lcm(*[q for _, q in ratios])
    return D, [n * (D // q) for n, q in ratios]


def _window_frame(w: Window) -> tuple:
    """(D, XL, XR, YB, YT, S1, S2, fxl, fxr, fyb, fyt): the window's integer
    frame.

    XL..YT are the bounds as integers over D, and fxl..fyt the floats
    nearest them (-0.0 becomes 0.0).  When the bounds are dyadic, D is 2**K,
    with K chosen from the window's magnitude m = max(|bound|, extent) so
    that every float down to 2**-10 ulp(m) is an integer at D, and S1 * S2
    is D split into two float factors, S1 = 2**min(K, 1023) and
    S2 = 2**max(K - 1023, 0): for a float x, x * S1 * S2 is then x * D
    exactly, or an overflow to inf.  For float bounds K is at most 1136;
    when the bounds are not dyadic, or are Fractions that need K > 2046,
    S1 and S2 are NaN, so that no coordinate passes the
    `(x * S1 * S2).is_integer()` test.
    """
    D, (XL, XR, YB, YT) = _over_lcm(w)
    S1 = S2 = math.nan
    k = D.bit_length() - 1
    if D == 1 << k:
        # frexp(m)[1], the binary exponent of the window's magnitude
        e = max(abs(XL), abs(XR), abs(YB), abs(YT),
                XR - XL, YT - YB).bit_length() - k
        K = max(k, 63 - e)
        D <<= K - k
        XL, XR, YB, YT = (v << (K - k) for v in (XL, XR, YB, YT))
        if K < 2047:
            S1, S2 = 2.0 ** min(K, 1023), 2.0 ** max(K - 1023, 0)
    return D, XL, XR, YB, YT, S1, S2, XL / D, XR / D, YB / D, YT / D


_last_frame = (None, None)  # (window, its frame) for the last window seen


def exact_clip(s: SegmentTuple, w: Window) -> Optional[SegmentTuple]:
    """Mathematically exact closed-window clipping, rounded once to floats.

    Accepts float, int or Fraction coordinates.  Returns None when the
    parametric interval is empty, and otherwise a new plain tuple ((x1,
    y1), (x2, y2)), even for a segment wholly inside.  An endpoint the
    interval keeps (t = 0 or t = 1) keeps the input's own coordinates, so
    int and Fraction coordinates come back as they went in.  A moved
    endpoint lies on the window edge that moved it and takes that edge's
    float; its other coordinate is the float nearest the exact value (`int
    / int` rounds correctly, so each is bit for bit `float(Fraction)`).  A
    single-point overlap yields a degenerate result whose two endpoints
    are equal.

    A segment with both endpoints strictly beyond the same boundary is
    rejected by comparing coordinates, which Python does exactly across
    float, int and Fraction (so such a segment is rejected even when it
    holds an infinity, or a NaN on the other axis).  Every other segment
    is converted to integers: when all four coordinates are floats whole
    at the window's power-of-two scale S1 * S2 (see `_window_frame`), each
    is multiplied by it; otherwise (int, Fraction, finer floats, or a
    window without such a scale) all go over the lcm of their denominators
    and the window's, where a NaN coordinate raises ValueError and an
    infinite one OverflowError.  At a window that is not hashable, such as
    a list, which could change under its cached frame, they raise
    TypeError.
    """
    global _last_frame
    (x1, y1), (x2, y2) = s
    xl, xr, yb, yt = w
    if ((x1 < xl and x2 < xl) or (x1 > xr and x2 > xr)
            or (y1 < yb and y2 < yb) or (y1 > yt and y2 > yt)):
        return None
    last, frame = _last_frame
    if last is not w:
        hash(w)  # TypeError for a mutable window, which could change later
        frame = _window_frame(w)
        _last_frame = (w, frame)
    D, XL, XR, YB, YT, S1, S2, fxl, fxr, fyb, fyt = frame
    if (x1.__class__ is float and y1.__class__ is float
            and x2.__class__ is float and y2.__class__ is float
            and (X1 := x1 * S1 * S2).is_integer()
            and (Y1 := y1 * S1 * S2).is_integer()
            and (X2 := x2 * S1 * S2).is_integer()
            and (Y2 := y2 * S1 * S2).is_integer()):
        X1, Y1, X2, Y2 = int(X1), int(Y1), int(X2), int(Y2)
        scale = D
    else:
        scale, (X1, Y1, X2, Y2, XL, XR, YB, YT) = _over_lcm(
            (x1, y1, x2, y2, xl, xr, yb, yt))
    dx = X2 - X1
    dy = Y2 - Y1
    # Clipped parameter range [lo, hi] as integer fractions, denominators
    # > 0.  Only an edge that the first endpoint lies strictly beyond can
    # raise lo above 0, and only one that the second lies beyond can lower
    # hi below 1; the same-side test above left the other endpoint on the
    # window's side of it, which fixes the sign of dx or dy.  lo_y (hi_y)
    # is None while lo (hi) comes from an x edge, whose float is lo_x (hi_x).
    lo_n, lo_d, lo_x, lo_y = 0, 1, None, None
    if x1 < xl:
        lo_n, lo_d, lo_x = XL - X1, dx, fxl
    elif x1 > xr:
        lo_n, lo_d, lo_x = X1 - XR, -dx, fxr
    if y1 < yb:
        if (YB - Y1) * lo_d > lo_n * dy:
            lo_n, lo_d, lo_y = YB - Y1, dy, fyb
    elif y1 > yt:
        if (Y1 - YT) * lo_d > lo_n * -dy:
            lo_n, lo_d, lo_y = Y1 - YT, -dy, fyt
    hi_n, hi_d, hi_x, hi_y = 1, 1, None, None
    if x2 < xl:
        hi_n, hi_d, hi_x = X1 - XL, -dx, fxl
    elif x2 > xr:
        hi_n, hi_d, hi_x = XR - X1, dx, fxr
    if y2 < yb:
        if (Y1 - YB) * hi_d < hi_n * -dy:
            hi_n, hi_d, hi_y = Y1 - YB, -dy, fyb
    elif y2 > yt:
        if (YT - Y1) * hi_d < hi_n * dy:
            hi_n, hi_d, hi_y = YT - Y1, dy, fyt
    if lo_n * hi_d > hi_n * lo_d:
        return None
    if lo_n:
        d = scale * lo_d
        if lo_y is None:
            x1, y1 = lo_x, (Y1 * lo_d + dy * lo_n) / d
        else:
            x1, y1 = (X1 * lo_d + dx * lo_n) / d, lo_y
    if hi_n != hi_d:
        d = scale * hi_d
        if hi_y is None:
            x2, y2 = hi_x, (Y1 * hi_d + dy * hi_n) / d
        else:
            x2, y2 = (X1 * hi_d + dx * hi_n) / d, hi_y
    return ((x1, y1), (x2, y2))


@dataclass
class EquivalenceReport:
    """Outcome of replaying one corpus through a clipper and the oracle."""

    clipper: str
    tolerance: float
    cases_run: int = 0
    decision_mismatches: int = 0
    coordinate_mismatches: int = 0
    max_coordinate_error: float = 0.0
    failures: list[SegmentTuple] = field(default_factory=list)

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


_cached = None  # ((spec, w, exact_clip), segments, exact rows) or None


def check_equivalence(clipper, spec: GeneratorSpec, w: Window,
                      tolerance: float = 1e-9) -> EquivalenceReport:
    """Differential run of one clipper against the exact oracle.

    The oracle's results are kept as flat rows (x1, y1, x2, y2), the shape
    `clip_many` returns, so that an equal output compares equal at once.
    Coordinates are compared endpoint by endpoint, in order, with absolute
    allowance tolerance * max(1, window extent), and a NaN coordinate is an
    infinite error; accept/reject decisions must agree exactly.  Raises
    UnknownClipperError for an unknown id and ValueError unless the window
    is valid, the tolerance is finite and >= 0, the allowance is finite (no
    error, not even a NaN output's, would exceed an infinite one), and the
    spec's region has a finite width and height, which `gen_segments`
    checks.
    """
    global _cached
    clip = get_clipper(clipper)
    validate_window(w)
    if not 0.0 <= tolerance < math.inf:  # also false for NaN
        raise ValueError(
            f"tolerance must be finite and >= 0: {tolerance!r}")
    abs_tol = tolerance * max(1.0, w.extent())
    if not math.isfinite(abs_tol):  # no error would exceed it, not even a NaN
        raise ValueError("tolerance * max(1, window extent) must be finite: "
                         f"{tolerance!r} * {w.extent()!r}")
    # one pause covers the corpus build, the clipping and the comparison;
    # outputs are clipped and compared `_CHUNK` segments at a time, and each
    # chunk's are freed before the next is clipped, so that no collection
    # rescans them and at most one chunk of them is alive
    with gc_paused():
        # one corpus checked by several clippers pays for the oracle once;
        # only the latest is kept, and it is dropped before the next is built
        key = (spec, w, exact_clip)
        entry = _cached
        if entry is None or entry[0] != key:
            _cached = entry = None
            segments = gen_segments(spec)
            _cached = entry = (key, segments, [
                None if (e := exact_clip(s, w)) is None else (*e[0], *e[1])
                for s in segments])
        _, segments, exacts = entry
        report = EquivalenceReport(clipper=clipper, tolerance=tolerance,
                                   cases_run=len(segments))
        counters = Counters()
        for i in range(0, len(segments), _CHUNK):
            chunk = segments[i:i + _CHUNK]
            outs = clip_many(clip, chunk, w, counters)
            for s, out, exact in zip(chunk, outs, exacts[i:i + _CHUNK]):
                if out == exact:  # both None, or the same rows
                    continue
                if out is None or exact is None:
                    report.decision_mismatches += 1
                    report.failures.append(s)
                    continue
                # the largest coordinate deviation, endpoints in order
                # (every clipper keeps its input's endpoint order), and inf
                # when an output coordinate is NaN: a sum keeps every NaN
                oax, oay, obx, oby = out
                eax, eay, ebx, eby = exact
                e1, e2 = abs(oax - eax), abs(oay - eay)
                e3, e4 = abs(obx - ebx), abs(oby - eby)
                total = e1 + e2 + e3 + e4
                e1 = e1 if e1 > e2 else e2
                e3 = e3 if e3 > e4 else e4
                err = (e1 if e1 > e3 else e3) if total == total else math.inf
                if err > report.max_coordinate_error:
                    report.max_coordinate_error = err
                if err > abs_tol:
                    report.coordinate_mismatches += 1
                    report.failures.append(s)
            del outs
    return report
