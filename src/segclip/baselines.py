"""Instrumented classic clippers and the table of clippers by id.

Cohen-Sutherland classifies endpoints with 4-bit region outcodes and clips
iteratively against boundary lines; Liang-Barsky confines the parametric
form x = x1 + (x2 - x1)t, y = y1 + (y2 - y1)t, 0 <= t <= 1, to the window.
Both intersect against boundary *lines*, so both can spend divisions on
points that never appear in the output; the counters make that visible.

`CLIPPERS` maps the ids "quadclip", "cs" and "lb" to functions with the
uniform signature (segment, window, counters) -> clipped segment or None,
so the benchmark, verification and CLI treat every algorithm identically.
"""

from __future__ import annotations

from typing import Callable, Dict

from .geom import ClipResult, Counters, Point, Segment, Window
from .quadclip import clip_segment

# Region outcode bits.  Strict comparisons: boundary points code as INSIDE.
INSIDE = 0
LEFT = 1
RIGHT = 2
BOTTOM = 4
TOP = 8


def cs_clip(s: Segment, w: Window, counters: Counters) -> ClipResult:
    """Cohen-Sutherland clipping.

    Boundary processing order is fixed (left, right, bottom, top) so the
    instrumentation counters are deterministic; the order does not affect
    the output.  Every boundary-line intersection computed counts, whether
    or not it survives into the result.
    """
    (x1, y1), (x2, y2) = s
    xl, xr, yb, yt = w
    pe = 2  # the two initial outcodes
    ic = 0

    code1 = INSIDE
    if x1 < xl:
        code1 = LEFT
    elif x1 > xr:
        code1 = RIGHT
    if y1 < yb:
        code1 |= BOTTOM
    elif y1 > yt:
        code1 |= TOP
    code2 = INSIDE
    if x2 < xl:
        code2 = LEFT
    elif x2 > xr:
        code2 = RIGHT
    if y2 < yb:
        code2 |= BOTTOM
    elif y2 > yt:
        code2 |= TOP

    # until both are inside, or both strictly beyond one boundary
    while code1 | code2 and not code1 & code2:
        code = code1 if code1 else code2
        ic += 1
        if code & LEFT:
            y = y1 + (y2 - y1) * (xl - x1) / (x2 - x1)
            x = xl
        elif code & RIGHT:
            y = y1 + (y2 - y1) * (xr - x1) / (x2 - x1)
            x = xr
        elif code & BOTTOM:
            x = x1 + (x2 - x1) * (yb - y1) / (y2 - y1)
            y = yb
        else:  # TOP
            x = x1 + (x2 - x1) * (yt - y1) / (y2 - y1)
            y = yt
        pe += 1  # outcode of the moved endpoint
        ncode = INSIDE
        if x < xl:
            ncode = LEFT
        elif x > xr:
            ncode = RIGHT
        if y < yb:
            ncode |= BOTTOM
        elif y > yt:
            ncode |= TOP
        if code == code1:
            x1, y1, code1 = x, y, ncode
        else:
            x2, y2, code2 = x, y, ncode

    counters.predicate_evals += pe
    if ic:
        counters.divisions += ic
        counters.intersections_computed += ic
    if code1 | code2:
        return None
    return Segment(Point(x1, y1), Point(x2, y2))


def lb_clip(s: Segment, w: Window, counters: Counters) -> ClipResult:
    """Liang-Barsky clipping of the parametric segment, t confined to [0, 1].

    Each boundary contributes a constraint p*t <= q; a division is spent on
    every boundary whose p is nonzero, even when the segment ends up
    rejected or the parameter is discarded.
    """
    (x1, y1), (x2, y2) = s
    xl, xr, yb, yt = w
    dx = x2 - x1
    dy = y2 - y1
    t0 = 0.0
    t1 = 1.0
    pe = 0
    dv = 0
    # Boundary order: left, right, bottom, top.
    for p, q in ((-dx, x1 - xl), (dx, xr - x1), (-dy, y1 - yb), (dy, yt - y1)):
        pe += 1
        if p == 0.0:
            if q < 0.0:
                t1 = -1.0  # parallel to this boundary and outside it
                break
        else:
            dv += 1
            r = q / p
            if p < 0.0:  # entering constraint: t >= r
                if r > t0:
                    t0 = r
            elif r < t1:  # leaving constraint: t <= r
                t1 = r
            if t0 > t1:
                break  # no parameter satisfies every constraint so far
    counters.predicate_evals += pe
    if dv:
        counters.divisions += dv
    if t0 > t1:
        return None
    if t0 > 0.0:
        counters.intersections_computed += 1
        a = Point(x1 + t0 * dx, y1 + t0 * dy)
    else:
        a = s.a
    if t1 < 1.0:
        counters.intersections_computed += 1
        b = Point(x1 + t1 * dx, y1 + t1 * dy)
    else:
        b = s.b
    return Segment(a, b)


ClipFn = Callable[[Segment, Window, Counters], ClipResult]

CLIPPERS: Dict[str, ClipFn] = {"quadclip": clip_segment, "cs": cs_clip,
                               "lb": lb_clip}


class UnknownClipperError(KeyError):
    """No clipper under the requested id."""


def get_clipper(name: str) -> ClipFn:
    try:
        return CLIPPERS[name]
    except KeyError:
        raise UnknownClipperError(name) from None
