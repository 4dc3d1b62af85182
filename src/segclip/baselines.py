"""Instrumented classic clippers and the table of clippers by id.

Cohen-Sutherland classifies endpoints with 4-bit region outcodes and clips
iteratively against boundary lines; Liang-Barsky confines the parametric
form x = x1 + (x2 - x1)t, y = y1 + (y2 - y1)t, 0 <= t <= 1, to the window.
Both intersect against boundary *lines*, so both can spend divisions on
points that never appear in the output; the counters make that visible.

`CLIPPERS` maps the ids "quadclip", "cs" and "lb" to functions with the
uniform signature (segment, window, counters) -> clipped segment or None,
so the benchmark, verification and CLI treat every algorithm identically.
Each of them is one call of its algorithm's batch kernel, and `clip_many`
clips a whole corpus with that kernel.
"""

from __future__ import annotations

from typing import Callable, Dict

from .geom import ClipResult, Counters, Point, Segment, Window
from .quadclip import clip_segment, clip_segments

# Region outcode bits.  Strict comparisons: boundary points code as INSIDE.
INSIDE = 0
LEFT = 1
RIGHT = 2
BOTTOM = 4
TOP = 8


def cs_clip_segments(segments, w: Window,
                     counters: Counters) -> list[ClipResult]:
    """Cohen-Sutherland clipping of every segment: one result per input,
    in order, None for a rejection and a new Segment for an acceptance.

    Boundary processing order is fixed (left, right, bottom, top) so the
    instrumentation counters are deterministic; the order does not affect
    the output.  Every boundary-line intersection computed counts, whether
    or not it survives into the result.  The counts are added to
    `counters` once per call.
    """
    xl, xr, yb, yt = w
    new = tuple.__new__
    pe = 0
    ic = 0
    out = []
    append = out.append
    for (x1, y1), (x2, y2) in segments:
        pe += 2  # the two initial outcodes
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

        if code1 | code2:
            append(None)
        else:
            append(new(Segment, (new(Point, (x1, y1)), new(Point, (x2, y2)))))

    counters.predicate_evals += pe
    if ic:
        counters.divisions += ic
        counters.intersections_computed += ic
    return out


def lb_clip_segments(segments, w: Window,
                     counters: Counters) -> list[ClipResult]:
    """Liang-Barsky clipping of every parametric segment, t confined to
    [0, 1]: one result per input, in order, None for a rejection and a new
    Segment for an acceptance (an unmoved endpoint is the input's Point).

    Each boundary contributes a constraint p*t <= q; a division is spent on
    every boundary whose p is nonzero, even when the segment ends up
    rejected or the parameter is discarded.  The counts are added to
    `counters` once per call.
    """
    xl, xr, yb, yt = w
    new = tuple.__new__
    pe = 0
    dv = 0
    ic = 0
    out = []
    append = out.append
    for s in segments:
        a, b = s
        x1, y1 = a
        x2, y2 = b
        dx = x2 - x1
        dy = y2 - y1
        t0 = 0.0
        t1 = 1.0
        # Boundary order: left, right, bottom, top.
        for p, q in ((-dx, x1 - xl), (dx, xr - x1), (-dy, y1 - yb),
                     (dy, yt - y1)):
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
        if t0 > t1:
            append(None)
            continue
        if t0 > 0.0:
            ic += 1
            a = new(Point, (x1 + t0 * dx, y1 + t0 * dy))
        if t1 < 1.0:
            ic += 1
            b = new(Point, (x1 + t1 * dx, y1 + t1 * dy))
        append(new(Segment, (a, b)))

    counters.predicate_evals += pe
    if dv:
        counters.divisions += dv
    if ic:
        counters.intersections_computed += ic
    return out


def cs_clip(s: Segment, w: Window, counters: Counters) -> ClipResult:
    """Cohen-Sutherland clipping of one segment; None when rejected.  One
    call of the batch kernel `cs_clip_segments`."""
    return cs_clip_segments((s,), w, counters)[0]


def lb_clip(s: Segment, w: Window, counters: Counters) -> ClipResult:
    """Liang-Barsky clipping of one segment; None when rejected.  One call
    of the batch kernel `lb_clip_segments`."""
    return lb_clip_segments((s,), w, counters)[0]


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


_BATCH_KERNELS = {clip_segment: clip_segments, cs_clip: cs_clip_segments,
                  lb_clip: lb_clip_segments}


def clip_many(clip: ClipFn, segments, w: Window,
              counters: Counters) -> list[ClipResult]:
    """`[clip(s, w, counters) for s in segments]`, computed by one call of
    the batch kernel when `clip` is one of the per-call clippers above.

    Any other callable (a test's fake clipper, a tracing wrapper) is
    called once per segment, in order.
    """
    kernel = _BATCH_KERNELS.get(clip)
    if kernel is None:
        return [clip(s, w, counters) for s in segments]
    return kernel(segments, w, counters)
