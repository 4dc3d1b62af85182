"""Instrumented classic clippers and the table of clippers by id.

Cohen-Sutherland classifies endpoints with 4-bit region outcodes and clips
iteratively against boundary lines; Liang-Barsky confines the parametric
form x = x1 + (x2 - x1)t, y = y1 + (y2 - y1)t, 0 <= t <= 1, to the window.
Both intersect against boundary *lines*, so both can spend divisions on
points that never appear in the output; the counters make that visible.

`CLIPPERS` maps the ids "quadclip", "cs" and "lb" to functions with the
uniform signature (segment, window, counters) -> clipped Segment or None,
so the benchmark, verification and CLI treat every algorithm identically.
Each is `geom.per_call` of its algorithm's batch kernel, which it carries
as `.kernel`, and `clip_many` clips a whole corpus with that kernel, whose
results are flat rows (x1, y1, x2, y2).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from .geom import ClipResult, Counters, Segment, Window, per_call
from .quadclip import clip_segment

# Region outcode bits.  Strict comparisons: boundary points code as INSIDE.
INSIDE = 0
LEFT = 1
RIGHT = 2
BOTTOM = 4
TOP = 8


def cs_clip_segments(segments, w: Window,
                     counters: Counters) -> list[ClipResult]:
    """Cohen-Sutherland clipping of every segment: one result per input,
    in order, None for a rejection and a new flat row (x1, y1, x2, y2) of
    floats for an acceptance.

    Boundary processing order is fixed (left, right, bottom, top) so the
    instrumentation counters are deterministic; the order does not affect
    the output.  Every boundary-line intersection computed counts, whether
    or not it survives into the result.

    Counts are taken where they cannot be derived: `ic` counts the
    intersections, one per pass of the clipping loop, and each pass also
    codes its moved endpoint.  Every segment codes its two endpoints, so
    the once-per-call flush adds `2 * len(out) + ic` predicate evaluations
    and `ic` divisions and intersections to `counters`.
    """
    xl, xr, yb, yt = w
    ic = 0
    out = []
    append = out.append
    for (x1, y1), (x2, y2) in segments:
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
            append((x1, y1, x2, y2))

    counters.predicate_evals += 2 * len(out) + ic
    counters.divisions += ic
    counters.intersections_computed += ic
    return out


def lb_clip_segments(segments, w: Window,
                     counters: Counters) -> list[ClipResult]:
    """Liang-Barsky clipping of every parametric segment, t confined to
    [0, 1]: one result per input, in order, None for a rejection and a new
    flat row (x1, y1, x2, y2) of floats for an acceptance.

    Each boundary contributes a constraint p*t <= q; a division is spent on
    every boundary whose p is nonzero, even when the segment ends up
    rejected or the parameter is discarded.

    As in Liang and Barsky's clipT, the four boundaries are tested one
    after another (left, right, bottom, top), each forming its p and q
    only when it is tested, and the first rejection ends the segment.
    This is the hot path, so the tests are written out in turn instead of
    looping over a tuple of (p, q) pairs; results and counts are those of
    the loop, which the test suite keeps as the readable reference.

    Counts are taken once where each path ends, not at every test.  Every
    boundary tested is one predicate evaluation and, unless its p is zero,
    one division.  A rejection at the left, right or bottom boundary adds
    the 3, 2 or 1 boundaries it leaves untested to `sk`, and every tested
    boundary whose p is zero adds 1 to `zp`.  The once-per-call flush adds
    `pe = 4 * len(out) - sk` predicate evaluations, `pe - zp` divisions
    and `ic` intersections to `counters`.
    """
    xl, xr, yb, yt = w
    sk = 0
    zp = 0
    ic = 0
    out = []
    append = out.append
    for (x1, y1), (x2, y2) in segments:
        dx = x2 - x1
        dy = y2 - y1
        t0 = 0.0
        t1 = 1.0
        # left: p = -dx, q = x1 - xl
        p = -dx
        q = x1 - xl
        if p == 0.0:
            zp += 1
            if q < 0.0:
                sk += 3
                append(None)  # parallel to this boundary and outside it
                continue
        else:
            r = q / p
            if p < 0.0:  # entering constraint: t >= r
                if r > t0:
                    t0 = r
            elif r < t1:  # leaving constraint: t <= r
                t1 = r
            if t0 > t1:
                sk += 3
                append(None)  # no parameter satisfies every constraint
                continue
        # right: p = dx, q = xr - x1
        q = xr - x1
        if dx == 0.0:
            zp += 1
            if q < 0.0:
                sk += 2
                append(None)
                continue
        else:
            r = q / dx
            if dx < 0.0:
                if r > t0:
                    t0 = r
            elif r < t1:
                t1 = r
            if t0 > t1:
                sk += 2
                append(None)
                continue
        # bottom: p = -dy, q = y1 - yb
        p = -dy
        q = y1 - yb
        if p == 0.0:
            zp += 1
            if q < 0.0:
                sk += 1
                append(None)
                continue
        else:
            r = q / p
            if p < 0.0:
                if r > t0:
                    t0 = r
            elif r < t1:
                t1 = r
            if t0 > t1:
                sk += 1
                append(None)
                continue
        # top: p = dy, q = yt - y1
        q = yt - y1
        if dy == 0.0:
            zp += 1
            if q < 0.0:
                append(None)
                continue
        else:
            r = q / dy
            if dy < 0.0:
                if r > t0:
                    t0 = r
            elif r < t1:
                t1 = r
            if t0 > t1:
                append(None)
                continue
        # B first, so that both moves start from the input's A
        if t1 < 1.0:
            ic += 1
            x2, y2 = x1 + t1 * dx, y1 + t1 * dy
        if t0 > 0.0:
            ic += 1
            x1, y1 = x1 + t0 * dx, y1 + t0 * dy
        append((x1, y1, x2, y2))

    pe = 4 * len(out) - sk
    counters.predicate_evals += pe
    counters.divisions += pe - zp
    counters.intersections_computed += ic
    return out


cs_clip = per_call(cs_clip_segments, "cs_clip")
lb_clip = per_call(lb_clip_segments, "lb_clip")

ClipFn = Callable[[Segment, Window, Counters], Optional[Segment]]

CLIPPERS: Dict[str, ClipFn] = {"quadclip": clip_segment, "cs": cs_clip,
                               "lb": lb_clip}


class UnknownClipperError(KeyError):
    """No clipper under the requested id, which is its one argument."""

    def __str__(self):
        return f"unknown algorithm: {self.args[0]}"


def get_clipper(name: str) -> ClipFn:
    try:
        return CLIPPERS[name]
    except KeyError:
        raise UnknownClipperError(name) from None


def clip_many(clip: ClipFn, segments, w: Window,
              counters: Counters) -> list[ClipResult]:
    """`clip(s, w, counters)` of each segment, in order, as None or a flat
    row (x1, y1, x2, y2): the coordinates of the per-call clipper's
    result, endpoints in order.

    When `clip` was built by `geom.per_call`, one call of `clip.kernel`
    computes them, and the kernel's list of rows is returned as it is.
    Any other callable (a test's fake clipper, a tracing wrapper) has no
    `.kernel`: it is called once per segment, in order, and each result it
    returns other than None, an endpoint pair, is flattened to a row.
    """
    kernel = getattr(clip, "kernel", None)
    if kernel is None:
        return [None if (r := clip(s, w, counters)) is None
                else (*r[0], *r[1]) for s in segments]
    return kernel(segments, w, counters)
