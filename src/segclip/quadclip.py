"""Segment clipping driven by corner-orientation tests.

The idea: treat both the segment being clipped and each window boundary as
finite segments.  Joining the segment's endpoints to the two corners of a
boundary forms a quadrilateral; the segment crosses that boundary exactly
when the quadrilateral is convex, which a signed cross product at each
corner decides.  Because every boundary crossing is confirmed before its
coordinates are computed, each division performed yields a point of the
final clipped segment and no false intersections are ever produced.

A full segment is clipped by two calls of the endpoint procedure: the first
call may move endpoint A onto the window outline; the second processes B
against the *updated* A.  Inside the procedure an x-axis section runs before
a y-axis section, the y section reading the possibly-moved endpoint.  A
predicate rejection inside a section records display flag 0 without an early
return -- the segment may still enter through a horizontal boundary, and only
the flag left by the final executed assignment matters.  Boundary comparisons
are strict, so points lying exactly on the window outline count as inside and
segments along an edge pass through unchanged; a zero orientation value
(segment grazing a corner) is likewise not a rejection and degenerates the
output to a single point.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .geom import ClipResult, Counters, Point, Window, per_call


class EndpointOutcome(NamedTuple):
    """Result of processing one endpoint.

    Either a same-side trivial rejection of the whole segment, or the
    (possibly moved) endpoint together with the display flag the procedure
    left behind: 1 to continue, 0 to reject.
    """

    trivially_rejected: bool
    point: Optional[Point] = None
    flag: int = 0


def clip_endpoint(p1: Point, p2: Point, w: Window, counters: Counters) -> EndpointOutcome:
    """Process endpoint p1 of segment p1-p2 against the window.

    Moves p1 onto the window outline when the segment verifiably crosses a
    boundary there; flag 0 means the segment misses the window as seen from
    this endpoint's sections.

    The control flow is deliberate: predicate rejections assign the flag and
    fall through, the y section reads the x section's updated coordinates,
    and the y section's assignment is the one returned.
    """
    (x1, y1), (x2, y2) = p1, p2
    xl, xr, yb, yt = w
    if x1 < xl:
        if x2 < xl:
            return EndpointOutcome(True)
        counters.predicate_evals += 1
        if (xl - x2) * (y1 - yt) < (x1 - xl) * (yt - y2):
            flag = 0  # passes above the top-left corner
        else:
            counters.predicate_evals += 1
            if (xl - x2) * (y1 - yb) > (x1 - xl) * (yb - y2):
                flag = 0  # passes below the bottom-left corner
            else:
                counters.divisions += 1
                counters.intersections_computed += 1
                y1 = y1 + (y2 - y1) * (xl - x1) / (x2 - x1)
                x1 = xl
                flag = 1
    elif x1 > xr:
        if x2 > xr:
            return EndpointOutcome(True)
        counters.predicate_evals += 1
        if (xr - x2) * (y1 - yt) > (x1 - xr) * (yt - y2):
            flag = 0  # passes above the top-right corner
        else:
            counters.predicate_evals += 1
            if (xr - x2) * (y1 - yb) < (x1 - xr) * (yb - y2):
                flag = 0  # passes below the bottom-right corner
            else:
                counters.divisions += 1
                counters.intersections_computed += 1
                y1 = y1 + (y2 - y1) * (xr - x1) / (x2 - x1)
                x1 = xr
                flag = 1
    else:
        flag = 1

    if y1 < yb:
        if y2 < yb:
            return EndpointOutcome(True)
        counters.predicate_evals += 1
        if (xl - x2) * (y1 - yb) < (x1 - xl) * (yb - y2):
            flag = 0  # passes left of the bottom-left corner
        else:
            counters.predicate_evals += 1
            if (xr - x2) * (y1 - yb) > (x1 - xr) * (yb - y2):
                flag = 0  # passes right of the bottom-right corner
            else:
                counters.divisions += 1
                counters.intersections_computed += 1
                x1 = x1 + (x2 - x1) * (yb - y1) / (y2 - y1)
                y1 = yb
                flag = 1
    elif y1 > yt:
        if y2 > yt:
            return EndpointOutcome(True)
        counters.predicate_evals += 1
        if (xl - x2) * (y1 - yt) > (x1 - xl) * (yt - y2):
            flag = 0  # passes left of the top-left corner
        else:
            counters.predicate_evals += 1
            if (xr - x2) * (y1 - yt) < (x1 - xr) * (yt - y2):
                flag = 0  # passes right of the top-right corner
            else:
                counters.divisions += 1
                counters.intersections_computed += 1
                x1 = x1 + (x2 - x1) * (yt - y1) / (y2 - y1)
                y1 = yt
                flag = 1
    else:
        flag = 1

    return EndpointOutcome(False, Point(x1, y1), flag)


def clip_segments(segments, w: Window, counters: Counters) -> list[ClipResult]:
    """Clip every segment against window w: one result per input, in order.

    A result is None when the segment is rejected, and otherwise a new
    flat row (x1, y1, x2, y2) of floats with endpoint order preserved,
    moved or not: callers unpack or index it, and only `clip_segment`
    turns it into a Segment of Points.  Each segment
    takes two endpoint passes: first over (a, b), then -- when the first
    pass kept the segment alive -- over (b, updated a).

    This is the hot path, so the two `clip_endpoint` passes are inlined
    (the inner loop swaps the endpoint roles between them): a rejection
    breaks out of that loop and its `else` accepts.  An x-section predicate
    rejection only leaves the endpoint unmoved, as `clip_endpoint`'s y
    section always overwrites the flag it sets.  Each section forms a
    difference once and reuses it: as `xl - ax` is exactly `-(ax - xl)`,
    `ay - (by - ay) * v / (bx - ax)` is `clip_endpoint`'s `y1 + (y2 - y1) *
    (xl - x1) / (x2 - x1)` bit for bit.

    Counts are taken once where each path ends, not at every test.  A
    section that tests corners ends in one of three tallies: `pe += 1`
    when its first corner test rejects, `pe += 2` when its second does,
    and `ic += 1` when both pass and the endpoint moves (two predicates
    and one division).  The tallies stay in locals until they are added
    to `counters` once per call: `pe + 2 * ic` predicate evaluations and
    `ic` divisions and intersections.  Results and counts are identical
    to the two-call composition, which the test suite pins.
    """
    xl, xr, yb, yt = w
    pe = 0
    ic = 0
    out = []
    append = out.append
    for (ax, ay), (bx, by) in segments:
        for _ in (0, 1):
            # x section: a predicate rejection (passes above the top or
            # below the bottom corner) leaves the endpoint for the y section.
            # A NaN product makes a predicate False, so the endpoint moves,
            # as `clip_endpoint`'s `else` branches do
            if ax < xl:
                if bx < xl:
                    break
                u = xl - bx
                v = ax - xl
                if u * (ay - yt) < v * (yt - by):
                    pe += 1  # passes above the top-left corner
                elif u * (ay - yb) > v * (yb - by):
                    pe += 2  # passes below the bottom-left corner
                else:
                    ic += 1
                    ay = ay - (by - ay) * v / (bx - ax)
                    ax = xl
            elif ax > xr:
                if bx > xr:
                    break
                u = xr - bx
                v = ax - xr
                if u * (ay - yt) > v * (yt - by):
                    pe += 1  # passes above the top-right corner
                elif u * (ay - yb) < v * (yb - by):
                    pe += 2  # passes below the bottom-right corner
                else:
                    ic += 1
                    ay = ay - (by - ay) * v / (bx - ax)
                    ax = xr

            if ay < yb:
                if by < yb:
                    break
                u = ay - yb
                v = yb - by
                if (xl - bx) * u < (ax - xl) * v:
                    pe += 1  # passes left of the bottom-left corner
                    break
                if (xr - bx) * u > (ax - xr) * v:
                    pe += 2  # passes right of the bottom-right corner
                    break
                ic += 1
                ax = ax - (bx - ax) * u / (by - ay)
                ay = yb
            elif ay > yt:
                if by > yt:
                    break
                u = ay - yt
                v = yt - by
                if (xl - bx) * u > (ax - xl) * v:
                    pe += 1  # passes left of the top-left corner
                    break
                if (xr - bx) * u < (ax - xr) * v:
                    pe += 2  # passes right of the top-right corner
                    break
                ic += 1
                ax = ax - (bx - ax) * u / (by - ay)
                ay = yt
            # swap roles as two pairs: a swap of four names builds a tuple
            ax, bx = bx, ax
            ay, by = by, ay
        else:
            # the role swap ran twice, so (ax, ay) is endpoint A again
            append((ax, ay, bx, by))
            continue
        append(None)

    counters.predicate_evals += pe + 2 * ic
    counters.divisions += ic
    counters.intersections_computed += ic
    return out


clip_segment = per_call(clip_segments, "clip_segment")
