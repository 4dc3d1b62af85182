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

from dataclasses import dataclass
from typing import Optional

from .geom import ClipResult, Counters, Point, Segment, Window


def quad_orientation(p1: Point, p2: Point, corner: Point) -> float:
    """Signed area term (corner - p2) x (p1 - corner).

    Zero iff p1, p2, corner are collinear; the sign tells on which side of
    the directed line p1->p2 the window corner lies, i.e. whether the
    quadrilateral built from the segment and a boundary segment ending at
    `corner` is concave or convex there.
    """
    (x1, y1), (x2, y2), (cx, cy) = p1, p2, corner
    return (cx - x2) * (y1 - cy) - (cy - y2) * (x1 - cx)


@dataclass(frozen=True)
class EndpointOutcome:
    """Result of processing one endpoint.

    Either a same-side trivial rejection of the whole segment, or the
    (possibly moved) endpoint together with the display flag the procedure
    left behind: 1 to continue, 0 to reject.
    """

    trivially_rejected: bool
    point: Optional[Point] = None
    flag: int = 0


def _clip_endpoint(x1, y1, x2, y2, xl, xr, yb, yt, c: Counters):
    """One endpoint pass; returns (x1, y1, flag) or None on trivial rejection.

    The control flow is deliberate: predicate rejections assign the flag and
    fall through, the y section reads the x section's updated coordinates,
    and the y section's assignment is the one returned.
    """
    if x1 < xl:
        if x2 < xl:
            return None
        c.predicate_evals += 1
        if (xl - x2) * (y1 - yt) < (x1 - xl) * (yt - y2):
            flag = 0  # passes above the top-left corner
        else:
            c.predicate_evals += 1
            if (xl - x2) * (y1 - yb) > (x1 - xl) * (yb - y2):
                flag = 0  # passes below the bottom-left corner
            else:
                c.divisions += 1
                c.intersections_computed += 1
                y1 = y1 + (y2 - y1) * (xl - x1) / (x2 - x1)
                x1 = xl
                flag = 1
    elif x1 > xr:
        if x2 > xr:
            return None
        c.predicate_evals += 1
        if (xr - x2) * (y1 - yt) > (x1 - xr) * (yt - y2):
            flag = 0  # passes above the top-right corner
        else:
            c.predicate_evals += 1
            if (xr - x2) * (y1 - yb) < (x1 - xr) * (yb - y2):
                flag = 0  # passes below the bottom-right corner
            else:
                c.divisions += 1
                c.intersections_computed += 1
                y1 = y1 + (y2 - y1) * (xr - x1) / (x2 - x1)
                x1 = xr
                flag = 1
    else:
        flag = 1

    if y1 < yb:
        if y2 < yb:
            return None
        c.predicate_evals += 1
        if (xl - x2) * (y1 - yb) < (x1 - xl) * (yb - y2):
            flag = 0  # passes left of the bottom-left corner
        else:
            c.predicate_evals += 1
            if (xr - x2) * (y1 - yb) > (x1 - xr) * (yb - y2):
                flag = 0  # passes right of the bottom-right corner
            else:
                c.divisions += 1
                c.intersections_computed += 1
                x1 = x1 + (x2 - x1) * (yb - y1) / (y2 - y1)
                y1 = yb
                flag = 1
    elif y1 > yt:
        if y2 > yt:
            return None
        c.predicate_evals += 1
        if (xl - x2) * (y1 - yt) > (x1 - xl) * (yt - y2):
            flag = 0  # passes left of the top-left corner
        else:
            c.predicate_evals += 1
            if (xr - x2) * (y1 - yt) < (x1 - xr) * (yt - y2):
                flag = 0  # passes right of the top-right corner
            else:
                c.divisions += 1
                c.intersections_computed += 1
                x1 = x1 + (x2 - x1) * (yt - y1) / (y2 - y1)
                y1 = yt
                flag = 1
    else:
        flag = 1

    return x1, y1, flag


def clip_endpoint(p1: Point, p2: Point, w: Window, counters: Counters) -> EndpointOutcome:
    """Process endpoint p1 of segment p1-p2 against the window.

    Moves p1 onto the window outline when the segment verifiably crosses a
    boundary there; flag 0 means the segment misses the window as seen from
    this endpoint's sections.
    """
    out = _clip_endpoint(p1[0], p1[1], p2[0], p2[1],
                         w[0], w[1], w[2], w[3], counters)
    if out is None:
        return EndpointOutcome(trivially_rejected=True)
    x, y, flag = out
    return EndpointOutcome(False, Point(x, y), flag)


def clip_segment(s: Segment, w: Window, counters: Counters) -> ClipResult:
    """Clip segment s against window w; None when rejected.

    Two endpoint passes: first over (a, b), then -- when the first pass kept
    the segment alive -- over (b, updated a).  Accepted output preserves
    endpoint order; unmoved endpoints come through unchanged.

    This is the timed hot path, so the two `clip_endpoint` passes are
    inlined (the loop swaps the endpoint roles between them), a rejection
    sets flag 0 and breaks out of the loop, and the counts are added to
    `counters` once per call; results and counts are identical to the
    two-call composition, which the test suite pins.
    """
    (ax, ay), (bx, by) = s
    xl, xr, yb, yt = w
    pe = 0
    ic = 0
    for _ in (0, 1):
        if ax < xl:
            if bx < xl:
                flag = 0
                break
            pe += 1
            u = xl - bx
            v = ax - xl
            if u * (ay - yt) < v * (yt - by):
                flag = 0  # passes above the top-left corner
            else:
                pe += 1
                if u * (ay - yb) > v * (yb - by):
                    flag = 0  # passes below the bottom-left corner
                else:
                    ic += 1
                    ay = ay + (by - ay) * (xl - ax) / (bx - ax)
                    ax = xl
                    flag = 1
        elif ax > xr:
            if bx > xr:
                flag = 0
                break
            pe += 1
            u = xr - bx
            v = ax - xr
            if u * (ay - yt) > v * (yt - by):
                flag = 0  # passes above the top-right corner
            else:
                pe += 1
                if u * (ay - yb) < v * (yb - by):
                    flag = 0  # passes below the bottom-right corner
                else:
                    ic += 1
                    ay = ay + (by - ay) * (xr - ax) / (bx - ax)
                    ax = xr
                    flag = 1
        else:
            flag = 1

        if ay < yb:
            if by < yb:
                flag = 0
                break
            pe += 1
            u = ay - yb
            if (xl - bx) * u < (ax - xl) * (yb - by):
                flag = 0  # passes left of the bottom-left corner
            else:
                pe += 1
                if (xr - bx) * u > (ax - xr) * (yb - by):
                    flag = 0  # passes right of the bottom-right corner
                else:
                    ic += 1
                    ax = ax + (bx - ax) * (yb - ay) / (by - ay)
                    ay = yb
                    flag = 1
        elif ay > yt:
            if by > yt:
                flag = 0
                break
            pe += 1
            u = ay - yt
            if (xl - bx) * u > (ax - xl) * (yt - by):
                flag = 0  # passes left of the top-left corner
            else:
                pe += 1
                if (xr - bx) * u < (ax - xr) * (yt - by):
                    flag = 0  # passes right of the top-right corner
                else:
                    ic += 1
                    ax = ax + (bx - ax) * (yt - ay) / (by - ay)
                    ay = yt
                    flag = 1
        else:
            flag = 1

        if flag == 0:
            break
        ax, ay, bx, by = bx, by, ax, ay

    if pe:
        counters.predicate_evals += pe
        if ic:  # every division follows a predicate
            counters.divisions += ic
            counters.intersections_computed += ic
    if flag == 0:
        return None
    if ic:
        # the role swap ran twice, so (ax, ay) is endpoint A again
        return Segment(Point(ax, ay), Point(bx, by))
    return s  # nothing moved
