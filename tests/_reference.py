"""Independent exact reference used to validate frozen expected values.

Written the dumbest possible way -- fractions.Fraction end to end, no code
shared with segclip.oracle (which scales to big integers internally).  The
float helpers after it serve test filters and assertions only,
`lb_clip_segments` keeps Liang-Barsky's loop over (p, q) pairs,
`checksum_segments` the bench checksum's plain loop, and `parse_segments`
the segment parser's loop over single lines.
"""

import math
from fractions import Fraction

from segclip import Point, SegmentFormatError


def frac_orientation(p1, p2, corner):
    """Exact value of the corner orientation cross product."""
    x1, y1 = map(Fraction, p1)
    x2, y2 = map(Fraction, p2)
    cx, cy = map(Fraction, corner)
    return (cx - x2) * (y1 - cy) - (cy - y2) * (x1 - cx)


def frac_clip(seg, window):
    """Exact closed-window clip of the parametric segment.

    Returns None or ((ax, ay), (bx, by)) as Fractions.
    """
    (x1, y1), (x2, y2) = seg
    x1, y1, x2, y2 = map(Fraction, (x1, y1, x2, y2))
    xl, xr, yb, yt = map(Fraction, window)
    dx = x2 - x1
    dy = y2 - y1
    lo = Fraction(0)
    hi = Fraction(1)
    for p, q in ((-dx, x1 - xl), (dx, xr - x1), (-dy, y1 - yb), (dy, yt - y1)):
        if p == 0:
            if q < 0:
                return None
        else:
            r = q / p
            if p < 0:
                lo = max(lo, r)
            else:
                hi = min(hi, r)
    if lo > hi:
        return None
    return ((x1 + dx * lo, y1 + dy * lo), (x1 + dx * hi, y1 + dy * hi))


def quad_orientation(p1, p2, corner):
    """Signed area term (corner - p2) x (p1 - corner).

    Zero iff p1, p2, corner are collinear; the sign tells on which side of
    the directed line p1->p2 the window corner lies, i.e. whether the
    quadrilateral built from the segment and a boundary segment ending at
    `corner` is concave or convex there.
    """
    (x1, y1), (x2, y2), (cx, cy) = p1, p2, corner
    return (cx - x2) * (y1 - cy) - (cy - y2) * (x1 - cx)


def corners(w):
    """The four corner points: BL, BR, TL, TR."""
    xl, xr, yb, yt = w
    return (Point(xl, yb), Point(xr, yb), Point(xl, yt), Point(xr, yt))


def window_contains(p, w, ulps: int = 4) -> bool:
    """Closed-window containment with a small floating-point allowance.

    The allowance is `ulps` units in the last place measured at the window's
    coordinate scale per axis (measuring at the boundary value itself would
    make the allowance vacuous for a boundary at 0).
    """
    xl, xr, yb, yt = w
    sx = ulps * math.ulp(max(abs(xl), abs(xr)))
    sy = ulps * math.ulp(max(abs(yb), abs(yt)))
    return xl - sx <= p[0] <= xr + sx and yb - sy <= p[1] <= yt + sy


def lb_clip_segments(segments, w, counters):
    """`segclip.baselines.lb_clip_segments` as a loop over the four
    boundaries' (p, q) pairs: the same results, bit for bit, and the same
    counts."""
    xl, xr, yb, yt = w
    pe = 0
    dv = 0
    ic = 0
    out = []
    append = out.append
    for (x1, y1), (x2, y2) in segments:
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
                    break  # parallel to this boundary and outside it
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
        else:
            # B first, so that both moves start from the input's A
            if t1 < 1.0:
                ic += 1
                x2, y2 = x1 + t1 * dx, y1 + t1 * dy
            if t0 > 0.0:
                ic += 1
                x1, y1 = x1 + t0 * dx, y1 + t0 * dy
            append((x1, y1, x2, y2))
            continue
        append(None)

    counters.predicate_evals += pe
    counters.divisions += dv
    counters.intersections_computed += ic
    return out


def checksum_segments(segments) -> float:
    """`segclip.bench.checksum_segments` as one plain loop: the same sum of
    `round(v * 1e6)` terms over rows (x1, y1, x2, y2) and the same error
    for a non-finite term."""
    micro = 0
    try:
        for ax, ay, bx, by in segments:
            micro += (round(ax * 1e6) + round(ay * 1e6)
                      + round(bx * 1e6) + round(by * 1e6))
    except (OverflowError, ValueError):  # round() of an inf or a NaN
        raise ValueError(f"cannot checksum output segment (({ax!r}, {ay!r}), "
                         f"({bx!r}, {by!r})): a coordinate times 1e6 is "
                         "not finite"
                         ) from None
    return micro / 1e6


def parse_segments(lines):
    """`segclip.parse_segments` one line at a time: the same plain
    `((x1, y1), (x2, y2))` tuples, and the same SegmentFormatError for the
    first faulty line."""
    segments = []
    for line_number, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 4:
            raise SegmentFormatError(
                line_number, f"expected 4 coordinates, got {len(tokens)}")
        coords = []
        for token in tokens:
            try:
                v = float(token)
            except ValueError:
                raise SegmentFormatError(
                    line_number, f"not a number: {token!r}") from None
            if not math.isfinite(v):
                raise SegmentFormatError(
                    line_number, f"coordinate must be finite: {token!r}")
            coords.append(v)
        x1, y1, x2, y2 = coords
        segments.append(((x1, y1), (x2, y2)))
    return segments
