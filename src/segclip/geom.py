"""Shared geometry types, window validation, and the segment text format.

Coordinates are double-precision floats.  All value types are immutable;
the only mutable object is :class:`Counters`, which a caller creates per
clipping context (one per thread when clipping concurrently).
"""

from __future__ import annotations

import gc
import math
from typing import Iterable, NamedTuple, Optional


class Point(NamedTuple):
    """Immutable 2D point (world units)."""

    x: float
    y: float


class Segment(NamedTuple):
    """Ordered endpoint pair (a, b); zero length (a == b) is legal."""

    a: Point
    b: Point


class Window(NamedTuple):
    """Axis-aligned clipping rectangle: x_left < x_right, y_bottom < y_top."""

    x_left: float
    x_right: float
    y_bottom: float
    y_top: float

    def extent(self) -> float:
        """Larger of width and height."""
        return max(self.x_right - self.x_left, self.y_top - self.y_bottom)


DEFAULT_WINDOW = Window(0.0, 10.0, 0.0, 10.0)


# A clipper either rejects a segment outright (None) or accepts a possibly
# degenerate clipped segment.
ClipResult = Optional[Segment]


class Counters:
    """Instrumentation record threaded through every clipper call.

    divisions               -- coordinate divisions performed
    intersections_computed  -- boundary intersection points materialized
    predicate_evals         -- sign tests / outcodes / parametric boundary
                               checks evaluated, depending on the algorithm

    Counts only ever increase; create a fresh instance per measurement.
    """

    __slots__ = ("divisions", "intersections_computed", "predicate_evals")

    def __init__(self):
        self.divisions = 0
        self.intersections_computed = 0
        self.predicate_evals = 0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self):
        return "Counters(%s)" % ", ".join(
            f"{k}={getattr(self, k)}" for k in self.__slots__)


class gc_paused:
    """Context manager: pause cyclic GC for the block and then restore the
    caller's setting.

    For code that keeps many acyclic tuples alive at once (corpora, clip
    results): reference counting frees them, and each collection would only
    rescan them.  Re-enabling is the last thing `__exit__` does, because an
    allocation after it, with everything made during the block still
    alive, would start a collection over all of it.  The caller keeps the
    same rule: results made inside a pause are freed before it ends (use
    them, then `del` them, inside the block).  Only what must outlive the
    pause, such as a cache, is left for the next collection to scan.
    """

    def __enter__(self):
        self.was_enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc_info):
        if self.was_enabled:
            gc.enable()


class DegenerateWindowError(ValueError):
    """Window bounds are inverted or empty."""


class NonFiniteError(ValueError):
    """A coordinate is NaN or infinite."""


class SegmentFormatError(ValueError):
    """A segment file line could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def validate_window(w: Window) -> Window:
    """Return w unchanged, or raise for non-finite or inverted bounds."""
    if not (math.isfinite(w[0]) and math.isfinite(w[1])
            and math.isfinite(w[2]) and math.isfinite(w[3])):
        raise NonFiniteError(f"window bounds must be finite: {w!r}")
    if not (w[0] < w[1] and w[2] < w[3]):
        raise DegenerateWindowError(
            f"window requires x_left < x_right and y_bottom < y_top: {w!r}")
    return w


# --- segment text format ----------------------------------------------------
#
# One segment per line: four whitespace-separated decimal reals `x1 y1 x2 y2`.
# Lines whose first non-blank character is `#` are comments; blank lines are
# ignored.  Files are UTF-8.

def format_coord(v: float) -> str:
    """Fixed 9-significant-digit rendering, stable under reparsing."""
    return format(float(v), ".9g")


def segment_line(s: Segment) -> str:
    (x1, y1), (x2, y2) = s
    return (f"{format_coord(x1)} {format_coord(y1)} "
            f"{format_coord(x2)} {format_coord(y2)}")


def _parse_real(token: str, line_number: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise SegmentFormatError(line_number, f"not a number: {token!r}") from None
    if not math.isfinite(v):
        raise SegmentFormatError(line_number, f"coordinate must be finite: {token!r}")
    return v


def _parse_line(tokens: list[str], line_number: int) -> tuple[float, ...]:
    """The four coordinates of one line's tokens, or SegmentFormatError for
    its first fault: the arity, then each token in column order."""
    if len(tokens) != 4:
        raise SegmentFormatError(
            line_number, f"expected 4 coordinates, got {len(tokens)}")
    return tuple(_parse_real(t, line_number) for t in tokens)


def parse_segments(lines: Iterable[str]) -> list[Segment]:
    """Parse the segment text format; raises SegmentFormatError with a 1-based
    line number on the first malformed line."""
    segments = []
    append = segments.append
    new = tuple.__new__  # skips the named tuples' own __new__
    for line_number, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        try:
            x1, y1, x2, y2 = map(float, tokens)
        except ValueError:  # wrong arity or a token that is not a number
            x1 = y1 = x2 = y2 = math.nan
        # v * 0.0 is a zero for finite v and NaN for NaN or an infinity.  A
        # line failing either check goes through _parse_line, which raises
        # the error for its first fault.
        if x1 * 0.0 + y1 * 0.0 + x2 * 0.0 + y2 * 0.0 != 0.0:
            x1, y1, x2, y2 = _parse_line(tokens, line_number)
        append(new(Segment, (new(Point, (x1, y1)), new(Point, (x2, y2)))))
    return segments


def read_segments(path) -> list[Segment]:
    with open(path, encoding="utf-8") as f:
        return parse_segments(f)


def write_segments(path, segments: Iterable[Segment]) -> None:
    # one format per line; the same bytes as joining segment_line's lines
    line = "%.9g %.9g %.9g %.9g\n"
    with open(path, "w", encoding="utf-8") as f:
        write = f.write
        for (x1, y1), (x2, y2) in segments:
            write(line % (float(x1), float(y1), float(x2), float(y2)))
