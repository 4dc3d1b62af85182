"""Shared geometry types, window validation, and the segment text format.

Coordinates are double-precision floats.  All value types are immutable;
the only mutable object is :class:`Counters`, which a caller creates per
clipping context (one per thread when clipping concurrently).
"""

from __future__ import annotations

import gc
import math
from itertools import chain, islice
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


# A plain endpoint pair ((x1, y1), (x2, y2)): the shape `parse_segments` and
# `oracle.gen_segments` return.  It compares equal to the Segment of Points
# with the same coordinates, but has no `.a` or `.x`; callers unpack or
# index it.  Exact tuples are what CPython unpacks fastest.
SegmentTuple = tuple[tuple[float, float], tuple[float, float]]

# A flat row (x1, y1, x2, y2) of floats: the shape every batch kernel and
# `baselines.clip_many` build for an accepted segment, one tuple where a
# SegmentTuple takes three.
SegmentRow = tuple[float, float, float, float]

# A clipper either rejects a segment outright (None) or accepts a possibly
# degenerate clipped segment.  The batch kernels build a new SegmentRow for
# every accepted segment, moved or not; only the per-call clippers that
# `per_call` builds return Segments of Points, with `.a` and `.x`.
ClipResult = Optional[SegmentRow]


def per_call(kernel, name: str):
    """The per-call clipper `name(segment, window, counters)` of a batch
    kernel: one kernel call on the one segment, whose row it returns as
    None or a new Segment of Points.  The clipper carries the kernel as
    `.kernel`, which `baselines.clip_many` runs on a whole corpus."""
    new = tuple.__new__  # skips the named tuples' own __new__

    def clip(s, w, counters):
        r = kernel((s,), w, counters)[0]
        if r is None:
            return None
        return new(Segment, (new(Point, r[:2]), new(Point, r[2:])))

    # assigned to `name` in the kernel's module, it pickles by that name
    clip.__name__ = clip.__qualname__ = name
    clip.__module__ = kernel.__module__
    clip.__doc__ = (f"`{kernel.__name__}` on one segment: None when "
                    "rejected, else a new Segment of Points.")
    clip.kernel = kernel
    return clip


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
    """Return w unchanged, or raise for non-finite or inverted bounds.
    A valid window is not yet one at which quadclip and cs answer right:
    they do not at `0,0,1e-300,1e-300` or `0,0,1e160,1e160`, and at
    `100000000,100000000,100000010,100000010` their coordinates are a few
    ulps off, past `check_equivalence`'s default allowance (README, "Where
    the float clippers are wrong today")."""
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

_COORD = "%.9g"  # one coordinate: 9 significant digits
_LINE = " ".join([_COORD] * 4)  # one segment: x1 y1 x2 y2


def format_coord(v: float) -> str:
    """Fixed 9-significant-digit rendering, stable under reparsing."""
    return _COORD % float(v)


def flat_coordinates(segments: list) -> Iterable[float]:
    """The coordinates x1, y1, x2, y2 of each of `segments`, in order.

    The segments are all SegmentRows, as the clippers return, or all
    endpoint pairs (SegmentTuples or Segments), as the parser and the
    generator return; the first one's length tells which.  A list that
    mixes the two raises TypeError where its coordinates are used: a float
    is not iterable, and a pair is not a number."""
    flat = chain.from_iterable(segments)
    if segments and len(segments[0]) == 2:
        return chain.from_iterable(flat)
    return flat


def segment_line(s) -> str:
    """The text line of one segment, a SegmentRow or an endpoint pair."""
    return _LINE % tuple(map(float, flat_coordinates([s])))


_CHUNK = 1024  # lines converted (or segments written) per step


def _whole_chunk(lines: list[str]) -> Optional[list[float]]:
    """The coordinates of a chunk of data lines, split as one text; None
    when a line is not four finite coordinates, or is a comment or blank.

    The lines are joined with " ; ", so the n - 1 separators are tokens of
    their own.  With no `#`, 5n - 1 tokens, and every token left after
    deleting each 5th one a finite float, none of the separators is left:
    the deleted ones are exactly the separators, and each line held four
    coordinates.  A `;` token of a line's own fails `float`, and a line
    without a newline is still set apart by a separator."""
    text = " ; ".join(lines)
    if "#" in text:  # a comment, or a token that is not a number
        return None
    tokens = text.split()
    if len(tokens) != 5 * len(lines) - 1:
        return None
    del tokens[4::5]
    try:
        flat = list(map(float, tokens))
    except ValueError:  # a token that is not a number, or a separator
        return None
    # A NaN or an infinity makes the sum non-finite; so does a sum of finite
    # coordinates that overflows, which the second test tells apart
    if math.isfinite(sum(flat)) or all(map(math.isfinite, flat)):
        return flat
    return None


def _first_error(lines: list[str], first: int) -> SegmentFormatError:
    """The SegmentFormatError of the first faulty data line of a chunk
    whose first line is number `first`: its arity, then each token in
    column order.  `parse_segments` calls it only on a chunk whose data
    lines failed `_whole_chunk`, which holds such a line."""
    for line_number, line in enumerate(lines, first):
        tokens = line.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if len(tokens) != 4:
            return SegmentFormatError(
                line_number, f"expected 4 coordinates, got {len(tokens)}")
        for token in tokens:
            try:
                v = float(token)
            except ValueError:
                return SegmentFormatError(
                    line_number, f"not a number: {token!r}")
            if not math.isfinite(v):
                return SegmentFormatError(
                    line_number, f"coordinate must be finite: {token!r}")


def parse_segments(lines: Iterable[str]) -> list[SegmentTuple]:
    """Parse the segment text format into plain `((x1, y1), (x2, y2))`
    tuples of floats; raises SegmentFormatError with a 1-based line number
    on the first malformed line.

    Lines are converted a chunk at a time, each chunk as one text by
    `_whole_chunk`, with one `str.split` and one `map(float)`.  A chunk
    that fails is tried once more without its comment and blank lines, and
    only a chunk that fails again is scanned to locate its first error.
    Line numbers count the items of `lines`, so a file's lines end only at
    LF, CR and CRLF (`str.splitlines` would also break at form feeds and
    other separators).
    """
    segments = []
    extend = segments.extend
    lines = iter(lines)
    first = 1  # line number of the chunk's first line
    while chunk := list(islice(lines, _CHUNK)):
        flat = _whole_chunk(chunk)
        if flat is None:
            data = [l for l in chunk if (t := l.lstrip()) and t[0] != "#"]
            flat = _whole_chunk(data) if data else []
            if flat is None:
                raise _first_error(chunk, first)
        xy = iter(flat)
        points = zip(xy, xy)
        extend(zip(points, points))
        first += len(chunk)
        del chunk, flat  # before the next chunk is read
    return segments


def read_segments(path) -> list[SegmentTuple]:
    """`parse_segments` of a UTF-8 file's lines."""
    # utf-8-sig drops the byte-order mark that some editors write first
    with open(path, encoding="utf-8-sig") as f:
        return parse_segments(f)


def write_segments(path, segments: Iterable) -> None:
    """Write one `segment_line` per segment, consuming `segments` once:
    SegmentRows or endpoint pairs, as `flat_coordinates` takes them.

    Each chunk is formatted with one `%` over its flat coordinates.  `%.9g`
    converts an int or a Fraction as `float()` does, so the bytes equal
    those of `segment_line`."""
    line = _LINE + "\n"
    segments = iter(segments)
    with open(path, "w", encoding="utf-8") as f:
        write = f.write
        while chunk := list(islice(segments, _CHUNK)):
            write((line * len(chunk)) % tuple(flat_coordinates(chunk)))
