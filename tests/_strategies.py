"""Shared hypothesis strategies, the batch-kernel check they feed, a
comparable form of clip results, a cyclic-GC collection counter and a spy
on how long results live.

Property tests draw coordinates from a 1/8 grid: every corner-orientation
product is then exact in double precision, so the clippers' control flow
matches exact arithmetic and properties can be asserted sharply.  The one
exception is a non-axis-aligned segment exactly collinear with a window
corner: its crossing *division* can still round a coordinate a hair past a
boundary and flip a later comparison.  That regime is measured by the seeded
differential corpora instead; here such segments are filtered out (directed
unit tests cover the exactly-representable corner cases).
"""

import gc
import math
import weakref

import hypothesis.strategies as st

from segclip import Counters, Point, Segment, Window

from _reference import corners, quad_orientation

WINDOW = Window(0.0, 10.0, 0.0, 10.0)
# the unit window, and windows where the float clippers overflow, underflow
# or lose digits to a translated origin
CORPUS_WINDOWS = [
    WINDOW,
    Window(0.0, 1e160, 0.0, 1e160),
    Window(0.0, 1e-300, 0.0, 1e-300),
    Window(1e8, 1e8 + 10.0, 1e8, 1e8 + 10.0),
]


def grid_coords(lo: int = -20, hi: int = 30):
    return st.integers(lo * 8, hi * 8).map(lambda k: k / 8.0)


def grid_points(lo: int = -20, hi: int = 30):
    return st.builds(Point, grid_coords(lo, hi), grid_coords(lo, hi))


def grid_segments(lo: int = -20, hi: int = 30):
    return st.builds(Segment, grid_points(lo, hi), grid_points(lo, hi))


@st.composite
def grid_windows(draw):
    xs = draw(st.lists(st.integers(-15, 25), min_size=2, max_size=2, unique=True))
    ys = draw(st.lists(st.integers(-15, 25), min_size=2, max_size=2, unique=True))
    return Window(float(min(xs)), float(max(xs)), float(min(ys)), float(max(ys)))


def inside_points(w: Window = WINDOW):
    xl, xr, yb, yt = (int(v * 8) for v in w)
    return st.builds(Point,
                     st.integers(xl, xr).map(lambda k: k / 8.0),
                     st.integers(yb, yt).map(lambda k: k / 8.0))


def inside_segments(w: Window = WINDOW):
    return st.builds(Segment, inside_points(w), inside_points(w))


def edge_points(w: Window = WINDOW):
    """Grid points with at least one coordinate on the window's outline."""
    xl, xr, yb, yt = w
    return st.one_of(st.builds(Point, st.sampled_from([xl, xr]), grid_coords()),
                     st.builds(Point, grid_coords(), st.sampled_from([yb, yt])))


def corpus_segments(w: Window = WINDOW):
    """Mixed corpora: crossing, interior, boundary-touching and zero-length
    segments in one list, so one segment's state could leak into the next."""
    point = st.one_of(grid_points(), inside_points(w), edge_points(w))
    segment = st.one_of(st.builds(Segment, point, point),
                        point.map(lambda p: Segment(p, p)))
    return st.lists(segment, max_size=40)


def special_coords(lo: float, hi: float):
    """Values where float comparisons and products misbehave: +-inf, NaN,
    +-1e308, +-0.0, the bounds lo and hi, and points just and far beyond
    each of them."""
    extent = hi - lo
    return st.sampled_from([
        math.inf, -math.inf, math.nan, 1e308, -1e308, 0.0, -0.0, lo, hi,
        math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
        lo - extent, hi + extent])


@st.composite
def special_segments(draw):
    """(window, segment): a corpus window and a segment whose coordinates
    are that window's special values."""
    w = draw(st.sampled_from(CORPUS_WINDOWS))
    xs = special_coords(w.x_left, w.x_right)
    ys = special_coords(w.y_bottom, w.y_top)
    return w, Segment(Point(draw(xs), draw(ys)), Point(draw(xs), draw(ys)))


def coordinates(results):
    """Each result row's four coordinates as one repr, None for a
    rejection: NaN-safe, and -0.0 is not 0.0.  A result that is not a row
    of four raises TypeError.  Lists of short strings, so that a failing
    comparison reports its first differing index at once instead of
    diffing two whole-corpus reprs character by character."""
    return [None if r is None else "%r %r %r %r" % r for r in results]


def assert_batch_equals_one_at_a_time(kernel, segments, w: Window) -> None:
    """`kernel` over the whole corpus gives the results and the counter
    totals of feeding it one segment at a time."""
    c_batch, c_single = Counters(), Counters()
    batch = kernel(segments, w, c_batch)
    single = [kernel((s,), w, c_single)[0] for s in segments]
    assert type(batch) is list and len(batch) == len(segments)
    assert coordinates(batch) == coordinates(single)
    assert c_batch == c_single


def oblique_corner_collinear(s: Segment, w: Window) -> bool:
    """True when a slanted segment's line runs exactly through a corner."""
    (ax, ay), (bx, by) = s
    if (ax == bx and ay == by) or ax == bx or ay == by:
        return False
    return any(quad_orientation(s.a, s.b, c) == 0.0 for c in corners(w))


def collections_started(call):
    """(call(), the number of cyclic-GC collections started during it), run
    with GC enabled; the caller's GC setting is restored afterwards."""
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.callbacks.append(on_gc)
    try:
        result = call()
        count = len(started)
    finally:
        gc.callbacks.remove(on_gc)
        (gc.enable if was_enabled else gc.disable)()
    return result, count


class _Watched(list):
    """A list that a weak reference can watch; a plain list cannot."""


def results_freed_in_turn(monkeypatch, module, name):
    """Replace `module.name` with a spy that returns each result as a
    weakly watched list and asserts, on every call, that every earlier
    result has been freed.  Returns the list of each call's positional
    arguments."""
    real = getattr(module, name)
    calls, watched = [], []

    def spy(*args):
        alive = [i for i, ref in enumerate(watched) if ref() is not None]
        assert not alive, f"{name} call {len(calls)}: results {alive} alive"
        calls.append(args)
        result = _Watched(real(*args))
        watched.append(weakref.ref(result))
        return result

    monkeypatch.setattr(module, name, spy)
    return calls
