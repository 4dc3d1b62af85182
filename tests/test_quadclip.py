import math

import pytest
from hypothesis import given, assume, settings
import hypothesis.strategies as st

from segclip import (Counters, GeneratorSpec, Point, Segment, Window,
                     default_region, exact_clip, gen_segments, window_contains)
from segclip.quadclip import (EndpointOutcome, clip_endpoint, clip_segment,
                              clip_segments, quad_orientation)

from _reference import frac_clip, frac_orientation
from _strategies import (CORPUS_WINDOWS, WINDOW,
                         assert_batch_equals_one_at_a_time,
                         corpus_segments, grid_segments, grid_windows,
                         inside_segments, oblique_corner_collinear)

W = WINDOW


# --- corner orientation -------------------------------------------------


def test_orientation_miss_above_top_left():
    # segment from (-2,9) to (1,14) passes above the corner (0,10)
    value = quad_orientation(Point(-2.0, 9.0), Point(1.0, 14.0), Point(0.0, 10.0))
    assert value == -7.0
    assert frac_orientation((-2, 9), (1, 14), (0, 10)) == -7


def test_orientation_crossing_left_boundary():
    value = quad_orientation(Point(-5.0, 5.0), Point(5.0, 5.0), Point(0.0, 10.0))
    assert value == 50.0
    assert frac_orientation((-5, 5), (5, 5), (0, 10)) == 50


def test_orientation_all_coincident():
    p = Point(0.0, 10.0)
    assert quad_orientation(p, p, p) == 0.0


@given(grid_segments(), grid_windows())
def test_orientation_exact_on_grid(s, w):
    # eighth-grid products are exactly representable, so the float value
    # must equal the rational one at every corner
    for corner in w.corners():
        assert quad_orientation(s.a, s.b, corner) == frac_orientation(s.a, s.b, corner)


# --- endpoint procedure ---------------------------------------------------


def test_endpoint_trivial_rejection():
    out = clip_endpoint(Point(-5.0, 2.0), Point(-1.0, 8.0), W, Counters())
    assert out == EndpointOutcome(trivially_rejected=True)


def test_endpoint_left_crossing():
    out = clip_endpoint(Point(-5.0, 5.0), Point(5.0, 5.0), W, Counters())
    assert out == EndpointOutcome(False, Point(0.0, 5.0), 1)


def test_endpoint_flag_overwrite_leaves_point_unmoved():
    # x section drops the flag via the top-left test (-7), then the final
    # else of the y section raises it back with the point unmoved; the
    # companion call on the other endpoint is what rejects this segment
    out = clip_endpoint(Point(-2.0, 9.0), Point(1.0, 14.0), W, Counters())
    assert out == EndpointOutcome(False, Point(-2.0, 9.0), 1)
    other = clip_endpoint(Point(1.0, 14.0), Point(-2.0, 9.0), W, Counters())
    assert other == EndpointOutcome(False, Point(1.0, 14.0), 0)
    assert quad_orientation(Point(1.0, 14.0), Point(-2.0, 9.0), Point(0.0, 10.0)) == 7.0


def test_endpoint_enters_through_bottom_after_left_declined():
    out = clip_endpoint(Point(-5.0, -5.0), Point(15.0, 5.0), W, Counters())
    assert out == EndpointOutcome(False, Point(5.0, 0.0), 1)
    # the left boundary was declined by the bottom-left test (value 50 > 0)
    assert quad_orientation(Point(-5.0, -5.0), Point(15.0, 5.0), Point(0.0, 0.0)) == 50.0


# --- whole-segment protocol ------------------------------------------------


def test_clip_left_crossing():
    c = Counters()
    r = clip_segment(Segment(Point(-5.0, 5.0), Point(5.0, 5.0)), W, c)
    assert r == Segment(Point(0.0, 5.0), Point(5.0, 5.0))
    assert c.divisions == c.intersections_computed == 1


def test_clip_interior_unchanged():
    s = Segment(Point(2.0, 3.0), Point(7.0, 8.0))
    c = Counters()
    assert clip_segment(s, W, c) is s
    assert c == Counters()


def test_clip_full_diagonal_touches_both_corners():
    c = Counters()
    r = clip_segment(Segment(Point(-5.0, -5.0), Point(15.0, 15.0)), W, c)
    assert r == Segment(Point(0.0, 0.0), Point(10.0, 10.0))
    assert c.divisions == c.intersections_computed == 2


def test_clip_corner_graze_degenerates_to_point():
    r = clip_segment(Segment(Point(-5.0, 5.0), Point(5.0, -5.0)), W, Counters())
    assert r == Segment(Point(0.0, 0.0), Point(0.0, 0.0))
    assert frac_clip(((-5, 5), (5, -5)), (0, 10, 0, 10)) == ((0, 0), (0, 0))


def test_clip_wholly_left_rejected():
    assert clip_segment(Segment(Point(-5.0, 2.0), Point(-1.0, 8.0)), W, Counters()) is None


def test_clip_rejected_by_second_call():
    assert clip_segment(Segment(Point(-2.0, 9.0), Point(1.0, 14.0)), W, Counters()) is None
    assert frac_clip(((-2, 9), (1, 14)), (0, 10, 0, 10)) is None


# --- the batch kernel ---------------------------------------------------------


@given(corpus_segments(), grid_windows())
def test_batch_kernel_equals_one_at_a_time(segments, w):
    assert_batch_equals_one_at_a_time(clip_segments, segments, w)


@pytest.mark.parametrize("w", CORPUS_WINDOWS)
def test_batch_kernel_equals_one_at_a_time_on_corpus(w):
    segments = gen_segments(GeneratorSpec(1, 20_000, default_region(w)))
    assert_batch_equals_one_at_a_time(clip_segments, segments, w)


# --- properties on the exact grid -------------------------------------------


def _two_call(s, w, c):
    first = clip_endpoint(s.a, s.b, w, c)
    if first.trivially_rejected or first.flag == 0:
        return None
    second = clip_endpoint(s.b, first.point, w, c)
    if second.trivially_rejected or second.flag == 0:
        return None
    return Segment(first.point, second.point)


@given(grid_segments())
def test_inlined_segment_clip_equals_two_calls(s):
    c1, c2 = Counters(), Counters()
    assert clip_segment(s, W, c1) == _two_call(s, W, c2)
    assert c1 == c2


@given(grid_segments(), grid_windows())
@settings(max_examples=300)
def test_decision_matches_exact_oracle_on_grid(s, w):
    assume(not oblique_corner_collinear(s, w))
    c = Counters()
    out = clip_segment(s, w, c)
    exact = exact_clip(s, w)
    assert (out is None) == (exact is None)
    if out is not None:
        tol = 1e-9 * max(1.0, w.extent())
        for got, want in zip((*out.a, *out.b), (*exact.a, *exact.b)):
            assert abs(got - float(want)) <= tol


@given(grid_segments(), grid_windows())
def test_counter_parity_and_moved_endpoints(s, w):
    assume(not oblique_corner_collinear(s, w))
    c = Counters()
    out = clip_segment(s, w, c)
    assert c.divisions == c.intersections_computed
    moved = 0
    if out is not None:
        moved = (out.a != s.a) + (out.b != s.b)
    assert c.intersections_computed == moved


@given(grid_segments())
def test_division_parity_holds_even_for_corner_collinear(s):
    # structural: every intersection costs exactly one division, no filter
    c = Counters()
    clip_segment(s, W, c)
    assert c.divisions == c.intersections_computed


@given(grid_segments(), grid_windows())
def test_accepted_endpoints_stay_in_window(s, w):
    assume(not oblique_corner_collinear(s, w))
    out = clip_segment(s, w, Counters())
    if out is not None:
        assert window_contains(out.a, w) and window_contains(out.b, w)


@given(grid_segments(), grid_windows())
def test_symmetry_under_endpoint_swap(s, w):
    assume(not oblique_corner_collinear(s, w))
    fwd = clip_segment(s, w, Counters())
    rev = clip_segment(Segment(s.b, s.a), w, Counters())
    assert (fwd is None) == (rev is None)
    if fwd is not None:
        tol = 1e-9 * max(1.0, w.extent())
        direct = max(abs(fwd.a.x - rev.b.x), abs(fwd.a.y - rev.b.y),
                     abs(fwd.b.x - rev.a.x), abs(fwd.b.y - rev.a.y))
        assert direct <= tol


@given(grid_segments(), grid_windows())
def test_idempotent_within_4_ulp(s, w):
    assume(not oblique_corner_collinear(s, w))
    once = clip_segment(s, w, Counters())
    if once is None:
        return
    twice = clip_segment(once, w, Counters())
    assert twice is not None
    for got, want in zip((*twice.a, *twice.b), (*once.a, *once.b)):
        assert abs(got - want) <= 4 * math.ulp(max(abs(want), 1.0))


@given(inside_segments())
def test_boundary_and_interior_segments_pass_through(s):
    # both endpoints in the closed window: accepted unchanged, no divisions
    c = Counters()
    assert clip_segment(s, W, c) is s
    assert c.divisions == 0 and c.intersections_computed == 0


def test_edge_lying_segments_accepted_unchanged():
    for s in (
        Segment(Point(2.0, 10.0), Point(8.0, 10.0)),   # along the top edge
        Segment(Point(10.0, 2.0), Point(10.0, 8.0)),   # along the right edge
        Segment(Point(0.0, 0.0), Point(0.0, 10.0)),    # along the left edge
        Segment(Point(0.0, 0.0), Point(10.0, 0.0)),    # along the bottom edge
        Segment(Point(0.0, 2.0), Point(4.0, 10.0)),    # endpoints on two edges
        Segment(Point(0.0, 0.0), Point(10.0, 10.0)),   # corner to corner
    ):
        assert clip_segment(s, W, Counters()) is s


def test_degenerate_point_segments():
    inside = Segment(Point(5.0, 5.0), Point(5.0, 5.0))
    on_corner = Segment(Point(0.0, 10.0), Point(0.0, 10.0))
    outside = Segment(Point(-1.0, 5.0), Point(-1.0, 5.0))
    below = Segment(Point(5.0, -0.125), Point(5.0, -0.125))
    assert clip_segment(inside, W, Counters()) is inside
    assert clip_segment(on_corner, W, Counters()) is on_corner
    assert clip_segment(outside, W, Counters()) is None
    assert clip_segment(below, W, Counters()) is None


# --- differential spot check on a continuous corpus -------------------------


def test_seeded_corpus_spot_invariants():
    from segclip import GeneratorSpec, gen_segments

    segs = gen_segments(GeneratorSpec(seed=3, count=20_000))
    c = Counters()
    prev_div = prev_isec = 0
    for s in segs:
        out = clip_segment(s, W, c)
        d_div = c.divisions - prev_div
        d_isec = c.intersections_computed - prev_isec
        prev_div, prev_isec = c.divisions, c.intersections_computed
        assert d_div == d_isec
        moved = 0
        if out is not None:
            moved = (out.a != s.a) + (out.b != s.b)
            assert window_contains(out.a, W) and window_contains(out.b, W)
        assert d_isec == moved
