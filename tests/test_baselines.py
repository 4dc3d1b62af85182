import pytest
from hypothesis import given, assume, settings

from segclip import (CLIPPERS, Counters, GeneratorSpec, Point, Segment,
                     UnknownClipperError, clip_many, cs_clip, default_region,
                     exact_clip, gen_segments, get_clipper, lb_clip)
from segclip.baselines import cs_clip_segments, lb_clip_segments
from segclip.quadclip import clip_segment

from _strategies import (CORPUS_WINDOWS, WINDOW,
                         assert_batch_equals_one_at_a_time,
                         corpus_segments, grid_segments, grid_windows,
                         oblique_corner_collinear)

W = WINDOW


# --- Cohen-Sutherland -------------------------------------------------------


def test_cs_trivial_accept_no_intersections():
    s = Segment(Point(2.0, 3.0), Point(7.0, 8.0))
    c = Counters()
    assert cs_clip(s, W, c) == s
    assert c.intersections_computed == 0


def test_cs_left_crossing():
    c = Counters()
    r = cs_clip(Segment(Point(-5.0, 5.0), Point(5.0, 5.0)), W, c)
    assert r == Segment(Point(0.0, 5.0), Point(5.0, 5.0))


def test_cs_diagonal_counts_within_bounds():
    c = Counters()
    r = cs_clip(Segment(Point(-5.0, -5.0), Point(15.0, 15.0)), W, c)
    assert r == Segment(Point(0.0, 0.0), Point(10.0, 10.0))
    assert 2 <= c.intersections_computed <= 6


def test_cs_false_intersection_exhibit():
    # clipping left first moves the endpoint to (0,-1), outside the window:
    # one intersection that is not part of the output
    c = Counters()
    r = cs_clip(Segment(Point(-4.0, -5.0), Point(6.0, 5.0)), W, c)
    assert r == Segment(Point(1.0, 0.0), Point(6.0, 5.0))
    moved = (r.a != Point(-4.0, -5.0)) + (r.b != Point(6.0, 5.0))
    assert moved == 1
    assert c.intersections_computed == 2


# --- Liang-Barsky -----------------------------------------------------------


def test_lb_interior_unchanged():
    s = Segment(Point(2.0, 3.0), Point(7.0, 8.0))
    c = Counters()
    r = lb_clip(s, W, c)
    assert r == s
    assert c.intersections_computed == 0


def test_lb_left_crossing():
    r = lb_clip(Segment(Point(-5.0, 5.0), Point(5.0, 5.0)), W, Counters())
    assert r == Segment(Point(0.0, 5.0), Point(5.0, 5.0))


def test_lb_trivial_rejection():
    c = Counters()
    assert lb_clip(Segment(Point(-5.0, 2.0), Point(-1.0, 8.0)), W, c) is None


def test_lb_divisions_beyond_true_intersections():
    # the full diagonal needs only 2 true intersections but all four
    # parametric boundary divisions get spent
    c = Counters()
    r = lb_clip(Segment(Point(-5.0, -5.0), Point(15.0, 15.0)), W, c)
    assert r == Segment(Point(0.0, 0.0), Point(10.0, 10.0))
    assert c.divisions == 4
    assert c.intersections_computed == 2


# --- differential properties ------------------------------------------------


@pytest.mark.parametrize("clip", [cs_clip, lb_clip])
@given(s=grid_segments(), w=grid_windows())
@settings(max_examples=200)
def test_baselines_match_exact_oracle_on_grid(clip, s, w):
    assume(not oblique_corner_collinear(s, w))
    out = clip(s, w, Counters())
    exact = exact_clip(s, w)
    assert (out is None) == (exact is None)
    if out is not None:
        tol = 1e-9 * max(1.0, w.extent())
        err = max(abs(g - float(e))
                  for g, e in zip((*out.a, *out.b), (*exact.a, *exact.b)))
        assert err <= tol


def test_false_intersection_bounds_on_corpus():
    segs = gen_segments(GeneratorSpec(seed=11, count=20_000))
    cs_false_seen = lb_false_seen = False
    for s in segs:
        c_cs, c_lb, c_qc = Counters(), Counters(), Counters()
        r_cs = cs_clip(s, W, c_cs)
        r_lb = lb_clip(s, W, c_lb)
        clip_segment(s, W, c_qc)
        moved = 0
        if r_cs is not None:
            moved = (r_cs.a != s.a) + (r_cs.b != s.b)
        cs_false = c_cs.intersections_computed - moved
        assert 0 <= cs_false <= 4
        if cs_false > 0 and c_qc.intersections_computed == moved:
            cs_false_seen = True
        moved_lb = 0
        if r_lb is not None:
            moved_lb = (r_lb.a != s.a) + (r_lb.b != s.b)
        lb_false = c_lb.divisions - moved_lb
        assert 0 <= lb_false <= 4
        if lb_false > 0:
            lb_false_seen = True
    assert cs_false_seen and lb_false_seen


@pytest.mark.parametrize("cid, accepted, counts", [
    # (divisions, intersections_computed, predicate_evals)
    ("quadclip", 10533, (16524, 16524, 45801)),
    ("cs", 10533, (22023, 22023, 62023)),
    ("lb", 10533, (66427, 16524, 66427)),
])
def test_exact_counts_on_corpus(cid, accepted, counts):
    segs = gen_segments(GeneratorSpec(seed=1, count=20_000))
    clip = get_clipper(cid)
    c = Counters()
    assert sum(clip(s, W, c) is not None for s in segs) == accepted
    assert (c.divisions, c.intersections_computed, c.predicate_evals) == counts


# --- batch kernels and clip_many ----------------------------------------------


BATCH_KERNELS = [cs_clip_segments, lb_clip_segments]


@pytest.mark.parametrize("kernel", BATCH_KERNELS)
@given(segments=corpus_segments(), w=grid_windows())
def test_batch_kernels_equal_one_at_a_time(kernel, segments, w):
    assert_batch_equals_one_at_a_time(kernel, segments, w)


@pytest.mark.parametrize("kernel", BATCH_KERNELS)
@pytest.mark.parametrize("w", CORPUS_WINDOWS)
def test_batch_kernels_equal_one_at_a_time_on_corpus(kernel, w):
    segments = gen_segments(GeneratorSpec(1, 20_000, default_region(w)))
    assert_batch_equals_one_at_a_time(kernel, segments, w)


@pytest.mark.parametrize("cid", list(CLIPPERS))
def test_clip_many_equals_per_call_clipper(cid):
    segments = gen_segments(GeneratorSpec(seed=4, count=2_000))
    clip = get_clipper(cid)
    c_many, c_call = Counters(), Counters()
    assert (clip_many(clip, segments, W, c_many)
            == [clip(s, W, c_call) for s in segments])
    assert c_many == c_call


def test_clip_many_calls_other_clippers_once_per_segment():
    segments = gen_segments(GeneratorSpec(seed=4, count=50))
    counters = Counters()
    calls = []

    def fake(s, w, c):  # e.g. a tracing wrapper around a real clipper
        calls.append((s, w, c))
        return clip_segment(s, w, c)

    out = clip_many(fake, segments, W, counters)
    assert calls == [(s, W, counters) for s in segments]
    assert all(c is counters for _, _, c in calls)
    assert out == clip_many(clip_segment, segments, W, Counters())


# --- clipper table ------------------------------------------------------------


def test_registry_ids_and_order():
    assert tuple(CLIPPERS) == ("quadclip", "cs", "lb")
    assert get_clipper("quadclip") is clip_segment
    assert get_clipper("cs") is cs_clip
    assert get_clipper("lb") is lb_clip


def test_registry_unknown_clipper():
    with pytest.raises(UnknownClipperError):
        get_clipper("nln")
