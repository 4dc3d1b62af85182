import pickle

import pytest
from hypothesis import given, assume, settings

from segclip import (CLIPPERS, Counters, GeneratorSpec, Point, Segment,
                     UnknownClipperError, check_equivalence, clip_many,
                     cs_clip, default_region, exact_clip, gen_segments,
                     get_clipper, lb_clip, read_segments, time_algorithm,
                     write_segments)
import segclip.baselines as baselines
from segclip.baselines import cs_clip_segments, lb_clip_segments
from segclip.cli import main
from segclip.geom import per_call
from segclip.quadclip import clip_segment, clip_segments

import _reference
from _strategies import (CORPUS_WINDOWS, WINDOW,
                         assert_batch_equals_one_at_a_time, coordinates,
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


# A segment parallel to a boundary and outside it ends the constraint loop
# at that boundary: the earlier boundaries are evaluated, divided where
# the segment is not parallel to them, and the later ones are not.
@pytest.mark.parametrize("a, b, counts", [
    ((-5.0, 2.0), (-5.0, 8.0), (1, 0)),  # left
    ((12.0, 2.0), (12.0, 8.0), (2, 0)),  # right
    ((2.0, -1.0), (8.0, -1.0), (3, 2)),  # bottom
    ((2.0, 12.0), (8.0, 12.0), (4, 2)),  # top
])
def test_lb_parallel_outside_rejects(a, b, counts):
    c = Counters()
    assert lb_clip(Segment(Point(*a), Point(*b)), W, c) is None
    assert (c.predicate_evals, c.divisions) == counts
    assert c.intersections_computed == 0


def test_lb_divisions_beyond_true_intersections():
    # the full diagonal needs only 2 true intersections but all four
    # parametric boundary divisions get spent
    c = Counters()
    r = lb_clip(Segment(Point(-5.0, -5.0), Point(15.0, 15.0)), W, c)
    assert r == Segment(Point(0.0, 0.0), Point(10.0, 10.0))
    assert c.divisions == 4
    assert c.intersections_computed == 2


# --- differential properties ------------------------------------------------


@pytest.mark.parametrize("clip", list(CLIPPERS.values()))
@given(s=grid_segments(), w=grid_windows())
@settings(max_examples=300)
def test_baselines_match_exact_oracle_on_grid(clip, s, w):
    # every registered clipper, quadclip as well as the baselines
    assume(not oblique_corner_collinear(s, w))
    out = clip(s, w, Counters())
    exact = exact_clip(s, w)
    assert (out is None) == (exact is None)
    if out is not None:
        tol = 1e-9 * max(1.0, w.extent())
        err = max(abs(g - float(e))
                  for g, e in zip((*out[0], *out[1]), (*exact[0], *exact[1])))
        assert err <= tol


# A segment a few ulps from lying along the right edge, at the default
# window.  quadclip and cs read the moved, rounded endpoint after the first
# section and clip it to the one point (10, 0); lb takes every intersection
# from the input's endpoints and gives the oracle's (10, 0)-(10, 0.1139...).
# These xfails are strict, so the fix for quadclip and cs must remove them
_NEAR_PARALLEL = Segment(Point(9.999999999999998, -6.90832862669226),
                         Point(10.000000000000002, 7.1361317423537685))
_WRONG_NEAR_PARALLEL = pytest.mark.xfail(
    strict=True, reason="clips a near-parallel segment to a single point")


@pytest.mark.parametrize("cid", [
    pytest.param("quadclip", marks=_WRONG_NEAR_PARALLEL),
    pytest.param("cs", marks=_WRONG_NEAR_PARALLEL),
    "lb",
])
def test_near_parallel_segment_matches_the_oracle(cid):
    got = get_clipper(cid)(_NEAR_PARALLEL, W, Counters())
    want = exact_clip(_NEAR_PARALLEL, W)
    assert repr((*got[0], *got[1])) == repr((*want[0], *want[1]))


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
            moved = (r_cs.a != s[0]) + (r_cs.b != s[1])
        cs_false = c_cs.intersections_computed - moved
        assert 0 <= cs_false <= 4
        if cs_false > 0 and c_qc.intersections_computed == moved:
            cs_false_seen = True
        moved_lb = 0
        if r_lb is not None:
            moved_lb = (r_lb.a != s[0]) + (r_lb.b != s[1])
        lb_false = c_lb.divisions - moved_lb
        assert 0 <= lb_false <= 4
        if lb_false > 0:
            lb_false_seen = True
    assert cs_false_seen and lb_false_seen


@pytest.mark.parametrize("cid, accepted, counts", [
    # (divisions, intersections_computed, predicate_evals) on the 20k
    # corpus, whose accepted segments are counted, and on
    # _special_segments(W), where a count derived at the end of a call
    # could drift from one taken at every test
    ("quadclip", 10533, [(16524, 16524, 45801), (14, 14, 30)]),
    ("cs", 10533, [(22023, 22023, 62023), (14, 14, 44)]),
    ("lb", 10533, [(66427, 16524, 66427), (28, 12, 51)]),
])
def test_exact_counts_on_corpus(cid, accepted, counts):
    clip = get_clipper(cid)
    corpus = gen_segments(GeneratorSpec(seed=1, count=20_000))
    for segs, want in zip((corpus, _special_segments(W)), counts):
        c_call, c_many = Counters(), Counters()
        results = [clip(s, W, c_call) for s in segs]
        assert (coordinates(clip_many(clip, segs, W, c_many))
                == coordinates(results))
        for c in (c_call, c_many):
            assert (c.divisions, c.intersections_computed,
                    c.predicate_evals) == want
        if segs is corpus:
            assert sum(r is not None for r in results) == accepted


# --- batch kernels and clip_many ----------------------------------------------


BATCH_KERNELS = {cid: c.kernel for cid, c in CLIPPERS.items()}


def test_every_clipper_has_a_batch_kernel():
    assert BATCH_KERNELS == {"quadclip": clip_segments,
                             "cs": cs_clip_segments, "lb": lb_clip_segments}


@pytest.mark.parametrize("kernel", list(BATCH_KERNELS.values()))
@given(segments=corpus_segments(), w=grid_windows())
def test_batch_kernels_equal_one_at_a_time(kernel, segments, w):
    assert_batch_equals_one_at_a_time(kernel, segments, w)


@pytest.mark.parametrize("kernel", list(BATCH_KERNELS.values()))
@pytest.mark.parametrize("w", CORPUS_WINDOWS)
def test_batch_kernels_equal_one_at_a_time_on_corpus(kernel, w):
    segments = (gen_segments(GeneratorSpec(1, 20_000, default_region(w)))
                + gen_segments(GeneratorSpec(4, 2_000, default_region(w))))
    assert_batch_equals_one_at_a_time(kernel, segments, w)


def _special_segments(w):
    """Zero-length, axis-parallel, NaN and +-1e308 segments around w."""
    xl, xr, yb, yt = w
    cx, cy = (xl + xr) / 2, (yb + yt) / 2
    lx, rx = xl - (xr - xl), xr + (xr - xl)
    by, ty = yb - (yt - yb), yt + (yt - yb)
    nan, big = float("nan"), 1e308
    return [((cx, cy), (cx, cy)), ((lx, cy), (lx, cy)),  # zero length
            ((cx, by), (cx, ty)), ((lx, by), (lx, ty)),  # dx == 0
            ((xl, by), (xl, ty)), ((rx, ty), (rx, by)),
            ((lx, cy), (rx, cy)), ((lx, by), (rx, by)),  # dy == 0
            ((rx, yt), (lx, yt)), ((cx, ty), (rx, ty)),
            ((nan, cy), (cx, cy)), ((cx, cy), (cx, nan)),
            ((lx, by), (nan, ty)),
            ((-big, -big), (big, big)), ((big, -big), (-big, big))]


@pytest.mark.parametrize("w", CORPUS_WINDOWS)
def test_lb_kernel_equals_the_readable_reference(w):
    # lb's kernel tests the boundaries one by one; the reference loops over
    # their (p, q) pairs.  Same results, bit for bit, and same counts
    segments = _special_segments(w)
    for seed in range(1, 11):
        segments += gen_segments(GeneratorSpec(seed, 2_000, default_region(w)))
    c_kernel, c_reference = Counters(), Counters()
    assert (coordinates(lb_clip_segments(segments, w, c_kernel))
            == coordinates(_reference.lb_clip_segments(segments, w,
                                                       c_reference)))
    assert c_kernel == c_reference


@pytest.mark.parametrize("cid", list(CLIPPERS))
def test_clip_many_on_generated_tuples_equals_on_segments(cid, tmp_path):
    # the generator and the parser return plain tuples, not Segments of
    # Points; at every corpus window, the float clippers' overflows and
    # underflows included, and on a corpus written and read back, the shape
    # of the input moves no output bit and no count
    clip = get_clipper(cid)
    path = tmp_path / "segments.txt"
    for seed in (1, 2, 3):
        write_segments(path, gen_segments(GeneratorSpec(seed, 5_000)))
        sources = [(read_segments(path), W)]
        for w in CORPUS_WINDOWS:
            sources.append((gen_segments(GeneratorSpec(seed, 5_000,
                                                       default_region(w))), w))
        for plain, w in sources:
            rebuilt = [Segment(Point(*a), Point(*b)) for a, b in plain]
            assert plain == rebuilt and type(plain[0]) is tuple
            c_plain, c_rebuilt = Counters(), Counters()
            assert (coordinates(clip_many(clip, plain, w, c_plain))
                    == coordinates(clip_many(clip, rebuilt, w, c_rebuilt)))
            assert c_plain == c_rebuilt


@pytest.mark.parametrize("cid", list(CLIPPERS))
@pytest.mark.parametrize("w", CORPUS_WINDOWS)
def test_result_types_at_both_edges(cid, w):
    # a batch kernel builds a new plain ((x1, y1), (x2, y2)) tuple for
    # every accepted segment, moved or not, and holds on to no input
    # object.  The per-call clipper returns a Segment of Points, and counts
    # what the kernel counts
    segments = (gen_segments(GeneratorSpec(1, 2_000, default_region(w)))
                + gen_segments(GeneratorSpec(4, 2_000, default_region(w))))
    c_batch, c_call = Counters(), Counters()
    batch = BATCH_KERNELS[cid](segments, w, c_batch)
    clip = get_clipper(cid)
    seen = set()
    for s, r in zip(segments, batch):
        one = clip(s, w, c_call)
        if r is None:
            assert one is None
            continue
        seen.add(repr((*r[0], *r[1])) != repr((*s[0], *s[1])))  # moved
        assert type(r) is tuple and r is not s
        for p, given in zip(r, s):
            assert type(p) is tuple and p is not given
            assert all(type(v) is float for v in p)
        assert type(one) is Segment and one is not s
        assert type(one.a) is Point and type(one.b) is Point
        assert (repr((one.a.x, one.a.y, one.b.x, one.b.y))
                == repr((*r[0], *r[1])))
    assert seen == {False, True}  # moved and unmoved outputs both occur
    assert c_call == c_batch


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


def test_registering_a_clipper_takes_one_per_call_line(tmp_path, monkeypatch):
    # a clipper is its batch kernel, one per_call line and one CLIPPERS
    # entry; clip_many then runs the kernel once per call it receives
    calls = []

    def kernel(segments, w, counters):
        calls.append(len(segments))
        return cs_clip_segments(segments, w, counters)

    monkeypatch.setitem(baselines.CLIPPERS, "cs-copy",
                        per_call(kernel, "cs_copy_clip"))
    clip = get_clipper("cs-copy")
    segments = gen_segments(GeneratorSpec(5, 10_000))
    c_many, c_cs = Counters(), Counters()
    assert (coordinates(clip_many(clip, segments, W, c_many))
            == coordinates(cs_clip_segments(segments, W, c_cs)))
    assert c_many == c_cs and calls == [10_000]

    one = clip(segments[0], W, Counters())
    assert repr(one) == repr(cs_clip(segments[0], W, Counters()))
    assert calls == [10_000, 1]

    del calls[:]
    assert (time_algorithm("cs-copy", segments, W)[1]
            == time_algorithm("cs", segments, W)[1])
    assert calls == [10_000]

    del calls[:]
    assert check_equivalence("cs-copy", GeneratorSpec(6, 10_000), W).ok
    assert calls == [4096, 4096, 1808]  # one per chunk

    src = tmp_path / "in.txt"
    write_segments(src, segments)
    outs = {}
    for algo in ("cs-copy", "cs"):
        outs[algo] = tmp_path / f"{algo}.txt"
        assert main(["clip", str(src), "-o", str(outs[algo]),
                     "--algo", algo]) == 0
    assert outs["cs-copy"].read_bytes() == outs["cs"].read_bytes()


# --- clipper table ------------------------------------------------------------


def test_registry_ids_and_order():
    assert tuple(CLIPPERS) == ("quadclip", "cs", "lb")
    assert get_clipper("quadclip") is clip_segment
    assert get_clipper("cs") is cs_clip
    assert get_clipper("lb") is lb_clip
    # by name, as a worker process receives them
    assert all(pickle.loads(pickle.dumps(c)) is c for c in CLIPPERS.values())


def test_registry_unknown_clipper():
    with pytest.raises(UnknownClipperError) as info:
        get_clipper("no-such-algo")
    # the text cli.main prints after `segclip: `
    assert str(info.value) == "unknown algorithm: no-such-algo"
    assert info.value.args == ("no-such-algo",)
