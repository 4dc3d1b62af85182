import gc
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from segclip import (Counters, EquivalenceReport, GeneratorSpec, Point,
                     Segment, UnknownClipperError, Window, check_equivalence,
                     default_region, exact_clip, gen_segments)
import segclip.baselines as baselines
import segclip.oracle as oracle
from segclip.quadclip import clip_endpoint, clip_segment

from _reference import frac_clip
from _strategies import WINDOW, collections_started, results_freed_in_turn

W = WINDOW

# continuous coordinates, including awkward magnitudes; exactness must hold
finite_coords = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)
finite_points = st.builds(Point, finite_coords, finite_coords)
finite_segments = st.builds(Segment, finite_points, finite_points)

# exact_clip accepts int, Fraction and float alike, in any mix; non-dyadic
# Fraction bounds make the common denominator more than a power of two
mixed_coords = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
    st.floats(min_value=-40, max_value=40,
              allow_nan=False, allow_infinity=False))
mixed_points = st.builds(Point, mixed_coords, mixed_coords)
mixed_segments = st.builds(Segment, mixed_points, mixed_points)


@st.composite
def mixed_windows(draw):
    xs = sorted(draw(st.lists(mixed_coords, min_size=2, max_size=2, unique=True)))
    ys = sorted(draw(st.lists(mixed_coords, min_size=2, max_size=2, unique=True)))
    return Window(xs[0], xs[1], ys[0], ys[1])


windows_any_type = st.one_of(
    st.sampled_from([W, Window(Fraction(1, 3), 7, 0, Fraction(22, 7)),
                     Window(-5, Fraction(5, 7), 0.25, 3)]),
    mixed_windows())


# --- exact_clip -------------------------------------------------------------


def _assert_rounds(s, got, want):
    """`got` is the reference clip `want` of `s` rounded once to floats, as
    a new plain tuple of plain tuples: an endpoint the clip keeps holds the
    input's own coordinates, and a moved one floats equal to float() of the
    exact coordinates, down to the sign of a zero."""
    if want is None:
        assert got is None
        return
    assert type(got) is tuple and got is not s
    for p, exact, given in zip(got, want, s):
        assert type(p) is tuple and p is not given
        if exact == given:
            assert p[0] is given[0] and p[1] is given[1]
        else:
            assert all(type(v) is float for v in p)
            assert p == tuple(map(float, exact))
            # == does not tell -0.0 from 0.0; repr does
            assert [repr(v) for v in p] == [repr(float(v)) for v in exact]


def test_exact_corner_touch_single_point():
    r = exact_clip(Segment(Point(-5.0, 5.0), Point(5.0, -5.0)), W)
    assert r == ((0, 0), (0, 0))
    assert r[0] == r[1]


def test_exact_diagonal_quarter_interval():
    # the four half-plane constraints pin t to [1/4, 3/4]
    r = exact_clip(Segment(Point(-5.0, -5.0), Point(15.0, 15.0)), W)
    assert r == Segment(Point(0, 0), Point(10, 10))
    assert all(type(v) is float for p in r for v in p)


def test_exact_rejects_disjoint_intervals():
    # x >= 0 forces t in [2/3, 1]; y <= 10 forces t in [0, 1/5]
    assert exact_clip(Segment(Point(-2.0, 9.0), Point(1.0, 14.0)), W) is None


def test_exact_fractional_result():
    s = Segment(Point(-2.0, -5.0), Point(8.0, 7.0))
    r = exact_clip(s, W)
    assert r[0] == (float(Fraction(13, 6)), 0.0)
    assert r[1][0] is s.b.x and r[1][1] is s.b.y
    ref = frac_clip(((-2, -5), (8, 7)), (0, 10, 0, 10))
    _assert_rounds(s, r, ref)


@given(finite_segments)
@settings(max_examples=300)
def test_exact_matches_independent_reference(s):
    _assert_rounds(s, exact_clip(s, W), frac_clip(s, W))


@given(mixed_segments, windows_any_type)
@settings(max_examples=500)
def test_exact_matches_reference_on_mixed_types(s, w):
    _assert_rounds(s, exact_clip(s, w), frac_clip(s, w))


# Windows whose power-of-two scale differs from the unit window's, down to
# ones beyond the largest finite float (1e-300 needs 2**1049 and 1e-310
# 2**1092, each applied as two float factors): float coordinates at the
# window's scale are whole at it, while much finer ones, down to the
# smallest subnormal, are not and take the lcm path, as ints and Fractions
# do.
SCALED_WINDOWS = [Window(0.0, 1.0, 0.0, 1.0),
                  Window(1e14, 1e14 + 10.0, 1e14, 1e14 + 10.0),
                  Window(0.0, 1e160, 0.0, 1e160),
                  Window(0.0, 1e-300, 0.0, 1e-300),
                  Window(0.0, 1e-310, 0.0, 1e-310)]
FINE_COORDS = [0.0, -0.0, 5e-324, -5e-324, 1e-30, -1e-30]


@st.composite
def scaled_window_segments(draw):
    """(window, segment): coordinates at the window's scale, much finer
    ones, and ones snapped onto the window's edges, in any mix."""
    w = draw(st.sampled_from(SCALED_WINDOWS))
    region = default_region(w)

    def coord(lo, hi, edges):
        return draw(st.one_of(st.floats(lo, hi), st.sampled_from(FINE_COORDS),
                              st.sampled_from(edges)))

    xs = (region.x_left, region.x_right, (w.x_left, w.x_right))
    ys = (region.y_bottom, region.y_top, (w.y_bottom, w.y_top))
    return w, Segment(Point(coord(*xs), coord(*ys)),
                      Point(coord(*xs), coord(*ys)))


@given(scaled_window_segments())
@settings(max_examples=600)
def test_exact_matches_reference_at_every_scale(case):
    w, s = case
    _assert_rounds(s, exact_clip(s, w), frac_clip(s, w))


@pytest.mark.parametrize("k", [1500, 2000])
def test_exact_matches_reference_at_a_window_finer_than_any_float(k):
    # Fraction bounds over 2**k: a scale of 2**1562 is still two float
    # factors, at which subnormals are whole; 2**2062 is not, and every
    # float coordinate goes over the lcm
    u = Fraction(1, 2**k)
    w = Window(u, 3 * u, 0, 2 * u)
    tiny = 5e-324
    for s in [Segment(Point(0.0, 0.0), Point(tiny, tiny)),
              Segment(Point(0.0, u), Point(tiny, u)),
              Segment(Point(-tiny, -1.0), Point(1.0, tiny)),
              Segment(Point(2 * u, -1), Point(2 * u, 1))]:
        _assert_rounds(s, exact_clip(s, w), frac_clip(s, w))


NON_FINITE_WINDOWS = [W, *SCALED_WINDOWS,
                      Window(Fraction(1, 3), 7, 0, Fraction(22, 7))]


@pytest.mark.parametrize("w", NON_FINITE_WINDOWS)
@pytest.mark.parametrize("bad, error", [(math.nan, ValueError),
                                        (math.inf, OverflowError),
                                        (-math.inf, OverflowError)])
@pytest.mark.parametrize("index", range(4))
def test_exact_raises_for_a_non_finite_coordinate(w, bad, error, index):
    # the rest of the segment is the window's centre, so no same-side test
    # rejects it and no scale makes the bad coordinate whole
    centre = [float((w.x_left + w.x_right) / 2),
              float((w.y_bottom + w.y_top) / 2)] * 2
    centre[index] = bad
    x1, y1, x2, y2 = centre
    with pytest.raises(error) as info:
        exact_clip(Segment(Point(x1, y1), Point(x2, y2)), w)
    assert info.type is error


@pytest.mark.parametrize("w", NON_FINITE_WINDOWS)
def test_exact_rejects_beyond_one_edge_whatever_else_it_holds(w):
    # both endpoints lie strictly beyond the same edge, which comparing the
    # coordinates decides before any is converted
    xl, xr, yb, yt = (float(v) for v in w)
    inf, nan = math.inf, math.nan
    for (x1, y1), (x2, y2) in [
            ((-inf, yb), (xl - 1.0, yt)),      # left
            ((xr * 2 + 1.0, -inf), (inf, inf)),  # right
            ((xl, -inf), (inf, yb - 1.0)),      # below
            ((-inf, inf), (nan, yt * 2 + 1.0)),  # above, with a NaN x
            ((xl - 1.0, nan), (-inf, nan))]:    # left, with NaN ys
        assert exact_clip(Segment(Point(x1, y1), Point(x2, y2)), w) is None


def test_exact_never_clips_against_a_stale_window():
    # a window changed in place after a call is never clipped against the
    # frame of its old bounds; a mutable window may instead be refused
    s = Segment(Point(-5.0, 1.0), Point(5.0, 1.0))
    w = [0.0, 10.0, 0.0, 10.0]
    for top, want in ((10.0, ((0.0, 1.0), (5.0, 1.0))),
                      (2.0, ((0.0, 1.0), (2.0, 1.0)))):
        w[1] = w[3] = top
        try:
            got = exact_clip(s, w)
        except TypeError:
            continue
        assert got == want


@given(finite_segments)
def test_exact_idempotent_and_symmetric(s):
    first = exact_clip(s, W)
    swapped = exact_clip(Segment(s.b, s.a), W)
    if first is None:
        assert swapped is None
        return
    assert swapped == (first[1], first[0])
    again = exact_clip(first, W)
    assert again == first


@given(finite_segments)
def test_exact_accepted_satisfies_closed_window(s):
    r = exact_clip(s, W)
    if r is not None:
        for x, y in r:
            assert 0 <= x <= 10 and 0 <= y <= 10


def test_exact_accepts_fraction_inputs():
    s = Segment(Point(Fraction(1, 3), Fraction(1, 7)),
                Point(Fraction(22, 7), Fraction(5, 3)))
    r = exact_clip(s, W)
    assert r == s  # interior, returned exactly


@pytest.mark.parametrize("make", [
    lambda a, b: Segment(Point(*a), Point(*b)),
    lambda a, b: (tuple(a), tuple(b)),
], ids=["Segment", "tuple"])
@pytest.mark.parametrize("coord", [float, int, Fraction])
@pytest.mark.parametrize("a, b", [((2, 3), (7, 8)),     # wholly inside
                                  ((-5, 5), (5, 5)),    # A moved
                                  ((5, 5), (5, 15)),    # B moved
                                  ((-5, -5), (15, 15))])  # both moved
def test_exact_results_are_new_plain_tuples(make, coord, a, b):
    # exact_clip's result contract: a new tuple of two new tuples, never
    # an input object, and a kept coordinate is the input's own
    s = make(tuple(map(coord, a)), tuple(map(coord, b)))
    r = exact_clip(s, W)
    assert type(r) is tuple and r is not s and len(r) == 2
    for p, given in zip(r, s):
        assert type(p) is tuple and p is not given and len(p) == 2
        if p == given:
            assert p[0] is given[0] and p[1] is given[1]
        else:
            assert all(type(v) is float for v in p)
    assert r == frac_clip(s, W)


# --- corpus generation ------------------------------------------------------


def test_gen_zero_count():
    assert gen_segments(GeneratorSpec(seed=42, count=0)) == []


@pytest.mark.parametrize("count", [-1, -5])
def test_spec_rejects_a_negative_count(count):
    # a negative count would check an empty corpus and report OK
    with pytest.raises(ValueError, match=r"count must be >= 0: -"):
        GeneratorSpec(seed=1, count=count)


def test_gen_deterministic():
    spec = GeneratorSpec(seed=42, count=10)
    assert gen_segments(spec) == gen_segments(spec)
    assert gen_segments(GeneratorSpec(seed=43, count=10)) != gen_segments(spec)


def _uniform_recipe(spec):
    """Endpoints drawn with `Random.uniform`, x1, y1, x2, y2 in turn."""
    uniform = random.Random(spec.seed).uniform
    xl, xr, yb, yt = spec.region
    return [Segment(Point(uniform(xl, xr), uniform(yb, yt)),
                    Point(uniform(xl, xr), uniform(yb, yt)))
            for _ in range(spec.count)]


@pytest.mark.parametrize("region", [
    default_region(),
    Window(-1e160, 1e160, -1e160, 1e160),
    Window(1e8 - 10.0, 1e8 + 20.0, 1e8 - 10.0, 1e8 + 20.0),
])
def test_gen_matches_uniform_recipe_bit_for_bit(region):
    spec = GeneratorSpec(seed=13, count=5_000, region=region)
    got = gen_segments(spec)
    want = _uniform_recipe(spec)
    assert ([[v.hex() for p in s for v in p] for s in got]
            == [[v.hex() for p in s for v in p] for s in want])
    # plain ((x1, y1), (x2, y2)) tuples of floats, the shape the batch
    # kernels unpack fastest; no Segment or Point
    assert all(type(s) is tuple and all(type(p) is tuple for p in s)
               and all(type(v) is float for p in s for v in p) for s in got)


def test_gen_respects_region():
    region = Window(-1.0, 2.0, 5.0, 6.0)
    for s in gen_segments(GeneratorSpec(seed=9, count=500, region=region)):
        for x, y in s:
            assert -1.0 <= x <= 2.0 and 5.0 <= y <= 6.0


@pytest.mark.parametrize("gc_enabled", [True, False])
def test_gen_leaves_gc_state_alone(gc_enabled):
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        assert len(gen_segments(GeneratorSpec(seed=14, count=100))) == 100
        assert gc.isenabled() is gc_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_gen_starts_no_collection():
    # the corpus is built with cyclic GC paused, so no collection scans
    # its tuples while the list grows
    gc.collect()
    corpus, started = collections_started(
        lambda: gen_segments(GeneratorSpec(seed=15, count=20_000)))
    assert len(corpus) == 20_000
    assert started == 0


def test_default_region_three_times_extent():
    assert default_region(W) == Window(-10.0, 20.0, -10.0, 20.0)


def test_gen_produces_all_dispositions():
    segs = gen_segments(GeneratorSpec(seed=42, count=10_000))
    kinds = {"trivial": 0, "predicate": 0, "partial": 0, "inside": 0}
    for s in segs:
        c = Counters()
        a, b = s
        first = clip_endpoint(a, b, W, c)
        if first.trivially_rejected:
            kinds["trivial"] += 1
            continue
        if first.flag == 0:
            kinds["predicate"] += 1
            continue
        second = clip_endpoint(b, first.point, W, c)
        if second.trivially_rejected:
            kinds["trivial"] += 1
        elif second.flag == 0:
            kinds["predicate"] += 1
        elif first.point == a and second.point == b:
            kinds["inside"] += 1
        else:
            kinds["partial"] += 1
    assert all(count > 0 for count in kinds.values()), kinds


# --- differential checking ----------------------------------------------------


def test_check_equivalence_empty_corpus():
    report = check_equivalence("quadclip", GeneratorSpec(seed=7, count=0), W)
    assert report.cases_run == 0
    assert report.ok


def test_check_equivalence_unknown_clipper():
    with pytest.raises(UnknownClipperError):
        check_equivalence("no-such-algo", GeneratorSpec(seed=7, count=10), W)


@pytest.mark.parametrize("tolerance", [float("nan"), math.inf, -math.inf,
                                       -1.0, -1e-300])
def test_check_equivalence_rejects_bad_tolerance(tolerance):
    # err > nan is never true, so a NaN tolerance would pass every case
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        check_equivalence("quadclip", GeneratorSpec(seed=7, count=10), W,
                          tolerance)


@pytest.mark.parametrize("clipper, spec, w, tolerance", [
    # the window's width overflows to inf, and so does the allowance
    *[(cid, GeneratorSpec(1, 2000, Window(0.0, 1.7e308, 0.0, 1.7e308)),
       Window(-1e308, 1e308, -1e308, 1e308), 1e-9)
      for cid in ("quadclip", "cs")],
    # 1e308 * 10 overflows
    ("_nan", GeneratorSpec(seed=7, count=500), W, 1e308),
])
def test_check_equivalence_rejects_an_allowance_that_overflows(
        monkeypatch, clipper, spec, w, tolerance):
    # no error, not even a NaN output's inf, exceeds an infinite allowance,
    # so every clipper would read OK; the call fails before any corpus
    def nan_outputs(s, w, c):
        return None if exact_clip(s, w) is None else Segment(
            Point(math.nan, math.nan), Point(math.nan, math.nan))

    def no_corpus(spec):
        raise AssertionError("corpus built")

    monkeypatch.setitem(baselines.CLIPPERS, "_nan", nan_outputs)
    monkeypatch.setattr(oracle, "gen_segments", no_corpus)
    with pytest.raises(ValueError, match=re.escape(
            "tolerance * max(1, window extent) must be finite: ")):
        check_equivalence(clipper, spec, w, tolerance)


def test_check_equivalence_zero_tolerance_allowed():
    report = check_equivalence("quadclip", GeneratorSpec(seed=7, count=10), W,
                               0.0)
    assert report.tolerance == 0.0 and report.cases_run == 10


@pytest.mark.parametrize("gc_enabled", [True, False])
def test_check_equivalence_leaves_gc_state_alone(monkeypatch, gc_enabled):
    seen = {"exact_clip": set(), "clip": set()}

    def spy_exact_clip(s, w):
        seen["exact_clip"].add(gc.isenabled())
        return exact_clip(s, w)

    def spy_clip(s, w, c):
        seen["clip"].add(gc.isenabled())
        return clip_segment(s, w, c)

    monkeypatch.setattr(oracle, "exact_clip", spy_exact_clip)
    monkeypatch.setitem(baselines.CLIPPERS, "_spy", spy_clip)
    # a seed no other test uses, so the corpus is built, not cached
    spec = GeneratorSpec(seed=90_001 + gc_enabled, count=200)
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        assert check_equivalence("_spy", spec, W).ok
        assert gc.isenabled() is gc_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # the corpus build and the clipping run with cyclic GC paused
    assert seen == {"exact_clip": {False}, "clip": {False}}


def _count_exact_clips(monkeypatch):
    """Spy on `oracle.exact_clip`: the list of segments it is called with."""
    calls = []

    def spy_exact_clip(s, w):
        calls.append(s)
        return exact_clip(s, w)

    monkeypatch.setattr(oracle, "exact_clip", spy_exact_clip)
    return calls


def test_check_equivalence_runs_the_oracle_once_per_corpus(monkeypatch):
    calls = _count_exact_clips(monkeypatch)
    # a seed no other test uses, so the corpus is built, not cached
    spec = GeneratorSpec(seed=90_011, count=300)
    for cid in ("quadclip", "cs", "lb"):
        assert check_equivalence(cid, spec, W).ok
    assert calls == gen_segments(spec)


def test_check_equivalence_keeps_only_the_latest_corpus(monkeypatch):
    calls = _count_exact_clips(monkeypatch)
    first = GeneratorSpec(seed=90_012, count=300)
    second = GeneratorSpec(seed=90_013, count=300)
    for spec in (first, second, first):
        assert check_equivalence("quadclip", spec, W).ok
    assert calls == (gen_segments(first) + gen_segments(second)
                     + gen_segments(first))


def test_check_equivalence_keeps_no_corpus_whose_build_raised(monkeypatch):
    # an oracle that raises mid-build leaves nothing cached: checked again
    # with the same oracle, the spec's whole corpus is built anew
    calls = _count_exact_clips(monkeypatch)
    spy, raised = oracle.exact_clip, []

    def raises_once(s, w):
        if len(calls) == 99 and not raised:
            raised.append(s)
            raise KeyError("oracle failed")
        return spy(s, w)

    monkeypatch.setattr(oracle, "exact_clip", raises_once)
    spec = GeneratorSpec(seed=90_032, count=300)
    with pytest.raises(KeyError):
        check_equivalence("quadclip", spec, W)
    del calls[:]
    assert check_equivalence("quadclip", spec, W).ok
    assert calls == gen_segments(spec)


def test_check_equivalence_clips_with_oracle_get_clipper(monkeypatch):
    # the benchmark's traced verify run replaces `oracle.get_clipper` with
    # one that wraps each clipper; the wrapper clips every segment once
    calls = []

    def counting(clip):
        def wrapper(s, w, counters):
            calls.append(s)
            return clip(s, w, counters)
        return wrapper

    monkeypatch.setattr(oracle, "get_clipper",
                        lambda cid: counting(baselines.get_clipper(cid)))
    spec = GeneratorSpec(seed=90_031, count=300)
    assert check_equivalence("quadclip", spec, W).ok
    assert calls == gen_segments(spec)


def test_check_equivalence_drops_the_cached_corpus_before_the_next(
        monkeypatch):
    # a new spec's corpus is built only once the cached one is freed, so
    # two are never alive at once; new seeds, so both are built
    corpora = results_freed_in_turn(monkeypatch, oracle, "gen_segments")
    a = GeneratorSpec(seed=91_001, count=1_000)
    b = GeneratorSpec(seed=91_002, count=1_000)
    for spec in (a, b):
        assert check_equivalence("quadclip", spec, W).ok
    assert corpora == [(a,), (b,)]


def test_check_equivalence_holds_one_chunk_of_outputs(monkeypatch):
    # outputs are clipped 4096 segments at a time, and each chunk's are
    # freed before the next is clipped
    calls = results_freed_in_turn(monkeypatch, oracle, "clip_many")
    spec = GeneratorSpec(seed=91_003, count=10_000)
    assert check_equivalence("quadclip", spec, W).ok
    sizes = [len(args[1]) for args in calls]
    assert sum(sizes) == spec.count and max(sizes) <= 4096


@pytest.mark.parametrize("w", [
    W,
    Window(0.0, 1.0, 0.0, 1.0),
    Window(0.0, 1e160, 0.0, 1e160),
    Window(0.0, 1e-300, 0.0, 1e-300),
    Window(1e8, 1e8 + 10.0, 1e8, 1e8 + 10.0),
    Window(Fraction(1, 3), 7, 0, Fraction(22, 7)),  # non-dyadic bounds
])
def test_check_equivalence_oracle_paths_agree(monkeypatch, w):
    # a replaced oracle, here a pass-through spy, is called once per
    # segment and gives the reports of the module's own
    spec = GeneratorSpec(seed=90_021, count=3_000, region=default_region(w))
    clippers = ("quadclip", "cs", "lb")
    direct = [check_equivalence(cid, spec, w) for cid in clippers]
    calls = _count_exact_clips(monkeypatch)
    per_call = [check_equivalence(cid, spec, w) for cid in clippers]
    assert calls == gen_segments(spec)
    for a, b in zip(direct, per_call):
        # every field, failures included, and the summary line
        assert a == b and a.summary() == b.summary(), a.clipper


def test_check_equivalence_starts_no_collection():
    # the clip results are compared and freed inside the pause.  The
    # oracle's cached corpus outlives the pause that builds it, by design,
    # so the first call leaves allocation debt; it is settled first, as
    # run_suite settles a fresh corpus
    spec = GeneratorSpec(seed=90_003, count=20_000)
    check_equivalence("quadclip", spec, W)
    gc.collect()
    for cid in ("quadclip", "cs", "lb"):
        report, started = collections_started(
            lambda: check_equivalence(cid, spec, W))
        assert report.ok and report.cases_run == 20_000
        assert started == 0, cid


def test_check_equivalence_flags_broken_clipper(monkeypatch):
    def off_by_a_bit(s, w, c):
        r = exact_clip(s, w)
        if r is None:
            return None
        (ax, ay), (bx, by) = r
        return Segment(Point(float(ax) + 5e-8, float(ay)),
                       Point(float(bx), float(by)))

    def always_reject(s, w, c):
        return None

    monkeypatch.setitem(baselines.CLIPPERS, "_off", off_by_a_bit)
    monkeypatch.setitem(baselines.CLIPPERS, "_rej", always_reject)
    rep = check_equivalence("_off", GeneratorSpec(seed=5, count=500), W)
    assert rep.coordinate_mismatches > 0
    assert not rep.ok
    assert rep.failures
    assert "MISMATCH" in rep.summary()
    rep2 = check_equivalence("_rej", GeneratorSpec(seed=5, count=500), W)
    assert rep2.decision_mismatches > 0


def test_check_equivalence_counts_across_chunk_boundaries(monkeypatch):
    # outputs are compared in chunks of 4096: inputs 4095 and 4096 lie on
    # either side of the first boundary, and 9999 is the last input
    spec = GeneratorSpec(seed=91_012, count=10_000)
    corpus = gen_segments(spec)
    a, b, last = corpus[4095], corpus[4096], corpus[9999]
    assert exact_clip(a, W) is None
    assert exact_clip(b, W) is not None and exact_clip(last, W) is not None

    def wrong_at_three(s, w, c):
        r = exact_clip(s, w)
        if s == a:  # accepts a segment the oracle rejects
            return s
        if s == b:  # moves the first endpoint
            (ax, ay), rb = r
            return Segment(Point(ax + 0.5, ay), rb)
        if s == last:  # rejects a segment the oracle accepts
            return None
        return r

    monkeypatch.setitem(baselines.CLIPPERS, "_three", wrong_at_three)
    rep = check_equivalence("_three", spec, W)
    moved = exact_clip(b, W)[0][0]
    assert (rep.cases_run, rep.decision_mismatches,
            rep.coordinate_mismatches) == (10_000, 2, 1)
    assert rep.max_coordinate_error == abs(moved + 0.5 - moved)
    assert rep.failures == [a, b, last]


def test_check_equivalence_compares_endpoints_in_order(monkeypatch):
    # every clipper keeps its input's endpoint order, so a reversed output
    # is wrong wherever its endpoints differ
    def reversed_quad(s, w, c):
        r = clip_segment(s, w, c)
        return None if r is None else Segment(r.b, r.a)

    monkeypatch.setitem(baselines.CLIPPERS, "_swap", reversed_quad)
    rep = check_equivalence("_swap", GeneratorSpec(seed=5, count=2_000), W)
    assert rep.decision_mismatches == 0
    assert rep.coordinate_mismatches > 0
    assert "MISMATCH" in rep.summary()


@pytest.mark.parametrize("coordinate", ["a.x", "b.x"])
def test_check_equivalence_flags_a_nan_output(monkeypatch, coordinate):
    # max() drops a NaN that is not its first argument, and a NaN error is
    # never above the tolerance: a NaN must count as an infinite error
    def nan_coordinate(s, w, c):
        r = exact_clip(s, w)
        if r is None:
            return None
        (_, ay), (_, by) = r
        if coordinate == "a.x":
            return Segment(Point(math.nan, ay), r[1])
        return Segment(r[0], Point(math.nan, by))

    monkeypatch.setitem(baselines.CLIPPERS, "_nan", nan_coordinate)
    rep = check_equivalence("_nan", GeneratorSpec(seed=7, count=2_000), W)
    accepted = sum(exact_clip(s, W) is not None
                   for s in gen_segments(GeneratorSpec(seed=7, count=2_000)))
    assert rep.decision_mismatches == 0
    assert rep.coordinate_mismatches == accepted > 0
    assert rep.max_coordinate_error == math.inf
    assert rep.summary().startswith("verify _nan: MISMATCH")


def _endpoint_error(out, want):
    """Largest coordinate deviation from the exact endpoints rounded to
    floats, endpoints taken in order; inf for a NaN output coordinate."""
    (wax, way), (wbx, wby) = want
    errs = [abs(o - float(e))
            for o, e in zip((*out.a, *out.b), (wax, way, wbx, wby))]
    return math.inf if any(math.isnan(e) for e in errs) else max(errs)


# Windows on which the float clippers disagree with the oracle (overflow,
# underflow, offset): the reports must follow the rules exactly where they
# count mismatches, whatever the counts are.
@pytest.mark.parametrize("w", [
    Window(0.0, 1e160, 0.0, 1e160),
    Window(0.0, 1e-300, 0.0, 1e-300),
    Window(1e8, 1e8 + 10.0, 1e8, 1e8 + 10.0),
])
def test_check_equivalence_reports_rederived(w):
    spec = GeneratorSpec(seed=21, count=2_000, region=default_region(w))
    segments = gen_segments(spec)
    exacts = [frac_clip(s, w) for s in segments]
    abs_tol = 1e-9 * max(1.0, w.extent())
    for clipper, clip in baselines.CLIPPERS.items():
        decisions = coordinates = 0
        worst = 0.0
        failures = []
        for s, want in zip(segments, exacts):
            out = clip(s, w, Counters())
            if (out is None) != (want is None):
                decisions += 1
                failures.append(s)
                continue
            if out is None:
                continue
            err = _endpoint_error(out, want)
            worst = max(worst, err)
            if err > abs_tol:
                coordinates += 1
                failures.append(s)
        rep = check_equivalence(clipper, spec, w, 1e-9)
        assert rep.cases_run == len(segments)
        assert ((rep.decision_mismatches, rep.coordinate_mismatches,
                 rep.max_coordinate_error, rep.failures)
                == (decisions, coordinates, worst, failures)), clipper


# check_equivalence's reports at seed 21, 2000 segments from each window's
# default region: (decision mismatches, coordinate mismatches,
# repr(max_coordinate_error)) for quadclip, cs and lb.  Any change to the
# oracle, the clippers or the corpus that moves a verdict or a worst error
# shows here.
GOLDEN_REPORTS = [
    (Window(0.0, 10.0, 0.0, 10.0),
     [(0, 0, "7.105427357601002e-15"), (0, 0, "7.105427357601002e-15"),
      (0, 0, "4.440892098500626e-15")]),
    (Window(0.0, 1e160, 0.0, 1e160),
     [(419, 622, "inf"), (419, 622, "inf"), (0, 0, "4.877732109868738e+144")]),
    (Window(0.0, 1e-300, 0.0, 1e-300),
     [(150, 0, "9.76005786717823e-301"), (150, 0, "1e-300"),
      (0, 0, "4.14452303e-316")]),
    (Window(1e8, 1e8 + 10.0, 1e8, 1e8 + 10.0),
     [(0, 90, "2.9802322387695312e-08"), (0, 144, "7.450580596923828e-08"),
      (0, 0, "0.0")]),
]


@pytest.mark.parametrize("w, want", GOLDEN_REPORTS)
def test_check_equivalence_golden_reports(w, want):
    spec = GeneratorSpec(seed=21, count=2_000, region=default_region(w))
    got = []
    for cid in ("quadclip", "cs", "lb"):
        rep = check_equivalence(cid, spec, w)
        assert rep.cases_run == 2_000
        assert len(rep.failures) == (rep.decision_mismatches
                                     + rep.coordinate_mismatches)
        got.append((rep.decision_mismatches, rep.coordinate_mismatches,
                     repr(rep.max_coordinate_error)))
    assert got == want


@pytest.mark.parametrize("region", [
    Window(-1e308, 1e308, -1e308, 1e308),
    Window(0.0, 1.0, -1e308, 1e308),  # only the height overflows
    # 3x the window's extent: the bounds themselves overflow to +-inf
    default_region(Window(0.0, 1e308, 0.0, 1e308)),
])
def test_gen_and_check_refuse_a_region_whose_extent_overflows(region):
    # xr - xl or yt - yb is inf, so every coordinate drawn would be
    # infinite or NaN
    spec = GeneratorSpec(seed=5, count=200, region=region)
    message = re.escape("sampling region width and height must be finite: "
                        f"{region!r}")
    with pytest.raises(ValueError, match=message):
        gen_segments(spec)
    for cid in ("quadclip", "cs", "lb"):
        with pytest.raises(ValueError, match=message):
            check_equivalence(cid, spec, W)


def test_check_equivalence_samples_an_inverted_region():
    # the region is a sampling box, not a window: `gen_segments` draws
    # from it whichever way round its bounds are, and its width and height
    # check is the one rule `check_equivalence` applies to it
    spec = GeneratorSpec(seed=3, count=5, region=Window(10.0, 0.0, 0.0, 10.0))
    assert len(gen_segments(spec)) == 5
    for cid in ("quadclip", "cs", "lb"):
        report = check_equivalence(cid, spec, W)
        assert report.cases_run == 5 and report.ok
