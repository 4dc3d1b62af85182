import gc
import math
import random
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
from _strategies import WINDOW, collections_started

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


def test_exact_corner_touch_single_point():
    r = exact_clip(Segment(Point(-5.0, 5.0), Point(5.0, -5.0)), W)
    assert r == Segment(Point(0, 0), Point(0, 0))
    assert r.a == r.b


def test_exact_diagonal_quarter_interval():
    # the four half-plane constraints pin t to [1/4, 3/4]
    r = exact_clip(Segment(Point(-5.0, -5.0), Point(15.0, 15.0)), W)
    assert r == Segment(Point(0, 0), Point(10, 10))
    assert isinstance(r.a.x, Fraction)


def test_exact_rejects_disjoint_intervals():
    # x >= 0 forces t in [2/3, 1]; y <= 10 forces t in [0, 1/5]
    assert exact_clip(Segment(Point(-2.0, 9.0), Point(1.0, 14.0)), W) is None


def test_exact_fractional_result():
    r = exact_clip(Segment(Point(-2.0, -5.0), Point(8.0, 7.0)), W)
    assert r.a == Point(Fraction(13, 6), Fraction(0))
    assert r.b == Point(Fraction(8), Fraction(7))
    ref = frac_clip(((-2, -5), (8, 7)), (0, 10, 0, 10))
    assert (r.a, r.b) == ref


@given(finite_segments)
@settings(max_examples=300)
def test_exact_matches_independent_reference(s):
    got = exact_clip(s, W)
    want = frac_clip(s, W)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.a, got.b) == want


@given(mixed_segments, windows_any_type)
@settings(max_examples=500)
def test_exact_matches_reference_on_mixed_types(s, w):
    got = exact_clip(s, w)
    want = frac_clip(s, w)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.a, got.b) == want
        assert all(type(v) is Fraction for p in got for v in p)


@given(finite_segments)
def test_exact_idempotent_and_symmetric(s):
    first = exact_clip(s, W)
    swapped = exact_clip(Segment(s.b, s.a), W)
    if first is None:
        assert swapped is None
        return
    assert swapped == Segment(first.b, first.a)
    again = exact_clip(first, W)
    assert again == first


@given(finite_segments)
def test_exact_accepted_satisfies_closed_window(s):
    r = exact_clip(s, W)
    if r is not None:
        for p in (r.a, r.b):
            assert 0 <= p.x <= 10 and 0 <= p.y <= 10


def test_exact_accepts_fraction_inputs():
    s = Segment(Point(Fraction(1, 3), Fraction(1, 7)),
                Point(Fraction(22, 7), Fraction(5, 3)))
    r = exact_clip(s, W)
    assert r == s  # interior, returned exactly


# --- corpus generation ------------------------------------------------------


def test_gen_zero_count():
    assert gen_segments(GeneratorSpec(seed=42, count=0)) == []


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
    assert all(type(s) is Segment and type(s.a) is Point and type(s.b) is Point
               for s in got)


def test_gen_respects_region():
    region = Window(-1.0, 2.0, 5.0, 6.0)
    for s in gen_segments(GeneratorSpec(seed=9, count=500, region=region)):
        for p in (s.a, s.b):
            assert -1.0 <= p.x <= 2.0 and 5.0 <= p.y <= 6.0


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
        first = clip_endpoint(s.a, s.b, W, c)
        if first.trivially_rejected:
            kinds["trivial"] += 1
            continue
        if first.flag == 0:
            kinds["predicate"] += 1
            continue
        second = clip_endpoint(s.b, first.point, W, c)
        if second.trivially_rejected:
            kinds["trivial"] += 1
        elif second.flag == 0:
            kinds["predicate"] += 1
        elif first.point == s.a and second.point == s.b:
            kinds["inside"] += 1
        else:
            kinds["partial"] += 1
    assert all(count > 0 for count in kinds.values()), kinds


# --- differential checking ----------------------------------------------------


def test_check_equivalence_quadclip_clean():
    report = check_equivalence("quadclip", GeneratorSpec(seed=7, count=100_000), W)
    assert report.cases_run == 100_000
    assert report.decision_mismatches == 0
    assert report.coordinate_mismatches == 0
    assert report.ok
    assert "OK" in report.summary()


def test_check_equivalence_baseline_clean():
    report = check_equivalence("cs", GeneratorSpec(seed=7, count=100_000), W)
    assert report.ok


def test_check_equivalence_empty_corpus():
    report = check_equivalence("quadclip", GeneratorSpec(seed=7, count=0), W)
    assert report.cases_run == 0
    assert report.ok


def test_check_equivalence_unknown_clipper():
    with pytest.raises(UnknownClipperError):
        check_equivalence("nln", GeneratorSpec(seed=7, count=10), W)


@pytest.mark.parametrize("tolerance", [float("nan"), math.inf, -math.inf,
                                       -1.0, -1e-300])
def test_check_equivalence_rejects_bad_tolerance(tolerance):
    # err > nan is never true, so a NaN tolerance would pass every case
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        check_equivalence("quadclip", GeneratorSpec(seed=7, count=10), W,
                          tolerance)


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
        return Segment(Point(float(r.a.x) + 5e-8, float(r.a.y)),
                       Point(float(r.b.x), float(r.b.y)))

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


def test_check_equivalence_swapped_endpoints_ok(monkeypatch):
    # output order must not matter: compare as point sets
    def reversed_quad(s, w, c):
        from segclip.quadclip import clip_segment
        r = clip_segment(s, w, c)
        return None if r is None else Segment(r.b, r.a)

    monkeypatch.setitem(baselines.CLIPPERS, "_swap", reversed_quad)
    rep = check_equivalence("_swap", GeneratorSpec(seed=5, count=2_000), W)
    assert rep.ok


def _set_error(out, want):
    """Largest coordinate deviation from the exact endpoints rounded to
    floats, under the better of the two endpoint pairings."""
    (oax, oay), (obx, oby) = out
    (eax, eay), (ebx, eby) = ((float(x), float(y)) for x, y in want)
    direct = max(abs(oax - eax), abs(oay - eay), abs(obx - ebx), abs(oby - eby))
    swapped = max(abs(oax - ebx), abs(oay - eby), abs(obx - eax), abs(oby - eay))
    return min(direct, swapped)


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
            err = _set_error(out, want)
            worst = max(worst, err)
            if err > abs_tol:
                coordinates += 1
                failures.append(s)
        rep = check_equivalence(clipper, spec, w, 1e-9)
        assert rep.cases_run == len(segments)
        assert ((rep.decision_mismatches, rep.coordinate_mismatches,
                 rep.max_coordinate_error, rep.failures)
                == (decisions, coordinates, worst, failures)), clipper
