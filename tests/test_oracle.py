from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from segclip import (Counters, EquivalenceReport, GeneratorSpec, Point,
                     Segment, UnknownClipperError, Window, check_equivalence,
                     default_region, exact_clip, gen_segments)
import segclip.baselines as baselines
from segclip.quadclip import clip_endpoint

from _reference import frac_clip
from _strategies import WINDOW

W = WINDOW

# continuous coordinates, including awkward magnitudes; exactness must hold
finite_coords = st.floats(min_value=-1e9, max_value=1e9,
                          allow_nan=False, allow_infinity=False)
finite_points = st.builds(Point, finite_coords, finite_coords)
finite_segments = st.builds(Segment, finite_points, finite_points)


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


def test_gen_respects_region():
    region = Window(-1.0, 2.0, 5.0, 6.0)
    for s in gen_segments(GeneratorSpec(seed=9, count=500, region=region)):
        for p in (s.a, s.b):
            assert -1.0 <= p.x <= 2.0 and 5.0 <= p.y <= 6.0


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
