import gc
import math

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import segclip.baselines as baselines
from segclip import (BenchConfig, BenchRow, DegenerateWindowError,
                     GeneratorSpec, NonFiniteError, Point, Segment, Window,
                     checksum_segments, default_region, gen_segments,
                     pass_seed, run_suite, time_algorithm)
from segclip.bench import CSV_FIELDS, REFERENCE_RATIOS, format_table, rows_to_csv
from segclip.geom import DEFAULT_WINDOW
from segclip.quadclip import clip_segment

from _reference import checksum_segments as reference_checksum
from _strategies import collections_started

W = DEFAULT_WINDOW


# --- checksums and single passes ----------------------------------------------


def test_checksum_empty():
    assert checksum_segments([]) == 0.0


def test_checksum_known_value():
    segs = [Segment(Point(0.25, 0.5), Point(1.0, 2.0))]
    assert checksum_segments(segs) == pytest.approx(3.75)


def test_checksum_order_independent():
    s1 = Segment(Point(0.1, 0.2), Point(0.3, 0.4))
    s2 = Segment(Point(1.5, 2.5), Point(3.5, 4.5))
    assert checksum_segments([s1, s2]) == checksum_segments([s2, s1])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 1e303])  # finite, but 1e303 * 1e6 is not
def test_checksum_names_a_non_finite_segment(bad):
    segs = [Segment(Point(1.0, 2.0), Point(3.0, 4.0)),
            Segment(Point(5.0, 6.0), Point(bad, 8.0)),
            Segment(Point(-math.inf, 0.0), Point(0.0, 0.0))]
    message = (f"cannot checksum output segment ((5.0, 6.0), ({bad!r}, 8.0)): "
               "a coordinate is not finite")
    for checksum in (checksum_segments, reference_checksum):
        with pytest.raises(ValueError) as info:
            checksum(segs)
        assert str(info.value) == message


# coordinates whose v * 1e6 is a round-half-to-even tie (most of the
# (m + 0.5) / 1e6 draws), signed zeros, subnormals, +-1e9, and int and
# Fraction coordinates
checksum_coords = st.one_of(
    st.floats(min_value=-1e9, max_value=1e9),
    st.integers(-10**9, 10**9).map(lambda m: (m + 0.5) / 1e6),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e9, -1e9]),
    st.integers(-10**9, 10**9),
    st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**7),
)
checksum_points = st.tuples(checksum_coords, checksum_coords)


@settings(max_examples=300)
@given(st.lists(st.tuples(checksum_points, checksum_points), max_size=40))
@example([((2.5e-6, 0.5e-6), (1.5e-6, -2.5e-6))])  # four ties
@example([((-0.0, 5e-324), (1e9, -1e9))])
def test_checksum_bit_identical_to_the_plain_loop(segs):
    assert checksum_segments(segs).hex() == reference_checksum(segs).hex()


def test_time_algorithm_empty_corpus():
    ms, checksum = time_algorithm("quadclip", [], W)
    assert ms >= 0.0
    assert checksum == 0.0


def test_time_algorithm_checksums_agree_across_clippers():
    corpus = gen_segments(GeneratorSpec(seed=21, count=5_000))
    _, ck_quad = time_algorithm("quadclip", corpus, W)
    _, ck_lb = time_algorithm("lb", corpus, W)
    _, ck_cs = time_algorithm("cs", corpus, W)
    assert ck_quad == ck_lb == ck_cs


def test_time_algorithm_nonzero_time():
    corpus = gen_segments(GeneratorSpec(seed=22, count=100_000))
    ms, _ = time_algorithm("quadclip", corpus, W)
    assert ms > 0.0


@pytest.mark.parametrize("gc_enabled", [True, False])
def test_time_algorithm_leaves_gc_state_alone(monkeypatch, gc_enabled):
    seen = set()

    def spy(s, w, c):
        seen.add(gc.isenabled())
        return clip_segment(s, w, c)

    monkeypatch.setitem(baselines.CLIPPERS, "_spy", spy)
    corpus = gen_segments(GeneratorSpec(seed=23, count=200))
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        _, checksum = time_algorithm("_spy", corpus, W)
        assert gc.isenabled() is gc_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == {False}  # clipped with cyclic GC paused
    assert checksum == time_algorithm("quadclip", corpus, W)[1]


@pytest.mark.parametrize("clipper", ["quadclip", "cs", "lb"])
def test_time_algorithm_starts_no_collection(clipper):
    # the results are checksummed and freed inside the pause, so nothing
    # is left for a collection to rescan once GC is back on
    corpus = gen_segments(GeneratorSpec(seed=24, count=20_000))
    gc.collect()  # settle the corpus's allocation debt, as run_suite does
    (_, checksum), started = collections_started(
        lambda: time_algorithm(clipper, corpus, W))
    assert started == 0
    assert checksum > 0.0


@pytest.mark.parametrize("gc_enabled", [True, False])
def test_time_algorithm_restores_gc_when_the_checksum_raises(monkeypatch,
                                                             gc_enabled):
    monkeypatch.setitem(baselines.CLIPPERS, "_overflow",
                        lambda s, w, c: Segment(Point(math.inf, 0.0), s.b))
    corpus = gen_segments(GeneratorSpec(seed=23, count=200))
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        with pytest.raises(ValueError, match="a coordinate is not finite"):
            time_algorithm("_overflow", corpus, W)
        assert gc.isenabled() is gc_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


# --- suites -------------------------------------------------------------------


def test_run_suite_structure_single_size():
    rows = run_suite(BenchConfig(sizes=(10,), iterations=1, seed=5))
    assert len(rows) == 3
    assert [r.clipper for r in rows] == ["quadclip", "cs", "lb"]
    quad = rows[0]
    assert quad.ratio_vs_quadclip == 1.0
    assert all(r.checksum == quad.checksum for r in rows)


def test_run_suite_two_sizes_deterministic():
    config = BenchConfig(sizes=(10, 100), iterations=2, seed=5)
    rows_a = run_suite(config)
    rows_b = run_suite(config)
    assert len(rows_a) == 6
    assert [r.size for r in rows_a] == [10, 10, 10, 100, 100, 100]
    for a, b in zip(rows_a, rows_b):
        assert (a.size, a.clipper, a.checksum) == (b.size, b.clipper, b.checksum)


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(100, 10), iterations=1))
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(10,), iterations=0))
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(), iterations=1))
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(0, 10), iterations=1))


@pytest.mark.parametrize("field", ["window", "region"])
@pytest.mark.parametrize("bad, error", [
    (Window(0.0, 0.0, 0.0, 10.0), DegenerateWindowError),
    (Window(10.0, 0.0, 0.0, 10.0), DegenerateWindowError),
    (Window(0.0, math.nan, 0.0, 10.0), NonFiniteError),
])
def test_config_rejects_an_invalid_window(field, bad, error):
    with pytest.raises(error):
        BenchConfig(sizes=(100,), iterations=1, **{field: bad})


def test_config_rejects_a_default_region_that_is_not_finite():
    # three times this window's extent overflows to infinity
    with pytest.raises(NonFiniteError):
        BenchConfig(window=Window(0.0, 1e308, 0.0, 1e308))


def test_pass_seed_distinct_and_stable():
    seen = {pass_seed(1, size, p) for size in (10, 100) for p in range(11)}
    assert len(seen) == 22
    assert pass_seed(1, 10, 0) == pass_seed(1, 10, 0)


def test_csv_output():
    rows = run_suite(BenchConfig(sizes=(10,), iterations=1, seed=5))
    lines = rows_to_csv(rows).splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "10" and first[1] == "quadclip"
    assert first[3] == "1.0000"
    # checksum column identical for all clippers
    assert len({line.split(",")[4] for line in lines[1:]}) == 1


def test_format_table_includes_reference_column():
    rows = run_suite(BenchConfig(sizes=(10,), iterations=1, seed=5))
    table = format_table(rows)
    assert "reference" in table
    assert "1.3665" in table  # published ratio for lb at size 10
    assert rows_to_csv(rows).startswith("size,clipper")
    # the published overall averages
    assert REFERENCE_RATIOS["lb"]["average"] == 1.4092
    assert REFERENCE_RATIOS["cs"]["average"] == 1.2092


def test_csv_bytes_of_awkward_values():
    rows = [BenchRow(10, "quadclip", 0.5, 1.0, -0.0),
            BenchRow(1_000_000, "lb", math.inf, math.nan, 1e20)]
    assert rows_to_csv(rows) == (
        "size,clipper,avg_total_ms,ratio_vs_quadclip,checksum\n"
        "10,quadclip,0.500000,1.0000,-0.000000\n"
        "1000000,lb,inf,nan,100000000000000000000.000000\n")


def test_config_region_follows_the_window():
    w = Window(100.0, 101.0, 100.0, 101.0)
    assert BenchConfig(window=w).region == default_region(w)
    assert BenchConfig().region == default_region()
    given = Window(0.0, 1.0, 0.0, 1.0)
    assert BenchConfig(window=w, region=given).region == given


def test_run_suite_samples_around_a_far_window():
    # sampling around the default window instead would reject every
    # segment, leaving nothing for the checksums to compare
    rows = run_suite(BenchConfig(window=Window(100.0, 101.0, 100.0, 101.0),
                                 sizes=(1000,), iterations=1))
    assert len({r.checksum for r in rows}) == 1
    assert rows[0].checksum > 0.0
