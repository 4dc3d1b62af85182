import gc
import math

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

import segclip.baselines as baselines
import segclip.bench as bench
from segclip import (BenchConfig, BenchRow, GeneratorSpec, Point, Segment,
                     Window, checksum_segments, gen_segments, pass_seed,
                     run_suite, time_algorithm)
from segclip.bench import CSV_FIELDS, REFERENCE_RATIOS, format_table, rows_to_csv
from segclip.geom import DEFAULT_WINDOW
from segclip.quadclip import clip_segment

from _reference import checksum_segments as reference_checksum
from _strategies import collections_started, results_freed_in_turn

W = DEFAULT_WINDOW


# --- checksums and single passes ----------------------------------------------


def test_checksum_empty():
    assert checksum_segments([]) == 0.0


def test_checksum_known_value():
    segs = [(0.25, 0.5, 1.0, 2.0)]
    assert checksum_segments(segs) == pytest.approx(3.75)


def test_checksum_order_independent():
    s1 = (0.1, 0.2, 0.3, 0.4)
    s2 = (1.5, 2.5, 3.5, 4.5)
    assert checksum_segments([s1, s2]) == checksum_segments([s2, s1])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                 1e303])  # finite, but 1e303 * 1e6 is not
def test_checksum_names_a_non_finite_segment(bad):
    segs = [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, bad, 8.0),
            (-math.inf, 0.0, 0.0, 0.0)]
    message = (f"cannot checksum output segment ((5.0, 6.0), ({bad!r}, 8.0)): "
               "a coordinate times 1e6 is not finite")
    for checksum in (checksum_segments, reference_checksum):
        for given in (segs, iter(segs)):  # a list, and a one-shot iterable
            with pytest.raises(ValueError) as info:
                checksum(given)
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
checksum_rows = st.tuples(checksum_coords, checksum_coords, checksum_coords,
                          checksum_coords)


@settings(max_examples=300)
@given(st.lists(checksum_rows, max_size=40))
@example([(2.5e-6, 0.5e-6, 1.5e-6, -2.5e-6)])  # four ties
@example([(-0.0, 5e-324, 1e9, -1e9)])
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
                        lambda s, w, c: Segment(Point(math.inf, 0.0), s[1]))
    corpus = gen_segments(GeneratorSpec(seed=23, count=200))
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        with pytest.raises(ValueError,
                           match="a coordinate times 1e6 is not finite"):
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


def test_run_suite_checksum_is_the_sum_of_its_pass_checksums():
    # every row of a size carries the in-order sum over the measured passes
    # of one pass's checksum, computed here on freshly built default corpora
    rows = run_suite(BenchConfig(sizes=(10, 100), iterations=2, seed=5))
    for size in (10, 100):
        want = 0.0
        for i in (1, 2):
            corpus = gen_segments(GeneratorSpec(pass_seed(5, size, i), size))
            want += time_algorithm("quadclip", corpus, W)[1]
        got = [r.checksum for r in rows if r.size == size]
        assert len(got) == 3
        assert all(c.hex() == want.hex() for c in got), (size, got, want)


def test_run_suite_holds_one_corpus_at_a_time(monkeypatch):
    # each pass's corpus is freed before the next is generated
    corpora = results_freed_in_turn(monkeypatch, bench, "gen_segments")
    run_suite(BenchConfig(sizes=(10, 100), iterations=2))
    assert [args[0].count for args in corpora] == [10] * 3 + [100] * 3


def test_run_suite_validation():
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(100, 10), iterations=1))
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(10, 10), iterations=1))
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(10,), iterations=0))
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(), iterations=1))
    with pytest.raises(ValueError):
        run_suite(BenchConfig(sizes=(0, 10), iterations=1))


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


def test_config_has_no_region_or_window():
    # the sampling recipe lives in GeneratorSpec alone
    assert not hasattr(BenchConfig(), "region")
    with pytest.raises(TypeError):  # the bench runs at DEFAULT_WINDOW only
        BenchConfig(window=Window(100.0, 101.0, 100.0, 101.0))
    with pytest.raises(TypeError):  # the region is not a setting
        BenchConfig(region=Window(0.0, 1.0, 0.0, 1.0))
