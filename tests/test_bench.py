import gc

import pytest

import segclip.baselines as baselines
from segclip import (BenchConfig, GeneratorSpec, Point, Segment, Window,
                     checksum_segments, gen_segments, pass_seed,
                     relative_execution, run_suite, time_algorithm, write_csv)
from segclip.bench import CSV_FIELDS, REFERENCE_RATIOS, format_table, rows_to_csv
from segclip.oracle import DEFAULT_WINDOW
from segclip.quadclip import clip_segment

W = DEFAULT_WINDOW


# --- relative execution metric ----------------------------------------------


def test_relative_execution_quotient():
    assert relative_execution(2.0, 1.0) == 2.0


def test_relative_execution_identity():
    assert relative_execution(1.0, 1.0) == 1.0


def test_relative_execution_reference_value():
    # the published overall average for the parametric baseline
    assert relative_execution(1.4092, 1.0) == 1.4092
    assert REFERENCE_RATIOS["lb"]["average"] == 1.4092
    assert REFERENCE_RATIOS["cs"]["average"] == 1.2092


def test_relative_execution_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        relative_execution(1.0, 0.0)


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


def test_pass_seed_distinct_and_stable():
    seen = {pass_seed(1, size, p) for size in (10, 100) for p in range(11)}
    assert len(seen) == 22
    assert pass_seed(1, 10, 0) == pass_seed(1, 10, 0)


def test_csv_output(tmp_path):
    rows = run_suite(BenchConfig(sizes=(10,), iterations=1, seed=5))
    path = tmp_path / "bench.csv"
    write_csv(rows, path)
    lines = path.read_text().splitlines()
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
