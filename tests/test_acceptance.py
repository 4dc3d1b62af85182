"""Acceptance gate.

Each test here implements one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with `pytest -s` to see them on success).

 1. Oracle equivalence: seeds 1..10 x 100k uniform segments, window
    (0,10)x(0,10), zero decision and coordinate mismatches at tolerance
    1e-9 for all three clippers.
 2. No false intersections: over the same corpora the main clipper's
    intersection count equals its moved-endpoint count and its division
    count, for every single input.
 3. Exhibit: a concrete segment where a baseline performs intersection
    work beyond the true crossings while the main clipper does not.
 4. Singular boundary configurations are accepted unchanged, exactly.
 5. Benchmark: at size 100k x 10 iterations the baseline/main time ratios
    are each >= 0.9, checksums agree per pass, and the CSV is reproducible.
 6. Endpoint-procedure trace conformance on four pinned cases.
"""

import math

from segclip import (BenchConfig, Counters, GeneratorSpec, Point, Segment,
                     Window, check_equivalence, cs_clip, gen_segments,
                     lb_clip, pass_seed, run_suite, time_algorithm)
from segclip.bench import REFERENCE_RATIOS
from segclip.quadclip import EndpointOutcome, clip_endpoint, clip_segment

WINDOW = Window(0.0, 10.0, 0.0, 10.0)
SEEDS = range(1, 11)
CORPUS_SIZE = 100_000
TOLERANCE = 1e-9
CLIPPERS = ("quadclip", "cs", "lb")


def _verdict(label: str, ok: bool, detail: str = "") -> None:
    stamp = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance [{label}]: {stamp}{suffix}")
    assert ok, f"{label}{suffix}"


def test_1_oracle_equivalence_all_clippers():
    worst = 0.0
    ok = True
    for seed in SEEDS:
        spec = GeneratorSpec(seed=seed, count=CORPUS_SIZE)
        for clipper in CLIPPERS:
            report = check_equivalence(clipper, spec, WINDOW, TOLERANCE)
            worst = max(worst, report.max_coordinate_error)
            if not (report.cases_run == CORPUS_SIZE and report.ok):
                ok = False
    _verdict("1 oracle equivalence",
             ok, f"10 seeds x {CORPUS_SIZE} x 3 clippers, "
                 f"max coordinate error {worst:.2e}")


def test_2_no_false_intersections_per_input():
    violations = 0
    cases = 0
    for seed in SEEDS:
        counters = Counters()
        prev_div = prev_isec = 0
        for s in gen_segments(GeneratorSpec(seed=seed, count=CORPUS_SIZE)):
            out = clip_segment(s, WINDOW, counters)
            d_div = counters.divisions - prev_div
            d_isec = counters.intersections_computed - prev_isec
            prev_div = counters.divisions
            prev_isec = counters.intersections_computed
            moved = 0
            if out is not None:
                moved = (out.a != s[0]) + (out.b != s[1])
            if d_isec != moved or d_div != d_isec:
                violations += 1
            cases += 1
    _verdict("2 no false intersections",
             violations == 0, f"{cases} inputs, {violations} violations")


def test_3_false_intersection_exhibit():
    diagonal = Segment(Point(-5.0, -5.0), Point(15.0, 15.0))
    c_lb, c_qc = Counters(), Counters()
    r_lb = lb_clip(diagonal, WINDOW, c_lb)
    r_qc = clip_segment(diagonal, WINDOW, c_qc)
    true_count = (r_lb.a != diagonal.a) + (r_lb.b != diagonal.b)
    lb_extra = c_lb.divisions - true_count

    bent = Segment(Point(-4.0, -5.0), Point(6.0, 5.0))
    c_cs = Counters()
    r_cs = cs_clip(bent, WINDOW, c_cs)
    cs_extra = c_cs.intersections_computed - (
        (r_cs.a != bent.a) + (r_cs.b != bent.b))

    ok = (lb_extra >= 1 and cs_extra >= 1
          and c_qc.intersections_computed == 2
          and c_qc.divisions == 2
          and r_qc == Segment(Point(0.0, 0.0), Point(10.0, 10.0)))
    _verdict("3 false intersection exhibit", ok,
             f"lb spends {c_lb.divisions} divisions for {true_count} true "
             f"crossings, cs computes {c_cs.intersections_computed} points "
             f"for 1 moved endpoint, quadclip exactly 2 on the diagonal")


def test_4_singular_cases_exact():
    unchanged = [
        Segment(Point(0.0, 2.0), Point(4.0, 10.0)),   # endpoints on two edges
        Segment(Point(0.0, 0.0), Point(10.0, 10.0)),  # corner to corner
        Segment(Point(2.0, 3.0), Point(7.0, 8.0)),    # fully interior
        Segment(Point(2.0, 10.0), Point(8.0, 10.0)),  # lies on the top edge
        Segment(Point(10.0, 2.0), Point(10.0, 8.0)),  # lies on the right edge
    ]
    ok = True
    for clip in (clip_segment, cs_clip, lb_clip):
        for s in unchanged:
            if clip(s, WINDOW, Counters()) != s:
                ok = False
        graze = clip(Segment(Point(-5.0, 5.0), Point(5.0, -5.0)),
                     WINDOW, Counters())
        if graze != Segment(Point(0.0, 0.0), Point(0.0, 0.0)):
            ok = False
    _verdict("4 singular cases", ok,
             "boundary/interior segments unchanged, corner graze -> (0,0)")


def test_5_benchmark_directional():
    # the differential tests above leave large cached oracle results alive;
    # timing should start from a clean heap, and checking an empty corpus
    # evicts them, as only the latest corpus is kept
    check_equivalence("quadclip", GeneratorSpec(seed=1, count=0), WINDOW)

    config = BenchConfig(sizes=(CORPUS_SIZE,), iterations=10, seed=1)
    rows = run_suite(config)  # raises if any pass checksums disagree
    ratios = {r.clipper: r.ratio_vs_quadclip for r in rows}
    checksums = {r.clipper: r.checksum for r in rows}

    # explicit per-pass checksum agreement on the first measured pass
    corpus = gen_segments(GeneratorSpec(
        pass_seed(config.seed, CORPUS_SIZE, 1), CORPUS_SIZE))
    pass_cks = {cid: time_algorithm(cid, corpus, WINDOW)[1] for cid in CLIPPERS}

    rows_again = run_suite(config)
    reproducible = all(
        (a.size, a.clipper, a.checksum) == (b.size, b.clipper, b.checksum)
        for a, b in zip(rows, rows_again))

    ok = (ratios["cs"] >= 0.9 and ratios["lb"] >= 0.9
          and len(set(checksums.values())) == 1
          and len(set(pass_cks.values())) == 1
          and reproducible)
    _verdict(
        "5 benchmark", ok,
        f"measured cs {ratios['cs']:.4f} lb {ratios['lb']:.4f} vs reference "
        f"cs {REFERENCE_RATIOS['cs'][CORPUS_SIZE]:.4f} "
        f"lb {REFERENCE_RATIOS['lb'][CORPUS_SIZE]:.4f}; "
        f"checksums agree, CSV reproducible={reproducible}")


def test_6_endpoint_trace_conformance():
    cases = [
        (Point(-5.0, 2.0), Point(-1.0, 8.0),
         EndpointOutcome(trivially_rejected=True)),
        (Point(-5.0, 5.0), Point(5.0, 5.0),
         EndpointOutcome(False, Point(0.0, 5.0), 1)),
        (Point(-2.0, 9.0), Point(1.0, 14.0),
         EndpointOutcome(False, Point(-2.0, 9.0), 1)),
        (Point(-5.0, -5.0), Point(15.0, 5.0),
         EndpointOutcome(False, Point(5.0, 0.0), 1)),
    ]
    ok = all(clip_endpoint(p1, p2, WINDOW, Counters()) == want
             for p1, p2, want in cases)
    # the flag-overwrite trace rejects on the second call overall
    ok = ok and clip_segment(Segment(Point(-2.0, 9.0), Point(1.0, 14.0)),
                             WINDOW, Counters()) is None
    _verdict("6 endpoint trace conformance", ok, "4 pinned traces")
