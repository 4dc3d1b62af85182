"""Timing harness: average total execution time per clipper and relative ratios.

Each pass clips one freshly generated seeded corpus; every clipper in
`baselines.CLIPPERS` sees the same corpus within a pass, and a different
corpus is used in each pass.  A monotonic clock wraps the whole corpus pass
(per-segment timing at size 10 would mostly measure the clock).  Corpus
generation and I/O stay outside the timed region.  An order-independent
checksum over the accepted output coordinates, rounded to 6 decimals, both
keeps the timed work observable and catches any cross-algorithm output
disagreement; the rounding absorbs the sub-tolerance coordinate differences
the algorithms may legitimately produce.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import NamedTuple

from .baselines import CLIPPERS, clip_many, get_clipper
from .geom import (DEFAULT_WINDOW, Counters, Segment, Window, gc_paused,
                   validate_window)
from .oracle import GeneratorSpec, default_region, gen_segments

DEFAULT_SIZES = (10, 100, 1_000, 10_000, 100_000, 1_000_000)

# Relative total execution times of the original C++ implementations
# (11th-gen i5-1135G7, average over 100 iterations).  Used only for
# side-by-side display; local measurements are expected to differ.
REFERENCE_RATIOS = {
    "lb": {
        10: 1.3665, 100: 1.2745, 1_000: 1.4713, 10_000: 1.4241,
        100_000: 1.4357, 1_000_000: 1.4472, 10_000_000: 1.4452,
        "average": 1.4092,
    },
    "cs": {
        10: 1.2919, 100: 1.1884, 1_000: 1.2266, 10_000: 1.1833,
        100_000: 1.1860, 1_000_000: 1.1945, 10_000_000: 1.1941,
        "average": 1.2092,
    },
}

CSV_FIELDS = ("size", "clipper", "avg_total_ms", "ratio_vs_quadclip", "checksum")


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...] = DEFAULT_SIZES
    iterations: int = 10
    seed: int = 1
    window: Window = DEFAULT_WINDOW
    region: Window | None = None  # None: default_region(window)

    def __post_init__(self):
        """Sample around `window` unless a region is given.  Raise ValueError
        unless the window and region are valid windows, sizes are positive
        and ascending and iterations >= 1, so that a bad config fails before
        any pass runs."""
        validate_window(self.window)
        if self.region is None:
            object.__setattr__(self, "region", default_region(self.window))
        validate_window(self.region)
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError(f"sizes must be positive: {self.sizes}")
        if list(self.sizes) != sorted(self.sizes):
            raise ValueError(f"sizes must be ascending: {self.sizes}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1: {self.iterations}")


class BenchRow(NamedTuple):
    size: int
    clipper: str
    avg_total_ms: float
    ratio_vs_quadclip: float  # baseline avg / quadclip avg; > 1 favors quadclip
    checksum: float


def pass_seed(base_seed: int, size: int, pass_index: int) -> int:
    """Seed of the corpus for one (size, pass); pass 0 is the warmup."""
    return (base_seed * 1_000_003 + size) * 1_009 + pass_index


def checksum_segments(segments: list[Segment]) -> float:
    """Order-independent sum of coordinates, each rounded to 6 decimals:
    the integers `round(v * 1e6)`, summed exactly, over 1e6.  Raises
    ValueError naming the first segment with a coordinate v for which
    v * 1e6 is not finite.

    `float.__round__` is `round` without the builtin's dispatch; `v * 1e6`
    is a float for float, int and `Fraction` coordinates alike.
    """
    r = float.__round__
    try:
        micro = sum([r(ax * 1e6) + r(ay * 1e6) + r(bx * 1e6) + r(by * 1e6)
                     for (ax, ay), (bx, by) in segments])
    except (OverflowError, ValueError):  # round() of an inf or a NaN
        for (ax, ay), (bx, by) in segments:  # find the segment to name
            try:
                r(ax * 1e6) + r(ay * 1e6) + r(bx * 1e6) + r(by * 1e6)
            except (OverflowError, ValueError):
                raise ValueError(
                    f"cannot checksum output segment (({ax!r}, {ay!r}), "
                    f"({bx!r}, {by!r})): a coordinate is not finite"
                ) from None
        raise
    return micro / 1e6


def time_algorithm(clipper, segments: list[Segment], w: Window) -> tuple[float, float]:
    """One timed pass of `clipper` over `segments`.

    Returns (total wall-clock milliseconds, checksum of accepted output).
    """
    clip = get_clipper(clipper)
    counters = Counters()
    # cycle collection pauses would land on whichever clipper happens to be
    # running; keep them out of the timed region, and free the results
    # before GC resumes so that no collection rescans them afterwards
    with gc_paused():
        start = time.perf_counter()
        accepted = [r for r in clip_many(clip, segments, w, counters)
                    if r is not None]
        elapsed_ms = (time.perf_counter() - start) * 1e3
        checksum = checksum_segments(accepted)
        del accepted
    return elapsed_ms, checksum


def run_suite(config: BenchConfig) -> list[BenchRow]:
    """Full comparison: per size, one discarded warmup pass plus
    `config.iterations` measured passes over fresh corpora.

    The clippers run in `CLIPPERS` order rotated by the pass index, so each
    one takes the first slot in turn.  Raises RuntimeError if the clippers
    ever disagree on a pass checksum.  Row order: size ascending, then
    `CLIPPERS` order; the quadclip row's ratio is 1.0 by construction.
    """
    clippers = tuple(CLIPPERS)
    rows: list[BenchRow] = []
    for size in config.sizes:
        totals = {cid: 0.0 for cid in clippers}
        checksums = {cid: 0.0 for cid in clippers}
        for pass_index in range(config.iterations + 1):
            spec = GeneratorSpec(pass_seed(config.seed, size, pass_index),
                                 size, config.region)
            corpus = gen_segments(spec)
            gc.collect()  # settle allocation debt from generation
            pass_checksums = {}
            k = pass_index % len(clippers)
            for cid in clippers[k:] + clippers[:k]:
                ms, ck = time_algorithm(cid, corpus, config.window)
                pass_checksums[cid] = ck
                if pass_index > 0:  # pass 0 is warmup
                    totals[cid] += ms
                    checksums[cid] += ck
            if len(set(pass_checksums.values())) != 1:
                raise RuntimeError(
                    f"clipper outputs disagree at size {size}, "
                    f"pass {pass_index}: {pass_checksums}")
        quad_avg = totals["quadclip"] / config.iterations
        for cid in clippers:
            avg = totals[cid] / config.iterations
            rows.append(BenchRow(
                size=size,
                clipper=cid,
                avg_total_ms=avg,
                ratio_vs_quadclip=avg / quad_avg,
                checksum=checksums[cid],
            ))
    return rows


def rows_to_csv(rows: list[BenchRow]) -> str:
    """CSV text with a `CSV_FIELDS` header; no field ever needs quoting."""
    return ",".join(CSV_FIELDS) + "\n" + "".join(
        f"{r.size},{r.clipper},{r.avg_total_ms:.6f},"
        f"{r.ratio_vs_quadclip:.4f},{r.checksum:.6f}\n" for r in rows)


def format_table(rows: list[BenchRow]) -> str:
    """Human-readable summary with the reference ratios alongside."""
    lines = [f"{'size':>9}  {'clipper':<9} {'avg_ms':>12} {'ratio':>8} {'reference':>9}"]
    for r in rows:
        ref = REFERENCE_RATIOS.get(r.clipper, {}).get(r.size)
        ref_text = f"{ref:9.4f}" if ref is not None else f"{'-':>9}"
        lines.append(f"{r.size:>9}  {r.clipper:<9} {r.avg_total_ms:>12.3f} "
                     f"{r.ratio_vs_quadclip:>8.4f} {ref_text}")
    return "\n".join(lines)
