"""Timing harness: average total execution time per clipper and relative ratios.

Each pass clips one freshly generated seeded corpus at `DEFAULT_WINDOW`;
every clipper in `baselines.CLIPPERS` sees the same corpus within a pass,
and a different corpus is used in each pass.  A monotonic clock wraps the
whole corpus pass (per-segment timing at size 10 would mostly measure the
clock).  Corpus generation and I/O stay outside the timed region.  An
order-independent checksum over the accepted output coordinates, rounded to
6 decimals, both keeps the timed work observable and catches any
cross-algorithm output disagreement; the rounding absorbs the sub-tolerance
coordinate differences the algorithms may legitimately produce.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .baselines import CLIPPERS, clip_many, get_clipper
from .geom import (DEFAULT_WINDOW, Counters, SegmentRow, SegmentTuple,
                   Window, gc_paused)
from .oracle import GeneratorSpec, gen_segments

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

    def __post_init__(self):
        """Raise ValueError unless sizes are positive and strictly ascending
        (a repeated size would time the same corpora twice) and iterations
        >= 1, so that a bad config fails before any pass runs."""
        if not self.sizes or any(s <= 0 for s in self.sizes):
            raise ValueError(f"sizes must be positive: {self.sizes}")
        if any(a >= b for a, b in zip(self.sizes, self.sizes[1:])):
            raise ValueError(f"sizes must be strictly ascending: {self.sizes}")
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


def checksum_segments(segments: Iterable[SegmentRow]) -> float:
    """Order-independent sum of the coordinates of rows (x1, y1, x2, y2),
    as the clippers return them, each rounded to 6 decimals: the integers
    `round(v * 1e6)`, summed exactly, over 1e6.  Raises
    ValueError naming the first segment with a coordinate v for which
    v * 1e6 is not finite: v is a NaN or an infinity, or so large that
    the product overflows.  Being absolute to 1e-6, the checksum cannot
    tell clippers apart at a window below about 1e-6.

    `float.__round__` is `round` without the builtin's dispatch; `v * 1e6`
    is a float for float, int and `Fraction` coordinates alike.  Any
    iterable is taken: a non-list is listed first, so it can be walked twice.
    """
    if not isinstance(segments, list):
        segments = list(segments)
    r = float.__round__
    try:
        micro = sum([r(ax * 1e6) + r(ay * 1e6) + r(bx * 1e6) + r(by * 1e6)
                     for ax, ay, bx, by in segments])
    except (OverflowError, ValueError):  # round() of an inf or a NaN
        for ax, ay, bx, by in segments:  # find the segment to name
            try:
                r(ax * 1e6) + r(ay * 1e6) + r(bx * 1e6) + r(by * 1e6)
            except (OverflowError, ValueError):
                raise ValueError(
                    f"cannot checksum output segment (({ax!r}, {ay!r}), "
                    f"({bx!r}, {by!r})): a coordinate times 1e6 is not "
                    "finite"
                ) from None
    return micro / 1e6


def time_algorithm(clipper, segments: list[SegmentTuple],
                   w: Window) -> tuple[float, float]:
    """One timed pass of `clipper` over `segments`.

    Returns (total wall-clock milliseconds, checksum of accepted output);
    the checksum, absolute to 1e-6, cannot tell clippers apart at a window
    below about 1e-6.
    """
    clip = get_clipper(clipper)
    counters = Counters()
    # cycle collection pauses would land on whichever clipper happens to be
    # running; keep them out of the timed region, and free the results
    # before GC resumes so that no collection rescans them afterwards
    with gc_paused():
        start = time.perf_counter()
        accepted = list(filter(None, clip_many(clip, segments, w, counters)))
        elapsed_ms = (time.perf_counter() - start) * 1e3
        checksum = checksum_segments(accepted)
        del accepted
        # built inside the pause: results freed onto the tuple free list
        # do not lower the collector's allocation count, so a new tuple
        # after the pause could start a collection within this call
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
        checksum = 0.0
        for pass_index in range(config.iterations + 1):
            corpus = gen_segments(GeneratorSpec(
                pass_seed(config.seed, size, pass_index), size))
            gc.collect()  # settle allocation debt from generation
            pass_checksums = {}
            k = pass_index % len(clippers)
            for cid in clippers[k:] + clippers[:k]:
                ms, ck = time_algorithm(cid, corpus, DEFAULT_WINDOW)
                pass_checksums[cid] = ck
                if pass_index > 0:  # pass 0 is warmup
                    totals[cid] += ms
            del corpus  # so that the next is never built beside it
            if len(set(pass_checksums.values())) != 1:
                raise RuntimeError(
                    f"clipper outputs disagree at size {size}, "
                    f"pass {pass_index}: {pass_checksums}")
            if pass_index > 0:  # the clippers agree, so one sum serves all
                checksum += ck
        quad_avg = totals["quadclip"] / config.iterations
        for cid in clippers:
            avg = totals[cid] / config.iterations
            rows.append(BenchRow(size, cid, avg, avg / quad_avg, checksum))
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
