"""The benchmark's three workloads and the checks on their outputs.

Each workload makes its inputs from the run's seed, hands segclip only those
inputs, and checks every output:

* `clip-file` runs one `python -m segclip.cli clip` process per pass over a
  file of short segments, the CLI user's path.  Parsing, writing, start-up
  and GC dominate; the kernel makes mostly trivial decisions.  Every output
  line is compared with the exact oracle's result for its input line.
* `kernels` times `bench.time_algorithm` for each clipper on a fresh
  `gen_segments` corpus per pass, as `segclip bench` does: clipping kernels
  and the checksum do nearly all the work.  All checksums must agree.
* `verify` calls `oracle.check_equivalence` for each clipper on one
  `GeneratorSpec` per pass, each pass with its own seed so that the oracle's
  corpus cache never serves a pass's first call.  The exact oracle does most
  of the work.  Every report must be ok.

`setup_step` is one repetition of the set-up the runner times; `prepare`
builds what the checks need, untimed.  `run_pass`
measures one pass; given a tracer it also records spans and returns the
pass's per-layer values.  Per-layer times are nanoseconds per input segment
of the pass unless named otherwise.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import segclip.bench as bench
import segclip.geom as geom
import segclip.oracle as oracle
from segclip.baselines import get_clipper
from segclip.geom import Counters, Point, Segment

from tracing import (CLIPPER_LAYERS, Tracer, gc_stats, layer_totals,
                     optional_span)

HERE = Path(__file__).resolve().parent
CLIPPERS = tuple(CLIPPER_LAYERS)
WINDOW = oracle.DEFAULT_WINDOW
TOLERANCE = 1e-9  # check_equivalence's default
ABS_TOL = TOLERANCE * max(1.0, WINDOW.extent())
WARMUP_SEGMENTS = 1_000


@dataclass
class PassResult:
    seconds: float   # wall time of the measured calls or process
    attempted: int   # segments
    failed: int      # segments whose result disagrees with the reference
    rss_mib: float   # peak resident memory of the measured process so far
    layers: dict = field(default_factory=dict)  # traced passes only


def self_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- exact counts and the paper's ratio on a fixed corpus ---------------------


def count_profile(segments, w=WINDOW) -> dict:
    """Per-clipper division and predicate counts on `segments`.

    useful_division_frac is output endpoints moved per division; the paper's
    claim is that quadclip's is 1.
    """
    n = len(segments)
    out = {}
    for cid, layer in CLIPPER_LAYERS.items():
        clip = get_clipper(cid)
        c = Counters()
        moved = accepted = 0
        for s in segments:
            r = clip(s, w, c)
            if r is not None:
                accepted += 1
                moved += (r[0] != s[0]) + (r[1] != s[1])
        out[f"{layer}.divisions_per_seg"] = c.divisions / n
        out[f"{layer}.predicates_per_seg"] = c.predicate_evals / n
        out[f"{layer}.useful_division_frac"] = moved / max(c.divisions, 1)
        if cid == "quadclip":
            out["quadclip.accepted_frac"] = accepted / n
    xl, xr, yb, yt = w
    out["oracle.same_side_frac"] = sum(
        (x1 < xl and x2 < xl) or (x1 > xr and x2 > xr)
        or (y1 < yb and y2 < yb) or (y1 > yt and y2 > yt)
        for (x1, y1), (x2, y2) in segments) / n
    return out


def ratio_profile(segments, w=WINDOW, rounds=7) -> dict:
    """The paper's relative execution time from `time_algorithm`'s own
    timings: baseline over quadclip, median of `rounds`."""
    ms = {cid: [] for cid in CLIPPERS}
    for _ in range(rounds):
        for cid in CLIPPERS:
            ms[cid].append(bench.time_algorithm(cid, segments, w)[0])
    return {f"bench.ratio_{cid}": _median_ratio(ms[cid], ms["quadclip"])
            for cid in ("cs", "lb")}


def _median_ratio(num, den):
    ratios = sorted(a / b for a, b in zip(num, den))
    return ratios[len(ratios) // 2]


def pass_spec(seed: int, count: int, index: int) -> oracle.GeneratorSpec:
    """The corpus of one pass, seeded as `segclip bench` seeds its passes."""
    return oracle.GeneratorSpec(bench.pass_seed(seed, count, index), count)


def _gc_layers(tracer: Tracer) -> dict:
    pause_ms, collections, gen2 = gc_stats(tracer.spans, tracer.pass_id)
    return {"runtime.gc_pause_ms": pause_ms,
            "runtime.gc_collections": collections,
            "runtime.gc_gen2_collections": gen2}


# --- clip-file ----------------------------------------------------------------


def short_segments(seed: int, count: int, w=WINDOW) -> list[Segment]:
    """Short segments: centres uniform over a square twice the window's
    extent, lengths uniform in [0, extent/20], directions uniform."""
    rng = random.Random(seed)
    ext = w.extent()
    cx = (w.x_left + w.x_right) / 2
    cy = (w.y_bottom + w.y_top) / 2
    out = []
    for _ in range(count):
        x = cx + ext * (2 * rng.random() - 1)
        y = cy + ext * (2 * rng.random() - 1)
        half = rng.uniform(0, ext / 20) / 2
        theta = rng.uniform(0, 2 * math.pi)
        dx, dy = half * math.cos(theta), half * math.sin(theta)
        out.append(Segment(Point(x - dx, y - dy), Point(x + dx, y + dy)))
    return out


def read_plain(path) -> list[tuple[float, ...]]:
    """The floats of each line, () for a line that does not parse; the
    benchmark's own reader, independent of `geom.parse_segments`."""
    def floats(line):
        try:
            return tuple(map(float, line.split()))
        except ValueError:
            return ()
    with open(path, encoding="utf-8") as f:
        return [floats(line) for line in f]


def coordinates_match(got, want) -> bool:
    """Equal within the oracle tolerance plus half a unit in the 9th
    significant digit that the file format keeps."""
    return len(got) == 4 and all(abs(g - e) <= ABS_TOL + 5e-9 * abs(e)
                                 for g, e in zip(got, want))


class ClipFile:
    name = "clip-file"
    segments = 60_000

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed
        self.input = work / "input.txt"
        self.output = work / "output.txt"
        self.warm_input = work / "warm_input.txt"
        self.spans = work / "spans.json"
        self.log = work / "cli.log"
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(root / "src")] + ([path] if path else [])))
        self.accepted: list[tuple[float, ...]] = []
        self.digests: set[bytes] = set()

    def make_input(self) -> bytes:
        geom.write_segments(self.input, short_segments(self.seed, self.segments))
        return self.input.read_bytes()

    def setup_step(self, rep: int) -> None:
        """Write the input file and run the CLI once on a small file."""
        self.digests.add(hashlib.sha256(self.make_input()).digest())
        geom.write_segments(self.warm_input,
                            short_segments(self.seed, WARMUP_SEGMENTS))
        self._spawn(self._cli_args(self.warm_input))

    def prepare(self) -> None:
        """The exact result of every input line, for the output checks."""
        if len(self.digests) != 1:
            raise RuntimeError("the same seed wrote different input files")
        for s in read_plain(self.input):
            exact = oracle.exact_clip(Segment(Point(*s[:2]), Point(*s[2:])),
                                      WINDOW)
            if exact is not None:
                (ax, ay), (bx, by) = exact
                self.accepted.append(
                    (float(ax), float(ay), float(bx), float(by)))

    def _cli_args(self, path: Path, traced: bool = False) -> list[str]:
        head = ([str(HERE / "traced_cli.py"), str(self.spans)] if traced
                else ["-m", "segclip.cli"])
        return [sys.executable, *head, "clip", str(path), "-o",
                str(self.output)]

    def _spawn(self, args) -> tuple[int, float]:
        """Run one process to its end; (exit status, peak RSS MiB)."""
        with open(self.log, "wb") as log:
            p = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=log,
                                 stderr=subprocess.STDOUT, env=self.env)
            _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        return p.returncode, usage.ru_maxrss / 1024

    def failures(self, status: int) -> int:
        """Segments whose output disagrees with the oracle; all of them when
        the process failed or the output lines do not pair with inputs."""
        if status != 0 or not self.output.exists():
            return self.segments
        got = read_plain(self.output)
        if len(got) != len(self.accepted):
            return self.segments
        return sum(not coordinates_match(g, e)
                   for g, e in zip(got, self.accepted))

    def run_pass(self, index: int, tracer: Tracer | None) -> PassResult:
        self.output.unlink(missing_ok=True)
        self.spans.unlink(missing_ok=True)
        args = self._cli_args(self.input, traced=tracer is not None)
        if tracer is None:
            t0 = time.perf_counter()
            status, rss = self._spawn(args)
            seconds = time.perf_counter() - t0
            return PassResult(seconds, self.segments, self.failures(status), rss)
        with tracer.span("cli.process") as root:
            status, rss = self._spawn(args)
        failed = self.failures(status)
        if status != 0:
            return PassResult(root.busy / 1e9, self.segments, failed, rss)
        tracer.adopt(json.loads(self.spans.read_text()), root)
        own = layer_totals(tracer.spans, tracer.pass_id)
        written = next(s.calls for s in tracer.spans
                       if s.pass_id == tracer.pass_id and s.name == "geom.write")
        n = self.segments
        layers = {
            "geom.parse_ns_per_seg": own["geom.parse"] / n,
            "quadclip.clip_ns_per_seg": own["quadclip.clip"] / n,
            "geom.write_ns_per_seg": own["geom.write"] / max(written, 1),
            "geom.bytes_read": self.input.stat().st_size,
            "geom.bytes_written": self.output.stat().st_size,
            "cli.self_s": own["cli.process"] / 1e9,
            **_gc_layers(tracer),
        }
        return PassResult(root.busy / 1e9, n, failed, rss, layers)

    def profile(self) -> dict:
        corpus = [Segment(Point(*s[:2]), Point(*s[2:]))
                  for s in read_plain(self.input)]
        return {**count_profile(corpus), **ratio_profile(corpus)}


# --- kernels ------------------------------------------------------------------


class Kernels:
    name = "kernels"
    segments = 20_000
    # counts come from GeneratorSpec(seed, 200_000), the corpus on which
    # seed 1 gives the paper's division and predicate counts
    profile_segments = 200_000

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed

    def spec(self, index: int, count: int | None = None) -> oracle.GeneratorSpec:
        return pass_spec(self.seed, count or self.segments, index)

    def setup_step(self, rep: int) -> None:
        """Generate a pass-sized corpus and time every clipper on it once
        (`pass_seed`'s pass 0 is the warm-up)."""
        corpus = oracle.gen_segments(self.spec(0))
        for cid in CLIPPERS:
            bench.time_algorithm(cid, corpus, WINDOW)

    def prepare(self) -> None:
        pass

    def run_pass(self, index: int, tracer: Tracer | None) -> PassResult:
        spec = self.spec(index + 1)
        n = self.segments
        with optional_span(tracer, "oracle.gen_segments"):
            corpus = oracle.gen_segments(spec)
        gc.collect()  # as run_suite does; outside every span
        checksum = bench.checksum_segments
        if tracer is not None:
            def traced_checksum(segments):
                with tracer.span("bench.checksum_segments"):
                    return checksum(segments)
            bench.checksum_segments = traced_checksum
        ms, checksums = {}, set()
        try:
            t0 = time.perf_counter()
            for cid in CLIPPERS:
                with optional_span(tracer, f"bench.time_algorithm.{cid}"):
                    ms[cid], ck = bench.time_algorithm(cid, corpus, WINDOW)
                checksums.add(ck)
            seconds = time.perf_counter() - t0
        finally:
            bench.checksum_segments = checksum
        failed = 0 if len(checksums) == 1 else n
        layers = {}
        if tracer is not None:
            own = layer_totals(tracer.spans, tracer.pass_id)
            layers = {
                **{f"{CLIPPER_LAYERS[cid]}.clip_ns_per_seg": ms[cid] * 1e6 / n
                   for cid in CLIPPERS},
                "bench.checksum_ns_per_seg": own["bench.checksum_segments"] / n,
                "bench.ratio_cs": ms["cs"] / ms["quadclip"],
                "bench.ratio_lb": ms["lb"] / ms["quadclip"],
                "oracle.gen_ns_per_seg": own["oracle.gen_segments"] / n,
                **_gc_layers(tracer),
            }
        return PassResult(seconds, n, failed, self_rss_mib(), layers)

    def profile(self) -> dict:
        corpus = oracle.gen_segments(
            oracle.GeneratorSpec(self.seed, self.profile_segments))
        return count_profile(corpus)


# --- verify -------------------------------------------------------------------


class Verify:
    name = "verify"
    segments = 15_000

    def __init__(self, root: Path, work: Path, seed: int):
        self.seed = seed

    def spec(self, index: int, count: int | None = None) -> oracle.GeneratorSpec:
        return pass_spec(self.seed, count or self.segments, index)

    def setup_step(self, rep: int) -> None:
        """Check every clipper on a small corpus of its own seed."""
        spec = self.spec(rep, WARMUP_SEGMENTS)
        for cid in CLIPPERS:
            oracle.check_equivalence(cid, spec, WINDOW, TOLERANCE)

    def prepare(self) -> None:
        pass

    def run_pass(self, index: int, tracer: Tracer | None) -> PassResult:
        spec = self.spec(index + 1)
        n = self.segments
        saved = oracle.gen_segments, oracle.exact_clip, oracle.get_clipper
        if tracer is not None:
            gen, exact_clip, clipper = saved

            def traced_gen(s):
                with tracer.span("oracle.gen_segments"):
                    return gen(s)
            oracle.gen_segments = traced_gen
            oracle.exact_clip = tracer.aggregate("oracle.exact_clip", exact_clip)
            oracle.get_clipper = lambda cid: tracer.aggregate(
                f"{CLIPPER_LAYERS[cid]}.clip", clipper(cid))
        reports = []
        try:
            t0 = time.perf_counter()
            for cid in CLIPPERS:
                with optional_span(tracer, f"oracle.check_equivalence.{cid}"):
                    reports.append(oracle.check_equivalence(
                        cid, spec, WINDOW, TOLERANCE))
            seconds = time.perf_counter() - t0
        finally:
            oracle.gen_segments, oracle.exact_clip, oracle.get_clipper = saved
        if all(r.ok and r.cases_run == n for r in reports):
            failed = 0
        else:
            failed = len({s for r in reports for s in r.failures}) or n
        layers = {}
        if tracer is not None:
            own = layer_totals(tracer.spans, tracer.pass_id)
            layers = {
                **{f"{layer}.clip_ns_per_seg": own[f"{layer}.clip"] / n
                   for layer in CLIPPER_LAYERS.values()},
                "oracle.gen_ns_per_seg": own["oracle.gen_segments"] / n,
                "oracle.exact_clip_ns_per_seg": own["oracle.exact_clip"] / n,
                # the cs and lb calls reuse the oracle results of the first
                "oracle.compare_ns_per_seg": (
                    own["oracle.check_equivalence.cs"]
                    + own["oracle.check_equivalence.lb"]) / 2 / n,
                **_gc_layers(tracer),
            }
        return PassResult(seconds, n, failed, self_rss_mib(), layers)

    def profile(self) -> dict:
        corpus = oracle.gen_segments(self.spec(1))
        return {**count_profile(corpus), **ratio_profile(corpus)}


WORKLOADS = {w.name: w for w in (ClipFile, Kernels, Verify)}
