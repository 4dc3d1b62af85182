"""Benchmark of segclip: one workload per run, against this checkout's `src`.

    python3 perfbench/run.py --workload clip-file|kernels|verify --seed N
                             --seconds S --trace 0|1

Set-up is repeated and its median reported; then passes run until S seconds
have gone (at least MIN_PASSES).  With --trace 0 every pass is untraced and
the run reports the end-to-end metrics of BENCHMARK.json.  With --trace 1
passes alternate between untraced and traced, and the run reports the
per-layer metrics: medians over the traced passes, the exact counts of a
fixed corpus, and the tracing overhead.  A per-layer metric of a layer the
workload never calls reads 0.

Failed segments go to the result's `failed` out of `attempted`, which is the
end-to-end failure fraction.  The last line of stdout is the result as JSON;
the line before it, starting with `env `, describes the machine and inputs.
Exits 2 without a result when `src/segclip` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 4
SETUP_REPEATS = 3
TIME_UNITS = {"s", "ms", "ns/seg"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path) -> str | None:
    """HEAD's commit from the .git files, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_quota() -> str | None:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return None


def run(workload, seed: int, seconds: float, trace: bool, import_s: float,
        work: Path, units: dict):
    """Set up, run the passes and reduce them to metrics.

    Machine speed is measured between set-up steps and between passes; each
    time-valued metric is scaled to reference seconds by the mean speed
    measured right before and after it.
    """
    wl = workload(ROOT, work, seed)
    speeds = [speed.measure()]
    import_s *= speeds[0] / speed.REFERENCE_HZ
    setup_times = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup_step(rep)
        setup_times.append(time.perf_counter() - t0)
        speeds.append(speed.measure())
        setup_times[-1] *= (speeds[-2] + speeds[-1]) / 2 / speed.REFERENCE_HZ
    wl.prepare()

    tracer = Tracer() if trace else None
    passes, raw_rates = [], []
    speeds.append(speed.measure())
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.pass_id = len(passes)
            tracer.hook_gc()
        try:
            p = wl.run_pass(len(passes), tracer if traced else None)
        finally:
            if traced:
                tracer.unhook_gc()
        speeds.append(speed.measure())
        scale = (speeds[-2] + speeds[-1]) / 2 / speed.REFERENCE_HZ
        raw_rates.append(p.attempted / p.seconds)
        p.seconds *= scale
        p.layers = {k: v * scale if units.get(k) in TIME_UNITS else v
                    for k, v in p.layers.items()}
        passes.append(p)

    def median_rate(ps):
        return statistics.median(p.attempted / p.seconds for p in ps)

    untraced = passes[::2] if trace else passes
    if not trace:
        metrics = {
            "seg_per_s": median_rate(passes),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mib": statistics.median(p.rss_mib for p in passes),
        }
    else:
        traced = passes[1::2]
        layered = [p for p in traced if p.layers]  # a failed pass has none
        metrics = {k: statistics.median(p.layers[k] for p in layered)
                   for k in (layered[0].layers if layered else ())}
        metrics.update(wl.profile())
        metrics["trace.overhead_frac"] = (
            1 - median_rate(traced) / median_rate(untraced))
    info = {
        "workload": wl.name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "segments_per_pass": wl.segments,
        "passes": len(passes), "setup_reference_s": setup_times,
        "import_reference_s": import_s,
        "speed_hz_median": statistics.median(speeds),
        "reference_hz": speed.REFERENCE_HZ,
        "raw_seg_per_s": statistics.median(raw_rates[::2] if trace
                                           else raw_rates),
    }
    return passes, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "segclip" / "__init__.py").is_file():
        print(f"perfbench: no segclip package under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import segclip.cli  # noqa: F401  (timed: imports are set-up)
    import_s = time.perf_counter() - t0
    import segclip
    if Path(segclip.__file__).resolve().parent != SRC / "segclip":
        print(f"perfbench: imported segclip from {segclip.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        passes, measured, info = run(WORKLOADS[args.workload], args.seed,
                                     args.seconds, bool(args.trace), import_s,
                                     work, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(measured) - set(units):
        raise RuntimeError(f"undeclared metrics: {set(measured) - set(units)}")
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for name, m in metrics.items():
        print(f"{name:36} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':36} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} segments)")
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_quota": cpu_quota(),
        "git_sha": git_sha(ROOT),
        **info,
    }
    print("env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
