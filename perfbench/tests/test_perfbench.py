"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The command runs are short (`--seconds 0.1`, so MIN_PASSES passes each) and
shared between tests; together they take under a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import segclip.geom as geom  # noqa: E402
import segclip.oracle as oracle  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in DECLARED["per_layer"]
          if m["name"].endswith(("_per_seg", "_frac"))
          and not m["name"].endswith(("ns_per_seg", "overhead_frac"))]


def run_bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs():
    """(workload, trace) -> parsed result of one seed-1 run."""
    out = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, 1, trace)
            assert proc.returncode == 0, proc.stderr
            out[workload, trace] = (proc.stdout,
                                    json.loads(proc.stdout.splitlines()[-1]))
    return out


# --- inputs -------------------------------------------------------------------


def test_same_seed_gives_byte_identical_clip_file_input(tmp_path):
    a, b, c = (workloads.ClipFile(ROOT, tmp_path / d, seed)
               for d, seed in (("a", 5), ("b", 5), ("c", 6)))
    for wl in (a, b, c):
        wl.input.parent.mkdir()
    assert a.make_input() == b.make_input() != c.make_input()


@pytest.mark.parametrize("cls", [workloads.Kernels, workloads.Verify])
def test_same_seed_gives_identical_corpora(cls):
    a, b = cls(ROOT, None, 5), cls(ROOT, None, 5)
    assert a.spec(3) == b.spec(3)
    assert (oracle.gen_segments(a.spec(3, 500))
            == oracle.gen_segments(b.spec(3, 500)))
    assert a.spec(3) != cls(ROOT, None, 6).spec(3)


def test_verify_seeds_differ_between_passes_and_setup():
    wl = workloads.Verify(ROOT, None, 1)
    setup = {wl.spec(rep, workloads.WARMUP_SEGMENTS)
             for rep in range(run.SETUP_REPEATS)}
    passes = {wl.spec(i + 1) for i in range(200)}
    assert len(passes) == 200 and not setup & passes


def test_short_segment_mix():
    profile = workloads.count_profile(workloads.short_segments(1, 20_000))
    assert 0.23 < profile["quadclip.accepted_frac"] < 0.28
    assert 0.72 < profile["oracle.same_side_frac"] < 0.77


# --- checks -------------------------------------------------------------------


def test_clip_file_check_counts_wrong_lines(tmp_path):
    wl = workloads.ClipFile(ROOT, tmp_path, 3)
    wl.segments = 2_000
    wl.make_input()
    corpus = geom.read_segments(wl.input)
    wl.accepted = [tuple(map(float, geom.segment_line(r).split()))
                   for r in (oracle.exact_clip(s, workloads.WINDOW)
                             for s in corpus) if r is not None]
    lines = [" ".join(map(repr, s)) for s in wl.accepted]
    wl.output.write_text("\n".join(lines) + "\n")
    assert wl.failures(0) == 0
    assert wl.failures(1) == wl.segments
    x1, rest = lines[0].split(" ", 1)
    lines[0] = f"{float(x1) + 1e-6!r} {rest}"
    lines[1] = "not a number at all"
    wl.output.write_text("\n".join(lines) + "\n")
    assert wl.failures(0) == 2
    wl.output.write_text("\n".join(lines[1:]) + "\n")
    assert wl.failures(0) == wl.segments


# --- tracing ------------------------------------------------------------------


def test_self_times_add_up_to_the_root():
    t = tracing.Tracer()
    t.pass_id = 7
    double = t.aggregate("leaf", lambda x: sum(range(x)))
    with t.span("root") as root:
        with t.span("child"):
            for _ in range(100):
                double(1000)
        double(10)
    totals = tracing.layer_totals(t.spans, 7)
    assert set(totals) == {"root", "child", "leaf"}
    assert sum(totals.values()) == root.busy
    assert all(v >= 0 for v in totals.values())
    assert [s.calls for s in t.spans if s.name == "leaf"] == [100, 1]


# --- the command --------------------------------------------------------------


def test_printed_metrics_are_declared_and_vice_versa(runs):
    for (workload, trace), (stdout, result) in runs.items():
        kind = "per_layer" if trace else "end_to_end"
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        table = {line.split()[0] for line in stdout.splitlines()[:-2]}
        assert table == set(declared) | {"failed_frac"}
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] > 0


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in workloads.WORKLOADS:
        metrics = runs[workload, 0][1]["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), workload


def test_exact_counts_repeat_between_runs(runs):
    proc = run_bench("clip-file", 1, 1)
    again = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    first = runs["clip-file", 1][1]["metrics"]
    for name in COUNTS + ["geom.bytes_read", "geom.bytes_written"]:
        assert again[name]["value"] == first[name]["value"], name


def test_seed_1_kernels_counts_match_the_paper(runs):
    m = {k: v["value"] for k, v in runs["kernels", 1][1]["metrics"].items()}
    for layer, divisions, predicates in (("quadclip", "0.820", "2.27"),
                                         ("baselines.cs", "1.092", "3.09"),
                                         ("baselines.lb", "3.314", "3.31")):
        assert f"{m[layer + '.divisions_per_seg']:.3f}" == divisions
        assert f"{m[layer + '.predicates_per_seg']:.2f}" == predicates
    assert f"{m['quadclip.useful_division_frac']:.3f}" == "1.000"


def test_clip_file_layers_account_for_the_process(tmp_path):
    wl = workloads.ClipFile(ROOT, tmp_path, 4)
    wl.segments = 5_000
    wl.setup_step(0)
    wl.prepare()
    t = tracing.Tracer()
    t.pass_id = 1
    t.hook_gc()
    try:
        result = wl.run_pass(1, t)
    finally:
        t.unhook_gc()
    assert result.failed == 0
    totals = tracing.layer_totals(t.spans, 1)
    layers = {"cli.process", "geom.parse", "quadclip.clip", "geom.write"}
    assert layers <= set(totals)
    assert set(totals) - layers <= {f"runtime.gc.gen{g}" for g in range(3)}
    assert sum(totals.values()) == round(result.seconds * 1e9)
    assert all(result.layers[k] > 0 for k in (
        "geom.parse_ns_per_seg", "quadclip.clip_ns_per_seg",
        "geom.write_ns_per_seg", "cli.self_s", "geom.bytes_read",
        "geom.bytes_written"))


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("kernels", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
