import gc
import math
import re

import pytest

from segclip import (BenchRow, GeneratorSpec, Segment, Point, Window,
                     exact_clip, gen_segments, write_segments)
import segclip.baselines as baselines
import segclip.bench as bench
import segclip.cli as cli
from segclip.bench import rows_to_csv
from segclip.cli import main
from segclip.geom import DEFAULT_WINDOW

WINDOW_ARG = "0,0,10,10"


def run_cli(*argv):
    return main(list(argv))


# --- clip ---------------------------------------------------------------------


def test_clip_single_crossing(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("-5 5 5 5\n")
    assert run_cli("clip", str(src), "-o", str(dst), "--window", WINDOW_ARG) == 0
    assert dst.read_text() == "0 5 5 5\n"
    assert "read 1 accepted 1 rejected 0" in capsys.readouterr().out


def test_clip_empty_input(tmp_path, capsys):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("")
    assert run_cli("clip", str(src), "-o", str(dst), "--window", WINDOW_ARG) == 0
    assert dst.read_text() == ""
    assert "read 0 accepted 0 rejected 0" in capsys.readouterr().out


def test_clip_malformed_line_names_line_number(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("abc\n")
    code = run_cli("clip", str(src), "-o", str(tmp_path / "out.txt"),
                   "--window", WINDOW_ARG)
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_clip_missing_input(tmp_path, capsys):
    code = run_cli("clip", str(tmp_path / "absent.txt"),
                   "-o", str(tmp_path / "out.txt"))
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_clip_invalid_window(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("0 0 1 1\n")
    code = run_cli("clip", str(src), "-o", str(tmp_path / "out.txt"),
                   "--window", "10,0,0,10")
    assert code == 1


def test_clip_unknown_algo(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_text("0 0 1 1\n")
    code = run_cli("clip", str(src), "-o", str(tmp_path / "out.txt"),
                   "--algo", "nln")
    assert code == 1
    assert "unknown algorithm" in capsys.readouterr().err


def test_clip_preserves_order_and_drops_rejected(tmp_path):
    src = tmp_path / "in.txt"
    dst = tmp_path / "out.txt"
    src.write_text("2 3 7 8\n-5 2 -1 8\n-5 5 5 5\n")
    assert run_cli("clip", str(src), "-o", str(dst), "--window", WINDOW_ARG) == 0
    assert dst.read_text().splitlines() == ["2 3 7 8", "0 5 5 5"]


def test_clip_file_level_idempotence(tmp_path):
    src = tmp_path / "in.txt"
    once = tmp_path / "once.txt"
    twice = tmp_path / "twice.txt"
    write_segments(src, gen_segments(GeneratorSpec(seed=100, count=500)))
    assert run_cli("clip", str(src), "-o", str(once), "--window", WINDOW_ARG) == 0
    assert run_cli("clip", str(once), "-o", str(twice), "--window", WINDOW_ARG) == 0
    assert once.read_bytes() == twice.read_bytes()


def test_clip_algo_selection_agrees_numerically(tmp_path):
    from segclip import read_segments

    src = tmp_path / "in.txt"
    write_segments(src, gen_segments(GeneratorSpec(seed=101, count=200)))
    outs = []
    for algo in ("quadclip", "cs", "lb"):
        dst = tmp_path / f"{algo}.txt"
        assert run_cli("clip", str(src), "-o", str(dst), "--window", WINDOW_ARG,
                       "--algo", algo) == 0
        outs.append(read_segments(dst))
    assert len(outs[0]) == len(outs[1]) == len(outs[2])
    for a, b, c in zip(*outs):
        for u, v, w in zip((*a.a, *a.b), (*b.a, *b.b), (*c.a, *c.b)):
            assert abs(u - v) <= 1e-8 and abs(u - w) <= 1e-8


def test_clip_input_not_utf8(tmp_path, capsys):
    src = tmp_path / "in.txt"
    src.write_bytes(b"0 0 1 1\n\xff\xfe 2 3 4\n")
    code = run_cli("clip", str(src), "-o", str(tmp_path / "out.txt"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"segclip: cannot read {src}: 'utf-8' codec can't decode")


@pytest.mark.parametrize("command", ["clip", "render"])
def test_unwritable_output(tmp_path, capsys, command):
    src = tmp_path / "in.txt"
    src.write_text("-5 5 5 5\n")
    dst = tmp_path / "missing-dir" / "out"
    assert run_cli(command, str(src), "-o", str(dst)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"segclip: cannot write {dst}: ")
    assert captured.out == ""


def test_clip_runs_with_gc_paused(tmp_path, monkeypatch):
    seen = []
    read, write = cli.read_segments, cli.write_segments

    def spy_read(path):
        seen.append(gc.isenabled())
        return read(path)

    def spy_write(path, segments):
        seen.append(gc.isenabled())
        write(path, segments)

    monkeypatch.setattr(cli, "read_segments", spy_read)
    monkeypatch.setattr(cli, "write_segments", spy_write)
    src = tmp_path / "in.txt"
    src.write_text("-5 5 5 5\n")
    assert gc.isenabled()
    assert run_cli("clip", str(src), "-o", str(tmp_path / "out.txt")) == 0
    assert seen == [False, False]
    assert gc.isenabled()


@pytest.mark.parametrize("gc_enabled", [True, False])
@pytest.mark.parametrize("case", ["ok", "parse-error", "unknown-algo",
                                  "unwritable"])
@pytest.mark.parametrize("command", ["clip", "render"])
def test_cli_leaves_gc_state_alone(tmp_path, capsys, command, case, gc_enabled):
    src = tmp_path / "in.txt"
    src.write_text("abc\n" if case == "parse-error" else "-5 5 5 5\n")
    dst = tmp_path / ("missing-dir" if case == "unwritable" else "") / "out"
    argv = [command, str(src), "-o", str(dst)]
    if case == "unknown-algo":
        argv += ["--algo", "nln"]
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        code = run_cli(*argv)
        assert gc.isenabled() is gc_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert code == (0 if case == "ok" else 1)


# --- render -------------------------------------------------------------------


def test_render_counts_match_oracle(tmp_path):
    src = tmp_path / "in.txt"
    svg = tmp_path / "out.svg"
    segs = gen_segments(GeneratorSpec(seed=12, count=10))
    write_segments(src, segs)
    accepted = sum(exact_clip(s, DEFAULT_WINDOW) is not None for s in segs)
    assert run_cli("render", str(src), "-o", str(svg), "--window", WINDOW_ARG) == 0
    text = svg.read_text()
    assert text.count('stroke="blue"') == 1 and text.count('stroke="green"') == 1
    blue = re.search(r'<g stroke="blue".*?</g>', text, re.S).group()
    green = re.search(r'<g stroke="green".*?</g>', text, re.S).group()
    assert blue.count("<line") == 10
    assert green.count("<line") == accepted
    assert 0 < accepted <= 10
    assert text.count("<rect") == 1
    assert 'fill="none" stroke="black"' in text


def test_render_empty_input_is_window_only(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("")
    svg = tmp_path / "out.svg"
    assert run_cli("render", str(src), "-o", str(svg), "--window", WINDOW_ARG) == 0
    text = svg.read_text()
    assert "<line" not in text
    assert text.count("<rect") == 1


def test_render_interior_segment_green_equals_blue(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("2 3 7 8\n")
    svg = tmp_path / "out.svg"
    assert run_cli("render", str(src), "-o", str(svg), "--window", WINDOW_ARG) == 0
    text = svg.read_text()
    lines = re.findall(r"<line [^/]*/>", text)
    assert len(lines) == 2
    coords = [re.findall(r'(?:x|y)[12]="([^"]*)"', ln) for ln in lines]
    assert coords[0] == coords[1]


def test_render_has_y_flip(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("0 0 1 1\n")
    svg = tmp_path / "out.svg"
    assert run_cli("render", str(src), "-o", str(svg), "--window", WINDOW_ARG) == 0
    assert 'scale(1 -1)' in svg.read_text()


# --- bench --------------------------------------------------------------------


def test_bench_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "bench.csv"
    code = run_cli("bench", "-o", str(csv_path), "--sizes", "10",
                   "--iterations", "1", "--seed", "3")
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "size,clipper,avg_total_ms,ratio_vs_quadclip,checksum"
    assert len(lines) == 4
    out = capsys.readouterr().out
    assert "quadclip" in out and "reference" in out


def test_bench_unwritable_output(tmp_path, capsys, monkeypatch):
    # the path is checked before the suite, which therefore never runs
    calls = []
    monkeypatch.setattr(bench, "run_suite", calls.append)
    dst = tmp_path / "missing-dir" / "b.csv"
    assert run_cli("bench", "-o", str(dst), "--sizes", "10",
                   "--iterations", "1") == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"segclip: cannot write {dst}: ")
    assert captured.out == ""
    assert calls == []


def test_bench_csv_bytes(tmp_path, monkeypatch):
    rows = [BenchRow(10, "quadclip", 0.5, 1.0, 12.25),
            BenchRow(10, "cs", 0.75, 1.5, 12.25)]
    monkeypatch.setattr(bench, "run_suite", lambda config: rows)
    dst = tmp_path / "b.csv"
    dst.write_text("stale contents\n")
    assert run_cli("bench", "-o", str(dst), "--sizes", "10") == 0
    assert dst.read_bytes() == rows_to_csv(rows).encode("utf-8")


def _overflowing_clip(s, w, c):
    return Segment(Point(math.inf, 0.0), s.b)


def _constant_segment(s, w, c):
    return Segment(Point(1.0, 2.0), Point(3.0, 4.0))


def test_bench_non_finite_output_is_one_error_line(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setitem(baselines.CLIPPERS, "_overflow", _overflowing_clip)
    dst = tmp_path / "b.csv"
    assert run_cli("bench", "-o", str(dst), "--sizes", "10",
                   "--iterations", "1") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("segclip: cannot checksum output segment ")
    assert captured.err.endswith(": a coordinate is not finite\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("fake_clipper", [
    pytest.param(_overflowing_clip, id="non-finite-checksum"),
    pytest.param(_constant_segment, id="clippers-disagree"),
])
def test_failed_bench_keeps_the_previous_csv(tmp_path, capsys, monkeypatch,
                                             fake_clipper):
    monkeypatch.setitem(baselines.CLIPPERS, "_fake", fake_clipper)
    dst = tmp_path / "b.csv"
    dst.write_text("previous run\n")
    assert run_cli("bench", "-o", str(dst), "--sizes", "10",
                   "--iterations", "1") == 1
    assert dst.read_text() == "previous run\n"


def test_bench_huge_window_never_ends_in_a_traceback(tmp_path, capsys):
    # at this scale the float clippers may overflow; the run must then end
    # in one `segclip:` line, not an exception
    code = run_cli("bench", "-o", str(tmp_path / "b.csv"),
                   "--window", "0,0,1e160,1e160", "--sizes", "1000",
                   "--iterations", "1")
    err = capsys.readouterr().err
    assert code == 0 and err == "" or (
        code == 1 and err.startswith("segclip: ") and err.count("\n") == 1)


def test_bench_rejects_bad_sizes(tmp_path, capsys):
    # a config that fails validation leaves no output file behind
    dst = tmp_path / "x.csv"
    for argv in (("--sizes", "100,10"), ("--sizes", "0,10"),
                 ("--sizes", "10", "--iterations", "0")):
        assert run_cli("bench", "-o", str(dst), *argv) == 1
        assert capsys.readouterr().err.startswith("segclip: ")
        assert not dst.exists()


# --- verify -------------------------------------------------------------------


def test_verify_clean_run(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code = run_cli("verify", "--algo", "quadclip", "--seed", "7",
                   "--count", "2000", "--window", WINDOW_ARG,
                   "--report", str(report))
    assert code == 0
    out = capsys.readouterr().out
    assert "0 decision mismatches" in out
    assert report.read_text().strip().endswith(out.strip().splitlines()[-1])


def test_verify_zero_count(tmp_path, capsys):
    # a check that runs no cases must not report success
    for count in ("0", "-3"):
        assert run_cli("verify", "--count", count) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --count: must be at least 1" in captured.err


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_verify_rejects_bad_tolerance(capsys, tolerance):
    assert run_cli("verify", "--count", "100", "--tolerance", tolerance) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"segclip: tolerance must be finite and >= 0: "
                            f"{float(tolerance)!r}\n")


def test_verify_unknown_algo(capsys):
    assert run_cli("verify", "--algo", "bogus", "--count", "10") == 1


def _always_reject(s, w, c):
    return None


def test_verify_mismatch_exits_2_and_writes_failures(tmp_path, capsys,
                                                     monkeypatch):
    monkeypatch.setitem(baselines.CLIPPERS, "_always_reject", _always_reject)
    failures = tmp_path / "bad.txt"
    code = run_cli("verify", "--algo", "_always_reject", "--seed", "3",
                   "--count", "200", "--failures", str(failures))
    assert code == 2
    assert "MISMATCH" in capsys.readouterr().out
    assert failures.exists()
    assert len(failures.read_text().splitlines()) > 0


def test_verify_unwritable_report(tmp_path, capsys):
    report = tmp_path / "missing-dir" / "r.txt"
    assert run_cli("verify", "--count", "10", "--report", str(report)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"segclip: cannot write {report}: ")
    assert "verify quadclip: OK" in captured.out


def test_verify_unwritable_failures(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(baselines.CLIPPERS, "_always_reject", _always_reject)
    failures = tmp_path / "missing-dir" / "f.txt"
    assert run_cli("verify", "--algo", "_always_reject", "--count", "200",
                   "--failures", str(failures)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"segclip: cannot write {failures}: ")
    assert "MISMATCH" in captured.out


# --- failure lines --------------------------------------------------------------


def _constant_overflow(s, w, c):
    return Segment(Point(math.inf, 0.0), Point(1.0, 2.0))


_NO_DIR = ("cannot write {tmp}/missing-dir/out: "
           "[Errno 2] No such file or directory: '{tmp}/missing-dir/out'")


@pytest.mark.parametrize("argv, message, fake_clipper", [
    pytest.param("clip {tmp}/absent.txt -o {tmp}/out",
                 "cannot read {tmp}/absent.txt: "
                 "[Errno 2] No such file or directory: '{tmp}/absent.txt'", None,
                 id="missing-input"),
    pytest.param("clip {tmp}/latin.txt -o {tmp}/out",
                 "cannot read {tmp}/latin.txt: 'utf-8' codec can't decode "
                 "byte 0xff in position 8: invalid start byte", None,
                 id="non-utf8-input"),
    pytest.param("render {tmp}/bad.txt -o {tmp}/out",
                 "{tmp}/bad.txt: line 1: expected 4 coordinates, got 1", None,
                 id="parse-error"),
    pytest.param("clip {tmp}/in.txt -o {tmp}/out --algo nln",
                 "unknown algorithm: nln", None, id="clip-unknown-algo"),
    pytest.param("render {tmp}/in.txt -o {tmp}/out --algo nln",
                 "unknown algorithm: nln", None, id="render-unknown-algo"),
    pytest.param("verify --count 10 --algo nln",
                 "unknown algorithm: nln", None, id="verify-unknown-algo"),
    pytest.param("clip {tmp}/in.txt -o {tmp}/missing-dir/out", _NO_DIR, None,
                 id="clip-unwritable"),
    pytest.param("render {tmp}/in.txt -o {tmp}/missing-dir/out", _NO_DIR,
                 None, id="render-unwritable"),
    pytest.param("bench -o {tmp}/missing-dir/out --sizes 10 --iterations 1",
                 _NO_DIR, None, id="bench-unwritable"),
    pytest.param("verify --count 10 --report {tmp}/missing-dir/out", _NO_DIR,
                 None, id="report-unwritable"),
    pytest.param("verify --count 20 --algo _always_reject "
                 "--failures {tmp}/missing-dir/out", _NO_DIR,
                 _always_reject, id="failures-unwritable"),
    pytest.param("verify --count 10 --tolerance nan",
                 "tolerance must be finite and >= 0: nan", None,
                 id="nan-tolerance"),
    pytest.param("bench -o {tmp}/out --sizes 100,10",
                 "sizes must be ascending: (100, 10)", None,
                 id="descending-sizes"),
    pytest.param("bench -o {tmp}/out --sizes 0,10",
                 "sizes must be positive: (0, 10)", None,
                 id="non-positive-sizes"),
    pytest.param("bench -o {tmp}/out --sizes 10 --iterations 1",
                 "cannot checksum output segment ((inf, 0.0), (1.0, 2.0)): "
                 "a coordinate is not finite", _constant_overflow,
                 id="non-finite-checksum"),
    pytest.param("bench -o {tmp}/out --sizes 10 --iterations 1",
                 "clipper outputs disagree at size 10, pass 0: "
                 "{{'quadclip': 105.678765, 'cs': 105.678765, "
                 "'lb': 105.678765, '_constant_segment': 100.0}}",
                 _constant_segment, id="clippers-disagree"),
])
def test_failure_is_one_stderr_line(tmp_path, capsys, monkeypatch, argv,
                                    message, fake_clipper):
    (tmp_path / "in.txt").write_text("-5 5 5 5\n")
    (tmp_path / "bad.txt").write_text("abc\n")
    (tmp_path / "latin.txt").write_bytes(b"0 0 1 1\n\xff\xfe 2 3 4\n")
    if fake_clipper is not None:
        monkeypatch.setitem(baselines.CLIPPERS, fake_clipper.__name__,
                            fake_clipper)
    assert run_cli(*argv.format(tmp=tmp_path).split()) == 1
    assert capsys.readouterr().err == (
        "segclip: " + message.format(tmp=tmp_path) + "\n")


# --- argument handling ----------------------------------------------------------


def test_usage_error_exit_code_is_1(capsys):
    assert run_cli("clip") == 1          # missing required arguments
    assert run_cli("frobnicate") == 1    # unknown subcommand
    assert run_cli() == 1                # no subcommand


def test_help_exit_code_is_0(capsys):
    assert run_cli("--help") == 0
    assert run_cli("clip", "--help") == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: segclip [-h]")
    assert "usage: segclip clip [-h]" in out


def test_bench_paper_scale_flag_is_gone(tmp_path, capsys):
    # paper scale is `--sizes 10,...,10000000 --iterations 100`, spelled out
    assert run_cli("bench", "-o", str(tmp_path / "b.csv"),
                   "--paper-scale") == 1
    assert "unrecognized arguments: --paper-scale" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_window_argument_validation(capsys):
    assert run_cli("verify", "--count", "1", "--window", "0,0,10") == 1
    assert run_cli("verify", "--count", "1", "--window", "a,b,c,d") == 1
