import gc
import math
import re

import pytest

from segclip import (BenchRow, DegenerateWindowError, GeneratorSpec,
                     NonFiniteError, Segment, Point, Window, exact_clip,
                     gen_segments, write_segments)
import segclip.baselines as baselines
import segclip.bench as bench
import segclip.cli as cli
from segclip.bench import rows_to_csv
from segclip.cli import main
from segclip.geom import DEFAULT_WINDOW
from segclip.svg import render_svg

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
        for u, v, w in zip((*a[0], *a[1]), (*b[0], *b[1]), (*c[0], *c[1])):
            assert abs(u - v) <= 1e-8 and abs(u - w) <= 1e-8


def test_clip_writes_back_coordinates_whose_sum_overflows(tmp_path, capsys):
    # each coordinate is finite, though their sum is not
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("9e+307 9e+307 9e+307 9e+307\n" * 2)
    assert run_cli("clip", str(src), "-o", str(dst),
                   "--window=-1e308,-1e308,1e308,1e308") == 0
    assert dst.read_bytes() == src.read_bytes()
    assert capsys.readouterr().out == "read 2 accepted 2 rejected 0\n"


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


def _type_error(s, w, c):
    raise TypeError("a bug in a clipper, not a refusal")


def _constant_overflow(s, w, c):
    return Segment(Point(math.inf, 0.0), Point(1.0, 2.0))


@pytest.mark.parametrize("gc_enabled", [True, False])
@pytest.mark.parametrize("argv, code, fake_clipper", [
    pytest.param("clip {tmp}/in.txt -o {tmp}/out", 0, None, id="clip-ok"),
    pytest.param("clip {tmp}/bad.txt -o {tmp}/out", 1, None,
                 id="clip-parse-error"),
    pytest.param("clip {tmp}/in.txt -o {tmp}/out --algo no-such-algo", 1,
                 None, id="clip-unknown-algo"),
    pytest.param("clip {tmp}/in.txt -o {tmp}/missing-dir/out", 1, None,
                 id="clip-unwritable"),
    # a bug is no refusal: it leaves `main` as itself
    pytest.param("clip {tmp}/in.txt -o {tmp}/out --algo _type_error",
                 TypeError, _type_error, id="clip-type-error"),
    pytest.param("render {tmp}/in.txt -o {tmp}/out", 0, None, id="render-ok"),
    pytest.param("render {tmp}/bad.txt -o {tmp}/out", 1, None,
                 id="render-parse-error"),
    pytest.param("render {tmp}/in.txt -o {tmp}/out --algo no-such-algo", 1,
                 None, id="render-unknown-algo"),
    pytest.param("render {tmp}/in.txt -o {tmp}/missing-dir/out", 1, None,
                 id="render-unwritable"),
    pytest.param("bench -o {tmp}/out --sizes 10 --iterations 1", 0, None,
                 id="bench-ok"),
    # one clipper's output is infinite, and the checksum fails mid-suite
    pytest.param("bench -o {tmp}/out --sizes 10 --iterations 1", 1,
                 _constant_overflow, id="bench-non-finite-checksum"),
    pytest.param("verify --count 10", 0, None, id="verify-ok"),
    pytest.param("verify --count 10 --window 0,0,1e308,1e308", 1, None,
                 id="verify-region-overflows"),
])
def test_cli_leaves_gc_state_alone(tmp_path, capsys, monkeypatch, argv, code,
                                   fake_clipper, gc_enabled):
    (tmp_path / "in.txt").write_text("-5 5 5 5\n")
    (tmp_path / "bad.txt").write_text("abc\n")
    argv = argv.format(tmp=tmp_path).split()
    # registered per row: bench runs every registered clipper
    if fake_clipper is not None:
        monkeypatch.setitem(baselines.CLIPPERS, fake_clipper.__name__,
                            fake_clipper)
    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    try:
        if code is TypeError:
            with pytest.raises(TypeError):
                run_cli(*argv)
        else:
            assert run_cli(*argv) == code
        assert gc.isenabled() is gc_enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


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


def test_render_draws_a_tiny_window_at_its_own_scale(tmp_path):
    # the padding is a tenth of the drawing's extent, however small
    src = tmp_path / "in.txt"
    src.write_text("0 0 1e-12 1e-12\n")
    svg = tmp_path / "out.svg"
    assert run_cli("render", str(src), "-o", str(svg),
                   "--window=0,0,1e-12,1e-12") == 0
    text = svg.read_text()
    view_width = float(re.search(r'viewBox="\S+ \S+ (\S+) ', text).group(1))
    rect_width = float(re.search(r'<rect [^>]*? width="([^"]*)"', text).group(1))
    assert rect_width >= view_width / 2


@pytest.mark.parametrize("window, error", [
    (Window(0.0, 0.0, 0.0, 1.0), DegenerateWindowError),
    (Window(0.0, math.inf, 0.0, 1.0), NonFiniteError),
])
def test_render_svg_rejects_an_invalid_window(window, error):
    with pytest.raises(error):
        render_svg([], [], window)


def test_render_at_the_largest_finite_extent(tmp_path):
    # 800 times the viewport's height overflows here; their ratio does not
    src = tmp_path / "in.txt"
    src.write_text("0 0 1 1\n")
    svg = tmp_path / "out.svg"
    assert run_cli("render", str(src), "-o", str(svg),
                   "--window=0,0,1e308,1e308") == 0
    assert 'width="800" height="800"' in svg.read_text()
    # a viewport that overflows fails before the output file is opened;
    # both segments are rejected, so no output is NaN
    src.write_text("-1e308 -1e308 1e308 -1e308\n-1e308 -1e308 -1e308 1e308\n")
    svg.unlink()
    assert run_cli("render", str(src), "-o", str(svg)) == 1
    assert not svg.exists()


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
    return Segment(Point(math.inf, 0.0), s[1])


def _constant_segment(s, w, c):
    return Segment(Point(1.0, 2.0), Point(3.0, 4.0))


def _interrupt(s, w, c):
    raise KeyboardInterrupt  # as Ctrl-C in the middle of the suite


@pytest.mark.parametrize("fake_clipper, previous", [
    pytest.param(_overflowing_clip, "previous run\n", id="non-finite-checksum"),
    pytest.param(_constant_segment, "previous run\n", id="clippers-disagree"),
    pytest.param(_overflowing_clip, None, id="no-previous-file"),
    pytest.param(_interrupt, "previous run\n", id="interrupted"),
    pytest.param(_interrupt, None, id="interrupted-no-previous-file"),
    pytest.param(_type_error, "previous run\n", id="type-error"),
    pytest.param(_type_error, None, id="type-error-no-previous-file"),
])
def test_failed_bench_keeps_the_previous_csv(tmp_path, capsys, monkeypatch,
                                             fake_clipper, previous):
    monkeypatch.setitem(baselines.CLIPPERS, "_fake", fake_clipper)
    dst = tmp_path / "b.csv"
    if previous is not None:
        dst.write_text(previous)
    argv = ("bench", "-o", str(dst), "--sizes", "10", "--iterations", "1")
    # neither an interrupt nor a bug is a `segclip:` line
    raised = {_interrupt: KeyboardInterrupt, _type_error: TypeError}
    if fake_clipper in raised:
        with pytest.raises(raised[fake_clipper]):
            run_cli(*argv)
    else:
        assert run_cli(*argv) == 1
    if previous is None:
        assert not dst.exists()
    else:
        assert dst.read_text() == previous


# --- verify -------------------------------------------------------------------


def test_verify_clean_run(capsys):
    code = run_cli("verify", "--algo", "quadclip", "--seed", "7",
                   "--count", "2000", "--window", WINDOW_ARG)
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("verify quadclip: OK -- 2000 cases, "
                          "0 decision mismatches, 0 coordinate mismatches ")
    assert out.count("\n") == 1


def test_verify_zero_count(tmp_path, capsys):
    # a check that runs no cases must not report success
    for count in ("0", "-3"):
        assert run_cli("verify", "--count", count) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --count: must be at least 1" in captured.err


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


def test_verify_failures_file_is_rewritten_when_clean(tmp_path, capsys):
    # an earlier run's failing inputs must not survive a clean run
    failures = tmp_path / "bad.txt"
    failures.write_text("1 2 3 4\n")
    assert run_cli("verify", "--count", "200", "--failures",
                   str(failures)) == 0
    assert capsys.readouterr().out.endswith(
        f"wrote 0 failing inputs to {failures}\n")
    assert failures.read_text() == ""


# --- failure lines --------------------------------------------------------------


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
    pytest.param("clip {tmp}/bad.txt -o {tmp}/out",
                 "{tmp}/bad.txt: line 1: expected 4 coordinates, got 1", None,
                 id="clip-parse-error"),
    pytest.param("clip {tmp}/in.txt -o {tmp}/out --algo no-such-algo",
                 "unknown algorithm: no-such-algo", None,
                 id="clip-unknown-algo"),
    pytest.param("render {tmp}/in.txt -o {tmp}/out --algo no-such-algo",
                 "unknown algorithm: no-such-algo", None,
                 id="render-unknown-algo"),
    pytest.param("verify --count 10 --algo no-such-algo",
                 "unknown algorithm: no-such-algo", None,
                 id="verify-unknown-algo"),
    pytest.param("clip {tmp}/in.txt -o {tmp}/missing-dir/out", _NO_DIR, None,
                 id="clip-unwritable"),
    pytest.param("render {tmp}/in.txt -o {tmp}/missing-dir/out", _NO_DIR,
                 None, id="render-unwritable"),
    pytest.param("bench -o {tmp}/missing-dir/out --sizes 10 --iterations 1",
                 _NO_DIR, None, id="bench-unwritable"),
    pytest.param("verify --count 20 --algo _always_reject "
                 "--failures {tmp}/missing-dir/out", _NO_DIR,
                 _always_reject, id="failures-unwritable"),
    # the sampling region, 3x the window's extent, overflows; no failures
    # file is written
    pytest.param("verify --count 10 --window 0,0,1e308,1e308 "
                 "--failures {tmp}/out",
                 "sampling region width and height must be finite: "
                 "Window(x_left=-inf, x_right=inf, y_bottom=-inf, y_top=inf)",
                 None, id="verify-region-overflows"),
    pytest.param("bench -o {tmp}/out --sizes 100,10",
                 "sizes must be strictly ascending: (100, 10)", None,
                 id="descending-sizes"),
    pytest.param("bench -o {tmp}/out --sizes 10,10 --iterations 1",
                 "sizes must be strictly ascending: (10, 10)", None,
                 id="repeated-sizes"),
    pytest.param("bench -o {tmp}/out --sizes 0,10",
                 "sizes must be positive: (0, 10)", None,
                 id="non-positive-sizes"),
    pytest.param("bench -o {tmp}/out --sizes 10 --iterations 0",
                 "iterations must be >= 1: 0", None, id="zero-iterations"),
    pytest.param("bench -o {tmp}/out --sizes 10 --iterations 1",
                 "cannot checksum output segment ((inf, 0.0), (1.0, 2.0)): "
                 "a coordinate times 1e6 is not finite", _constant_overflow,
                 id="non-finite-checksum"),
    pytest.param("bench -o {tmp}/out --sizes 10 --iterations 1",
                 "clipper outputs disagree at size 10, pass 0: "
                 "{{'quadclip': 105.678765, 'cs': 105.678765, "
                 "'lb': 105.678765, '_constant_segment': 100.0}}",
                 _constant_segment, id="clippers-disagree"),
    pytest.param("render {tmp}/huge.txt -o {tmp}/out",
                 "cannot render: padded viewport width and height must be "
                 "finite: inf by inf", None, id="render-viewport-overflows"),
    # quadclip's and cs's corner products overflow at this window
    pytest.param("clip {tmp}/far.txt -o {tmp}/out --window 0,0,1e160,1e160",
                 "quadclip output segment ((nan, 1e+160), (5e+159, 5e+159)): "
                 "a coordinate is not finite", None,
                 id="clip-non-finite-output"),
    pytest.param("render {tmp}/far.txt -o {tmp}/out --window 0,0,1e160,1e160 "
                 "--algo cs",
                 "cs output segment ((nan, 1e+160), (5e+159, 5e+159)): "
                 "a coordinate is not finite", None,
                 id="render-non-finite-output"),
])
def test_failure_is_one_stderr_line(tmp_path, capsys, monkeypatch, argv,
                                    message, fake_clipper):
    (tmp_path / "in.txt").write_text("-5 5 5 5\n")
    (tmp_path / "bad.txt").write_text("abc\n")
    (tmp_path / "latin.txt").write_bytes(b"0 0 1 1\n\xff\xfe 2 3 4\n")
    # both segments are rejected, so no output is NaN
    (tmp_path / "huge.txt").write_text("-1e308 -1e308 1e308 -1e308\n"
                                       "-1e308 -1e308 -1e308 1e308\n")
    (tmp_path / "far.txt").write_text("-1e160 2e159 5e159 5e159\n")
    if fake_clipper is not None:
        monkeypatch.setitem(baselines.CLIPPERS, fake_clipper.__name__,
                            fake_clipper)
    assert run_cli(*argv.format(tmp=tmp_path).split()) == 1
    captured = capsys.readouterr()
    assert captured.err == "segclip: " + message.format(tmp=tmp_path) + "\n"
    # only verify prints before it fails: its summary, then the write error
    assert captured.out == ("" if fake_clipper is not _always_reject else
                            "verify _always_reject: MISMATCH -- 20 cases, "
                            "16 decision mismatches, 0 coordinate mismatches "
                            "(tolerance 1e-09), max coordinate error "
                            "0.000e+00\n")
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("argv, option", [
    # paper scale is `--sizes 10,...,10000000 --iterations 100`, spelled out
    pytest.param("bench -o {tmp}/b.csv --paper-scale", "--paper-scale",
                 id="paper-scale"),
    # verify samples with default_region(window); the bench times at
    # DEFAULT_WINDOW only, on corpora from default_region()
    pytest.param("bench -o {tmp}/b.csv --region 0,0,1,1", "--region",
                 id="bench-region"),
    pytest.param("bench -o {tmp}/b.csv --window 0,0,1e-300,1e-300",
                 "--window", id="bench-window"),
    pytest.param("verify --count 10 --region 0,0,1,1", "--region",
                 id="verify-region"),
    # the tolerance is check_equivalence's default, 1e-9
    pytest.param("verify --count 10 --tolerance 1e-9", "--tolerance",
                 id="verify-tolerance"),
])
def test_removed_option_is_gone(tmp_path, capsys, argv, option):
    assert run_cli(*argv.format(tmp=tmp_path).split()) == 1
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize("argv, message", [
    pytest.param(("bench", "-o", "b.csv", "--sizes", "10,x"),
                 "argument --sizes: expected comma-separated integers: '10,x'",
                 id="sizes"),
    pytest.param(("verify", "--count", "abc"),
                 "argument --count: expected an integer: 'abc'", id="count"),
])
def test_non_integer_argument_is_a_usage_error(capsys, argv, message):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": error: {message}\n")


def test_window_argument_validation(tmp_path, capsys):
    for bad in ("0,0,10", "a,b,c,d", "10,0,0,10"):
        assert run_cli("verify", "--count", "1", "--window", bad) == 1
    # argparse reads a value that starts with "-" as an option, so a
    # negative first bound needs the --window=... form
    src, dst = tmp_path / "in.txt", tmp_path / "out.txt"
    src.write_text("-10 0 10 0\n")
    capsys.readouterr()
    assert run_cli("clip", str(src), "-o", str(dst),
                   "--window", "-5,-5,5,5") == 1
    assert capsys.readouterr().err.endswith(
        "error: argument --window: expected one argument\n")
    assert run_cli("clip", str(src), "-o", str(dst),
                   "--window=-5,-5,5,5") == 0
    assert dst.read_text() == "-5 0 5 0\n"
