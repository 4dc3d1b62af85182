import gc
import math
from fractions import Fraction
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from segclip import (Counters, DegenerateWindowError, NonFiniteError, Point,
                     Segment, SegmentFormatError, Window, parse_segments,
                     read_segments, validate_window, write_segments)
from segclip.geom import format_coord, gc_paused, segment_line

from _reference import corners, window_contains
from _reference import parse_segments as reference_parse


def test_validate_window_ok():
    w = Window(0.0, 10.0, 0.0, 10.0)
    assert validate_window(w) == w


def test_validate_window_inverted_x():
    with pytest.raises(DegenerateWindowError):
        validate_window(Window(10.0, 0.0, 0.0, 10.0))


def test_validate_window_nan():
    with pytest.raises(NonFiniteError):
        validate_window(Window(0.0, math.nan, 0.0, 10.0))


def test_validate_window_empty_axis():
    with pytest.raises(DegenerateWindowError):
        validate_window(Window(0.0, 10.0, 5.0, 5.0))


def test_validate_window_infinite():
    with pytest.raises(NonFiniteError):
        validate_window(Window(-math.inf, 10.0, 0.0, 10.0))


def test_window_helpers():
    w = Window(0.0, 10.0, 2.0, 6.0)
    assert w.extent() == 10.0
    assert corners(w) == (Point(0.0, 2.0), Point(10.0, 2.0),
                      Point(0.0, 6.0), Point(10.0, 6.0))


def test_window_contains_boundary_and_slack():
    w = Window(0.0, 10.0, 0.0, 10.0)
    assert window_contains(Point(0.0, 10.0), w)
    assert window_contains(Point(-2 * math.ulp(10.0), 5.0), w)
    assert not window_contains(Point(-1e-9, 5.0), w)
    assert not window_contains(Point(5.0, 10.0 + 1e-9), w)


# --- segment text format ---


def test_parse_basic_with_comments_and_blanks():
    text = [
        "# corpus header",
        "",
        "  -5 5 5 5",
        "\t0 0  10 10 ",
        "   # indented comment",
        "\t# tab-indented comment",
        "#1 2 3 4",
        "1.5e-3 -0 2 3\r\n",
    ]
    segs = parse_segments(text)
    assert segs == [
        Segment(Point(-5.0, 5.0), Point(5.0, 5.0)),
        Segment(Point(0.0, 0.0), Point(10.0, 10.0)),
        Segment(Point(1.5e-3, -0.0), Point(2.0, 3.0)),
    ]
    # plain tuples, the shape the batch kernels return, not named tuples
    for s in segs:
        assert type(s) is tuple and len(s) == 2
        assert type(s[0]) is tuple and type(s[1]) is tuple
        assert all(type(v) is float for v in (*s[0], *s[1]))


def test_parse_error_reports_line_number():
    with pytest.raises(SegmentFormatError) as exc:
        parse_segments(["abc"])
    assert exc.value.line_number == 1
    assert "line 1" in str(exc.value)


def test_parse_error_wrong_arity():
    with pytest.raises(SegmentFormatError) as exc:
        parse_segments(["0 0 1 1", "1 2 3"])
    assert exc.value.line_number == 2
    # 5 and 3 coordinates make 4 a line on average
    with pytest.raises(SegmentFormatError) as exc:
        parse_segments(["0 0 1 1", "1 2 3 4 5", "1 2 3"])
    assert str(exc.value) == "line 2: expected 4 coordinates, got 5"


def test_parse_rejects_non_finite():
    with pytest.raises(SegmentFormatError):
        parse_segments(["nan 0 1 1"])
    with pytest.raises(SegmentFormatError):
        parse_segments(["0 0 inf 1"])


def _bad_column(token, column):
    fields = ["1", "2", "3", "4"]
    fields[column] = token
    return " ".join(fields)


PARSE_ERRORS = [
    ("1 2 3", "expected 4 coordinates, got 3"),
    ("1 2 3 4 5", "expected 4 coordinates, got 5"),
    ("1 2 x 4 5", "expected 4 coordinates, got 5"),
    ("abc nan 1 2", "not a number: 'abc'"),
    ("nan abc 1 2", "coordinate must be finite: 'nan'"),
    ("1 inf 2 -", "coordinate must be finite: 'inf'"),
    ("1 2 0x10 1e999", "not a number: '0x10'"),
    # a `#` inside a data line: not a comment, and not a number
    ("1 2 3 4#", "not a number: '4#'"),
    ("1 # 3 4", "not a number: '#'"),
    *[(_bad_column(tok, col), f"not a number: {tok!r}")
      for col in range(4) for tok in ("x", "1,5")],
    *[(_bad_column(tok, col), f"coordinate must be finite: {tok!r}")
      for col in range(4) for tok in ("nan", "inf", "-inf", "1e999")],
]


@pytest.mark.parametrize("line,message", PARSE_ERRORS)
def test_parse_error_text_and_line_number(line, message):
    lines = ["# header", "0 0 1 1", "", line, "also bad"]
    with pytest.raises(SegmentFormatError) as exc:
        parse_segments(lines)
    assert exc.value.line_number == 4
    assert str(exc.value) == f"line 4: {message}"


def _outcome(parse, lines):
    """What `parse` made of `lines`: the repr of its result, or the type
    and text of the error it raised."""
    try:
        return repr(parse(lines))
    except SegmentFormatError as exc:
        return f"SegmentFormatError: {exc}"


_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \x0c ", "\u2028", "\x0b",
                                "\xa0", "\x1c"])
_ENDINGS = st.sampled_from(["", "\n", "\r\n"])
_COORDS = st.lists(st.floats(-1e6, 1e6).map(repr), min_size=4, max_size=4)
_ODD_TOKENS = st.sampled_from([
    "-0", "1e-3", "9e307", "nan", "inf", "-inf", "1e309", "1_0", "abc",
    "\u0661\u0662", "0x10", "1,5", "#", ";"])


def _line(tokens, sep, lead, end):
    return lead + sep.join(tokens) + end


def _with_odd_token(coords, column, token):
    coords[column] = token
    return coords


# the parser drops comment and blank lines by `str.lstrip`, the reference
# by `str.split`: leads of other whitespace pin that both agree
_LEADS = st.sampled_from(["", " ", "\t", "\xa0", "\x1c"])
_VALID_LINE = st.builds(_line, _COORDS, _SEPARATORS, _LEADS, _ENDINGS)
_LINE = st.one_of(
    _VALID_LINE, _VALID_LINE, _VALID_LINE,
    st.builds(lambda lead, text, end: lead + "#" + text + end,
              _LEADS, st.text(max_size=8), _ENDINGS),
    st.sampled_from(["", "   ", "\t", "\n", "\r\n", "\x0c\n", "\xa0",
                     "\x1c\r\n"]),
    # one column of a valid line replaced
    st.builds(_line, st.builds(_with_odd_token, _COORDS, st.integers(0, 3),
                               _ODD_TOKENS),
              _SEPARATORS, _LEADS, _ENDINGS),
    st.builds(_line, st.lists(st.one_of(_ODD_TOKENS, st.just("2")),
                              min_size=1, max_size=6),
              _SEPARATORS, _LEADS, _ENDINGS),
)


# runs of repeated lines reach a few thousand lines, past several of the
# parser's chunks, at little cost to generate
@settings(deadline=None)
@given(st.lists(st.tuples(_LINE, st.integers(1, 800)), max_size=5))
def test_parse_matches_the_line_by_line_reference(runs):
    lines = [line for line, count in runs for _ in range(count)]
    assert _outcome(parse_segments, lines) == _outcome(reference_parse, lines)


_VALID = "1.5 -2 3e2 4"


@pytest.mark.parametrize("at", [1, 511, 512, 513, 1023, 1024, 1025, 2048,
                                2049, 4096, 4097, 5000])
def test_parse_reports_the_first_error_at_any_line(at):
    # chunk sizes of powers of two up to 4096 lines start a chunk at one
    # of these lines, or end one just before it
    lines = [_VALID] * 5000 + ["also bad"]
    lines[at - 1] = "1 2 3"
    with pytest.raises(SegmentFormatError) as exc:
        parse_segments(lines)
    assert str(exc.value) == f"line {at}: expected 4 coordinates, got 3"


@pytest.mark.parametrize("count", [1023, 1024, 1025, 2049])
def test_parse_whole_chunks_match_the_reference(count):
    # every chunk holds only data lines, and the last line has no newline
    lines = [f"{i} -{i}.5 1e-{i % 300} {i}e{i % 300}\n" for i in range(count)]
    lines[-1] = lines[-1].rstrip("\n")
    assert repr(parse_segments(lines)) == repr(reference_parse(lines))
    assert len(parse_segments(lines)) == count


@pytest.mark.parametrize("line,message", PARSE_ERRORS)
def test_parse_error_text_at_chunk_edges(line, message):
    for at in (1, 1023, 1024, 1025, 2049):
        lines = [_VALID] * 2100
        lines[at - 1] = line
        assert _outcome(parse_segments, lines) == (
            f"SegmentFormatError: line {at}: {message}")


def test_parse_skips_runs_of_comments_and_blank_lines():
    lines = ([_VALID] * 1500 + ["# comment"] * 3000 + [_VALID] * 10
             + ["", "  ", "\t\r\n"] * 1000 + [_VALID] * 10 + ["nan 0 0 0"])
    with pytest.raises(SegmentFormatError) as exc:
        parse_segments(lines)
    assert str(exc.value) == "line 7521: coordinate must be finite: 'nan'"
    segments = parse_segments(lines[:-1])
    assert len(segments) == 1520
    assert set(segments) == {Segment(Point(1.5, -2.0), Point(300.0, 4.0))}


def test_parse_accepts_coordinates_whose_sum_overflows():
    # the sum over any few of these lines is infinite, yet each coordinate
    # is finite
    assert parse_segments(["9e307 9e307 -9e307 9e307"] * 3000) == (
        [Segment(Point(9e307, 9e307), Point(-9e307, 9e307))] * 3000)


def test_read_reports_a_nan_on_the_last_line(tmp_path):
    path = tmp_path / "segs.txt"
    path.write_text("\n".join([_VALID] * 3000 + ["0 0 1 nan"]))  # no final \n
    with pytest.raises(SegmentFormatError) as exc:
        read_segments(path)
    assert str(exc.value) == "line 3001: coordinate must be finite: 'nan'"


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "segs.txt"
    segs = [Segment(Point(-5.25, 5.0), Point(5.0, 5.0)),
            Segment(Point(1 / 3, 0.1), Point(2.5, -7.125))]
    write_segments(path, segs)
    back = read_segments(path)
    assert len(back) == 2
    assert back[0] == segs[0]  # exactly representable at 9 digits
    # 1/3 survives as its 9-significant-digit rendering
    assert math.isclose(back[1][0][0], 1 / 3, abs_tol=1e-9)


@pytest.mark.parametrize("text", [
    pytest.param("-5 5 5 5\n1 2 3 4\n", id="data-first"),
    pytest.param("# exported\n-5 5 5 5\n", id="comment-first"),
])
def test_read_accepts_a_leading_byte_order_mark(tmp_path, text):
    plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert read_segments(marked) == read_segments(plain) != []


def test_format_coord_nine_digits():
    assert format_coord(0.0) == "0"
    assert format_coord(10.0) == "10"
    assert format_coord(1 / 3) == "0.333333333"
    assert segment_line(Segment(Point(0.0, 5.0), Point(5.0, 5.0))) == "0 5 5 5"


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_format_coord_reparse_stable(v):
    # parse(format(v)) formats back to the same text
    once = format_coord(v)
    assert format_coord(float(once)) == once


_doubles = st.one_of(
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
    st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300]),
    st.integers(-10**18, 10**18),
)
_segments = st.builds(Segment, st.builds(Point, _doubles, _doubles),
                      st.builds(Point, _doubles, _doubles))


@given(st.lists(_segments, max_size=8))
def test_write_segments_matches_segment_line(segs):
    # inputs are endpoint pairs and clip results rows: the same
    # coordinates write the same bytes
    rows = [(*a, *b) for a, b in segs]
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "segs.txt"
        for given in (segs, rows):
            write_segments(path, given)
            written.append(path.read_bytes())
    assert written == 2 * [
        "".join(segment_line(s) + "\n" for s in segs).encode()]


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 2049])
def test_write_segments_writes_chunks_of_a_one_shot_iterable(tmp_path, count):
    coords = [0.1, -7, Fraction(1, 3), 1e300, 2**60 + 1, -0.0, Fraction(-5, 2)]
    segs = [Segment(Point(coords[i % 7], coords[(i + 1) % 7]),
                    Point(coords[(i + 3) % 7], i * 0.25))
            for i in range(count)]
    path = tmp_path / "segs.txt"
    write_segments(path, (s for s in segs))
    assert path.read_bytes() == (
        "".join(segment_line(s) + "\n" for s in segs).encode())


# --- gc_paused ------------------------------------------------------------------


@pytest.mark.parametrize("gc_enabled", [True, False])
def test_gc_paused_restores_state_and_starts_no_collection(gc_enabled):
    phases = []

    def on_gc(phase, info):
        phases.append(phase)

    was_enabled = gc.isenabled()
    (gc.enable if gc_enabled else gc.disable)()
    gc.callbacks.append(on_gc)
    try:
        with gc_paused():
            assert not gc.isenabled()
            kept = [[] for _ in range(10_000)]  # far past the gen-0 threshold
        # leaving the block must not allocate once GC is back on: with
        # `kept` alive, that would start a collection over all of it
        collections = len(phases)
        state = gc.isenabled()
    finally:
        gc.callbacks.remove(on_gc)
        (gc.enable if was_enabled else gc.disable)()
    assert state is gc_enabled
    assert collections == 0 and len(kept) == 10_000


# --- Counters -------------------------------------------------------------------


def test_counters_equal_only_counters_and_repr_every_count():
    assert Counters() != object()
    assert repr(Counters()) == ("Counters(divisions=0, intersections_computed=0,"
                                " predicate_evals=0)")
