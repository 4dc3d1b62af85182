import gc
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from segclip import (DegenerateWindowError, NonFiniteError, Point, Segment,
                     SegmentFormatError, Window, parse_segments,
                     read_segments, validate_window, window_contains,
                     write_segments)
from segclip.geom import format_coord, gc_paused, segment_line


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
    assert w.corners() == (Point(0.0, 2.0), Point(10.0, 2.0),
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
    for s in segs:
        assert type(s) is Segment
        assert type(s.a) is Point and type(s.b) is Point
        assert all(type(v) is float for v in (*s.a, *s.b))


def test_parse_error_reports_line_number():
    with pytest.raises(SegmentFormatError) as exc:
        parse_segments(["abc"])
    assert exc.value.line_number == 1
    assert "line 1" in str(exc.value)


def test_parse_error_wrong_arity():
    with pytest.raises(SegmentFormatError) as exc:
        parse_segments(["0 0 1 1", "1 2 3"])
    assert exc.value.line_number == 2


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


def test_roundtrip_through_file(tmp_path):
    path = tmp_path / "segs.txt"
    segs = [Segment(Point(-5.25, 5.0), Point(5.0, 5.0)),
            Segment(Point(1 / 3, 0.1), Point(2.5, -7.125))]
    write_segments(path, segs)
    back = read_segments(path)
    assert len(back) == 2
    assert back[0] == segs[0]  # exactly representable at 9 digits
    # 1/3 survives as its 9-significant-digit rendering
    assert math.isclose(back[1].a.x, 1 / 3, abs_tol=1e-9)


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
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "segs.txt"
        write_segments(path, segs)
        written = path.read_bytes()
    assert written == "".join(segment_line(s) + "\n" for s in segs).encode()


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
