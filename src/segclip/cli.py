"""Command line front end.

Subcommands: `clip` segment files, `render` runs to SVG, `bench` the timing
suite to CSV, `verify` a clipper against the exact oracle.  Exit status 0 on
success, 1 on usage or input errors, 2 when verification finds a mismatch.
Each command imports the modules that only it needs (`svg`, `bench`,
`oracle`) when it runs, so `clip` loads just the clipping core.

Commands raise; `main` alone prints an `UnknownClipperError`, `ValueError`
or `RuntimeError` as one `segclip: MESSAGE` line on stderr and exits 1.
Any other exception keeps its traceback.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain

from .baselines import CLIPPERS, UnknownClipperError, clip_many, get_clipper
from .geom import (DEFAULT_WINDOW, Counters, SegmentFormatError, Window,
                   gc_paused, read_segments, validate_window, write_segments)

USAGE_ERROR = 1
VERIFY_MISMATCH = 2


def _window_arg(text: str) -> Window:
    try:
        xl, yb, xr, yt = (float(t) for t in text.split(","))
        return validate_window(Window(xl, xr, yb, yt))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected xL,yB,xR,yT with xL < xR and yB < yT: {text!r} ({exc})"
        ) from None


def _sizes_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from None


def _count_arg(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer: {text!r}") from None
    if count < 1:
        # a check that ran no cases must not report success
        raise argparse.ArgumentTypeError(f"must be at least 1: {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segclip",
        description="Clip 2D line segments against an axis-aligned "
                    "rectangular window.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--window", type=_window_arg, default=DEFAULT_WINDOW,
                       metavar="XL,YB,XR,YT",
                       help="clipping window (default 0,0,10,10)")
        p.add_argument("--algo", default="quadclip",
                       metavar="|".join(CLIPPERS),
                       help="clipping algorithm (default quadclip)")

    p_clip = sub.add_parser("clip", help="clip a segment file")
    p_clip.add_argument("input", help="segment file: x1 y1 x2 y2 per line")
    p_clip.add_argument("-o", "--output", required=True, help="output segment file")
    add_common(p_clip)
    p_clip.set_defaults(func=cmd_clip)

    p_render = sub.add_parser("render", help="render a clipping run as SVG")
    p_render.add_argument("input", help="segment file: x1 y1 x2 y2 per line")
    p_render.add_argument("-o", "--output", required=True, help="output SVG file")
    add_common(p_render)
    p_render.set_defaults(func=cmd_render)

    p_bench = sub.add_parser("bench", help="run the timing comparison suite")
    p_bench.add_argument("-o", "--output", required=True, help="output CSV file")
    p_bench.add_argument("--sizes", type=_sizes_arg, default=None,
                         metavar="N,N,...",
                         help="corpus sizes (strictly ascending)")
    p_bench.add_argument("--iterations", type=int, default=10,
                         help="measured passes per size (default 10)")
    p_bench.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify",
                              help="differential check against the exact oracle")
    p_verify.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    p_verify.add_argument("--count", type=_count_arg, default=100_000,
                          help="number of random segments (default 100000)")
    p_verify.add_argument("--failures", default=None,
                          help="write failing inputs to this segment file "
                               "(empty when there are none)")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _write(path, write, *args):
    """Call write(path, *args), turning an OSError into a RuntimeError."""
    try:
        write(path, *args)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}")


def _write_text(path, text, mode="w"):
    with open(path, mode, encoding="utf-8") as f:
        f.write(text)


def _clip_file(args):
    """Read args.input and clip it with args.algo; returns the input
    segments and the accepted results, in input order.  Fails on the
    first result with a NaN or infinite coordinate (the float clippers
    overflow at windows near 1e160), before any output file is opened."""
    try:
        segments = read_segments(args.input)
    except (OSError, UnicodeDecodeError) as exc:
        raise RuntimeError(f"cannot read {args.input}: {exc}")
    except SegmentFormatError as exc:
        raise RuntimeError(f"{args.input}: {exc}")
    clip = get_clipper(args.algo)
    clipped = list(filter(None, clip_many(clip, segments, args.window,
                                          Counters())))
    # a NaN or an infinity makes the sum non-finite; so does a sum of
    # finite coordinates that overflows, which the walk lets through
    if not math.isfinite(sum(chain.from_iterable(clipped))):
        for x1, y1, x2, y2 in clipped:
            # a zero for finite v, NaN otherwise
            if x1 * 0.0 + y1 * 0.0 + x2 * 0.0 + y2 * 0.0 != 0.0:
                raise RuntimeError(
                    f"{args.algo} output segment (({x1!r}, {y1!r}), "
                    f"({x2!r}, {y2!r})): a coordinate is not finite")
    return segments, clipped


def cmd_clip(args) -> int:
    segments, clipped = _clip_file(args)
    _write(args.output, write_segments, clipped)
    read, accepted = len(segments), len(clipped)
    print(f"read {read} accepted {accepted} rejected {read - accepted}")
    return 0


def cmd_render(args) -> int:
    from .svg import render_svg
    segments, clipped = _clip_file(args)
    # the SVG is built before the output file is opened, so a viewport too
    # wide or tall for floats writes none
    svg = render_svg(segments, clipped, args.window)
    _write(args.output, _write_text, svg)
    print(f"rendered {len(segments)} segments ({len(clipped)} clipped) "
          f"to {args.output}")
    return 0


def cmd_bench(args) -> int:
    from . import bench
    config = bench.BenchConfig(sizes=args.sizes or bench.DEFAULT_SIZES,
                               iterations=args.iterations, seed=args.seed)
    # an unwritable path fails before the suite runs; appending nothing
    # keeps the previous CSV should the suite fail, and a file the probe
    # created is removed again, after an interrupt too
    existed = os.path.exists(args.output)
    _write(args.output, _write_text, "", "a")
    try:
        rows = bench.run_suite(config)
    except BaseException:
        if not existed:
            os.remove(args.output)
        raise
    _write(args.output, _write_text, bench.rows_to_csv(rows))
    print(bench.format_table(rows))
    print(f"wrote {args.output}")
    return 0


def cmd_verify(args) -> int:
    from .oracle import GeneratorSpec, check_equivalence, default_region
    spec = GeneratorSpec(args.seed, args.count, default_region(args.window))
    report = check_equivalence(args.algo, spec, args.window)
    print(report.summary())
    if args.failures:
        # written even when empty, so no earlier run's inputs remain
        _write(args.failures, write_segments, report.failures)
        print(f"wrote {len(report.failures)} failing inputs to {args.failures}")
    return 0 if report.ok else VERIFY_MISMATCH


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means a verify mismatch
        return 0 if exc.code == 0 else USAGE_ERROR
    try:
        # every command's GC policy: it holds many acyclic tuples, and its
        # locals die when it returns, before the pause ends
        with gc_paused():
            return args.func(args)
    except (UnknownClipperError, ValueError, RuntimeError) as exc:
        print(f"segclip: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
