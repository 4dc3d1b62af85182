"""Command line front end.

Subcommands: `clip` segment files, `render` runs to SVG, `bench` the timing
suite to CSV, `verify` a clipper against the exact oracle.  Exit status 0 on
success, 1 on usage or input errors, 2 when verification finds a mismatch.
"""

from __future__ import annotations

import argparse
import sys

from .baselines import CLIPPERS, UnknownClipperError, clip_many, get_clipper
from .bench import (BenchConfig, DEFAULT_SIZES, PAPER_SCALE_SIZES, format_table,
                    run_suite, write_csv)
from .geom import (Counters, SegmentFormatError, Window, gc_paused,
                   read_segments, validate_window, write_segments)
from .oracle import (DEFAULT_WINDOW, GeneratorSpec, check_equivalence,
                     default_region)
from .svg import render_svg

USAGE_ERROR = 1
VERIFY_MISMATCH = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # verification mismatches here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


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
        sizes = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from None
    return sizes


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
    parser = _Parser(prog="segclip",
                     description="Clip 2D line segments against an "
                                 "axis-aligned rectangular window.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_algo=True):
        p.add_argument("--window", type=_window_arg, default=DEFAULT_WINDOW,
                       metavar="XL,YB,XR,YT",
                       help="clipping window (default 0,0,10,10)")
        if with_algo:
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
                         metavar="N,N,...", help="corpus sizes (ascending)")
    p_bench.add_argument("--iterations", type=int, default=10,
                         help="measured passes per size (default 10)")
    p_bench.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    p_bench.add_argument("--region", type=_window_arg, default=None,
                         metavar="XL,YB,XR,YT",
                         help="sampling region (default: 3x window extent)")
    p_bench.add_argument("--paper-scale", action="store_true",
                         help="long run: sizes up to 1e7 and 100 iterations")
    add_common(p_bench, with_algo=False)
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify",
                              help="differential check against the exact oracle")
    p_verify.add_argument("--seed", type=int, default=1, help="corpus seed (default 1)")
    p_verify.add_argument("--count", type=_count_arg, default=100_000,
                          help="number of random segments (default 100000)")
    p_verify.add_argument("--tolerance", type=float, default=1e-9,
                          help="coordinate tolerance (default 1e-9)")
    p_verify.add_argument("--region", type=_window_arg, default=None,
                          metavar="XL,YB,XR,YT",
                          help="sampling region (default: 3x window extent)")
    p_verify.add_argument("--report", default=None,
                          help="also write the summary to this file")
    p_verify.add_argument("--failures", default=None,
                          help="write failing inputs to this segment file")
    add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _write(path, write) -> bool:
    """Call write(); report an OSError as `cannot write path` on stderr."""
    try:
        write()
    except OSError as exc:
        print(f"segclip: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _clip_file(args, write):
    """Read args.input, clip it with args.algo and call write(segments,
    clipped).  Returns the (read, clipped) counts, or None after reporting
    an error on stderr.  Cyclic GC stays paused throughout, as the run makes
    only acyclic tuples of floats, which reference counting frees."""
    with gc_paused():
        try:
            segments = read_segments(args.input)
        except (OSError, UnicodeDecodeError) as exc:
            print(f"segclip: cannot read {args.input}: {exc}", file=sys.stderr)
            return None
        except SegmentFormatError as exc:
            print(f"segclip: {args.input}: {exc}", file=sys.stderr)
            return None
        try:
            clip = get_clipper(args.algo)
        except UnknownClipperError:
            print(f"segclip: unknown algorithm: {args.algo}", file=sys.stderr)
            return None
        clipped = [r for r in clip_many(clip, segments, args.window,
                                        Counters())
                   if r is not None]
        if not _write(args.output, lambda: write(segments, clipped)):
            return None
        return len(segments), len(clipped)


def cmd_clip(args) -> int:
    counts = _clip_file(
        args, lambda segments, clipped: write_segments(args.output, clipped))
    if counts is None:
        return USAGE_ERROR
    read, accepted = counts
    print(f"read {read} accepted {accepted} rejected {read - accepted}")
    return 0


def cmd_render(args) -> int:
    counts = _clip_file(args, lambda segments, clipped: _write_text(
        args.output, render_svg(segments, clipped, args.window)))
    if counts is None:
        return USAGE_ERROR
    read, clipped = counts
    print(f"rendered {read} segments ({clipped} clipped) to {args.output}")
    return 0


def cmd_bench(args) -> int:
    sizes = args.sizes
    iterations = args.iterations
    if args.paper_scale:
        sizes = sizes or PAPER_SCALE_SIZES
        iterations = 100
    try:
        config = BenchConfig(
            sizes=sizes or DEFAULT_SIZES,
            iterations=iterations,
            seed=args.seed,
            window=args.window,
            region=args.region or default_region(args.window),
        )
    except ValueError as exc:
        print(f"segclip: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # create the output now: an unwritable path fails before the suite runs
    if not _write(args.output, lambda: _write_text(args.output, "")):
        return USAGE_ERROR
    rows = run_suite(config)
    if not _write(args.output, lambda: write_csv(rows, args.output)):
        return USAGE_ERROR
    print(format_table(rows))
    print(f"wrote {args.output}")
    return 0


def cmd_verify(args) -> int:
    spec = GeneratorSpec(seed=args.seed, count=args.count,
                         region=args.region or default_region(args.window))
    try:
        report = check_equivalence(args.algo, spec, args.window, args.tolerance)
    except UnknownClipperError:
        print(f"segclip: unknown algorithm: {args.algo}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:  # a tolerance that is NaN, infinite or < 0
        print(f"segclip: {exc}", file=sys.stderr)
        return USAGE_ERROR
    summary = report.summary()
    print(summary)
    if args.report and not _write(
            args.report, lambda: _write_text(args.report, summary + "\n")):
        return USAGE_ERROR
    if args.failures and report.failures:
        if not _write(args.failures,
                      lambda: write_segments(args.failures, report.failures)):
            return USAGE_ERROR
        print(f"wrote {len(report.failures)} failing inputs to {args.failures}")
    return 0 if report.ok else VERIFY_MISMATCH


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
