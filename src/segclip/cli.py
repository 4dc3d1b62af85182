"""Command line front end.

Subcommands: `clip` segment files, `render` runs to SVG, `bench` the timing
suite to CSV, `verify` a clipper against the exact oracle.  Exit status 0 on
success, 1 on usage or input errors, 2 when verification finds a mismatch.
Each command imports the modules that only it needs (`svg`, `bench`,
`oracle`) when it runs, so `clip` loads just the clipping core.
"""

from __future__ import annotations

import argparse
import sys

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
    parser = argparse.ArgumentParser(
        prog="segclip",
        description="Clip 2D line segments against an axis-aligned "
                    "rectangular window.")
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


class _Failure(Exception):
    """A command failed; `main` prints `segclip: MESSAGE` and exits 1."""


def _write(path, write, *args):
    """Call write(path, *args), turning an OSError into a _Failure."""
    try:
        write(path, *args)
    except OSError as exc:
        raise _Failure(f"cannot write {path}: {exc}")


def _write_text(path, text, mode="w"):
    with open(path, mode, encoding="utf-8") as f:
        f.write(text)


def _clip_file(args, write):
    """Read args.input, clip it with args.algo and write the output through
    write(args.output, segments, clipped).  Returns the (read, clipped)
    counts.  Cyclic GC stays paused throughout, as the run makes only
    acyclic tuples of floats, which reference counting frees."""
    with gc_paused():
        try:
            segments = read_segments(args.input)
        except (OSError, UnicodeDecodeError) as exc:
            raise _Failure(f"cannot read {args.input}: {exc}")
        except SegmentFormatError as exc:
            raise _Failure(f"{args.input}: {exc}")
        clip = get_clipper(args.algo)
        clipped = [r for r in clip_many(clip, segments, args.window,
                                        Counters())
                   if r is not None]
        _write(args.output, write, segments, clipped)
        return len(segments), len(clipped)


def cmd_clip(args) -> int:
    read, accepted = _clip_file(
        args, lambda path, segments, clipped: write_segments(path, clipped))
    print(f"read {read} accepted {accepted} rejected {read - accepted}")
    return 0


def cmd_render(args) -> int:
    from .svg import render_svg
    read, clipped = _clip_file(args, lambda path, segments, clipped: (
        _write_text(path, render_svg(segments, clipped, args.window))))
    print(f"rendered {read} segments ({clipped} clipped) to {args.output}")
    return 0


def cmd_bench(args) -> int:
    from . import bench
    try:
        config = bench.BenchConfig(
            sizes=args.sizes or bench.DEFAULT_SIZES,
            iterations=args.iterations,
            seed=args.seed,
            window=args.window,
            region=args.region,
        )
    except ValueError as exc:
        raise _Failure(exc)
    # an unwritable path fails before the suite runs; appending nothing
    # keeps the previous CSV should the suite fail
    _write(args.output, _write_text, "", "a")
    try:
        rows = bench.run_suite(config)
    # ValueError: an output coordinate the checksum rejects;
    # RuntimeError: clippers whose checksums disagree
    except (ValueError, RuntimeError) as exc:
        raise _Failure(exc)
    _write(args.output, _write_text, bench.rows_to_csv(rows))
    print(bench.format_table(rows))
    print(f"wrote {args.output}")
    return 0


def cmd_verify(args) -> int:
    from .oracle import GeneratorSpec, check_equivalence, default_region
    spec = GeneratorSpec(seed=args.seed, count=args.count,
                         region=args.region or default_region(args.window))
    try:
        report = check_equivalence(args.algo, spec, args.window, args.tolerance)
    except ValueError as exc:  # a tolerance that is NaN, infinite or < 0
        raise _Failure(exc)
    summary = report.summary()
    print(summary)
    if args.report:
        _write(args.report, _write_text, summary + "\n")
    if args.failures and report.failures:
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
        return args.func(args)
    except UnknownClipperError:
        message = f"unknown algorithm: {args.algo}"
    except _Failure as exc:
        message = exc
    print(f"segclip: {message}", file=sys.stderr)
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
