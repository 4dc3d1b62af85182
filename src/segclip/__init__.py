"""2D line-segment clipping against an axis-aligned rectangular window.

The main clipper decides boundary crossings with corner-orientation sign
tests before computing any intersection, so it never spends a division on a
point that is not part of the output.  Instrumented Cohen-Sutherland and
Liang-Barsky implementations, an exact-rational differential oracle, a
timing harness and a CLI round out the package.
"""

from .baselines import (CLIPPERS, UnknownClipperError, cs_clip, get_clipper,
                        lb_clip)
from .bench import (BenchConfig, BenchRow, checksum_segments, pass_seed,
                    relative_execution, run_suite, time_algorithm, write_csv)
from .geom import (ClipResult, Counters, DegenerateWindowError, NonFiniteError,
                   Point, Segment, SegmentFormatError, Window, parse_segments,
                   read_segments, validate_window, window_contains,
                   write_segments)
from .oracle import (EquivalenceReport, GeneratorSpec, check_equivalence,
                     default_region, exact_clip, gen_segments)
from .quadclip import (EndpointOutcome, clip_endpoint, clip_segment,
                       quad_orientation)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig", "BenchRow", "CLIPPERS", "ClipResult", "Counters",
    "DegenerateWindowError", "EndpointOutcome", "EquivalenceReport",
    "GeneratorSpec", "NonFiniteError", "Point", "Segment",
    "SegmentFormatError", "UnknownClipperError", "Window",
    "check_equivalence", "checksum_segments", "clip_endpoint", "clip_segment",
    "cs_clip", "default_region", "exact_clip", "gen_segments", "get_clipper",
    "lb_clip", "parse_segments", "pass_seed", "quad_orientation",
    "read_segments", "relative_execution", "run_suite", "time_algorithm",
    "validate_window", "window_contains", "write_csv", "write_segments",
]
