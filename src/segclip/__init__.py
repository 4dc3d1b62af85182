"""2D line-segment clipping against an axis-aligned rectangular window.

The main clipper decides boundary crossings with corner-orientation sign
tests before computing any intersection, so it never spends a division on a
point that is not part of the output.  Instrumented Cohen-Sutherland and
Liang-Barsky implementations, an exact-rational differential oracle, a
timing harness and a CLI round out the package.

Every public name below is imported from its submodule on first use
(PEP 562), so importing one submodule does not load the others.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "baselines": ("CLIPPERS", "UnknownClipperError", "clip_many", "cs_clip",
                  "get_clipper", "lb_clip"),
    "bench": ("BenchConfig", "BenchRow", "checksum_segments", "pass_seed",
              "run_suite", "time_algorithm"),
    "geom": ("Counters", "DegenerateWindowError", "NonFiniteError", "Point",
             "Segment", "SegmentFormatError", "Window", "parse_segments",
             "read_segments", "validate_window", "write_segments"),
    "oracle": ("EquivalenceReport", "GeneratorSpec", "check_equivalence",
               "default_region", "exact_clip", "gen_segments"),
    "quadclip": ("clip_segment",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
