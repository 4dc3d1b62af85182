"""Run `python -m segclip.cli` with spans around its calls into segclip.

    python perfbench/traced_cli.py SPANS_JSON clip INPUT -o OUTPUT

Before the CLI module runs, the public functions it imports are replaced by
wrappers: `geom.read_segments` becomes the `geom.parse` span,
`geom.write_segments` the `geom.write` span, and the time between
`baselines.get_clipper` returning and the first write is the clipper's
`<layer>.clip` span (the per-segment loop of `segclip clip`).  GC pauses are
recorded too.  The spans go to SPANS_JSON when the CLI exits; the exit
status is the CLI's.  `segclip` must be importable (`src` on PYTHONPATH).
"""

import json
import runpy
import sys

from tracing import CLIPPER_LAYERS, Tracer


def main() -> int:
    spans_path = sys.argv[1]
    import segclip.baselines as baselines
    import segclip.geom as geom

    tracer = Tracer()
    read, write, get_clipper = (geom.read_segments, geom.write_segments,
                                baselines.get_clipper)
    clip_span = []

    def traced_read(path):
        with tracer.span("geom.parse"):
            return read(path)

    def traced_get_clipper(clipper):
        fn = get_clipper(clipper)
        clip_span.append(tracer.open(f"{CLIPPER_LAYERS[clipper]}.clip"))
        return fn

    def traced_write(path, segments):
        while clip_span:
            tracer.close(clip_span.pop())
        with tracer.span("geom.write") as s:
            segments = list(segments)
            s.calls = len(segments)
            write(path, segments)

    geom.read_segments = traced_read
    geom.write_segments = traced_write
    baselines.get_clipper = traced_get_clipper
    sys.argv = ["segclip", *sys.argv[2:]]
    tracer.hook_gc()
    # Same name as the parent's span around the whole process, so that the
    # CLI's own work outside parse, clip and write adds to cli.self_s.
    main_span = tracer.open("cli.process")
    try:
        runpy.run_module("segclip.cli", run_name="__main__", alter_sys=True)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        while clip_span:  # the CLI failed inside its clip loop
            tracer.close(clip_span.pop())
        tracer.close(main_span)
        tracer.unhook_gc()
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump(tracer.records(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
