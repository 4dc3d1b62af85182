#!/usr/bin/env python3
"""Render example clipping figures.

Clips seeded corpora of 10, 100 and 1000 random segments against the
default window and writes one SVG per corpus to results/ (inputs blue,
clipped output green, window black).
"""

import pathlib

from segclip import Counters, GeneratorSpec, clip_many, gen_segments
from segclip.geom import DEFAULT_WINDOW
from segclip.quadclip import clip_segment
from segclip.svg import render_svg


def render_corpus(count: int, seed: int, out_dir: pathlib.Path) -> pathlib.Path:
    segments = gen_segments(GeneratorSpec(seed=seed, count=count))
    counters = Counters()
    clipped = list(filter(None, clip_many(clip_segment, segments,
                                          DEFAULT_WINDOW, counters)))
    path = out_dir / f"clip_{count}.svg"
    path.write_text(render_svg(segments, clipped, DEFAULT_WINDOW))
    print(f"{path}: {len(segments)} segments in, {len(clipped)} clipped, "
          f"{counters.divisions} divisions")
    return path


if __name__ == "__main__":
    out = pathlib.Path(__file__).resolve().parent.parent / "results"
    out.mkdir(exist_ok=True)
    for count in (10, 100, 1000):
        render_corpus(count, seed=2024, out_dir=out)
