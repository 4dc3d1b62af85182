"""Static SVG rendering of clipping runs.

Input segments are stroked blue, accepted clipped segments green on top of
them, and the clipping window is a black rectangle with no fill.  World
coordinates have y pointing up, so the drawing group carries a y-flip
transform.  The viewport covers the window plus all input endpoints, padded
by 10%.
"""

from __future__ import annotations

import math

from .geom import (NonFiniteError, Window, flat_coordinates, format_coord,
                   validate_window)

PAD_FRACTION = 0.10
PX_WIDTH = 800


def _viewport(inputs: list, window: Window) -> Window:
    coords = list(flat_coordinates(inputs))
    xs = [window.x_left, window.x_right, *coords[0::2]]
    ys = [window.y_bottom, window.y_top, *coords[1::2]]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    pad = PAD_FRACTION * max(x_hi - x_lo, y_hi - y_lo)
    return Window(x_lo - pad, x_hi + pad, y_lo - pad, y_hi + pad)


def _lines(segments: list, stroke: str, stroke_width: str) -> list[str]:
    group = [f'  <g stroke="{stroke}" stroke-width="{stroke_width}" '
             f'stroke-linecap="round">']
    xy = iter(flat_coordinates(segments))
    for ax, ay, bx, by in zip(xy, xy, xy, xy):
        group.append(f'    <line x1="{format_coord(ax)}" y1="{format_coord(ay)}" '
                     f'x2="{format_coord(bx)}" y2="{format_coord(by)}"/>')
    group.append("  </g>")
    return group


def render_svg(inputs: list, clipped: list, window: Window) -> str:
    """SVG 1.1 document for one clipping run (clipped segments drawn above
    the inputs, window outline on top).  Each list holds SegmentRows or
    endpoint pairs, as `geom.flat_coordinates` takes them.  Raises what `validate_window`
    raises for an invalid window, and NonFiniteError when the padded
    viewport's width or height overflows."""
    vp = _viewport(inputs, validate_window(window))
    vw = vp.x_right - vp.x_left
    vh = vp.y_top - vp.y_bottom
    if not (math.isfinite(vw) and math.isfinite(vh)):
        raise NonFiniteError(
            f"cannot render: padded viewport width and height must be "
            f"finite: {vw!r} by {vh!r}")
    # the ratio first: PX_WIDTH * vh can overflow where vh / vw does not
    px_height = max(1, round(PX_WIDTH * (vh / vw)))
    stroke = format_coord(max(vw, vh) / 300.0)
    flip = format_coord(vp.y_bottom + vp.y_top)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{PX_WIDTH}" height="{px_height}" '
        f'viewBox="{format_coord(vp.x_left)} {format_coord(vp.y_bottom)} '
        f'{format_coord(vw)} {format_coord(vh)}">',
        # world y grows upward; SVG y grows downward
        f'<g transform="translate(0 {flip}) scale(1 -1)">',
    ]
    parts.extend(_lines(inputs, "blue", stroke))
    parts.extend(_lines(clipped, "green", stroke))
    parts.append(
        f'  <rect x="{format_coord(window.x_left)}" '
        f'y="{format_coord(window.y_bottom)}" '
        f'width="{format_coord(window.x_right - window.x_left)}" '
        f'height="{format_coord(window.y_top - window.y_bottom)}" '
        f'fill="none" stroke="black" stroke-width="{stroke}"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
