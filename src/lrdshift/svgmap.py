"""Self-contained SVG rendering of the scale-by-time p-value map.

No plotting dependency: rectangles are written directly, with adjacent
same-color cells in a row merged into a single rectangle (non-overlapping
aggregation repeats each block's value across its span, so this collapses
the output dramatically).  Output contains no timestamps and is
byte-identical across reruns.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["pvalue_color", "render_pvalue_map_svg"]

# Diverging ramp, hot (small p) to cool (large p), linear in RGB between
# anchors; missing cells render neutral gray.
RAMP_ANCHORS = [(0.0, (165, 0, 38)), (0.5, (255, 255, 191)), (1.0, (49, 54, 149))]
MISSING_COLOR = "#b3b3b3"
CELL_HEIGHT = 14  # pixels per scale row
TARGET_WIDTH = 1200  # plot width in pixels, rounded to whole pixels per column


def pvalue_color(p: float) -> str:
    """Hex color for a p-value in [0, 1]; NaN maps to the missing color."""
    if math.isnan(p):
        return MISSING_COLOR
    p = min(max(p, 0.0), 1.0)
    for (p_lo, c_lo), (p_hi, c_hi) in zip(RAMP_ANCHORS, RAMP_ANCHORS[1:]):
        if p <= p_hi:
            w = (p - p_lo) / (p_hi - p_lo)
            rgb = tuple(round(lo + w * (hi - lo)) for lo, hi in zip(c_lo, c_hi))
            return "#%02x%02x%02x" % rgb
    return "#%02x%02x%02x" % RAMP_ANCHORS[-1][1]


def render_pvalue_map_svg(window: np.ndarray, labels: np.ndarray) -> str:
    """SVG text for a (scales, columns) window of a p-value map.

    Rows are scales with scale 1 at the bottom; ``labels`` (the columns'
    1-based positions) annotate the x axis.  The color ramp is documented
    in a metadata comment at the top of the file.
    """
    num_scales, ncols = window.shape
    cell_w = max(1, round(TARGET_WIDTH / ncols))
    margin_left, margin_bottom, margin_top = 46, 26, 8
    plot_w, plot_h = ncols * cell_w, num_scales * CELL_HEIGHT
    width, height = margin_left + plot_w, margin_top + plot_h + margin_bottom

    anchors = "; ".join(f"p={p:g} -> rgb{c}" for p, c in RAMP_ANCHORS)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f"<!-- p-value heatmap; color ramp linear in RGB between anchors: {anchors}; "
        f"missing cells {MISSING_COLOR}; rows are scales (scale 1 at bottom), "
        f"columns are time positions {labels[0]}..{labels[-1]} -->",
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for k in range(num_scales, 0, -1):
        y = margin_top + (num_scales - k) * CELL_HEIGHT
        x = margin_left
        for color, run in itertools.groupby(map(pvalue_color, window[k - 1].tolist())):
            run_w = sum(1 for _ in run) * cell_w
            lines.append(
                f'<rect x="{x}" y="{y}" width="{run_w}" '
                f'height="{CELL_HEIGHT}" fill="{color}"/>'
            )
            x += run_w
        lines.append(
            f'<text x="{margin_left - 6}" y="{y + CELL_HEIGHT - 3}" font-size="10" '
            f'font-family="sans-serif" text-anchor="end">{k}</text>'
        )
    axis_y = margin_top + plot_h + 14
    for frac in (0.0, 0.5, 1.0):
        col = min(int(frac * (ncols - 1)), ncols - 1)
        x = margin_left + col * cell_w + cell_w // 2
        lines.append(
            f'<text x="{x}" y="{axis_y}" font-size="10" font-family="sans-serif" '
            f'text-anchor="middle">{labels[col]}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
