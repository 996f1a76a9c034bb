"""Minimal self-contained SVG rendering for the figure series.

The CSV series are the authoritative artifacts; these renderings are a
convenience, so the drawing stays deliberately simple: linear axes, tick
labels, scatter dots, overlay polylines, and an optional side histogram.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .census import FigureSeries

__all__ = ["render_figure"]

_CURVE_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_WIDTH = 640
_HEIGHT = 440
_MARGIN_L = 64
_MARGIN_R = 16
_MARGIN_T = 20
_MARGIN_B = 48


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _bounds(values: np.ndarray, pad=0.05):
    """Padded axis limits of ``values``; lo < hi always, as _nice_ticks needs."""
    if not values.size:  # a figure with nothing to plot still gets its axes
        return 0.0, 1.0
    lo, hi = float(values.min()), float(values.max())
    # values equal up to rounding leave no room for tick steps
    if hi - lo <= 1e-12 * max(abs(lo), abs(hi)):
        half = max(0.5, 1e-9 * max(abs(lo), abs(hi)))  # 0.5 is below rounding past 1e16
        lo -= half
        hi += half
    span = hi - lo
    return lo - pad * span, hi + pad * span


def _scale(values, lo, hi, offset, size):
    """Pixel coordinates of a float or an array of them: ``lo`` maps to
    ``offset`` and ``hi`` to ``offset + size``."""
    return offset + (values - lo) / (hi - lo) * size


# points formatted per % call: one call over every point of a 25,709-record
# figure raised the peak RSS of figures by 0.45 MB
_CHUNK = 2048


def _format_points(template: str, sep: str, x: np.ndarray, y: np.ndarray) -> str:
    """``template % (x, y)`` for each point, joined by ``sep``."""
    pairs = np.column_stack([x, y])
    return sep.join(
        sep.join([template] * len(chunk)) % tuple(chunk.ravel().tolist())
        for chunk in (pairs[start : start + _CHUNK] for start in range(0, len(pairs), _CHUNK))
    )


def render_figure(fig: FigureSeries) -> str:
    """Render one figure series to an SVG document string."""
    points = fig.points or {"x": np.empty(0), "y": np.empty(0)}
    curves = dict(fig.curves or {})
    curve_x = curves.pop("x", np.empty(0))
    hist_w = 90 if fig.hist is not None else 0
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R - hist_w
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    x_lo, x_hi = _bounds(np.concatenate([points["x"], curve_x]))
    y_lo, y_hi = _bounds(np.concatenate([points["y"], *curves.values()]))
    # y grows downwards: y_hi maps to the top
    x_axis = functools.partial(_scale, lo=x_lo, hi=x_hi, offset=_MARGIN_L, size=plot_w)
    y_axis = functools.partial(_scale, lo=y_hi, hi=y_lo, offset=_MARGIN_T, size=plot_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in _nice_ticks(x_lo, x_hi):
        x = x_axis(t)
        parts.append(
            f'<line x1="{x:.1f}" y1="{_MARGIN_T + plot_h}" x2="{x:.1f}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{_MARGIN_T + plot_h + 16}" font-size="10" '
            f'text-anchor="middle">{t:g}</text>'
        )
    for t in _nice_ticks(y_lo, y_hi):
        y = y_axis(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" '
            'stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 6}" y="{y + 3:.1f}" font-size="10" '
            f'text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + plot_w / 2:.1f}" y="{_HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle">{fig.xlabel}</text>'
    )
    parts.append(
        f'<text x="14" y="{_MARGIN_T + plot_h / 2:.1f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 {_MARGIN_T + plot_h / 2:.1f})">'
        f"{fig.ylabel}</text>"
    )
    curve_px = x_axis(curve_x)
    for ci, (label, curve_y) in enumerate(curves.items()):
        color = _CURVE_COLORS[ci % len(_CURVE_COLORS)]
        line = _format_points("%.2f,%.2f", " ", curve_px, y_axis(curve_y))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{line}"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L + plot_w - 6}" y="{_MARGIN_T + 14 + 14 * ci}" '
            f'font-size="11" text-anchor="end" fill="{color}">{label}</text>'
        )
    if len(points["x"]):
        circle = '<circle cx="%.2f" cy="%.2f" r="2" fill="#333333"/>'
        parts.append(_format_points(circle, "\n", x_axis(points["x"]), y_axis(points["y"])))
    if fig.hist is not None:
        counts, lows, highs = (fig.hist[key].tolist() for key in ("count", "bin_left", "bin_right"))
        max_count = max(counts) or 1
        base_x = _MARGIN_L + plot_w + 6
        for count, lo, hi in zip(counts, lows, highs):
            if count == 0:
                continue
            top = y_axis(min(hi, y_hi))
            bottom = y_axis(max(lo, y_lo))
            bar = (hist_w - 12) * count / max_count
            parts.append(
                f'<rect x="{base_x}" y="{top:.2f}" width="{bar:.2f}" '
                f'height="{max(bottom - top, 1.0):.2f}" fill="#87aade" stroke="none"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts)
