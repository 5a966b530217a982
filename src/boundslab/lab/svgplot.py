"""Deterministic static SVG 1.1 line charts for aggregated traces.

Style (fixed, presentation-only): one solid polyline per series mean, one
dashed polyline at mean + one standard deviation, five axis ticks per axis,
and a legend on the right.  Identical inputs produce identical bytes; series
longer than MAX_POINTS are downsampled with a uniform stride (the final
point is always kept).  The title, legend and axis labels are written as
XML character data, so a series named ``a<b&c`` reads back as that name.
"""
from __future__ import annotations

import math
from itertools import chain

import numpy as np

MAX_POINTS = 2000

WIDTH, HEIGHT = 840, 520
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 75, 200, 45, 55

PALETTE = (
    "#1b6ca8", "#c0392b", "#27ae60", "#8e44ad",
    "#d35400", "#16a085", "#7f8c8d", "#2c3e50",
)


def _downsample(xs, ys):
    """The arrays ``xs`` and ``ys``, cut to every ``stride``-th point when
    there are more than MAX_POINTS; the final point is kept."""
    n = len(xs)
    if n <= MAX_POINTS:
        return xs, ys
    stride = math.ceil(n / MAX_POINTS)
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return xs[idx], ys[idx]


def _ticks(low, high):
    if high <= low:
        high = low + 1.0
    return [low + (high - low) * i / 4 for i in range(5)]


def _y_arrays(traces):
    """Each y array drawn, in order: a trace's means, then its mean + std,
    made one trace at a time."""
    for tr in traces:
        if len(tr.mean):
            yield tr.mean
            yield tr.mean + tr.std


def _y_range(traces):
    """What the built-in ``min`` and ``max`` return over every y value
    drawn, taken in order: each trace's means, then its mean + std.  That
    order fixes which NaN or signed zero they return.  numpy finds each
    array's first extreme, and the builtins pick among those in the same
    order; only a NaN sends them over the values themselves, walking the
    arrays again."""
    lows, highs = zip(*[(float(ys[ys.argmin()]), float(ys[ys.argmax()]))
                        for ys in _y_arrays(traces)])
    if any(math.isnan(low) for low in lows):  # argmin finds a NaN if any
        return tuple(extreme(chain.from_iterable(
            ys.tolist() for ys in _y_arrays(traces))) for extreme in (min, max))
    return min(lows), max(highs)


def _fmt(x):
    return f"{x:.2f}"


# One polyline point: "%.2f" prints what ``_fmt`` does.
_POINT = "%.2f,%.2f"


def _scale(v, low, high, start, length):
    """The pixel of ``v`` when [low, high] spans ``length`` pixels from
    ``start``.  ``v`` may be a float or a float64 array: numpy rounds each
    step of an array as Python rounds it on a float, so both give the same
    pixels."""
    return start + (v - low) / (high - low) * length


def _escape(text):
    """``text`` as XML character data: ``&``, ``<`` and ``>`` as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def render_plot(traces, path, *, title="") -> None:
    """Render the traces to a standalone SVG file, axes "t" and "value".  A
    trace with no point (a replay's RS series when one repetition accepted no
    record) keeps its legend entry and colour but sets no axis range and
    draws no line; at least one trace must have a point."""
    traces = list(traces)
    drawn = [tr for tr in traces if len(tr.t)]
    if not drawn:
        raise ValueError("need at least one trace with a point to plot")
    x_min = min(float(tr.t[0]) for tr in drawn)
    x_max = max(float(tr.t[-1]) for tr in drawn)
    y_min, y_max = _y_range(drawn)
    if y_max == y_min:
        y_min, y_max = y_min - 1.0, y_max + 1.0
    if y_max == y_min and math.isfinite(y_min):  # past 2**53, 1.0 rounds away
        y_min, y_max = math.nextafter(y_min, -math.inf), math.nextafter(
            y_max, math.inf)
    if x_max == x_min:
        x_max = x_min + 1.0

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def sx(x):
        return _scale(x, x_min, x_max, MARGIN_LEFT, plot_w)

    def sy(y):  # upwards from the bottom; a + b * -c is a - b * c exactly
        return _scale(y, y_min, y_max, MARGIN_TOP + plot_h, -plot_h)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        # axes
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="#000000" stroke-width="1"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" '
        f'x2="{MARGIN_LEFT + plot_w}" y2="{MARGIN_TOP + plot_h}" '
        f'stroke="#000000" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="25" text-anchor="middle" '
            f'font-family="monospace" font-size="16">{_escape(title)}</text>')
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 12}" '
        f'text-anchor="middle" font-family="monospace" font-size="13">'
        't</text>')
    parts.append(
        f'<text x="18" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="monospace" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_TOP + plot_h / 2:.1f})">value</text>')

    for x in _ticks(x_min, x_max):
        px = sx(x)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{MARGIN_TOP + plot_h}" x2="{_fmt(px)}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="#000000" stroke-width="1"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{MARGIN_TOP + plot_h + 20}" '
            f'text-anchor="middle" font-family="monospace" font-size="11">{x:.6g}</text>')
    for y in _ticks(y_min, y_max):
        py = sy(y)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{_fmt(py)}" x2="{MARGIN_LEFT}" '
            f'y2="{_fmt(py)}" stroke="#000000" stroke-width="1"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 9}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="monospace" font-size="11">{y:.6g}</text>')

    for i, tr in enumerate(traces):
        color = PALETTE[i % len(PALETTE)]
        if len(tr.t):
            xs, means = _downsample(tr.t, tr.mean)
            _, bands = _downsample(tr.t, tr.mean + tr.std)
            with np.errstate(all="ignore"):  # as on floats: NaN, inf pass
                pxs = sx(xs.astype(float)).tolist()
                mean_ys, band_ys = sy(means).tolist(), sy(bands).tolist()
            mean_pts = " ".join(map(_POINT.__mod__, zip(pxs, mean_ys)))
            band_pts = " ".join(map(_POINT.__mod__, zip(pxs, band_ys)))
            parts.append(f'<polyline points="{mean_pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<polyline points="{band_pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1" '
                         f'stroke-dasharray="6,4"/>')
        ly = MARGIN_TOP + 14 + 18 * i
        lx = MARGIN_LEFT + plot_w + 18
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 32}" y="{ly + 4}" font-family="monospace" '
                     f'font-size="12">{_escape(tr.name)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(part + "\n" for part in parts)
