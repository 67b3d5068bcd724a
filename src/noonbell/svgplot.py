"""Dependency-free SVG emission: line plots for sweeps and heatmaps for
density grids.

Output is deliberately deterministic (fixed float formatting, no timestamps)
so rendered files can serve as golden regression artifacts.
"""

from __future__ import annotations

from io import StringIO

import numpy as np

__all__ = ["heatmap_svg", "line_plot_svg"]

_FONT = 'font-family="Helvetica, Arial, sans-serif"'


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")
    )


# Blue -> white -> red; channels truncate to integers.
_DIVERGING = np.array([(40, 60, 150), (255, 255, 255), (255, 60, 40)], dtype=float)
# Dark blue -> yellow, a compact viridis-like ramp; channels round half to even.
_SEQUENTIAL = np.array(
    [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37)], dtype=float
)


def _ramp(t: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """Piecewise-linear colour channels (..., 3) for t in [0, 1], clipped."""
    pos = np.clip(t, 0.0, 1.0) * (len(anchors) - 1)
    i = np.minimum(pos.astype(int), len(anchors) - 2)
    u = (pos - i)[..., None]
    return anchors[i] + (anchors[i + 1] - anchors[i]) * u


def heatmap_svg(
    values: np.ndarray,
    y_min: float,
    y_max: float,
    title: str = "",
    diverging: bool | None = None,
) -> str:
    """Render a square matrix as a heatmap with a linear color map.

    Rows are the y axis (drawn bottom-up), columns the v axis.  The value
    range used by the color map is recorded in a <desc> element.  A constant
    grid is drawn in the map's first colour.
    """
    values = np.asarray(values, dtype=float)
    count = values.shape[0]
    vmin = float(values.min())
    vmax = float(values.max())
    if diverging is None:
        diverging = vmin < 0.0
    if diverging:
        peak = max(abs(vmin), abs(vmax), 1e-300)
        lo, hi = -peak, peak
    else:
        lo, hi = vmin, max(vmax, vmin + 1e-300)
    t = (values - lo) / (hi - lo) if hi > lo else np.zeros_like(values)
    rgb = _ramp(t, _DIVERGING) if diverging else np.rint(_ramp(t, _SEQUENTIAL))
    colours, which = np.unique(rgb.astype(int) @ [1 << 16, 1 << 8, 1], return_inverse=True)
    which = which.reshape(values.shape)
    fills = [f"rgb({c >> 16},{(c >> 8) & 255},{c & 255})" for c in colours.tolist()]
    margin, size = 46.0, 480.0
    cell = size / count
    width = margin + size + 14.0
    height = margin / 2 + size + margin
    buf = StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    buf.write(f"<desc>linear color map; min={vmin!r} max={vmax!r}</desc>\n")
    buf.write('<rect width="100%" height="100%" fill="#ffffff"/>\n')
    if title:
        buf.write(
            f'<text x="{_fmt(margin + size / 2)}" y="16" text-anchor="middle" '
            f'font-size="13" {_FONT}>{_escape(title)}</text>\n'
        )
    top = margin / 2 + 4
    steps = np.arange(count) * cell
    xs = [f'<rect x="{_fmt(x)}" y="' for x in (margin + steps).tolist()]
    side = _fmt(cell + 0.35)
    for i, y in enumerate((top + steps[::-1]).tolist()):
        tail = f'{_fmt(y)}" width="{side}" height="{side}" fill="'
        buf.write("".join([f'{x}{tail}{fills[k]}"/>\n' for x, k in zip(xs, which[i].tolist())]))
    axis_y = top + size + 14
    for frac, val in ((0.0, y_min), (0.5, 0.5 * (y_min + y_max)), (1.0, y_max)):
        x = margin + frac * size
        buf.write(
            f'<text x="{_fmt(x)}" y="{_fmt(axis_y)}" text-anchor="middle" '
            f'font-size="11" {_FONT}>{_fmt(val)}</text>\n'
        )
        y = top + (1.0 - frac) * size
        buf.write(
            f'<text x="{_fmt(margin - 6)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11" {_FONT}>{_fmt(val)}</text>\n'
        )
    buf.write(
        f'<text x="{_fmt(margin + size / 2)}" y="{_fmt(axis_y + 16)}" text-anchor="middle" '
        f'font-size="12" {_FONT}>v</text>\n'
    )
    buf.write(
        f'<text x="12" y="{_fmt(top + size / 2)}" text-anchor="middle" '
        f'font-size="12" {_FONT}>y</text>\n'
    )
    buf.write("</svg>\n")
    return buf.getvalue()


def line_plot_svg(
    xs,
    ys,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    hline: float | None = None,
) -> str:
    """Single-series line plot with round markers; optionally draws a dashed
    horizontal reference line (e.g. a classical bound)."""
    xs = [float(x) for x in xs]
    ys = [float(y) for y in ys]
    if len(xs) != len(ys) or not xs:
        raise ValueError("xs and ys must be equal-length and non-empty")
    width, height = 560.0, 360.0
    ml, mr, mt, mb = 64.0, 20.0, 34.0, 52.0
    pw, ph = width - ml - mr, height - mt - mb
    x_lo, x_hi = min(xs), max(xs)
    y_vals = ys + ([hline] if hline is not None else [])
    y_lo, y_hi = min(y_vals), max(y_vals)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    pad = (y_hi - y_lo) * 0.08 or max(abs(y_hi), 1.0) * 0.05
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y):
        return mt + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    buf = StringIO()
    buf.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )
    buf.write('<rect width="100%" height="100%" fill="#ffffff"/>\n')
    if title:
        buf.write(
            f'<text x="{_fmt(width / 2)}" y="18" text-anchor="middle" font-size="13" '
            f"{_FONT}>{_escape(title)}</text>\n"
        )
    buf.write(
        f'<rect x="{_fmt(ml)}" y="{_fmt(mt)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
        'fill="none" stroke="#444444" stroke-width="1"/>\n'
    )
    n_ticks = 4
    for i in range(n_ticks + 1):
        yv = y_lo + (y_hi - y_lo) * i / n_ticks
        buf.write(
            f'<text x="{_fmt(ml - 6)}" y="{_fmt(py(yv) + 4)}" text-anchor="end" '
            f'font-size="10" {_FONT}>{_fmt(yv)}</text>\n'
        )
    for x in sorted(set(xs)):
        buf.write(
            f'<text x="{_fmt(px(x))}" y="{_fmt(height - mb + 16)}" text-anchor="middle" '
            f'font-size="10" {_FONT}>{_fmt(x)}</text>\n'
        )
    if hline is not None:
        buf.write(
            f'<line x1="{_fmt(ml)}" y1="{_fmt(py(hline))}" x2="{_fmt(ml + pw)}" '
            f'y2="{_fmt(py(hline))}" stroke="#b22222" stroke-width="1" '
            'stroke-dasharray="5,4"/>\n'
        )
    points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
    buf.write(
        f'<polyline points="{points}" fill="none" stroke="#1f77b4" stroke-width="1.6"/>\n'
    )
    for x, y in zip(xs, ys):
        buf.write(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="3" fill="#1f77b4"/>\n')
    if x_label:
        buf.write(
            f'<text x="{_fmt(ml + pw / 2)}" y="{_fmt(height - 10)}" text-anchor="middle" '
            f'font-size="11" {_FONT}>{_escape(x_label)}</text>\n'
        )
    if y_label:
        buf.write(
            f'<text x="14" y="{_fmt(mt + ph / 2)}" text-anchor="middle" font-size="11" '
            f'{_FONT} transform="rotate(-90 14 {_fmt(mt + ph / 2)})">{_escape(y_label)}</text>\n'
        )
    buf.write("</svg>\n")
    return buf.getvalue()
