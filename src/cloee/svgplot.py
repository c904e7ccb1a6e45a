"""SVG line charts with no plotting library, just enough to eyeball sweep
output; each series is mapped and formatted as numpy arrays."""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#17becf", "#7f7f7f")
_W, _H = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 50


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-2:
        return f"{v:.3g}"
    return f"{v:.4g}"


def _padded(lo: float, hi: float) -> tuple[float, float]:
    """An axis's (lo, hi).  A constant axis gets hi = lo + 1.0, or the next
    float up where that rounds back to lo; where the next float up overflows,
    lo moves to the next float down instead."""
    if hi != lo:
        return lo, hi
    hi = max(lo + 1.0, math.nextafter(lo, math.inf))
    return (lo, hi) if hi < math.inf else (math.nextafter(lo, -math.inf), lo)


def _frac(v, lo: float, hi: float, s: float):
    """(v - lo) / (hi - lo) for a value or an array, at the axis scale s."""
    return (v * s - lo * s) / (hi * s - lo * s)


def _ticks(lo: float, hi: float, s: float) -> list[float]:
    """Five ticks from lo to hi at the axis scale s, held to hi, as rounding
    can carry the last past it (and past the largest float)."""
    return [min((lo * s + (hi * s - lo * s) * i / 4) / s, hi) for i in range(5)]


def render_lines(series, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render (label, xs, ys) series, xs and ys lists or arrays of one length,
    into a standalone SVG document; non-finite points are dropped."""
    lines = []
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError(f"series {label}: xs and ys differ in length")
        keep = np.isfinite(xs) & np.isfinite(ys)
        lines.append((label, xs[keep], ys[keep]))
    if not any(xs.size for _, xs, _ in lines):
        raise ValueError("nothing to plot")
    (x_min, x_max), (y_min, y_max) = (
        _padded(float(v.min()), float(v.max()))
        for v in (np.concatenate([line[k] for line in lines]) for k in (1, 2)))
    # An axis whose tick span * 4 would overflow a float is taken at the exact
    # scale 2**-4 (_frac, _ticks); every other axis at 1.0.
    x_s, y_s = (1.0 if (hi - lo) * 4 < math.inf else 2.0 ** -4
                for lo, hi in ((x_min, x_max), (y_min, y_max)))

    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + _frac(x, x_min, x_max, x_s) * plot_w

    def sy(y):
        return _MARGIN_T + plot_h - _frac(y, y_min, y_max, y_s) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes and ticks
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               'fill="none" stroke="#333"/>')
    for i, (fx, fy) in enumerate(zip(_ticks(x_min, x_max, x_s), _ticks(y_min, y_max, y_s))):
        out.append(f'<text x="{sx(fx):.1f}" y="{_H - _MARGIN_B + 18}" '
                   f'text-anchor="middle" fill="#333">{_fmt(fx)}</text>')
        out.append(f'<text x="{_MARGIN_L - 6}" y="{sy(fy) + 4:.1f}" '
                   f'text-anchor="end" fill="#333">{_fmt(fy)}</text>')
        if i > 0:
            out.append(f'<line x1="{_MARGIN_L}" y1="{sy(fy):.1f}" x2="{_MARGIN_L + plot_w}" '
                       f'y2="{sy(fy):.1f}" stroke="#ddd"/>')
    out.append(f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{_H - 10}" '
               f'text-anchor="middle">{x_label}</text>')
    out.append(f'<text x="16" y="{_MARGIN_T + plot_h / 2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {_MARGIN_T + plot_h / 2:.0f})">{y_label}</text>')
    # series
    for i, (label, xs, ys) in enumerate(lines):
        color = _PALETTE[i % len(_PALETTE)]
        if xs.size:
            coords = " ".join(["%.2f,%.2f"] * xs.size) % tuple(
                np.column_stack((sx(xs), sy(ys))).ravel().tolist())
            out.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                       'stroke-width="1.6"/>')
        ly = _MARGIN_T + 14 + i * 16
        out.append(f'<line x1="{_W - _MARGIN_R + 10}" y1="{ly - 4}" '
                   f'x2="{_W - _MARGIN_R + 30}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MARGIN_R + 34}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
