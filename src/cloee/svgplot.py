"""SVG line charts with no plotting library, just enough to eyeball sweep
output; each series is mapped and formatted as numpy arrays."""

from __future__ import annotations

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
    xs, ys = (np.concatenate([line[k] for line in lines]) for k in (1, 2))
    x_min, x_max, y_min, y_max = float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max())
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    plot_w = _W - _MARGIN_L - _MARGIN_R
    plot_h = _H - _MARGIN_T - _MARGIN_B

    def sx(x):
        return _MARGIN_L + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y):
        return _MARGIN_T + plot_h - (y - y_min) / (y_max - y_min) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" font-size="15">{title}</text>',
    ]
    # axes and ticks
    out.append(f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
               'fill="none" stroke="#333"/>')
    for i in range(5):
        fx = x_min + (x_max - x_min) * i / 4
        fy = y_min + (y_max - y_min) * i / 4
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
