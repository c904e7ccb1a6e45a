"""SVG line charts with no plotting library, just enough to eyeball sweep
output; a chart's series are mapped as one numpy array per axis and their
coordinates formatted in one exact integer pass."""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#17becf", "#7f7f7f")
_W, _H = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 160, 40, 50
# _PAIRS[k], k < 100, is k in two ASCII digits with NUL for its leading zeros,
# and _PAIRS[100 + k] is k with them; _coords deletes every NUL.
_PAIRS = np.frombuffer((b"\0\0" + b"".join(b"%2d" % k for k in range(1, 100))).replace(b" ", b"\0")
                       + b"".join(b"%02d" % k for k in range(100)), np.uint16)
_DOT = np.frombuffer(b".\0", np.uint16)


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


def _coords(xs, ys, sizes) -> list[str]:
    """The "%.2f,%.2f" text of the points (xs, ys), one space apart, for each
    run of sizes (each > 0) points; every coordinate must lie in [1, 10000).

    A coordinate v is m·2**-s for its 53-bit mantissa m and s in [39, 52], so
    v·100 = (100·m)·2**-s exactly, and q, that shifted right by s and rounded
    half to even, is "%.2f"'s rounding of v in cents.  Each coordinate gets
    five byte pairs: its separator (a newline before each run's first point)
    and a 1 for 10000.00, the integer part's two _PAIRS, ".", the cents'."""
    v = np.column_stack((xs, ys)).ravel()
    if not (v.min() >= 1.0 and v.max() < 1e4):
        raise ValueError("a coordinate lies outside [1, 10000)")
    bits = v.view(np.int64)
    m = (bits & (2 ** 52 - 1) | 2 ** 52) * 100
    s = 1075 - (bits >> 52)
    q = m >> s
    r, half = m - (q << s), 1 << (s - 1)
    q += (r > half) | ((r == half) & (q & 1))
    a, hi = q // 100, q // 10000
    text = np.empty((v.size, 5), np.uint16)
    head = text.view(np.uint8)[:, :2]
    head[0::2, 0], head[1::2, 0] = ord(" "), ord(",")
    head[2 * (np.cumsum(sizes) - sizes), 0] = ord("\n")
    head[:, 1] = (hi == 100) * ord("1")
    text[:, 1] = _PAIRS.take(hi)
    text[:, 2] = _PAIRS.take(a - 100 * hi + 100 * (hi > 0))
    text[:, 3] = _DOT
    text[:, 4] = _PAIRS.take(q - 100 * a + 100)
    return text.tobytes().translate(None, b"\0").decode("ascii").split("\n")[1:]


def render_lines(series, title: str = "", x_label: str = "", y_label: str = "") -> str:
    """Render (label, xs, ys) series, xs and ys sequences or arrays of one length,
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
    (x_min, x_max), (y_min, y_max) = (_padded(float(v.min()), float(v.max())) for v in (xs, ys))
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
    # series; every coordinate lies in [40, 560], as _frac stays in [0, 1]
    points = iter(_coords(sx(xs), sy(ys), [line[1].size for line in lines if line[1].size]))
    for i, (label, xs, _) in enumerate(lines):
        color = _PALETTE[i % len(_PALETTE)]
        if xs.size:
            out.append(f'<polyline points="{next(points)}" fill="none" stroke="{color}" '
                       'stroke-width="1.6"/>')
        ly = _MARGIN_T + 14 + i * 16
        out.append(f'<line x1="{_W - _MARGIN_R + 10}" y1="{ly - 4}" '
                   f'x2="{_W - _MARGIN_R + 30}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MARGIN_R + 34}" y="{ly}">{label}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
