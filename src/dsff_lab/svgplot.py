"""Minimal deterministic log-log SVG charts (no plotting dependencies).

Output contains no timestamps and no environment-dependent content, so a
rerun with identical inputs is byte-identical.
"""
from __future__ import annotations

import math

__all__ = ["render_loglog"]

# (label, color) of the two series, in drawing and legend order
_PREDICTION = ("prediction", "#1f77b4")
_ESTIMATE = ("estimate", "#d62728")

_W, _H = 960.0, 600.0
_ML, _MR, _MT, _MB = 78.0, 24.0, 46.0, 58.0


def _finite_positive(xs, ys):
    return [
        (x, y)
        for x, y in zip(xs, ys)
        if x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)
    ]


def _bounds(curves):
    lo_x = lo_y = math.inf
    hi_x = hi_y = -math.inf
    for pts in curves:
        for x, y in pts:
            lo_x, hi_x = min(lo_x, x), max(hi_x, x)
            lo_y, hi_y = min(lo_y, y), max(hi_y, y)
    if not (lo_x < hi_x):
        hi_x = lo_x * 10 if lo_x < math.inf else 10.0
        lo_x = lo_x if lo_x < math.inf else 1.0
    if not (lo_y < hi_y):
        hi_y = lo_y * 10 if lo_y < math.inf else 10.0
        lo_y = lo_y if lo_y < math.inf else 1.0
    pad = lambda a, b: (a / 10 ** (0.04 * math.log10(b / a)), b * 10 ** (0.04 * math.log10(b / a)))
    lo_x, hi_x = pad(lo_x, hi_x)
    lo_y, hi_y = pad(lo_y, hi_y)
    return (math.log10(lo_x), math.log10(hi_x), math.log10(lo_y), math.log10(hi_y))


def _fmt_pow(exp):
    return f"1e{exp:d}"


def render_loglog(path, xs, prediction, estimate, stderr, title, ylabel):
    """Write compare's log-log SVG chart against |tau|.

    The prediction is a line and the estimate points with error bars of
    stderr. Nonpositive or nonfinite values are dropped (log axes); error
    bars are clipped at the plot floor.
    """
    line, points = _finite_positive(xs, prediction), _finite_positive(xs, estimate)
    lx0, lx1, ly0, ly1 = _bounds((line, points))
    iw, ih = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (math.log10(x) - lx0) / (lx1 - lx0) * iw

    def py(y):
        return _MT + (ly1 - math.log10(y)) / (ly1 - ly0) * ih

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}" '
        f'viewBox="0 0 {_W:.0f} {_H:.0f}" font-family="Helvetica,Arial,sans-serif">'
    )
    out.append(f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="#ffffff"/>')
    out.append(
        f'<text x="{_W/2:.1f}" y="28" text-anchor="middle" font-size="17" '
        f'fill="#111111">{title}</text>'
    )
    # frame
    out.append(
        f'<rect x="{_ML:.1f}" y="{_MT:.1f}" width="{iw:.1f}" height="{ih:.1f}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    # decade grid and labels
    for exp in range(math.ceil(lx0), math.floor(lx1) + 1):
        x = px(10.0**exp)
        out.append(
            f'<line x1="{x:.2f}" y1="{_MT:.1f}" x2="{x:.2f}" y2="{_MT+ih:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{_MT+ih+20:.1f}" text-anchor="middle" '
            f'font-size="12" fill="#333333">{_fmt_pow(exp)}</text>'
        )
    for exp in range(math.ceil(ly0), math.floor(ly1) + 1):
        y = py(10.0**exp)
        out.append(
            f'<line x1="{_ML:.1f}" y1="{y:.2f}" x2="{_ML+iw:.1f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML-8:.1f}" y="{y+4:.2f}" text-anchor="end" '
            f'font-size="12" fill="#333333">{_fmt_pow(exp)}</text>'
        )
    out.append(
        f'<text x="{_ML+iw/2:.1f}" y="{_H-14:.1f}" text-anchor="middle" '
        f'font-size="14" fill="#111111">|tau|</text>'
    )
    out.append(
        f'<text x="20" y="{_MT+ih/2:.1f}" text-anchor="middle" font-size="14" '
        f'fill="#111111" transform="rotate(-90 20 {_MT+ih/2:.1f})">{ylabel}</text>'
    )
    floor_y = _MT + ih
    coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in line)
    out.append(
        f'<polyline points="{coords}" fill="none" stroke="{_PREDICTION[1]}" '
        f'stroke-width="1.8"/>'
    )
    color = _ESTIMATE[1]
    for x, y in points:
        out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
    for x, y, e in zip(xs, estimate, stderr):
        if not (x > 0 and y > 0 and math.isfinite(x) and math.isfinite(y)):
            continue
        if not (math.isfinite(e) and e > 0):
            continue
        cx = px(x)
        y_hi = py(y + e)
        y_lo = py(y - e) if y - e > 0 else floor_y
        y_lo = min(y_lo, floor_y)
        out.append(
            f'<line x1="{cx:.2f}" y1="{y_hi:.2f}" x2="{cx:.2f}" '
            f'y2="{y_lo:.2f}" stroke="{color}" stroke-width="1"/>'
        )
        for yy in (y_hi, y_lo):
            out.append(
                f'<line x1="{cx-3:.2f}" y1="{yy:.2f}" x2="{cx+3:.2f}" '
                f'y2="{yy:.2f}" stroke="{color}" stroke-width="1"/>'
            )
    # legend, top-right inside the frame
    ly = _MT + 16
    for label, color in (_PREDICTION, _ESTIMATE):
        lx = _ML + iw - 230
        out.append(
            f'<line x1="{lx:.1f}" y1="{ly-4:.1f}" x2="{lx+26:.1f}" y2="{ly-4:.1f}" '
            f'stroke="{color}" stroke-width="2.5"/>'
        )
        out.append(
            f'<text x="{lx+34:.1f}" y="{ly:.1f}" font-size="13" '
            f'fill="#111111">{label}</text>'
        )
        ly += 20
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")
