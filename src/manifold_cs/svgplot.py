"""Minimal deterministic SVG line plots for the experiment curves.

Hand-rolled rather than delegating to a plotting stack so the output bytes
are a pure function of the data: no timestamps, font probing, or generated
ids.  One plot = log-scaled relMSE against scale, one polyline per
oversampling factor with a +-1 std band, plus a single dashed baseline.
"""

import math

WIDTH = 640
HEIGHT = 440
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 40
MARGIN_B = 50

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_FLOOR = 1e-17


def _fmt(v):
    return "%.2f" % v


def render_curves(scales, curves, baseline, title):
    """Render the experiment curves as an SVG string.

    scales: list of x positions (dictionary scales).
    curves: list of (label, means, stds) with one value per scale; None
    entries are skipped.
    baseline: horizontal dashed reference value (drawn exactly once).
    """
    if not scales:
        raise ValueError("nothing to plot: empty scale list")
    xs = list(scales)
    values = [baseline] if baseline and baseline > 0 else []
    for _, means, stds in curves:
        for m, s in zip(means, stds):
            if m is not None:
                values.append(max(m - (s or 0.0), _FLOOR))
                values.append(m + (s or 0.0))
    values = [max(v, _FLOOR) for v in values if v is not None and v > 0]
    if not values:
        raise ValueError("nothing to plot: no positive values")
    lo = math.log10(min(values))
    hi = math.log10(max(values))
    if hi - lo < 0.5:
        mid = 0.5 * (hi + lo)
        lo, hi = mid - 0.25, mid + 0.25
    lo = math.floor(lo * 2.0) / 2.0
    hi = math.ceil(hi * 2.0) / 2.0

    x0, x1 = min(xs), max(xs)
    if x1 == x0:
        x1 = x0 + 1

    def px(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * (WIDTH - MARGIN_L - MARGIN_R)

    def py(v):
        lv = math.log10(max(v, _FLOOR))
        return MARGIN_T + (hi - lv) / (hi - lo) * (HEIGHT - MARGIN_T - MARGIN_B)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">'
        % (WIDTH, HEIGHT, WIDTH, HEIGHT),
        '<rect width="%d" height="%d" fill="white"/>' % (WIDTH, HEIGHT),
        '<text x="%d" y="24" font-family="sans-serif" font-size="15" text-anchor="middle">%s</text>'
        % (WIDTH // 2, _escape(title)),
    ]
    # axes
    parts.append(
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
        % (_fmt(MARGIN_L), _fmt(HEIGHT - MARGIN_B), _fmt(WIDTH - MARGIN_R), _fmt(HEIGHT - MARGIN_B))
    )
    parts.append(
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="black"/>'
        % (_fmt(MARGIN_L), _fmt(MARGIN_T), _fmt(MARGIN_L), _fmt(HEIGHT - MARGIN_B))
    )
    for x in xs:
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="11" text-anchor="middle">%d</text>'
            % (_fmt(px(x)), _fmt(HEIGHT - MARGIN_B + 16), x)
        )
    tick = lo
    while tick <= hi + 1e-9:
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="11" text-anchor="end">1e%g</text>'
            % (_fmt(MARGIN_L - 6), _fmt(py(10.0**tick) + 4), tick)
        )
        parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#cccccc" stroke-width="0.5"/>'
            % (_fmt(MARGIN_L), _fmt(py(10.0**tick)), _fmt(WIDTH - MARGIN_R), _fmt(py(10.0**tick)))
        )
        tick += 1.0
    parts.append(
        '<text x="%d" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle">scale j</text>'
        % (WIDTH // 2, HEIGHT - 12)
    )
    parts.append(
        '<text x="16" y="%d" font-family="sans-serif" font-size="13" text-anchor="middle" '
        'transform="rotate(-90 16 %d)">relMSE</text>' % (HEIGHT // 2, HEIGHT // 2)
    )

    # std bands first, curves above them
    for idx, (label, means, stds) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        pts_hi, pts_lo = [], []
        for x, m, s in zip(xs, means, stds):
            if m is None:
                continue
            s = s or 0.0
            pts_hi.append((px(x), py(m + s)))
            pts_lo.append((px(x), py(max(m - s, _FLOOR))))
        if len(pts_hi) >= 2:
            ring = pts_hi + pts_lo[::-1]
            path = " ".join("%s,%s" % (_fmt(a), _fmt(b)) for a, b in ring)
            parts.append('<polygon points="%s" fill="%s" fill-opacity="0.15" stroke="none"/>' % (path, color))
    for idx, (label, means, stds) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(px(x), py(m)) for x, m in zip(xs, means) if m is not None]
        if not pts:
            continue
        path = " ".join("%s,%s" % (_fmt(a), _fmt(b)) for a, b in pts)
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>' % (path, color)
        )
        lx, ly = pts[-1]
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="11" fill="%s">%s</text>'
            % (_fmt(min(lx + 4, WIDTH - MARGIN_R - 30)), _fmt(ly - 4), color, _escape(label))
        )

    if baseline is not None and baseline > 0:
        by = py(baseline)
        parts.append(
            '<line class="baseline" x1="%s" y1="%s" x2="%s" y2="%s" stroke="black" '
            'stroke-dasharray="6,4" stroke-width="1.2"/>'
            % (_fmt(MARGIN_L), _fmt(by), _fmt(WIDTH - MARGIN_R), _fmt(by))
        )
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="11">baseline</text>'
            % (_fmt(MARGIN_L + 4), _fmt(by - 4))
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text):
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
