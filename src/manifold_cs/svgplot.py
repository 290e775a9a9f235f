"""Minimal deterministic SVG line plots for the experiment curves.

Hand-rolled rather than delegating to a plotting stack so the output bytes
are a pure function of the data: no timestamps, font probing, or generated
ids.  One plot = log-scaled relMSE against scale, one polyline per
oversampling factor with a +-1 std band, plus a single dashed baseline.
"""

import html
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
        _text(WIDTH // 2, 24, 15, ' text-anchor="middle"', _escape(title)),
        # axes
        _line(MARGIN_L, HEIGHT - MARGIN_B, WIDTH - MARGIN_R, HEIGHT - MARGIN_B, 'stroke="black"'),
        _line(MARGIN_L, MARGIN_T, MARGIN_L, HEIGHT - MARGIN_B, 'stroke="black"'),
    ]
    for x in xs:
        parts.append(_text(_fmt(px(x)), _fmt(HEIGHT - MARGIN_B + 16), 11, ' text-anchor="middle"', "%d" % x))
    tick = lo
    while tick <= hi + 1e-9:
        y = py(10.0**tick)
        parts.append(_text(_fmt(MARGIN_L - 6), _fmt(y + 4), 11, ' text-anchor="end"', "1e%g" % tick))
        parts.append(_line(MARGIN_L, y, WIDTH - MARGIN_R, y, 'stroke="#cccccc" stroke-width="0.5"'))
        tick += 1.0
    parts.append(_text(WIDTH // 2, HEIGHT - 12, 13, ' text-anchor="middle"', "scale j"))
    rotate = ' text-anchor="middle" transform="rotate(-90 16 %d)"' % (HEIGHT // 2)
    parts.append(_text(16, HEIGHT // 2, 13, rotate, "relMSE"))

    # std bands first, curves above them
    for idx, (_, means, stds) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        band = [(px(x), m, s or 0.0) for x, m, s in zip(xs, means, stds) if m is not None]
        if len(band) >= 2:
            ring = [(a, py(m + s)) for a, m, s in band] + [(a, py(max(m - s, _FLOOR))) for a, m, s in band[::-1]]
            parts.append(_shape("polygon", ring, 'fill="%s" fill-opacity="0.15" stroke="none"' % color))
    for idx, (label, means, _) in enumerate(curves):
        color = PALETTE[idx % len(PALETTE)]
        pts = [(px(x), py(m)) for x, m in zip(xs, means) if m is not None]
        if pts:
            parts.append(_shape("polyline", pts, 'fill="none" stroke="%s" stroke-width="1.5"' % color))
            lx, ly = pts[-1]
            lx = min(lx + 4, WIDTH - MARGIN_R - 30)
            parts.append(_text(_fmt(lx), _fmt(ly - 4), 11, ' fill="%s"' % color, _escape(label)))

    if baseline is not None and baseline > 0:
        by = py(baseline)
        dashed = 'stroke="black" stroke-dasharray="6,4" stroke-width="1.2"'
        parts.append(_line(MARGIN_L, by, WIDTH - MARGIN_R, by, dashed, 'class="baseline" '))
        parts.append(_text(_fmt(MARGIN_L + 4), _fmt(by - 4), 11, "", "baseline"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _text(x, y, size, attrs, body):
    """A sans-serif <text> element; x and y are written as given."""
    return '<text x="%s" y="%s" font-family="sans-serif" font-size="%d"%s>%s</text>' % (x, y, size, attrs, body)


def _line(x1, y1, x2, y2, style, lead=""):
    return '<line %sx1="%s" y1="%s" x2="%s" y2="%s" %s/>' % (lead, _fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), style)


def _shape(tag, pts, style):
    """A <polygon> or <polyline> through the (x, y) pairs pts."""
    return '<%s points="%s" %s/>' % (tag, " ".join("%s,%s" % (_fmt(a), _fmt(b)) for a, b in pts), style)


def _escape(text):
    # html, not xml.sax.saxutils: that one imports urllib.request, and with it ssl and http.client
    return html.escape(str(text), quote=False).replace('"', "&quot;")
