"""Minimal deterministic SVG charts: line, box, histogram, and polar frames.

Everything is rendered by string assembly with fixed float formatting, no
external renderer and no randomness, so identical inputs give identical
bytes.  Wide numeric ranges are handled with simple 1-2-5 tick selection.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["line_chart", "box_chart", "histogram_chart", "dynamics_frame"]

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_FONT = 'font-family="Helvetica, Arial, sans-serif"'
# Canvas size of the framed charts, and the side of a square dynamics frame.
_WIDTH, _HEIGHT = 640, 430
_FRAME_SIZE = 460
# Radius of the dot line_chart draws for a series with one known point.
_DOT_RADIUS = 3.0


def _escape(text: str) -> str:
    """XML character data: & < > as entities (the text xml.sax.saxutils.escape gives)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return []
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / max(target, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


class _Canvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        ]

    def line(self, x1, y1, x2, y2, color="#333333", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def polyline(self, xs, ys, color, width=1.5, dash=None):
        if len(xs) == 0:
            return
        d = f' stroke-dasharray="{dash}"' if dash else ""
        # Each point is "_fmt(x),_fmt(y)", all in one join.
        coords = " ".join(map("{:.6g},{:.6g}".format, map(float, xs), map(float, ys)))
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def circle(self, cx, cy, r, fill="none", stroke="none", stroke_width=1.0):
        self.parts.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}"/>'
        )

    def rect(self, x, y, w, h, fill="none", stroke="#333333"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="{stroke}"/>'
        )

    def text(self, x, y, s, size=11, anchor="middle", color="#222222", rotate=None):
        r = f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"' if rotate is not None else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" {_FONT} font-size="{size}" '
            f'text-anchor="{anchor}" fill="{color}"{r}>{_escape(str(s))}</text>'
        )

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Frame:
    """Maps data coordinates into a margined plot area and draws the axes."""

    def __init__(self, canvas: _Canvas, xlim, ylim, title, x_label, y_label):
        self.c = canvas
        self.left, self.right = 62.0, canvas.width - 18.0
        self.top, self.bottom = 34.0, canvas.height - 44.0
        x0, x1 = xlim
        y0, y1 = ylim
        if x1 <= x0:
            x1 = x0 + 1.0
        if y1 <= y0:
            y1 = y0 + 1.0
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        canvas.rect(self.left, self.top, self.right - self.left, self.bottom - self.top)
        for t in _ticks(x0, x1):
            px = self.px(t)
            canvas.line(px, self.bottom, px, self.bottom + 4)
            canvas.text(px, self.bottom + 16, _fmt(t), size=10)
        for t in _ticks(y0, y1):
            py = self.py(t)
            canvas.line(self.left - 4, py, self.left, py)
            canvas.text(self.left - 8, py + 3.5, _fmt(t), size=10, anchor="end")
        canvas.text((self.left + self.right) / 2, 20, title, size=13)
        canvas.text((self.left + self.right) / 2, canvas.height - 10, x_label, size=11)
        canvas.text(16, (self.top + self.bottom) / 2, y_label, size=11, rotate=-90)

    def px(self, x: float) -> float:
        return self.left + (x - self.x0) / (self.x1 - self.x0) * (self.right - self.left)

    def py(self, y: float) -> float:
        return self.bottom - (y - self.y0) / (self.y1 - self.y0) * (self.bottom - self.top)


def _pad(lo: float, hi: float) -> tuple[float, float]:
    span = hi - lo
    if span <= 0:
        span = abs(hi) if hi != 0 else 1.0
    return lo - 0.05 * span, hi + 0.05 * span


def line_chart(series, title: str, x_label: str, y_label: str) -> str:
    """series: iterable of (label, xs, ys).  A point whose y is NaN is left
    out of its line and of the y range; the x axis still spans its x.  A
    series with one known point, which no line can show, draws it as a dot."""
    series = [(str(lbl), np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)) for lbl, xs, ys in series]
    if not series or all(xs.size == 0 for _, xs, _ in series):
        raise ValueError("line chart needs at least one non-empty series")
    xlo = min(xs.min() for _, xs, _ in series if xs.size)
    xhi = max(xs.max() for _, xs, _ in series if xs.size)
    known = [ys[~np.isnan(ys)] for _, _, ys in series]
    ylo = min((ys.min() for ys in known if ys.size), default=0.0)
    yhi = max((ys.max() for ys in known if ys.size), default=0.0)
    canvas = _Canvas(_WIDTH, _HEIGHT)
    frame = _Frame(canvas, _pad(xlo, xhi), _pad(min(ylo, 0.0) if ylo > 0 else ylo, yhi), title, x_label, y_label)
    for i, (lbl, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        # frame.px and frame.py map a whole array with the same float operations as a point.
        shown = ~np.isnan(ys)
        px, py = frame.px(xs[shown]), frame.py(ys[shown])
        if px.size == 1:
            canvas.circle(px[0], py[0], _DOT_RADIUS, fill=color)
        else:
            canvas.polyline(px.tolist(), py.tolist(), color)
        yleg = 40 + 14 * i
        canvas.line(frame.right - 120, yleg, frame.right - 100, yleg, color=color, width=2)
        canvas.text(frame.right - 94, yleg + 3.5, lbl, size=10, anchor="start")
    return canvas.render()


def box_chart(groups, title: str, y_label: str) -> str:
    """groups: iterable of (label, (lo, q25, median, q75, hi), color_index)."""
    groups = list(groups)
    if not groups:
        raise ValueError("box chart needs at least one group")
    values = [v for _, stats, _ in groups for v in stats]
    canvas = _Canvas(_WIDTH, _HEIGHT)
    frame = _Frame(canvas, (0.0, float(len(groups))), _pad(min(values), max(values)), title, "", y_label)
    slot = (frame.right - frame.left) / len(groups)
    for i, (label, (lo, q25, med, q75, hi), ci) in enumerate(groups):
        cx = frame.left + slot * (i + 0.5)
        half = slot * 0.28
        color = PALETTE[ci % len(PALETTE)]
        canvas.line(cx, frame.py(lo), cx, frame.py(q25))
        canvas.line(cx, frame.py(q75), cx, frame.py(hi))
        canvas.line(cx - half * 0.6, frame.py(lo), cx + half * 0.6, frame.py(lo))
        canvas.line(cx - half * 0.6, frame.py(hi), cx + half * 0.6, frame.py(hi))
        canvas.rect(cx - half, frame.py(q75), 2 * half, frame.py(q25) - frame.py(q75), fill="#f0f4fa", stroke=color)
        canvas.line(cx - half, frame.py(med), cx + half, frame.py(med), color=color, width=2)
        canvas.text(cx, frame.bottom + 16, label, size=9)
    return canvas.render()


def histogram_chart(edges, counts, title: str, x_label: str) -> str:
    """Bar per bin; the y axis is the count."""
    edges = np.asarray(edges, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if edges.size != counts.size + 1:
        raise ValueError("need len(edges) == len(counts) + 1")
    canvas = _Canvas(_WIDTH, _HEIGHT)
    frame = _Frame(canvas, _pad(float(edges[0]), float(edges[-1])), (0.0, float(counts.max()) * 1.05 or 1.0),
                   title, x_label, "count")
    for i, cnt in enumerate(counts):
        x = frame.px(edges[i])
        w = frame.px(edges[i + 1]) - x
        y = frame.py(cnt)
        canvas.rect(x, y, w, frame.bottom - y, fill="#9ecae1", stroke="#3182bd")
    return canvas.render()


def dynamics_frame(points, pos_dirs, neg_weights, rho_angles, rho_values, title: str) -> str:
    """Polar snapshot: inverted data points, unit circle, owner directions as rays,
    the opposing class's raw weights as crosses, and the dashed coverage curve."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    pos_dirs = np.asarray(pos_dirs, dtype=float).reshape(-1, 2)
    neg_weights = np.asarray(neg_weights, dtype=float).reshape(-1, 2)
    rho_angles = np.asarray(rho_angles, dtype=float)
    rho_values = np.asarray(rho_values, dtype=float)
    size = _FRAME_SIZE

    extent = 1.15
    for arr in (points, neg_weights):
        if arr.size:
            extent = max(extent, float(np.abs(arr).max()) * 1.1)
    canvas = _Canvas(size, size + 26)
    canvas.text(size / 2, 18, title, size=13)
    cx, cy = size / 2, size / 2 + 16
    scale = (size / 2 - 20) / extent

    def P(x, y):
        return cx + x * scale, cy - y * scale

    canvas.line(*P(-extent, 0.0), *P(extent, 0.0), color="#cccccc")
    canvas.line(*P(0.0, -extent), *P(0.0, extent), color="#cccccc")
    canvas.circle(cx, cy, scale, stroke="#888888")
    if rho_values.size:
        closed_a = np.append(rho_angles, rho_angles[0])
        closed_r = np.append(rho_values, rho_values[0])
        xs, ys = zip(*(P(r * math.cos(a), r * math.sin(a)) for a, r in zip(closed_a, closed_r)))
        canvas.polyline(xs, ys, color="#d62728", width=1.5, dash="5,3")
    for x, y in points:
        px, py = P(x, y)
        canvas.circle(px, py, 1.6, fill="#1f77b4")
    for x, y in pos_dirs:
        px, py = P(x, y)
        canvas.line(cx, cy, px, py, color="#2ca02c", width=2)
        canvas.circle(px, py, 3.0, fill="#2ca02c")
    for x, y in neg_weights:
        px, py = P(x, y)
        arm = 3.5
        canvas.line(px - arm, py - arm, px + arm, py + arm, color="#9467bd", width=1.5)
        canvas.line(px - arm, py + arm, px + arm, py - arm, color="#9467bd", width=1.5)
    return canvas.render()
