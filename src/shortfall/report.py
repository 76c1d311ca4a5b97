"""CSV and SVG emission.

CSV contract: '.' decimal separator, no thousands separators, LF line
endings, one header row; floats are written in shortest round-trip form so
reruns of a deterministic experiment produce byte-identical files.  Infinite
values are written as ``inf``.

The SVG writers produce small standalone files (no external renderer); they
are a convenience view of the CSV data, never an input to any test.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .mc import DeviationCurve, HistogramResult

__all__ = [
    "format_number",
    "rows_to_csv",
    "curve_to_csv",
    "histogram_to_csv",
    "table1_to_csv",
    "canonical_json",
    "spec_hash",
    "curve_svg",
    "histogram_svg",
]


def format_number(x) -> str:
    x = float(x)
    if math.isinf(x):
        return "-inf" if x < 0 else "inf"
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def rows_to_csv(header: str, rows) -> str:
    """The CSV text of ``header`` and ``rows``: strings as-is, numbers by :func:`format_number`."""
    lines = [header]
    lines += [",".join(c if isinstance(c, str) else format_number(c) for c in row) for row in rows]
    return "\n".join(lines) + "\n"


def curve_to_csv(curve: DeviationCurve) -> str:
    return rows_to_csv("N,p_hat,stderr,count",
                       [(pt.n, pt.p_hat, pt.stderr, pt.count) for pt in curve.points])


def histogram_to_csv(hist: HistogramResult) -> str:
    return rows_to_csv("bin_left,bin_right,count",
                       zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts))


def table1_to_csv(rows: list[dict]) -> str:
    return rows_to_csv("family,params,alpha,D,sigma",
                       [(r["family"], r["params"], r["alpha"], r["D"], r["sigma"]) for r in rows])


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_hash(config: dict) -> str:
    """Stable hash of a config; changes iff any config field changes."""
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()


# --- minimal SVG --------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _svg_header(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="18" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif">{title}</text>',
    ]


def _axis(parts: list[str], x_label: str, y_label: str) -> None:
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        f'fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_W / 2:.1f}" y="{_H - 12}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{_H / 2:.1f}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 16 {_H / 2:.1f})">{y_label}</text>'
    )


def curve_svg(series: list[tuple[str, DeviationCurve]], title: str = "deviation probability") -> str:
    """Semi-log line chart of p_hat against N; zero-count points are skipped."""
    xs_all = [pt.n for _, c in series for pt in c.points]
    ys_all = [pt.p_hat for _, c in series for pt in c.points if pt.p_hat > 0.0]
    if not ys_all:
        ys_all = [1e-6, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo = math.floor(math.log10(min(ys_all)))
    y_hi = math.ceil(math.log10(max(ys_all))) or 1

    def sx(n):
        span = max(x_hi - x_lo, 1)
        return _ML + (n - x_lo) / span * (_W - _ML - _MR)

    def sy(p):
        frac = (math.log10(p) - y_lo) / max(y_hi - y_lo, 1e-9)
        return _H - _MB - frac * (_H - _MT - _MB)

    parts = _svg_header(title)
    _axis(parts, "N", "P(|error| >= delta), log scale")
    for decade in range(int(y_lo), int(y_hi) + 1):
        y = sy(10.0**decade)
        parts.append(f'<line x1="{_ML}" y1="{y:.1f}" x2="{_W - _MR}" y2="{y:.1f}" '
                     f'stroke="#dddddd"/>')
        parts.append(f'<text x="{_ML - 6}" y="{y + 4:.1f}" font-size="10" text-anchor="end" '
                     f'font-family="sans-serif">1e{decade}</text>')
    for n in sorted({pt.n for _, c in series for pt in c.points}):
        x = sx(n)
        parts.append(f'<text x="{x:.1f}" y="{_H - _MB + 14}" font-size="10" '
                     f'text-anchor="middle" font-family="sans-serif">{n}</text>')
    for i, (label, curve) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(sx(pt.n), sy(pt.p_hat)) for pt in curve.points if pt.p_hat > 0.0]
        if pts:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
            parts.append(f'<polyline points="{path}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
            for x, y in pts:
                parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR - 8}" y="{_MT + 16 + 14 * i}" font-size="11" '
                     f'text-anchor="end" font-family="sans-serif" fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def histogram_svg(hist: HistogramResult, title: str = "histogram") -> str:
    """Bar chart of bin counts."""
    counts = np.asarray(hist.counts, dtype=np.float64)
    edges = np.asarray(hist.bin_edges, dtype=np.float64)
    peak = counts.max() if counts.size else 1.0
    x_lo, x_hi = float(edges[0]), float(edges[-1])
    span = max(x_hi - x_lo, 1e-12)

    def sx(v):
        return _ML + (v - x_lo) / span * (_W - _ML - _MR)

    def sy(c):
        return _H - _MB - (c / max(peak, 1.0)) * (_H - _MT - _MB)

    parts = _svg_header(title)
    _axis(parts, "estimate", "count")
    for left, right, count in zip(edges[:-1], edges[1:], counts):
        x, y = sx(left), sy(count)
        width = max(sx(right) - x, 0.5)
        height = (_H - _MB) - y
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{width:.2f}" '
                     f'height="{height:.2f}" fill="#1f77b4" stroke="none"/>')
    for frac in (0.0, 0.5, 1.0):
        v = x_lo + frac * span
        parts.append(f'<text x="{sx(v):.1f}" y="{_H - _MB + 14}" font-size="10" '
                     f'text-anchor="middle" font-family="sans-serif">{v:.4g}</text>')
    parts.append(f'<text x="{_ML - 6}" y="{_MT + 4}" font-size="10" text-anchor="end" '
                 f'font-family="sans-serif">{int(peak)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
