"""Minimal deterministic SVG line plots (series overlay, no interactivity)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

_W, _H = 840, 525
_ML, _MR, _MT, _MB = 70, 20, 30, 45
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_svg(path, series, title: str = "", xlabel: str = "x",
              ylabel: str = "") -> Path:
    """series: list of (label, x, y) with 1D arrays; the first series sets
    nothing special, all share the data ranges."""
    path = Path(path)
    xs = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = float(np.min(xs)), float(np.max(xs))
    y0, y1 = float(np.min(ys)), float(np.max(ys))
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def sx(x):
        return _ML + pw * (x - x0) / (x1 - x0)

    def sy(y):
        return _MT + ph * (1.0 - (y - y0) / (y1 - y0))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="13">',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#444" stroke-width="1"/>',
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle">{title}</text>',
        f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle">{xlabel}</text>',
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>',
        f'<text x="{_ML - 6}" y="{sy(y0):.1f}" text-anchor="end">{_fmt(y0)}</text>',
        f'<text x="{_ML - 6}" y="{sy(y1) + 10:.1f}" text-anchor="end">{_fmt(y1)}</text>',
        f'<text x="{sx(x0):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{_fmt(x0)}</text>',
        f'<text x="{sx(x1):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{_fmt(x1)}</text>',
    ]
    for i, (label, x, y) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}"
                       for a, b in zip(np.asarray(x), np.asarray(y)))
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   f'stroke-width="1.4" data-label="{label}"/>')
        out.append(f'<text x="{_ML + 10 + 130 * i}" y="{_MT + 16}" '
                   f'fill="{color}">{label}</text>')
    out.append("</svg>")
    path.write_text("\n".join(out) + "\n")
    return path


def write_solution_svgs(outdir, label, scheme, field) -> list[Path]:
    """One SVG per primitive variable of the cell averages."""
    outdir = Path(outdir)
    sys = scheme.system
    prim = sys.primitive(field.avgs)
    x = scheme.grid.cell_centers
    paths = []
    for k, name in enumerate(sys.primitive_names):
        paths.append(write_svg(outdir / f"{name}.svg", [(name, x, prim[:, k])],
                               title=f"{label}: {name}", ylabel=name))
    return paths
