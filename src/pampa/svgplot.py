"""Minimal deterministic SVG line plots (one series, no interactivity)."""

from __future__ import annotations

from pathlib import Path

import numpy as np

_W, _H = 840, 525
_ML, _MR, _MT, _MB = 70, 20, 30, 45
_COLOR = "#1f77b4"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def write_svg(path, x, y, title: str, ylabel: str) -> Path:
    """Plot y over x (1D arrays); ylabel names the y axis and the line."""
    path = Path(path)
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
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
        f'<text x="{_W / 2:.1f}" y="{_H - 8}" text-anchor="middle">x</text>',
        f'<text x="16" y="{_H / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_H / 2:.1f})">{ylabel}</text>',
        f'<text x="{_ML - 6}" y="{sy(y0):.1f}" text-anchor="end">{_fmt(y0)}</text>',
        f'<text x="{_ML - 6}" y="{sy(y1) + 10:.1f}" text-anchor="end">{_fmt(y1)}</text>',
        f'<text x="{sx(x0):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{_fmt(x0)}</text>',
        f'<text x="{sx(x1):.1f}" y="{_H - _MB + 16}" text-anchor="middle">{_fmt(x1)}</text>',
    ]
    pts = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(xs, ys))
    out += [f'<polyline points="{pts}" fill="none" stroke="{_COLOR}" '
            f'stroke-width="1.4" data-label="{ylabel}"/>',
            f'<text x="{_ML + 10}" y="{_MT + 16}" fill="{_COLOR}">{ylabel}</text>',
            "</svg>"]
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
        paths.append(write_svg(outdir / f"{name}.svg", x, prim[:, k],
                               f"{label}: {name}", name))
    return paths
