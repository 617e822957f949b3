"""Benchmark initial conditions and exact solutions.

Initial conditions are pointwise primitive-variable functions `f(cfg, x)`;
cell averages are produced by per-cell Gauss quadrature unless a preset
installs a custom builder (the point blast sets the centre-cell energy
directly). Where a jump sits exactly on a grid node and the problem
statement leaves the nodal value open, the node takes the mean of the two
one-sided states.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def _smooth_bump(x):
    return 1.0 + np.sin(2.0 * np.pi * x) ** 4


def _jiang_shu(x):
    a, z, delta, alpha = 0.5, -0.7, 0.005, 10.0
    beta = np.log(2.0) / (36.0 * delta ** 2)

    def g1(xx, zz):
        return np.exp(-beta * (xx - zz) ** 2)

    def g2(xx, aa):
        return np.sqrt(np.maximum(1.0 - alpha ** 2 * (xx - aa) ** 2, 0.0))

    u = np.zeros_like(x)
    m = (x >= -0.8) & (x <= -0.6)
    u = np.where(m, (g1(x, z - delta) + g1(x, z + delta) + 4.0 * g1(x, z)) / 6.0, u)
    m = (x >= -0.4) & (x <= -0.2)
    u = np.where(m, 1.0, u)
    m = (x >= 0.0) & (x <= 0.2)
    u = np.where(m, 1.0 - np.abs(10.0 * (x - 0.1)), u)
    m = (x >= 0.4) & (x <= 0.6)
    u = np.where(m, (g2(x, a - delta) + g2(x, a + delta) + 4.0 * g2(x, a)) / 6.0, u)
    return u


def _scalar(fn):
    def ic(cfg, x):
        return fn(np.asarray(x, dtype=float))[..., None]

    return ic


def _ic_burgers_square(cfg, x):
    x = np.asarray(x, dtype=float)
    r = np.abs(x)
    u = np.where(r < 0.2, 2.0, np.where(r > 0.2, -1.0, 0.5))
    return u[..., None]


def _ic_euler_smooth(cfg, x):
    return _exact_density_wave(cfg, x, 0.0)   # x - 0.0 is x, -0.0 included


def _riemann2(x, split, left, right, split_side="left"):
    """Two-state primitive data; split_side picks the value exactly at the
    split ('left', 'right', or 'mean')."""
    x = np.asarray(x, dtype=float)
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    at = {"left": left, "right": right, "mean": 0.5 * (left + right)}[split_side]
    out = np.where((x < split)[..., None], left, right)
    return np.where((x == split)[..., None], at, out)


def _ic_sod(cfg, x):
    return _riemann2(x, 0.0, [1.0, 0.0, 1.0], [0.125, 0.0, 0.1], "left")


def _ic_double_rarefaction(cfg, x):
    return _riemann2(x, 0.0, [7.0, -1.0, 0.2], [7.0, 1.0, 0.2], "mean")


def _ic_leblanc(cfg, x):
    g = cfg.gamma
    return _riemann2(x, 3.0, [1.0, 0.0, 0.1 * (g - 1.0)],
                     [1e-3, 0.0, 1e-7 * (g - 1.0)], "left")


def _ic_blast_waves(cfg, x):
    x = np.asarray(x, dtype=float)
    lo = np.array([1.0, 0.0, 1e3])
    mi = np.array([1.0, 0.0, 1e-2])
    hi = np.array([1.0, 0.0, 1e2])
    out = np.where((x < 0.1)[..., None], lo, np.where((x < 0.9)[..., None], mi, hi))
    out = np.where((x == 0.1)[..., None], 0.5 * (lo + mi), out)
    out = np.where((x == 0.9)[..., None], 0.5 * (mi + hi), out)
    return out


def _ic_shu_osher(cfg, x):
    x = np.asarray(x, dtype=float)
    rho = np.where(x < -4.0, 3.857143, 1.0 + 0.2 * np.sin(5.0 * x))
    v = np.where(x < -4.0, 2.629369, 0.0)
    p = np.where(x < -4.0, 10.33333, 0.1)
    return np.stack([rho, v, p], axis=-1)


def _ic_sedov_background(cfg, x):
    x = np.asarray(x, dtype=float)
    rho = np.ones_like(x)
    zero = np.zeros_like(x)
    p = np.full_like(x, (cfg.gamma - 1.0) * 1e-12)
    return np.stack([rho, zero, p], axis=-1)


def build_sedov(cfg, system, grid, gauss_averages):
    """Uniform (rho, v, E) = (1, 0, 1e-12) except the centre-cell average
    energy, set to 3.2e6 * dx; node values stay at the background."""
    n = grid.n_cells
    if n % 2 == 0:
        raise ConfigError("the point-blast preset needs an odd cell count")
    avgs = gauss_averages(lambda x: system.from_primitive(_ic_sedov_background(cfg, x)),
                          grid)
    center = n // 2
    avgs[center, 2] = 3.2e6 * float(grid.cell_sizes[center])
    return avgs


def _ic_mhd_shock_tube(cfg, x):
    return _riemann2(x, 0.5, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                     [0.3, 0.0, 0.0, 1.0, 1.0, 0.0, 0.2], "mean")


def _ic_mhd_leblanc(cfg, x):
    return _riemann2(x, 0.0, [2.0, 0.0, 0.0, 0.0, 5000.0, 5000.0, 1e9],
                     [1e-3, 0.0, 0.0, 0.0, 5000.0, 5000.0, 1.0], "mean")


IC_REGISTRY = {
    "advection_smooth": _scalar(_smooth_bump),
    "jiang_shu": _scalar(_jiang_shu),
    "burgers_square": _ic_burgers_square,
    "euler_smooth": _ic_euler_smooth,
    "sod": _ic_sod,
    "blast_waves": _ic_blast_waves,
    "double_rarefaction": _ic_double_rarefaction,
    "shu_osher": _ic_shu_osher,
    "sedov_background": _ic_sedov_background,
    "leblanc": _ic_leblanc,
    "mhd_shock_tube": _ic_mhd_shock_tube,
    "mhd_leblanc": _ic_mhd_leblanc,
}

AVERAGE_BUILDERS = {
    "sedov_background": build_sedov,
}


def _exact_translate(cfg, x, t):
    ic = IC_REGISTRY[cfg.ic]
    period = cfg.b - cfg.a
    xw = cfg.a + np.mod(np.asarray(x, dtype=float) - t - cfg.a, period)
    return ic(cfg, xw)


def _exact_density_wave(cfg, x, t):
    x = np.asarray(x, dtype=float)
    rho = 1.0 + 0.999 * np.sin(x - t)
    return np.stack([rho, np.ones_like(x), np.full_like(x, 1e-8)], axis=-1)


EXACT_REGISTRY = {
    "advection_translate": _exact_translate,
    "euler_density_wave": _exact_density_wave,
}
