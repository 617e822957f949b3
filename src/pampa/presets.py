"""Benchmark initial conditions and exact solutions.

Initial conditions are pointwise primitive-variable functions `f(cfg, x)`;
cell averages are their per-cell Gauss averages, which `finish_averages`
then adjusts where a preset says so (the point blast sets the centre-cell
energy directly). Piecewise-constant data comes from `_piecewise`: where a
jump sits exactly on a grid node and the problem statement leaves the
nodal value open, the node takes the mean of the two one-sided states.
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
    return _piecewise(x, [-0.2, 0.2], [[-1.0], [2.0], [-1.0]])


def _ic_euler_smooth(cfg, x):
    return _exact_density_wave(cfg, x, 0.0)   # x - 0.0 is x, -0.0 included


def _piecewise(x, splits, states, tie="mean"):
    """Piecewise-constant data: states[k] between splits[k-1] and splits[k]
    (ascending), each point taking states[searchsorted(splits, x, "right")].
    A point exactly on a split takes the mean of its two states, or with
    tie="left" the state before it."""
    x = np.asarray(x, dtype=float)
    states = np.asarray(states, dtype=float)
    after = np.searchsorted(splits, x, side="right")
    before = np.searchsorted(splits, x, side="left")
    out = states[after]
    on = before < after
    at = states[before[on]]
    out[on] = at if tie == "left" else 0.5 * (at + states[after[on]])
    return out


def _ic_sod(cfg, x):
    return _piecewise(x, [0.0], [[1.0, 0.0, 1.0], [0.125, 0.0, 0.1]], "left")


def _ic_double_rarefaction(cfg, x):
    return _piecewise(x, [0.0], [[7.0, -1.0, 0.2], [7.0, 1.0, 0.2]])


def _ic_leblanc(cfg, x):
    g = cfg.gamma
    return _piecewise(x, [3.0], [[1.0, 0.0, 0.1 * (g - 1.0)],
                                 [1e-3, 0.0, 1e-7 * (g - 1.0)]], "left")


def _ic_blast_waves(cfg, x):
    return _piecewise(x, [0.1, 0.9], [[1.0, 0.0, 1e3], [1.0, 0.0, 1e-2],
                                      [1.0, 0.0, 1e2]])


def _ic_shu_osher(cfg, x):
    x = np.asarray(x, dtype=float)
    rho = np.where(x < -4.0, 3.857143, 1.0 + 0.2 * np.sin(5.0 * x))
    v = np.where(x < -4.0, 2.629369, 0.0)
    p = np.where(x < -4.0, 10.33333, 0.1)
    return np.stack([rho, v, p], axis=-1)


def _ic_sedov_background(cfg, x):
    return _piecewise(x, [], [[1.0, 0.0, (cfg.gamma - 1.0) * 1e-12]])


def _ic_mhd_shock_tube(cfg, x):
    return _piecewise(x, [0.5], [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                                 [0.3, 0.0, 0.0, 1.0, 1.0, 0.0, 0.2]])


def _ic_mhd_leblanc(cfg, x):
    return _piecewise(x, [0.0], [[2.0, 0.0, 0.0, 0.0, 5000.0, 5000.0, 1e9],
                                 [1e-3, 0.0, 0.0, 0.0, 5000.0, 5000.0, 1.0]])


def finish_averages(cfg, grid, avgs):
    """A preset's own change to the Gauss averages of its initial
    condition, in place: the point blast puts 3.2e6 * dx of energy in its
    centre cell (node values stay at the background)."""
    if cfg.ic != "sedov_background":
        return
    n = grid.n_cells
    if n % 2 == 0:
        raise ConfigError("the point-blast preset needs an odd cell count")
    avgs[n // 2, 2] = 3.2e6 * float(grid.cell_sizes[n // 2])


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
