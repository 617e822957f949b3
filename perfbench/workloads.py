"""The three benchmark workloads, each a bundled preset run through one of
pampa's public entry points, and the output check of every workload.

A workload's `execute` is the timed call. `verify` runs untimed afterwards
and returns the SHA-256 of the final state, the L1 error the workload
reports as `err_l1`, and the list of failed checks (empty when the output
is correct). The checks use independent arithmetic where one exists: the
exact double-rarefaction solution and pressure recomputed from the
conservative variables here, not through `pampa.systems`.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# Gauss-Legendre rule on sub-cells for exact cell averages of piecewise
# smooth functions (kinks only at rarefaction heads and tails).
_GL_X, _GL_W = np.polynomial.legendre.leggauss(5)
_SUBCELLS = 8


def _cell_averages(f, nodes):
    """Average of the scalar function f over each cell [nodes[j], nodes[j+1]]."""
    a, b = nodes[:-1, None], nodes[1:, None]
    edges = a + (b - a) * np.linspace(0.0, 1.0, _SUBCELLS + 1)[None, :]
    lo, hi = edges[:, :-1, None], edges[:, 1:, None]
    x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * _GL_X
    vals = f(x)
    return np.sum(0.5 * _GL_W * vals, axis=(1, 2)) / _SUBCELLS


def _state_digest(h, *arrays):
    for arr in arrays:
        a = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())


def two_rarefaction_density(xi, left, right, gamma):
    """Exact density at similarity coordinate xi = x/t of an Euler Riemann
    problem whose two waves are rarefactions (Toro, ch. 4): the star state
    comes from the two-rarefaction formula, which is exact in this case,
    and a vacuum forms when the pressure positivity condition fails."""
    (rl, ul, pl), (rr, ur, pr) = left, right
    g = gamma
    cl, cr = math.sqrt(g * pl / rl), math.sqrt(g * pr / rr)
    z = (g - 1.0) / (2.0 * g)
    num = cl + cr - 0.5 * (g - 1.0) * (ur - ul)

    def fan_l(s):
        base = 2.0 / (g + 1.0) + (g - 1.0) / ((g + 1.0) * cl) * (ul - s)
        return rl * np.maximum(base, 0.0) ** (2.0 / (g - 1.0))

    def fan_r(s):
        base = 2.0 / (g + 1.0) - (g - 1.0) / ((g + 1.0) * cr) * (ur - s)
        return rr * np.maximum(base, 0.0) ** (2.0 / (g - 1.0))

    if num <= 0.0:
        tail_l = ul + 2.0 * cl / (g - 1.0)
        tail_r = ur - 2.0 * cr / (g - 1.0)
        mid_l = mid_r = np.zeros_like(xi)
        split = 0.5 * (tail_l + tail_r)
    else:
        p_star = (num / (cl / pl ** z + cr / pr ** z)) ** (1.0 / z)
        if p_star > min(pl, pr):
            raise ValueError("not a two-rarefaction Riemann problem")
        u_star = ul - 2.0 * cl / (g - 1.0) * ((p_star / pl) ** z - 1.0)
        tail_l = u_star - cl * (p_star / pl) ** z
        tail_r = u_star + cr * (p_star / pr) ** z
        mid_l = np.full_like(xi, rl * (p_star / pl) ** (1.0 / g))
        mid_r = np.full_like(xi, rr * (p_star / pr) ** (1.0 / g))
        split = u_star
    return np.select(
        [xi < ul - cl, xi < tail_l, xi < split, xi < tail_r, xi < ur + cr],
        [np.full_like(xi, rl), fan_l(xi), mid_l, mid_r, fan_r(xi)],
        np.full_like(xi, rr))


class Workload:
    name = ""
    preset = ""

    def __init__(self, pampa):
        self.pampa = pampa
        self.cfg = self.config()

    def config(self):
        return self.pampa.config.load_config(self.preset)

    def setup_overrides(self) -> dict:
        """Overrides of the preset that give the config of the first step."""
        return {}

    def largest_config(self):
        return self.cfg


class AdvectionLadder(Workload):
    name = "advection_ladder"
    preset = "advection_smooth"
    ladder = (20, 40, 80, 160, 320, 640)

    def setup_overrides(self):
        return {"n": self.ladder[0]}

    def largest_config(self):
        return self.cfg.with_overrides(n=self.ladder[-1])

    def execute(self, outdir):
        return self.pampa.run.convergence_table(self.cfg, self.ladder)

    def verify(self, rows, fields):
        problems = []
        if [r.n for r in rows] != list(self.ladder):
            problems.append("convergence table rows do not match the ladder")
        last = rows[-1]
        if not (last.order_avg is not None and last.order_avg >= 2.9
                and last.order_point is not None and last.order_point >= 2.9):
            problems.append(f"observed orders below 2.9 on the last doubling: "
                            f"avg {last.order_avg}, point {last.order_point}")
        if not math.isfinite(last.err_avg):
            problems.append("err_l1 is not finite")
        if len(fields) != len(self.ladder):
            problems.append(f"expected {len(self.ladder)} advance calls, got {len(fields)}")
        h = hashlib.sha256()
        for f in fields:
            _state_digest(h, f.avgs, f.points)
            if not (np.all(np.isfinite(f.avgs)) and np.all(np.isfinite(f.points))):
                problems.append("non-finite final state")
        return h.hexdigest(), float(last.err_avg), problems


class EulerMpRarefaction(Workload):
    name = "euler_mp_rarefaction"
    preset = "double_rarefaction"
    outputs = ("cells.csv", "nodes.csv", "diagnostics.csv", "meta.json")

    def execute(self, outdir):
        return self.pampa.run.run_to_files(self.cfg, outdir)

    def verify(self, paths, fields):
        problems = []
        outdir = Path(paths["cells"]).parent
        h = hashlib.sha256()
        for name in self.outputs:
            data = (outdir / name).read_bytes()
            h.update(name.encode())
            h.update(data)
        for name in ("cells.csv", "nodes.csv", "diagnostics.csv"):
            path = outdir / name
            with path.open() as fh:
                header = fh.readline().strip().split(",")
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if not np.all(np.isfinite(table)):
                problems.append(f"non-finite value in {name}")
            if name == "diagnostics.csv":
                for col in ("min_rho", "min_p"):
                    if not np.all(table[:, header.index(col)] > 0.0):
                        problems.append(f"{col} <= 0 in diagnostics.csv")
        field = paths["field"]
        _state_digest(h, field.avgs, field.points)
        return h.hexdigest(), self._err_l1(paths["scheme"], field), problems

    def _err_l1(self, scheme, field):
        """Normalised L1 error of the density averages against the exact
        solution (the waves stay inside the domain up to t_final)."""
        cfg = self.cfg
        ic = self.pampa.presets.IC_REGISTRY[cfg.ic]
        left = ic(cfg, np.array([cfg.a]))[0]
        right = ic(cfg, np.array([cfg.b]))[0]
        nodes = scheme.grid.nodes
        exact = _cell_averages(
            lambda x: two_rarefaction_density(x / cfg.t_final, left, right, cfg.gamma),
            nodes)
        return float(np.sum(np.abs(field.avgs[:, 0] - exact) * np.diff(nodes))
                     / (cfg.b - cfg.a))


class MhdOeShocktube(Workload):
    name = "mhd_oe_shocktube"
    preset = "mhd_shock_tube"
    t_stop = 0.005
    reference_cells = 4000  # the published reference resolution of this preset

    def config(self):
        return super().config().with_overrides(t_final=self.t_stop)

    def setup_overrides(self):
        return {"t_final": self.t_stop}

    def execute(self, outdir):
        run, cfg = self.pampa.run, self.cfg
        scheme = run.build_scheme(cfg)
        field = run.initial_field(cfg, scheme)
        field, _, _ = run.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator)
        return scheme, field

    def _pressure(self, U):
        g, bx = self.cfg.gamma, self.cfg.bx
        kin = 0.5 * np.sum(U[:, 1:4] ** 2, axis=1) / U[:, 0]
        mag = 0.5 * (bx * bx + U[:, 4] ** 2 + U[:, 5] ** 2)
        return (g - 1.0) * (U[:, 6] - kin - mag)

    def verify(self, out, fields):
        scheme, field = out
        problems = []
        decoded = self.pampa.transform.from_transformed(scheme.system, field.points)
        for label, U in (("final averages", field.avgs), ("decoded points", decoded)):
            if not np.all(np.isfinite(U)):
                problems.append(f"non-finite {label}")
            elif not (np.all(U[:, 0] > 0.0) and np.all(self._pressure(U) > 0.0)):
                problems.append(f"non-positive density or pressure in {label}")
        h = hashlib.sha256()
        _state_digest(h, field.avgs, field.points)
        return h.hexdigest(), self._err_l1(field), problems

    def _err_l1(self, field):
        """Normalised L1 distance of the density averages to pampa's
        first-order LLF reference on 4000 cells, averaged onto this grid.
        There is no exact solution; this tracks accuracy drift."""
        if not hasattr(self, "_reference"):
            _, U, _ = self.pampa.run.reference_solution(self.cfg, self.reference_cells)
            self._reference = U[:, 0].reshape(self.cfg.n, -1).mean(axis=1)
        return float(np.mean(np.abs(field.avgs[:, 0] - self._reference)))


WORKLOADS = {w.name: w for w in (AdvectionLadder, EulerMpRarefaction, MhdOeShocktube)}
