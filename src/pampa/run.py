"""Run driver: initial data, time loop, output files, convergence studies,
and the first-order reference solver."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__, mesh, transform
from .config import RunConfig, build_system
from .errors import FINITE, ConfigError, DomainError, guard
from .presets import EXACT_REGISTRY, IC_REGISTRY, finish_averages
from .scheme import DofField, LimiterConfig, PampaScheme, llf_flux
from .systems import ScalarLaw
from .timeint import make_integrator

_GAUSS5_X, _GAUSS5_W = np.polynomial.legendre.leggauss(5)
if _GAUSS5_X[2] != 0.0:
    raise RuntimeError("5-point Gauss rule: the centre node must be exactly 0, "
                       "gauss_cell_averages is anchored on it")


def gauss_cell_averages(f, grid: mesh.Grid1D) -> np.ndarray:
    """Per-cell averages of x -> (d,) states by 5-point Gauss quadrature.

    The sum is anchored on the centre node (x = 0 exactly):
    avg = v_c + 0.5 * sum_i w_i (v_i - v_c). A constant state therefore
    comes back bit for bit, whether or not the rounded weights sum to
    exactly 2; the rule stays exact for polynomials up to degree 9."""
    ctr = grid.cell_centers[:, None]
    half = 0.5 * grid.cell_sizes[:, None]
    x = ctr + half * _GAUSS5_X[None, :]  # (n, 5)
    vals = f(x)  # (n, 5, d)
    v_c = vals[:, 2]
    return v_c + 0.5 * np.sum(_GAUSS5_W[None, :, None] * (vals - v_c[:, None]), axis=1)


def build_scheme(cfg: RunConfig) -> PampaScheme:
    system = build_system(cfg)
    grid = mesh.uniform_grid(cfg.a, cfg.b, cfg.n)
    return PampaScheme(system, grid, cfg.bc,
                       LimiterConfig(idp=cfg.idp, oscillation=cfg.oscillation))


def _initial_state(cfg: RunConfig, system, x) -> np.ndarray:
    return system.from_primitive(IC_REGISTRY[cfg.ic](cfg, x))


def initial_averages(cfg: RunConfig, system, grid: mesh.Grid1D) -> np.ndarray:
    """Initial cell averages: 5-point Gauss averages of the preset's initial
    condition, clipped to [u_min, u_max] for a scalar law, as the preset
    finishes them (`presets.finish_averages`)."""
    avgs = gauss_cell_averages(lambda x: _initial_state(cfg, system, x), grid)
    if isinstance(system, ScalarLaw):
        # quadrature rounding must not push averages past the bounds
        avgs = np.clip(avgs, system.u_min, system.u_max)
    finish_averages(cfg, grid, avgs)
    return avgs


def initial_field(cfg: RunConfig, scheme: PampaScheme) -> DofField:
    system, grid = scheme.system, scheme.grid
    avgs = initial_averages(cfg, system, grid)
    nodes = grid.nodes[: scheme.n_points]
    points = transform.to_transformed(system, _initial_state(cfg, system, nodes))
    return DofField(avgs=avgs, points=points)


def advance(scheme: PampaScheme, field: DofField, t_final: float,
            cfl: float = 0.1, integrator: str = "ssp_rk3",
            on_stage=None, on_step=None):
    """Advance to t_final. The step size honours the CFL bound (as the
    integrator's `step_size` scales it) and divides the remaining time
    evenly, so constant-speed multistep runs see a truly constant dt; the
    final step clamps to the remaining time.

    A DomainError raised inside a step (a state that is not finite or has
    left G) is raised again with the step number, counted from 1 as in
    the diagnostics, the stage whose residual found it, counted from 0 as
    in `on_stage`, and the time at which that step began. Each stage's
    input is checked where its entry is built (`scheme.guard`), so the
    final field, which no stage reads, gets the same checks after the last
    step, under the np.errstate a stage entry holds and without wave
    speeds; a failure there names the last step and the stage that
    produced the field.

    A step's entry is built when the step before it ends, for
    `on_step(t, step, dt, field, entry)` first; it is None after the last
    step and where the check failed, which the next step then repeats and
    raises as its stage 0."""
    integ = make_integrator(integrator)
    t = t_step = 0.0
    step = 0
    eps_t = 1e-12 * max(1.0, abs(t_final))
    stages_done = 0  # in the current step

    def staged(t_stage, k, stage, out, record):
        nonlocal stages_done
        stages_done = stage + 1
        if on_stage:
            on_stage(t_stage, k, stage, out, record)

    entry = None
    while t < t_final - eps_t:
        remaining = t_final - t
        stages_done = 0
        try:
            if entry is None:
                entry = scheme.stage_entry(field)  # max_dt's and the first residual's
            plan = min(integ.step_size(scheme.max_dt(field, cfl, entry=entry)),
                       remaining)
            q = remaining / plan
            m = int(q) if q - int(q) < 1e-9 else int(q) + 1
            dt = remaining / max(m, 1)
            field = integ.step(scheme, field, dt, t=t, step=step,
                               on_stage=staged, entry=entry)
        except DomainError as err:
            raise DomainError(
                f"step {step + 1} stage {stages_done} (t = {t!r}): {err}") from err
        t_step = t
        t += dt
        step += 1
        entry = None
        if t < t_final - eps_t:
            try:
                entry = scheme.stage_entry(field)
            except DomainError:
                pass
        if on_step:
            on_step(t, step, dt, field, entry)
    if step:
        try:
            with np.errstate(all="ignore"):
                scheme.guard(field)
        except DomainError as err:
            raise DomainError(f"step {step} stage {stages_done - 1} "
                              f"(t = {t_step!r}): final field: {err}") from err
    return field, step, t


# ---------------------------------------------------------------------------
# output files


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = np.column_stack(columns)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_cells_csv(path, scheme, field) -> None:
    sys = scheme.system
    prim = sys.primitive(field.avgs)
    header = ["x_center", *sys.conservative_names]
    cols = [scheme.grid.cell_centers] + [field.avgs[:, k] for k in range(sys.nvars)]
    for k, name in enumerate(sys.primitive_names):
        if name not in sys.conservative_names:
            header.append(name)
            cols.append(prim[:, k])
    _write_csv(path, header, cols)


def write_nodes_csv(path, scheme, field) -> None:
    sys = scheme.system
    u = transform.from_transformed(sys, field.points)
    prim = sys.primitive(u)
    nodes = scheme.grid.nodes[: scheme.n_points]
    header = ["x", *sys.primitive_names]
    _write_csv(path, header, [nodes] + [prim[:, k] for k in range(sys.nvars)])


class DiagnosticsRecorder:
    """Streams one row per step: dt, domain margins, limiter activity, and
    the conserved totals."""

    def __init__(self, scheme: PampaScheme, path):
        self.scheme = scheme
        self.path = Path(path)
        sys = scheme.system
        self.scalar = isinstance(sys, ScalarLaw)
        state_cols = (["min_u", "max_u", "w_min", "w_max"] if self.scalar
                      else ["min_rho", "min_p"])
        totals = [f"total_{name}" for name in sys.conservative_names]
        self.header = (["step", "t", "dt"] + state_cols
                       + ["theta_min", "idp_active", "oe_active", "mp_active"]
                       + totals)
        self._fh = open(self.path, "w")
        self._fh.write(",".join(self.header) + "\n")
        self._reset()

    def _reset(self):
        self._theta_min = 1.0
        self._idp = 0
        self._oe = 0
        self._mp = 0

    def on_stage(self, t, step, stage, field, record):
        self._theta_min = min(self._theta_min,
                              float(np.minimum.reduce(record["theta"])))
        self._idp += record["idp_active"]
        self._oe += record["oe_active"]
        self._mp += record["mp_active"]

    def on_step(self, t, step, dt, field, entry=None):
        """The row of `field`; `entry`, the stage entry `advance` built of
        it, if any, holds its decoded points and its averages' pressures."""
        scheme, sys = self.scheme, self.scheme.system
        if entry is None:
            u_nodes = transform.from_transformed(sys, field.points)
        else:
            u_nodes = entry.Ux[mesh.PT_GHOST : mesh.PT_GHOST + scheme.n_points]
        totals = np.sum(scheme.grid.cell_sizes[:, None] * field.avgs, axis=0)
        if self.scalar:
            u_all = (float(np.min(field.avgs)), float(np.max(field.avgs)),
                     float(np.min(u_nodes)), float(np.max(u_nodes)))
            state = [min(u_all[0], u_all[2]), max(u_all[1], u_all[3]),
                     float(np.min(field.points)), float(np.max(field.points))]
        else:
            p_avg = (sys.pressure(field.avgs, check=False) if entry is None
                     else entry.avg.p[mesh.AVG_GHOST : mesh.AVG_GHOST + scheme.n])
            # the nodes' pressure from U, as for the averages (the decoded
            # one keeps other last bits); np.minimum(nodes, averages) keeps
            # a nan and, on a tie, the averages' value, as one reduction
            # over both would
            low = np.minimum.reduce
            state = [float(np.minimum(low(u_nodes[:, 0]), low(field.avgs[:, 0]))),
                     float(np.minimum(low(sys.pressure(u_nodes, check=False)),
                                      low(p_avg)))]
        row = ([step, t, dt] + state
               + [self._theta_min, self._idp, self._oe, self._mp]
               + [float(v) for v in totals])
        self._fh.write(",".join(_fmt(float(v)) for v in row) + "\n")
        self._reset()

    def close(self):
        self._fh.close()


def run_to_files(cfg: RunConfig, outdir, svg: bool = False,
                 snapshot_every: int = 0) -> dict:
    """Full benchmark run; writes cells/nodes/diagnostics (+ optional SVG,
    and cell snapshots every `snapshot_every` steps when it is positive)."""
    if snapshot_every < 0:
        raise ConfigError(f"snapshot_every must be at least 0, got {snapshot_every}")
    cfg = cfg.validate()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    scheme = build_scheme(cfg)
    field = initial_field(cfg, scheme)

    diag = DiagnosticsRecorder(scheme, outdir / "diagnostics.csv")
    snap_dir = outdir / "snapshots"

    def on_step(t, step, dt, fld, entry):
        diag.on_step(t, step, dt, fld, entry)
        if snapshot_every and step % snapshot_every == 0:
            snap_dir.mkdir(exist_ok=True)
            write_cells_csv(snap_dir / f"cells_{step:06d}.csv", scheme, fld)

    try:
        field, n_steps, t_end = advance(scheme, field, cfg.t_final, cfg.cfl,
                                        cfg.integrator, on_stage=diag.on_stage,
                                        on_step=on_step)
    finally:
        diag.close()

    paths = {
        "cells": outdir / "cells.csv",
        "nodes": outdir / "nodes.csv",
        "diagnostics": outdir / "diagnostics.csv",
        "meta": outdir / "meta.json",
    }
    write_cells_csv(paths["cells"], scheme, field)
    write_nodes_csv(paths["nodes"], scheme, field)
    meta = {"config": asdict(cfg), "n_steps": n_steps, "t_end": t_end,
            "version": __version__}
    paths["meta"].write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    if svg:
        from .svgplot import write_solution_svgs

        paths["svg"] = write_solution_svgs(outdir, cfg.label, scheme, field)
    paths["field"] = field
    paths["scheme"] = scheme
    return paths


# ---------------------------------------------------------------------------
# first-order local Lax-Friedrichs reference solver

PUBLISHED_REFERENCE_CELLS = {
    "blast_waves": 10000,
    "shu_osher": 300000,
    "mhd_shock_tube": 4000,
    "mhd_leblanc": 10000,
}
# the first-order LLF update keeps G for CFL <= 1/2 (a convex combination)
REFERENCE_CFL = 0.45


def reference_solution(cfg: RunConfig, n_cells: int):
    """First-order finite-volume LLF run on n_cells (cell averages only).
    Each step checks its averages as a stage entry does: DomainError names
    `step k (t = ...): average j` or, for an infinite speed, `wave speed of
    cell j`."""
    cfg = cfg.validate()
    system = build_system(cfg)
    grid = mesh.uniform_grid(cfg.a, cfg.b, n_cells)
    U = initial_averages(cfg, system, grid)
    # one ghost cell per side
    inner = slice(mesh.AVG_GHOST - 1, n_cells + mesh.AVG_GHOST + 1)
    dx = grid.cell_sizes
    t = 0.0
    step = 0
    eps_t = 1e-12 * max(1.0, cfg.t_final)
    while t < cfg.t_final - eps_t:
        step += 1
        ext = mesh.extend_averages(U, cfg.bc, system)[inner]
        try:
            with np.errstate(all="ignore"):
                state = system.derive(ext)  # None for a scalar law
                guard("average", ext, ext[:, 0], system.domain_rule, 1,
                      more=None if state is None else state.p)
                lam = system.max_wave_speed(ext, state)
                pairmax = np.maximum(lam[:-1], lam[1:])  # interface bounds
                cellmax = np.maximum(pairmax[:-1], pairmax[1:])
                dt = REFERENCE_CFL * float(np.min(dx / np.maximum(cellmax, 1e-300)))
            if not dt > 0.0:  # an infinite (or nan) speed
                guard("wave speed of cell", lam, lam, FINITE, 1)
        except DomainError as err:
            raise DomainError(f"step {step} (t = {t!r}): {err}") from err
        dt = min(dt, cfg.t_final - t)
        F = llf_flux(system, ext[:-1], ext[1:], check=False)
        U = U - (dt / dx)[:, None] * (F[1:] - F[:-1])
        t += dt
    return grid.cell_centers, U, system.primitive(U)


def write_reference_csv(cfg: RunConfig, n_cells: int, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    centers, U, prim = reference_solution(cfg, n_cells)
    system = build_system(cfg)
    path = outdir / "reference.csv"
    header = ["x_center", *system.primitive_names]
    _write_csv(path, header, [centers] + [prim[:, k] for k in range(system.nvars)])
    meta = {"config": asdict(cfg), "reference_cells": n_cells, "cfl": REFERENCE_CFL}
    pub = PUBLISHED_REFERENCE_CELLS.get(cfg.label)
    if pub is not None and pub != n_cells:
        meta["note"] = (f"benchmark-published reference resolution is {pub} cells; "
                        f"this run used {n_cells}")
    (outdir / "reference_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# convergence studies


@dataclass
class ConvergenceRow:
    n: int
    err_avg: float
    order_avg: float | None
    err_point: float
    order_point: float | None


def l1_errors(cfg: RunConfig, scheme: PampaScheme,
              field: DofField) -> tuple[float, float]:
    """Normalised l1 errors of the density (or u) cell averages and point
    values against the exact solution, exact averages by 5-point Gauss
    quadrature."""
    if cfg.exact is None:
        raise ConfigError(f"preset {cfg.label!r} has no exact solution")
    exact = EXACT_REGISTRY[cfg.exact]
    system, grid = scheme.system, scheme.grid

    def conserved(x):
        return system.from_primitive(exact(cfg, x, cfg.t_final))

    avg_ex = gauss_cell_averages(conserved, grid)
    err_avg = float(
        np.sum(np.abs(field.avgs[:, 0] - avg_ex[:, 0]) * grid.cell_sizes)
        / (cfg.b - cfg.a))
    nodes = grid.nodes[: scheme.n_points]
    u_nodes = transform.from_transformed(system, field.points)
    err_pt = float(np.mean(np.abs(u_nodes[:, 0] - conserved(nodes)[:, 0])))
    return err_avg, err_pt


def _run_errors(cfg: RunConfig) -> tuple[float, float]:
    scheme = build_scheme(cfg)
    field = initial_field(cfg, scheme)
    field, _, _ = advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator)
    return l1_errors(cfg, scheme, field)


def convergence_table(cfg: RunConfig, n_list) -> list[ConvergenceRow]:
    """Errors and observed orders over a cell-count ladder; orders are only
    reported between consecutive doublings."""
    cfgs = [cfg.with_overrides(n=int(n)) for n in n_list]
    errors = [_run_errors(c) for c in cfgs]
    rows: list[ConvergenceRow] = []
    for i, (c, (ea, ep)) in enumerate(zip(cfgs, errors)):
        oa = op = None
        if i > 0 and c.n == 2 * cfgs[i - 1].n:
            ea0, ep0 = errors[i - 1]
            if ea0 > 0 and ea > 0:
                oa = math.log2(ea0 / ea)
            if ep0 > 0 and ep > 0:
                op = math.log2(ep0 / ep)
        rows.append(ConvergenceRow(n=c.n, err_avg=ea, order_avg=oa,
                                   err_point=ep, order_point=op))
    return rows


def format_convergence(rows: list[ConvergenceRow]) -> str:
    out = [f"{'N':>6}  {'avg error':>12}  {'order':>6}  {'point error':>12}  {'order':>6}"]
    for r in rows:
        oa = f"{r.order_avg:6.2f}" if r.order_avg is not None else "     -"
        op = f"{r.order_point:6.2f}" if r.order_point is not None else "     -"
        out.append(f"{r.n:>6}  {r.err_avg:12.4e}  {oa}  {r.err_point:12.4e}  {op}")
    return "\n".join(out)


def write_convergence_csv(rows: list[ConvergenceRow], path) -> None:
    with open(path, "w") as fh:
        fh.write("n,err_avg,order_avg,err_point,order_point\n")
        for r in rows:
            oa = _fmt(r.order_avg) if r.order_avg is not None else ""
            op = _fmt(r.order_point) if r.order_point is not None else ""
            fh.write(f"{r.n},{_fmt(r.err_avg)},{oa},{_fmt(r.err_point)},{op}\n")
