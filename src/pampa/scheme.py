"""The IDP PAMPA spatial operator.

Cell averages evolve in conservative form through numerical fluxes built
from limited one-sided endpoint values; point values evolve the transformed
variables W through an upwinded non-conservative residual that uses the
original node values and the limited midpoints. One `residual` call applies
the full per-stage pipeline: oscillation control (OE or MP), then the
scaling IDP limiter, then flux/residual assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import limiters, mesh, transform
from .errors import FINITE, ConfigError, guard
from .systems import GasState, ScalarLaw


class DofField:
    """Discrete solution in one (n+6) + (n+5) by d buffer `data`: averages
    of cells -3..n+2, then transformed point values of nodes -2..n+2. The
    views `avgs` and `points` (n of them if periodic, else n+1) are its
    interior; stage entries fill the ghost rows in place. A residual's
    rates share the layout and unpack as `da, dp = rates`."""

    def __init__(self, avgs, points):
        """A field holding copies of the (n, d) avgs and the (m, d) points."""
        n = len(avgs)
        self.data = np.zeros((2 * n + 11,) + np.shape(avgs)[1:])
        self._rows = slice(3, n + 3), slice(n + 8, n + 8 + len(points))
        self.avgs[...], self.points[...] = avgs, points

    avgs = property(lambda self: self.data[self._rows[0]])
    points = property(lambda self: self.data[self._rows[1]])

    def __iter__(self):
        return iter((self.avgs, self.points))

    def like(self, data: np.ndarray) -> "DofField":
        """The field over `data`, a buffer of this layout (no copy)."""
        out = DofField.__new__(DofField)
        out.data, out._rows = data, self._rows
        return out

    def copy(self) -> "DofField":
        return self.like(self.data.copy())


class StageEntry(NamedTuple):
    """A stage's checked input (a tuple builds 4x faster than a frozen
    dataclass): averages A of cells -3..n+2, points Wx of nodes -2..n+2 and
    their decode Ux, the derivations (`GasState`: rho, v_x, p, B^2) of Ux
    and A (None for scalar laws), the speeds of Ux and A and, for OE, A's
    range v -+ c. A law with a constant speed has no speed arrays (None)
    but those OE reads, A's speeds and range."""

    A: np.ndarray
    Wx: np.ndarray
    Ux: np.ndarray
    node: GasState | None
    avg: GasState | None
    speed_node: np.ndarray | None
    speed_avg: np.ndarray | None
    range_avg: tuple | None


OSCILLATION_KINDS = ("none", "oe", "mp")


@dataclass(frozen=True)
class LimiterConfig:
    idp: bool = True
    oscillation: str = "none"  # one of OSCILLATION_KINDS

    def __post_init__(self):
        if self.oscillation not in OSCILLATION_KINDS:
            raise ConfigError(f"unknown oscillation control {self.oscillation!r}")


def check_cfl(cfl: float) -> None:
    """Raise ConfigError unless 0 < cfl <= 1/6: the IDP guarantee for the
    cell averages needs lambda*dt/dx <= 1/6."""
    if not 0.0 < cfl <= 1.0 / 6.0 + 1e-15:
        raise ConfigError(
            f"cfl must lie in (0, 1/6] for the IDP guarantee, got {cfl}"
        )


def llf_flux(system, UL, UR, check=True):
    """Local Lax-Friedrichs flux 0.5*(F(UL) + F(UR)) - 0.5*lam*(UR - UL)
    with the pairwise IDP wave speed lam, as the law's `interface_flux`
    builds it (a gas from one derivation of both sides, a law with a
    constant speed c with lam = c). check=True checks the states as `flux`
    does; check=False is for states known to be blends of checked ones.
    Exactly consistent: identical inputs give F(U) bit for bit, because
    0.5*(F+F) and the zero jump term introduce no rounding.
    """
    return system.interface_flux(UL, UR, check)


class PampaScheme:
    """Spatial discretisation bundle: system + grid + BC + limiter config."""

    def __init__(self, system, grid: mesh.Grid1D, bc: str,
                 limiter: LimiterConfig | None = None):
        mesh.check_bc(bc, system)
        self.system = system
        self.grid = grid
        self.bc = bc
        self.limiter = limiter or LimiterConfig()
        self.scalar = isinstance(system, ScalarLaw)
        # the grid and the BC never change: the sizes and the grid factors
        # are built once, the factors at the (cells, d) shape of the arrays
        # they scale (see oe_geometry), and with a constant speed c the
        # step of cfl 1, min(dx)/c (x -> x/c is monotone, so that is the
        # least of the cells' dx/c bit for bit)
        n, d = grid.n_cells, system.nvars
        self.n = n
        self.n_points = n if bc == mesh.PERIODIC else n + 1
        self._split = n + 6           # a field buffer holds A in rows :split
        self._blocks = np.array([0, self._split])   # and Wx in rows split:
        # a scalar law's rules: its averages in G, which the limiter needs
        # (else finite), and finite points; as (lo, hi) of each
        self._avg_rule = system.domain_rule if self.limiter.idp else FINITE
        self._bounds = self._avg_rule[1:] + FINITE[1:]
        c = system.constant_speed
        # a constant speed without OE has no speed arrays to take, and a
        # unit speed multiplies nothing (x * 1.0 is x bit for bit)
        self._speedless = c is not None and self.limiter.oscillation != "oe"
        self._unit_speed = c == 1.0
        self._unit_dt = (None if c is None
                         else float(np.minimum.reduce(grid.cell_sizes)) / c)
        # the ghost rows of both blocks of a field buffer and the rows they
        # copy, as flat indices of its entries, and at walls each copied
        # entry's sign
        ga, sa, mirror = mesh.ghost_map(n + 6, bc, mesh.AVG_GHOST)
        gp, sp, _ = mesh.ghost_map(n + 5, bc, mesh.PT_GHOST, nodal=True)
        ghost, src = np.r_[ga, gp + self._split], np.r_[sa, sp + self._split]
        self._ghost = (ghost[:, None] * d + np.arange(d)).ravel()
        self._ghost_src = (src[:, None] * d + np.arange(d)).ravel()
        self._ghost_sign = (np.tile(system._reflection, len(ghost)) if mirror
                            else None)
        dxx = mesh.extend_cell_sizes(grid, bc)                   # cells -3..n+2
        self._dxx = np.repeat(dxx[:, None], d, axis=1)
        self._oe_geometry = (limiters.oe_geometry(dxx[1 : n + 5], d)  # cells -2..n+1
                             if self.limiter.oscillation == "oe" else None)

    # -- stage entry ----------------------------------------------------------

    def guard(self, field: DofField) -> tuple:
        """The one check of a stage's input: `field` with its ghost rows
        filled in place (A, Wx: views of field.data) and decoded, as (A, Wx,
        Ux, node, avg) of `StageEntry`, unless DomainError names its
        first bad cell or node. Points and averages must be finite and, for
        systems, have positive density and pressure; with the IDP limiter, a
        scalar law's averages must lie in [u_min, u_max]. A system's points
        are checked as U, which a finite W may overflow; a scalar law's as
        W, whose inf clips to a finite u. For a system the caller holds
        np.errstate(all="ignore") around the call (`stage_entry`, and
        `run.advance` for the final field), so an overflow or a bad state
        reaches the checks as inf or nan and not as a warning."""
        sys = self.system
        ga, gp, g = mesh.AVG_GHOST, mesh.PT_GHOST, sys.domain_rule
        data, split = field.data, self._split
        vals = data.take(self._ghost_src)      # one gather, one scatter
        if self._ghost_sign is not None:
            vals *= self._ghost_sign
        data.put(self._ghost, vals)
        A, Wx = data[:split], data[split:]     # cells -3..n+2, nodes -2..n+2
        if self.scalar:
            Ux = transform.from_transformed(sys, Wx)
            # the extremes of both blocks of the buffer in one reduction
            # pair; only a failure (a nan fails every test) runs the located
            # guards, which name the first bad node or cell
            low = np.minimum.reduceat(data, self._blocks, axis=0)
            high = np.maximum.reduceat(data, self._blocks, axis=0)
            lo, hi, w_min, w_max = self._bounds
            if not (lo <= low[0, 0] and high[0, 0] <= hi
                    and w_min <= low[1, 0] and high[1, 0] <= w_max):
                guard("point", Ux, Wx, FINITE, gp)
                guard("average", A, A, self._avg_rule, ga)
            return A, Wx, Ux, None, None
        Ux, node = transform.from_transformed(sys, Wx, with_state=True)
        avg = sys.derive(A)
        guard("point", Ux, Ux, FINITE, gp)
        guard("average", A, A[:, 0], g, ga, more=avg.p)
        guard("point", Ux, Ux[:, 0], g, gp, more=node.p)
        return A, Wx, Ux, node, avg

    def stage_entry(self, field: DofField) -> StageEntry:
        """`guard(field)` with its wave speeds; `advance` builds one per step.
        For a gas the guard's decode and derivations and the speeds run
        under one np.errstate: a speed that overflows is inf, which `max_dt`
        names. A law with a constant speed takes only the speeds OE reads."""
        if self.scalar:
            return self._with_speeds(*self.guard(field))
        with np.errstate(all="ignore"):
            return self._with_speeds(*self.guard(field))

    def _with_speeds(self, A, Wx, Ux, node, avg) -> StageEntry:
        if self._speedless:
            return StageEntry(A, Wx, Ux, node, avg, None, None, None)
        sys, rng, speed_node, speed_avg = self.system, None, None, None
        computed = sys.constant_speed is None
        if self.limiter.oscillation == "oe":
            # OE reads the range; max(|v - c|, |v + c|) is |v| + c bit for bit
            rng = lo, hi = sys.wave_speed_range(A, avg)
            speed_avg = np.maximum(np.abs(lo), np.abs(hi))
        elif computed:
            speed_avg = sys.max_wave_speed(A, avg)
        if computed:
            speed_node = sys.max_wave_speed(Ux, node)
        return StageEntry(A, Wx, Ux, node, avg, speed_node, speed_avg, rng)

    # -- residuals ----------------------------------------------------------

    def residual(self, field: DofField, dt: float, record: dict | None = None,
                 *, entry: StageEntry | None = None):
        """Semi-discrete rates (d avgs/dt, d points/dt) for one stage.

        The entry (built here unless given) was checked where it was built,
        by `guard`. Every later state of the stage is one of its states or a
        convex blend of them, so each state set is derived once (rho, v_x,
        p and B^2), unguarded, and handed to each consumer. The rates come
        as a field of `field`'s layout with zero ghost rows.
        """
        sys = self.system
        lim = self.limiter
        n, m = self.n, self.n_points
        e = self.stage_entry(field) if entry is None else entry
        A, Wx, Ux, dxx = e.A, e.Wx, e.Ux, self._dxx

        # limited triples (left, mid, right) for cells -1..n (index c+1)
        cel_a = A[2 : n + 4]                                     # cells -1..n
        u_l = Ux[1 : n + 3]
        u_r = Ux[2 : n + 4]
        theta_oe = None
        mp_changed = 0

        if lim.oscillation == "oe":
            c = slice(1, n + 5)                                  # cells -2..n+1
            lo, hi = e.range_avg
            theta_oe = limiters.oe_theta(A[c], Ux[0 : n + 4], Ux[c],
                                         self._oe_geometry, dt, lo[c], hi[c],
                                         e.speed_avg[c])
            u_l, u_m, u_r = limiters.oe_apply(theta_oe, cel_a, u_l, u_r)
        elif lim.oscillation == "mp":
            w_avg = transform.to_transformed(sys, A, e.avg)
            # row 0: right endpoints of cells -1..n; row 1: left endpoints
            w_lim = limiters.mp_limit(w_avg, Wx)
            # the node values MP limited, as one view of Wx (a block of the
            # field buffer): row 0 at nodes 0..n+1, row 1 one node earlier
            s0 = Wx.strides[0]
            w_in = np.ndarray(w_lim.shape, Wx.dtype, Wx, 2 * s0, (-s0,) + Wx.strides)
            mp_changed = int(np.count_nonzero(w_lim != w_in))
            u_r, u_l = transform.from_transformed(
                sys, w_lim.reshape(-1, w_lim.shape[-1])).reshape(w_lim.shape)
            u_m = limiters.midpoint_value(cel_a, u_l, u_r)
        else:
            u_m = limiters.midpoint_value(cel_a, u_l, u_r)

        if lim.idp:
            # a scalar law derives nothing (its entry's derivations are None)
            hat_l, hat_m, hat_r, theta, mid = sys.scaling_limit(
                cel_a, u_l, u_m, u_r, e.avg and e.avg.rows(slice(2, n + 4)))
        else:
            # an unlimited midpoint may leave G: its derivation is checked
            # once for the encode and speeds (row j: cell j - 1's midpoint)
            hat_l, hat_m, hat_r = u_l, u_m, u_r
            mid = sys.checked_state(hat_m)
            theta = np.ones(n + 2)

        # interface fluxes at nodes 0..n from one-sided limited states,
        # blends of guarded states (so unchecked)
        fluxes = llf_flux(sys, hat_r[0 : n + 1], hat_l[1 : n + 2], check=False)
        rates = field.like(np.zeros(field.data.shape))
        rows_avg, rows_pt = rates._rows
        np.divide(-(fluxes[1:] - fluxes[:-1]), dxx[3 : n + 3], out=rates.data[rows_avg])

        # point residual at owned nodes
        w_mid = transform.to_transformed(sys, hat_m, mid)
        # alpha must dominate the node's own spectral radius for the
        # splitting to upwind correctly; the midpoint speeds enter as an
        # enlargement but are capped at twice the largest physical speed in
        # the neighbourhood: a midpoint floored to eps-scale density with a
        # strong transverse field carries an Alfven speed ~ |B|/sqrt(eps)
        # (10 orders above the flow scale), which would otherwise make the
        # point update explode at any practical time step. With a constant
        # speed c every speed and every cap min(c, 2c) is c, so alpha is c.
        alpha = sys.constant_speed
        if alpha is None:
            speed_node, speed_avg = e.speed_node, e.speed_avg[2 : m + 3]
            neighborhood = np.maximum(
                np.maximum(speed_node[1 : m + 1], speed_node[2 : m + 2]),
                speed_node[3 : m + 3],
            )
            neighborhood = np.maximum(
                neighborhood, np.maximum(speed_avg[0:m], speed_avg[1 : m + 1]))
            cap = 2.0 * neighborhood
            speed_mid = sys.max_wave_speed(hat_m, mid)
            alpha = np.maximum(
                speed_node[2 : m + 2],
                np.maximum(np.minimum(speed_mid[0:m], cap),
                           np.minimum(speed_mid[1 : m + 1], cap)),
            )[:, None]

        # upwind split: (J - alpha) delta_m / dx_right + (J + alpha) delta_p
        # / dx_left, with J linear, so one Jacobian action serves both sides:
        # delta_m = -1.5 w_here + 2 w_mid - 0.5 w_next and delta_p = 0.5 w_prev
        # - 2 w_mid + 1.5 w_here, from multiples taken once ((-a) + b is b - a
        # bit for bit); half holds 0.5 w_prev and 0.5 w_next
        here, mid2, half = 1.5 * Wx[2 : m + 2], 2.0 * w_mid, 0.5 * Wx[1 : m + 3]
        delta_m = ((mid2[1 : m + 1] - here) - half[2:]) / dxx[3 : m + 3]
        delta_p = ((half[:m] - mid2[0:m]) + here) / dxx[2 : m + 2]
        del here, mid2, half  # not held through the Jacobian action
        jd = transform.apply_jacobian(sys, Ux[2 : m + 2], delta_m + delta_p,
                                      e.node and e.node.rows(slice(2, m + 2)))
        jump = delta_m - delta_p
        np.negative(jd - (jump if self._unit_speed else alpha * jump),
                    out=rates.data[rows_pt])

        if record is not None:
            record["theta"] = theta
            record["mid_hat"] = hat_m[1 : n + 1]
            record["idp_active"] = int(np.count_nonzero(theta < 1.0))
            record["theta_oe"] = theta_oe
            record["oe_active"] = (
                0 if theta_oe is None
                else int(np.count_nonzero(theta_oe < 1.0 - 1e-12))
            )
            record["mp_active"] = mp_changed
        return rates

    # -- time-step control ---------------------------------------------------

    def max_dt(self, field: DofField, cfl: float,
               entry: StageEntry | None = None) -> float:
        """CFL time step: cfl * min_j dx_j / lambda_j with lambda_j the
        largest wave speed over the cell average and its endpoint states
        from the checked entry of `field` (built here unless given); with a
        constant speed c, cfl * (min_j dx_j / c), whatever the states.

        Cells with lambda_j = 0 (dx/0 = inf) are skipped; with none left the
        step is unbounded (inf). An infinite speed (dx/inf = 0) of a state in
        G is a failure: DomainError names the cell. The entry holds node n
        (periodic: node 0), so node speeds j and j+1 bound cell j.
        """
        check_cfl(cfl)
        e = self.stage_entry(field) if entry is None else entry
        if self._unit_dt is not None:  # a constant speed
            return cfl * self._unit_dt
        n = self.n
        s_node = e.speed_node[mesh.PT_GHOST : mesh.PT_GHOST + n + 1]
        lam = np.maximum(e.speed_avg[mesh.AVG_GHOST : mesh.AVG_GHOST + n],
                         np.maximum(s_node[:-1], s_node[1:]))
        with np.errstate(divide="ignore"):
            ratios = self.grid.cell_sizes / lam
        dt = cfl * float(np.minimum.reduce(ratios))
        if not dt > 0.0:  # an infinite (or nan) speed
            guard("wave speed of cell", lam, lam, FINITE)
        return dt

    # -- boundary fix-ups ----------------------------------------------------

    def finish_stage(self, field: DofField) -> DofField:
        """Reflective walls: the boundary node of `field`, a stage's own new
        buffer, keeps zero normal velocity (value and mirror averaged)."""
        if self.bc != mesh.REFLECTIVE:
            return field
        pts = field.points
        pts[0] = 0.5 * (pts[0] + self.system.reflect(pts[0]))
        pts[-1] = 0.5 * (pts[-1] + self.system.reflect(pts[-1]))
        return field

