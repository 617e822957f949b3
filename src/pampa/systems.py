"""Equation systems: linear advection, Burgers, compressible Euler, ideal MHD.

Each system provides the algebraic flux, pointwise and pairwise wave-speed
estimates, the predicate, margin and `guard` rule of its invariant domain G
(the interval [u_min, u_max] of a scalar law; positive density and pressure
for Euler and MHD), primitive<->conservative converters and the names of
its components. States are float ndarrays whose last axis holds the d
components, so every operation works on a single state or a whole field at
once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError

# Guard rules (what is needed, lo, hi): the values must lie in [lo, hi], so
# "finite" is [-max, max] and "positive" starts at the least positive double.
_BIG = float(np.finfo(float).max)
FINITE = ("finite values", -_BIG, _BIG)
POSITIVE = ("positive, finite density and pressure", 5e-324, _BIG)


def guard(kind: str, states, values, rule, offset: int = 0, count=None):
    """The one located check of G: raise DomainError unless every entry of
    `values` (a quantity of `states`, row for row; 0-d is one row) lies in
    the closed interval of `rule`. Rows before `offset` and from
    offset+count on are ghost images of the others, so the first bad row
    in between, counted from offset, is named as `{kind} {j}`."""
    need, lo, hi = rule
    # ufunc reductions: ndarray.min/max are Python wrappers around them
    if not values.size or (np.minimum.reduce(values, axis=None) >= lo
                           and np.maximum.reduce(values, axis=None) <= hi):
        return  # a nan fails both
    if np.ndim(values) == 0:
        values, states = np.reshape(values, 1), np.asarray(states)[None]
    inner = values[offset:][:count]
    ok = ((inner >= lo) & (inner <= hi)).reshape(len(inner), -1).all(axis=-1)
    j = int(np.argmin(ok))
    raise DomainError(f"{kind} {j} needs {need}, got {states[offset + j]}")


def _finite(U):
    return np.all(np.isfinite(U), axis=-1)


class ScalarLaw:
    """Scalar conservation law u_t + f(u)_x = 0 with invariant interval G.

    flux_fn is f of the value array u. The wave speed is computed or one
    number: dflux_fn and speed_fn are f' and the wave speed |f'| of u, the
    speed as one kernel call (Burgers' np.abs); a law whose f' is one
    positive constant c gives `constant_speed` = c instead (advection's
    1.0). `PampaScheme` then reads c itself, and the speed methods below
    fill arrays with it for the callers that want one speed per state."""

    nvars = 1
    conservative_names = primitive_names = ("u",)

    def __init__(self, flux_fn: Callable, u_min: float, u_max: float,
                 name: str = "scalar", *, dflux_fn: Callable | None = None,
                 speed_fn: Callable | None = None,
                 constant_speed: float | None = None):
        if not u_min < u_max:
            raise DomainError(f"need u_min < u_max, got [{u_min}, {u_max}]")
        if not (math.isfinite(u_min) and math.isfinite(u_max)):
            raise ConfigError(f"need finite u_min and u_max, got [{u_min}, {u_max}]")
        if constant_speed is not None:
            dflux_fn = speed_fn = self._constant
        self.flux_fn = flux_fn
        self.dflux_fn = dflux_fn
        self.speed_fn = speed_fn
        self.constant_speed = constant_speed
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.domain_rule = (f"values in [{self.u_min}, {self.u_max}]",
                            self.u_min, self.u_max)
        self.name = name

    def _constant(self, u):
        return np.full(np.shape(u), self.constant_speed)

    # p (the pressure that gas systems accept precomputed) is ignored

    def flux(self, U, p=None):
        return self.flux_fn(U[..., 0])[..., None]

    def max_wave_speed(self, U, p=None):
        return self.speed_fn(U[..., 0])

    def wave_speed_range(self, U, p=None):
        s = self.dflux_fn(U[..., 0])
        return s, s

    def pair_speed(self, UL, UR, pL=None, pR=None):
        return np.maximum(self.max_wave_speed(UL), self.max_wave_speed(UR))

    def in_domain(self, U):
        return self.domain_check(U)[0]

    def domain_check(self, U):
        """(in_domain(U), margin): the margin is the distance to the nearer
        end of [u_min, u_max], negative outside."""
        u = U[..., 0]
        with np.errstate(invalid="ignore"):
            ok = (u >= self.u_min) & (u <= self.u_max)
        return ok & _finite(U), np.minimum(u - self.u_min, self.u_max - u)

    def primitive(self, U):
        return U

    def from_primitive(self, prim):
        return prim


def advection(u_min: float, u_max: float) -> ScalarLaw:
    """u_t + u_x = 0: every wave moves at the constant speed 1."""
    return ScalarLaw(lambda u: u, u_min, u_max, name="advection",
                     constant_speed=1.0)


def burgers(u_min: float, u_max: float) -> ScalarLaw:
    """u_t + (u^2/2)_x = 0."""
    return ScalarLaw(lambda u: 0.5 * u * u, u_min, u_max, name="burgers",
                     dflux_fn=lambda u: u, speed_fn=np.abs)


class _Gas:
    """What Euler and ideal MHD share: the positivity domain (density and
    pressure), its predicate and margin, the guarded pressure, the flux and
    the wave speeds with an optional precomputed pressure p of U (without
    it they compute and guard their own), the primitive decode and the wall
    reflections. Each system supplies the formulas `_pressure`, `_flux` and
    the signal speed `_fast_speed`, its momentum columns `_velocity` (which
    `primitive` and the gas encode divide by rho), and
    `conservative(rho, prim, p)`, the encode that reads only the middle
    columns of prim (velocities and fields), so that the gas decode can
    hand it W itself with the decoded rho and p."""

    domain_rule = POSITIVE
    constant_speed = None             # the speeds depend on the state
    # sign of each conservative (and transformed) component under a wall
    # reflection: only the normal momentum (velocity) flips
    _reflection: np.ndarray
    _velocity: slice

    def __init__(self, gamma: float):
        self.gamma = float(gamma)
        if not 1.0 < self.gamma < math.inf:
            raise ConfigError(f"gamma must be a finite number above 1, got {gamma}")

    def pressure(self, U, check: bool = True):
        """Pressure of the states U.

        check=True guards the densities (`state j` is the row at fault).
        check=False is the unguarded form, for states a caller has already
        checked and for predicates that want nan or inf back from states
        outside G.
        """
        rho = U[..., 0]
        if check:
            guard("state", U, rho, POSITIVE)
        return self._pressure(U, rho)

    def flux(self, U, p=None):
        if p is None:
            p = self.pressure(U)
            guard("state", U, p, FINITE)
        return self._flux(U, p)

    def fast_speed(self, U, p=None):
        """The system's signal speed; p is clipped at 0."""
        return self._fast_speed(
            U, np.maximum(self.pressure(U) if p is None else p, 0.0))

    def in_domain(self, U):
        return self.domain_check(U)[0]

    def domain_check(self, U):
        """(in_domain(U), margin) from one pressure: the margin is
        min(rho, p), so negative outside G."""
        with np.errstate(divide="ignore", invalid="ignore"):
            p = self.pressure(U, check=False)
            ok = (U[..., 0] > 0.0) & (p > 0.0)
        return ok & _finite(U) & np.isfinite(p), np.minimum(U[..., 0], p)

    def max_wave_speed(self, U, p=None):
        return np.abs(U[..., 1] / U[..., 0]) + self.fast_speed(U, p)

    def wave_speed_range(self, U, p=None):
        v = U[..., 1] / U[..., 0]
        c = self.fast_speed(U, p)
        return v - c, v + c

    def primitive(self, U):
        """Primitive variables of U: U with its velocity columns divided by
        rho and p in the last. States outside G decode to nan or inf
        silently."""
        prim = U.copy()
        with np.errstate(divide="ignore", invalid="ignore"):
            prim[..., self._velocity] /= U[..., :1]
            prim[..., -1] = self.pressure(U, check=False)
        return prim

    def from_primitive(self, prim):
        return self.conservative(prim[..., 0], prim, prim[..., -1])

    def reflect(self, U):
        """Mirror states at a wall; conservative and transformed alike."""
        return U * self._reflection


class Euler(_Gas):
    """1D compressible Euler equations, U = (rho, rho*v, E)."""

    nvars = 3
    conservative_names = ("density", "momentum", "energy")
    primitive_names = ("density", "velocity", "pressure")
    name = "euler"
    _reflection = np.array([1.0, -1.0, 1.0])
    _velocity = slice(1, 2)

    def __init__(self, gamma: float = 1.4):
        super().__init__(gamma)

    def _pressure(self, U, rho):
        return (self.gamma - 1.0) * (U[..., 2] - 0.5 * U[..., 1] ** 2 / rho)

    def _fast_speed(self, U, p):
        """Sound speed c: the fast speed without a magnetic field."""
        return np.sqrt(self.gamma * p / U[..., 0])

    def _flux(self, U, p):
        rho, mom, E = U[..., 0], U[..., 1], U[..., 2]
        v = mom / rho
        F = np.empty(U.shape)
        F[..., 0] = mom
        F[..., 1] = mom * v + p
        F[..., 2] = v * (E + p)
        return F

    def pair_speed(self, UL, UR, pL=None, pR=None):
        return np.maximum(self.max_wave_speed(UL, pL), self.max_wave_speed(UR, pR))

    def conservative(self, rho, prim, p):
        v = prim[..., 1]
        U = np.empty(prim.shape)
        U[..., 0] = rho
        U[..., 1] = rho * v
        U[..., 2] = p / (self.gamma - 1.0) + 0.5 * rho * v * v
        return U


class IdealMHD(_Gas):
    """1D ideal MHD, U = (rho, rho*vx, rho*vy, rho*vz, By, Bz, E); Bx constant."""

    nvars = 7
    conservative_names = ("density", "mom_x", "mom_y", "mom_z", "b_y", "b_z",
                          "energy")
    primitive_names = ("density", "velocity_x", "velocity_y", "velocity_z",
                       "b_y", "b_z", "pressure")
    name = "mhd"
    _reflection = np.array([1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    _velocity = slice(1, 4)

    def __init__(self, gamma: float = 5.0 / 3.0, bx: float = 0.0):
        super().__init__(gamma)
        self.bx = float(bx)
        if not math.isfinite(self.bx):
            raise ConfigError(f"bx must be finite, got {bx}")

    def _b_squared(self, U):
        return self.bx ** 2 + U[..., 4] ** 2 + U[..., 5] ** 2

    def _pressure(self, U, rho):
        """Thermal pressure."""
        kin = 0.5 * (U[..., 1] ** 2 + U[..., 2] ** 2 + U[..., 3] ** 2) / rho
        return (self.gamma - 1.0) * (U[..., 6] - kin - 0.5 * self._b_squared(U))

    def _fast_speed(self, U, p):
        """Fast magnetoacoustic speed c_f for propagation along x."""
        rho = U[..., 0]
        a = (self.gamma * p + self._b_squared(U)) / rho
        disc = np.fmax(a * a - 4.0 * self.gamma * p * self.bx ** 2 / rho ** 2, 0.0)
        return np.sqrt(0.5 * (a + np.sqrt(disc)))

    def _flux(self, U, p):
        """Written in component rows: one transposing copy of U in and one
        copy out make every row operation contiguous, where each operation
        on a strided column of a (..., 7) array costs about twice as much.
        U.T reverses the leading axes too, and p.T with them."""
        rho, m1, m2, m3, By, Bz, E = U.T.copy()
        p = p.T
        vx, vy, vz = m1 / rho, m2 / rho, m3 / rho
        bx = self.bx
        ptot = p + 0.5 * (bx ** 2 + By ** 2 + Bz ** 2)
        bdotv = bx * vx + By * vy + Bz * vz
        F = np.empty(U.T.shape)
        F[0] = mx = rho * vx    # rho * vx * vx is (rho * vx) * vx
        F[1] = mx * vx + ptot - bx * bx
        F[2] = mx * vy - bx * By
        F[3] = mx * vz - bx * Bz
        F[4] = By * vx - bx * vy
        F[5] = Bz * vx - bx * vz
        F[6] = (E + ptot) * vx - bx * bdotv
        return F.T.copy()

    def pair_speed(self, UL, UR, pL=None, pR=None):
        sl = np.sqrt(UL[..., 0])
        sr = np.sqrt(UR[..., 0])
        vxl = UL[..., 1] / UL[..., 0]
        vxr = UR[..., 1] / UR[..., 0]
        cfl = self.fast_speed(UL, pL)
        cfr = self.fast_speed(UR, pR)
        # |v_roe|: the signed Roe average suppresses the third candidate
        # when both states move the same way, and sampled pairs with fast
        # common motion then violate the splitting property
        v_roe = np.abs(sl * vxl + sr * vxr) / (sl + sr)
        base = np.maximum(
            np.maximum(np.abs(vxl) + cfl, np.abs(vxr) + cfr),
            v_roe + np.maximum(cfl, cfr),
        )
        db = np.sqrt(
            (UL[..., 4] - UR[..., 4]) ** 2 + (UL[..., 5] - UR[..., 5]) ** 2
        )
        return base + db / (sl + sr)

    def conservative(self, rho, prim, p):
        vx, vy, vz = prim[..., 1], prim[..., 2], prim[..., 3]
        By, Bz = prim[..., 4], prim[..., 5]
        b2 = self.bx ** 2 + By ** 2 + Bz ** 2
        v2 = vx * vx + vy * vy + vz * vz
        U = np.empty(prim.shape)
        U[..., 0] = rho
        U[..., 1] = rho * vx
        U[..., 2] = rho * vy
        U[..., 3] = rho * vz
        U[..., 4:6] = prim[..., 4:6]
        U[..., 6] = p / (self.gamma - 1.0) + 0.5 * rho * v2 + 0.5 * b2
        return U
