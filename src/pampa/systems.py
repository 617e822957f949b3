"""Equation systems: linear advection, Burgers, compressible Euler, ideal MHD.

Each system provides the algebraic flux, pointwise and pairwise wave-speed
estimates, the predicate, margin and `guard` rule of its invariant domain G
(the interval [u_min, u_max] of a scalar law; positive density and pressure
for Euler and MHD), primitive<->conservative converters and the names of
its components, and owns its numerics of the W variables (`transform`):
`encode`, `decode`, `jacobian_action` and its IDP `scaling_limit`. States
are float ndarrays whose last axis holds the d components, so every
operation works on a single state or a whole field at once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import limiters
from .errors import FINITE, POSITIVE, ConfigError, DomainError, guard
from .transform import _softplus_deriv_inv, inv_softplus, softplus


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

    def encode(self, U, p=None):
        """The clipped-ReLU map's inverse on [u_min, u_max]: w in [0, 1]."""
        return (U - self.u_min) / (self.u_max - self.u_min)

    def decode(self, W):
        """(u, None): the clipped ReLU, in G for every w; no pressure."""
        span = self.u_max - self.u_min
        return span * np.minimum(np.maximum(W, 0.0), 1.0) + self.u_min, None

    def jacobian_action(self, U, vec, p=None):
        """f'(u) * vec; with a constant speed c, c * vec."""
        c = self.constant_speed
        if c is not None:
            return c * vec
        return self.dflux_fn(U[..., 0])[..., None] * vec

    def scaling_limit(self, avg, left, mid, right, p_avg=None):
        """The scalar limiter on [u_min, u_max]; no midpoint pressure."""
        hat_l, hat_m, hat_r, theta = limiters.scaling_limit_scalar(
            avg, left, mid, right, self.u_min, self.u_max)
        return hat_l, hat_m, hat_r, theta[..., 0], None


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
    it they compute and guard their own), the primitive decode, the wall
    reflections, the Softplus-entropy map W <-> U and the two-stage scaling
    limiter. Each system supplies the formulas `_pressure`, `_flux`, the
    signal speed `_fast_speed` and `jacobian_action`, its momentum columns
    `_velocity` (which `primitive` and `encode` divide by rho), and
    `conservative(rho, prim, p)`, the conversion that reads only the middle
    columns of prim (velocities and fields), so that `decode` can hand it
    W itself with the decoded rho and p."""

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

    def checked_pressure(self, U):
        """Pressure of the states U, guarded positive (`state j`)."""
        p = self.pressure(U)
        guard("state", U, p, POSITIVE)
        return p

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

    def encode(self, U, p=None):
        """W = (q, velocities, fields, s) of U; a p given is trusted, one
        computed here is checked (`state j`)."""
        if p is None:
            p = self.checked_pressure(U)
        rho = U[..., 0]
        W = U.copy()                     # the fields (MHD's By, Bz) as they are
        W[..., 0] = inv_softplus(rho)
        W[..., self._velocity] /= U[..., :1]
        W[..., -1] = np.log(p) - self.gamma * np.log(rho)
        return W

    def decode(self, W):
        """(U, p), rho = softplus(q) and p = rho^gamma e^s > 0 for any finite
        W; this p keeps digits that one recomputed from U loses if p << E."""
        rho = softplus(W[..., 0])
        p = np.exp(W[..., -1] + self.gamma * np.log(rho))
        return self.conservative(rho, W, p), p

    def scaling_limit(self, avg, left, mid, right, p_avg=None):
        """`limiters.scaling_limit_system`: density, then pressure."""
        return limiters.scaling_limit_system(self, avg, left, mid, right, p_avg)

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

    def jacobian_action(self, U, vec, p=None):
        """J(U) @ vec of the W form, J similar to dF/dU."""
        p = self.pressure(U) if p is None else p
        rho = U[..., 0]
        v = U[..., 1] / rho
        qp = _softplus_deriv_inv(rho)
        g = self.gamma
        y = np.empty(np.broadcast_shapes(U.shape, vec.shape))
        y[..., 0] = v * vec[..., 0] + qp * rho * vec[..., 1]
        y[..., 1] = (g * p / (rho * rho * qp)) * vec[..., 0] + v * vec[..., 1] \
            + (p / rho) * vec[..., 2]
        y[..., 2] = v * vec[..., 2]
        return y

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

    def jacobian_action(self, U, vec, p=None):
        """J(U) @ vec of the W form, J similar to dF/dU."""
        p = self.pressure(U) if p is None else p
        rho = U[..., 0]
        vx = U[..., 1] / rho
        By, Bz = U[..., 4], U[..., 5]
        qp = _softplus_deriv_inv(rho)
        g = self.gamma
        bx = self.bx
        # Tinv: W-perturbation -> primitive perturbation
        d_rho = vec[..., 0] / qp
        d_p = (g * p / rho) * d_rho + p * vec[..., 6]
        dvx, dvy, dvz = vec[..., 1], vec[..., 2], vec[..., 3]
        dBy, dBz = vec[..., 4], vec[..., 5]
        # primitive quasilinear action A @ dV, then T: primitive
        # perturbation -> W-perturbation, which changes rows 0 and 6 only
        r0 = vx * d_rho + rho * dvx
        r6 = g * p * dvx + vx * d_p
        y = np.empty(np.broadcast_shapes(U.shape, vec.shape))
        y[..., 0] = qp * r0
        y[..., 1] = vx * dvx + (By * dBy + Bz * dBz + d_p) / rho
        y[..., 2] = vx * dvy - (bx / rho) * dBy
        y[..., 3] = vx * dvz - (bx / rho) * dBz
        y[..., 4] = By * dvx - bx * dvy + vx * dBy
        y[..., 5] = Bz * dvx - bx * dvz + vx * dBz
        y[..., 6] = -(g / rho) * r0 + r6 / p
        return y

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
