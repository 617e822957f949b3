"""Equation systems: linear advection, Burgers, compressible Euler, ideal MHD.

Each system provides the algebraic flux, pointwise and pairwise wave-speed
estimates, the LLF flux of an interface (`interface_flux`), the predicate,
margin and `guard` rule of its invariant domain G
(the interval [u_min, u_max] of a scalar law; positive density and pressure
for Euler and MHD), primitive<->conservative converters and the names of
its components, and owns its numerics of the W variables (`transform`):
`encode`, `decode`, `jacobian_action` and its IDP `scaling_limit`. States
are float ndarrays whose last axis holds the d components, so every
operation works on a single state or a whole field at once.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import limiters
from .errors import FINITE, POSITIVE, ConfigError, DomainError, guard
from .transform import _inv_softplus, _softplus_deriv_inv, softplus


def _finite(U):
    return np.all(np.isfinite(U), axis=-1)


class GasState(NamedTuple):
    """A gas's derivation of states U (`derive`), arrays of U's leading
    shape: rho, v_x = (rho v_x) / rho, p and B^2 (None for Euler)."""

    rho: np.ndarray
    vx: np.ndarray
    p: np.ndarray
    b2: np.ndarray | None

    def rows(self, s):
        """The derivation of U[s], bit for bit: each array's rows s."""
        rho, vx, p, b2 = self
        return GasState(rho[s], vx[s], p[s], None if b2 is None else b2[s])


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
        self._unit_speed = constant_speed == 1.0   # x * 1.0 is x bit for bit
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.domain_rule = (f"values in [{self.u_min}, {self.u_max}]",
                            self.u_min, self.u_max)
        self.name = name

    def _constant(self, u):
        return np.full(np.shape(u), self.constant_speed)

    # state (what gas systems accept precomputed) is ignored

    def flux(self, U):
        return self.flux_fn(U[..., 0])[..., None]

    def max_wave_speed(self, U, state=None):
        return self.speed_fn(U[..., 0])

    def wave_speed_range(self, U, state=None):
        s = self.dflux_fn(U[..., 0])
        return s, s

    def pair_speed(self, UL, UR):
        return np.maximum(self.max_wave_speed(UL), self.max_wave_speed(UR))

    def interface_flux(self, UL, UR, check=True):
        """The LLF flux of `scheme.llf_flux`, from one flux per side; with a
        constant speed c, lam = c for every pair."""
        lam = self.constant_speed
        if lam is None:
            lam = self.pair_speed(UL, UR)[..., None]
        return 0.5 * (self.flux(UL) + self.flux(UR)) - 0.5 * lam * (UR - UL)

    def derive(self, U, p=None, b2=None):
        """A scalar law derives nothing from its states."""
        return None

    checked_state = derive

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

    def encode(self, U, state=None):
        """The clipped-ReLU map's inverse on [u_min, u_max]: w in [0, 1]."""
        return (U - self.u_min) / (self.u_max - self.u_min)

    def decode(self, W):
        """(u, None, None): the clipped ReLU, in G for every w."""
        span = self.u_max - self.u_min
        return span * np.minimum(np.maximum(W, 0.0), 1.0) + self.u_min, None, None

    def jacobian_action(self, U, vec, state=None):
        """f'(u) * vec; with a constant speed c, c * vec, which for c = 1
        is vec itself."""
        c = self.constant_speed
        if c is None:
            return self.dflux_fn(U[..., 0])[..., None] * vec
        return vec if self._unit_speed else c * vec

    def scaling_limit(self, avg, left, mid, right, avg_state=None):
        """The scalar limiter on [u_min, u_max]; no midpoint derivation."""
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
    pressure), its predicate and margin, the guarded pressure, one
    derivation per state set (`derive`: rho, v_x, p and B^2) from which the
    flux, the wave speeds and the interface flux read, the primitive decode,
    the wall reflections, the Softplus-entropy map W <-> U and the two-stage
    scaling limiter. Each system supplies the formulas `_b_squared` (None
    without a field), `_pressure`, `_flux`, the signal speed `_fast_speed`,
    the IDP speed of a stack of pairs `_pair_speed` and `jacobian_action`,
    its momentum columns `_velocity` (which `primitive` and `encode` divide
    by rho), and `conservative(rho, prim, p, b2)`, the conversion that reads
    only the middle columns of prim (velocities and fields), so that
    `decode` can hand it W itself with the decoded rho and p."""

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

    def _b_squared(self, U):
        """B^2 of the states U: none without a magnetic field."""
        return None

    # derive(U, p=None, b2=None), each system's: the `GasState` of U, each
    # quantity computed once, a p or b2 given (a decode's) taken as it is;
    # unguarded, so states outside G give nan or inf silently

    def guarded_state(self, U):
        """derive(U) after guarding U's densities (`state j`)."""
        guard("state", U, U[..., 0], POSITIVE)
        return self.derive(U)

    def checked_state(self, U):
        """guarded_state(U) with its pressures guarded positive too."""
        state = self.guarded_state(U)
        guard("state", U, state.p, POSITIVE)
        return state

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

    def flux(self, U):
        """F(U), from states checked here (positive density, then finite
        pressure: `state j`)."""
        state = self.guarded_state(U)
        guard("state", U, state.p, FINITE)
        return self._flux(U, state)

    def max_wave_speed(self, U, state=None):
        """|v_x| + the signal speed; `state`: U's derivation, if known."""
        if state is None:
            state = self.guarded_state(U)
        return np.abs(state.vx) + self._fast_speed(state)

    def wave_speed_range(self, U, state=None):
        """(v_x - c, v_x + c), c the signal speed; `state` as above."""
        if state is None:
            state = self.guarded_state(U)
        c = self._fast_speed(state)
        return state.vx - c, state.vx + c

    def _stack(self, UL, UR, check):
        """UL over UR (of one shape) in one (2k, d) array, and its
        derivation; check=True guards UL's densities, then UR's."""
        S = np.empty((2,) + UL.shape)
        S[0] = UL
        S[1] = UR
        if check:
            guard("state", S[0], S[0, ..., 0], POSITIVE)
            guard("state", S[1], S[1, ..., 0], POSITIVE)
        flat = S.reshape(-1, self.nvars)
        return S, flat, self.derive(flat)

    def pair_speed(self, UL, UR):
        """The IDP wave speed of each pair of states (UL, UR)."""
        S, flat, state = self._stack(UL, UR, True)
        return self._pair_speed(flat, state).reshape(S.shape[1:-1])

    def interface_flux(self, UL, UR, check=True):
        """`scheme.llf_flux`: both fluxes and the pair speed from one
        derivation of UL stacked over UR. check=True makes `flux`'s checks
        (densities, then finite pressures, UL's first; `state j` counted
        within its side)."""
        S, flat, state = self._stack(UL, UR, check)
        if check:
            p = state.p.reshape(S.shape[:-1])
            guard("state", S[0], p[0], FINITE)
            guard("state", S[1], p[1], FINITE)
        F = self._flux(flat, state).reshape(S.shape)
        lam = self._pair_speed(flat, state).reshape(S.shape[1:-1])
        return 0.5 * (F[0] + F[1]) - (0.5 * lam)[..., None] * (UR - UL)

    def in_domain(self, U):
        return self.domain_check(U)[0]

    def domain_check(self, U):
        """(in_domain(U), margin) from one pressure: the margin is
        min(rho, p), so negative outside G."""
        with np.errstate(divide="ignore", invalid="ignore"):
            p = self.pressure(U, check=False)
            ok = (U[..., 0] > 0.0) & (p > 0.0)
        return ok & _finite(U) & np.isfinite(p), np.minimum(U[..., 0], p)

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
        return self.conservative(prim[..., 0], prim, prim[..., -1],
                                 self._b_squared(prim))

    def encode(self, U, state=None):
        """W = (q, velocities, fields, s) of U; `state`, U's derivation, is
        trusted if given, one taken here is checked (`state j`)."""
        if state is None:
            state = self.checked_state(U)
        rho = U[..., 0]
        W = U.copy()                     # the fields (MHD's By, Bz) as they are
        W[..., 0] = _inv_softplus(rho)   # rho > 0 was checked with state
        W[..., self._velocity] /= U[..., :1]
        W[..., -1] = np.log(state.p) - self.gamma * np.log(rho)
        return W

    def decode(self, W):
        """(U, p, B^2), rho = softplus(q) and p = rho^gamma e^s > 0 for any
        finite W; this p keeps digits that one recomputed from U loses if
        p << E. W holds U's fields, so B^2 (None for Euler) is W's."""
        rho = softplus(W[..., 0])
        p = np.exp(W[..., -1] + self.gamma * np.log(rho))
        b2 = self._b_squared(W)
        return self.conservative(rho, W, p, b2), p, b2

    def scaling_limit(self, avg, left, mid, right, avg_state=None):
        """`limiters.scaling_limit_system`: density, then pressure."""
        return limiters.scaling_limit_system(self, avg, left, mid, right,
                                             avg_state)

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

    def derive(self, U, p=None, b2=None) -> GasState:
        rho = U[..., 0]
        p = self._pressure(U, rho) if p is None else p
        return GasState(rho, U[..., 1] / rho, p, None)

    def _fast_speed(self, state):
        """Sound speed c, the fast speed without a field; p clipped at 0."""
        return np.sqrt(self.gamma * np.maximum(state.p, 0.0) / state.rho)

    def _flux(self, U, state):
        mom, E = U[..., 1], U[..., 2]
        v, p = state.vx, state.p
        F = np.empty(U.shape)
        F[..., 0] = mom
        F[..., 1] = mom * v + p
        F[..., 2] = v * (E + p)
        return F

    def _pair_speed(self, S, state):
        """max(|v| + c) of each pair (S[j], S[k + j]) of a (2k, 3) stack."""
        k = len(S) // 2
        speed = np.abs(state.vx) + self._fast_speed(state)
        return np.maximum(speed[:k], speed[k:])

    def jacobian_action(self, U, vec, state=None):
        """J(U) @ vec of the W form, J similar to dF/dU; `state`: U's
        derivation, if known."""
        rho, v, p, _ = self.guarded_state(U) if state is None else state
        qp = _softplus_deriv_inv(rho)
        g = self.gamma
        y = np.empty(vec.shape)           # U broadcasts against vec
        y[..., 0] = v * vec[..., 0] + qp * rho * vec[..., 1]
        y[..., 1] = (g * p / (rho * rho * qp)) * vec[..., 0] + v * vec[..., 1] \
            + (p / rho) * vec[..., 2]
        y[..., 2] = v * vec[..., 2]
        return y

    def conservative(self, rho, prim, p, b2):
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

    def _pressure(self, U, rho, b2=None):
        """Thermal pressure; b2: B^2 of U, if known."""
        b2 = self._b_squared(U) if b2 is None else b2
        kin = 0.5 * (U[..., 1] ** 2 + U[..., 2] ** 2 + U[..., 3] ** 2) / rho
        return (self.gamma - 1.0) * (U[..., 6] - kin - 0.5 * b2)

    def derive(self, U, p=None, b2=None) -> GasState:
        rho = U[..., 0]
        b2 = self._b_squared(U) if b2 is None else b2
        p = self._pressure(U, rho, b2) if p is None else p
        return GasState(rho, U[..., 1] / rho, p, b2)

    def _fast_speed(self, state):
        """Fast magnetoacoustic speed c_f along x; p clipped at 0."""
        rho, p = state.rho, np.maximum(state.p, 0.0)
        a = (self.gamma * p + state.b2) / rho
        disc = np.fmax(a * a - 4.0 * self.gamma * p * self.bx ** 2 / rho ** 2, 0.0)
        return np.sqrt(0.5 * (a + np.sqrt(disc)))

    def _flux(self, U, state):
        """Written in component rows: one transposing copy of U in and one
        copy out make every row operation contiguous, where each operation
        on a strided column of a (..., 7) array costs about twice as much.
        U.T reverses the leading axes too, and the state's arrays .T with
        them."""
        rho, m1, m2, m3, By, Bz, E = U.T.copy()
        p, vx = state.p.T, state.vx.T
        vy, vz = m2 / rho, m3 / rho
        bx = self.bx
        ptot = p + 0.5 * state.b2.T
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

    def _pair_speed(self, S, state):
        """The IDP speed of each pair (S[j], S[k + j]) of a (2k, 7) stack."""
        k = len(S) // 2
        s = np.sqrt(state.rho)
        c = self._fast_speed(state)
        vx = state.vx
        sl, sr = s[:k], s[k:]
        ssum = sl + sr
        # |v_roe|: the signed Roe average suppresses the third candidate
        # when both states move the same way, and sampled pairs with fast
        # common motion then violate the splitting property
        v_roe = np.abs(sl * vx[:k] + sr * vx[k:]) / ssum
        speed = np.abs(vx) + c
        base = np.maximum(np.maximum(speed[:k], speed[k:]),
                          v_roe + np.maximum(c[:k], c[k:]))
        jump = (S[:k, 4:6] - S[k:, 4:6]) ** 2       # of By and Bz
        return base + np.sqrt(jump[:, 0] + jump[:, 1]) / ssum

    def jacobian_action(self, U, vec, state=None):
        """J(U) @ vec of the W form, J similar to dF/dU; `state`: U's
        derivation, if known."""
        rho, vx, p, _ = self.guarded_state(U) if state is None else state
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
        y = np.empty(vec.shape)           # U broadcasts against vec
        y[..., 0] = qp * r0
        y[..., 1] = vx * dvx + (By * dBy + Bz * dBz + d_p) / rho
        y[..., 2] = vx * dvy - (bx / rho) * dBy
        y[..., 3] = vx * dvz - (bx / rho) * dBz
        y[..., 4] = By * dvx - bx * dvy + vx * dBy
        y[..., 5] = Bz * dvx - bx * dvz + vx * dBz
        y[..., 6] = -(g / rho) * r0 + r6 / p
        return y

    def conservative(self, rho, prim, p, b2):
        vx, vy, vz = prim[..., 1], prim[..., 2], prim[..., 3]
        v2 = vx * vx + vy * vy + vz * vz
        U = np.empty(prim.shape)
        U[..., 0] = rho
        U[..., 1] = rho * vx
        U[..., 2] = rho * vy
        U[..., 3] = rho * vz
        U[..., 4:6] = prim[..., 4:6]
        U[..., 6] = p / (self.gamma - 1.0) + 0.5 * rho * v2 + 0.5 * b2
        return U
