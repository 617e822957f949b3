"""Automatic-IDP variable transforms W = Psi(U), inverses, and Jacobians.

The point-value scheme evolves variables chosen so that Psi^{-1}(W) lies in
the invariant domain for every finite W:

* scalar laws: u = (u_max-u_min)*min(ReLU(w), 1) + u_min (clipped ReLU);
* gas systems: W is the primitive vector with q = ln(e^rho - 1) (inverse
  Softplus) in place of rho and s = ln p - gamma*ln rho in place of p, so
  rho = ln(e^q+1) > 0 and p = rho^gamma * e^s > 0: Euler W = (q, v, s),
  MHD W = (q, vx, vy, vz, By, Bz, s).

Jacobians are for the non-conservative form W_t + J(W) W_x = 0 and are
similar to dF/dU, so their eigenvalues are the physical wave speeds.
"""

from __future__ import annotations

import numpy as np

from .systems import POSITIVE, Euler, IdealMHD, ScalarLaw, guard

# exp(x) is safe and the naive expressions are exact to rounding below this
_EXP_SWITCH = 30.0
# ln(e^x - 1) is defined, and the overflow-safe branch handles inf
_POSITIVE_ARG = ("positive values", 5e-324, np.inf)


def softplus(q):
    """ln(1 + e^q), overflow-safe for any finite q."""
    q = np.asarray(q, dtype=float)
    out = np.log1p(np.exp(np.minimum(q, _EXP_SWITCH)))
    big = q > _EXP_SWITCH
    if np.logical_or.reduce(big, axis=None):  # big.any() without its wrapper
        out = np.where(big, q + np.log1p(np.exp(-np.abs(q))), out)
    return out


def inv_softplus(x):
    """ln(e^x - 1) for x > 0, overflow-safe."""
    x = np.asarray(x, dtype=float)
    guard("argument", x, x, _POSITIVE_ARG)
    out = np.log(np.expm1(np.minimum(x, _EXP_SWITCH)))
    big = x > _EXP_SWITCH
    if np.logical_or.reduce(big, axis=None):
        out = np.where(big, x + np.log1p(-np.exp(-x)), out)
    return out


def _softplus_deriv_inv(x):
    """1/(1 - e^{-x}) = e^x/(e^x - 1), stable for x > 0."""
    return 1.0 / (-np.expm1(-x))


def to_transformed(system, U, p=None):
    """W = Psi(U); requires U strictly inside the invariant domain for systems.

    p: the pressure of U when the caller has it already and has checked it
    (systems only); without it the pressure is computed here and checked.
    """
    if isinstance(system, ScalarLaw):
        return (U - system.u_min) / (system.u_max - system.u_min)
    if p is None:
        p = system.pressure(U)
        guard("state", U, p, POSITIVE)
    rho = U[..., 0]
    W = U.copy()                     # the fields (MHD's By, Bz) as they are
    W[..., 0] = inv_softplus(rho)
    W[..., system._velocity] /= U[..., :1]
    W[..., -1] = np.log(p) - system.gamma * np.log(rho)
    return W


def primitive_from_transformed(system, W):
    """Decode W straight to primitive variables.

    The decoded density (Softplus) and pressure (rho^gamma * e^s) are
    strictly positive floats for any finite W; recovering p from the
    conservative vector instead would bury it under the kinetic-energy
    rounding noise whenever p << E.
    """
    if isinstance(system, ScalarLaw):
        span = system.u_max - system.u_min
        return span * np.minimum(np.maximum(W, 0.0), 1.0) + system.u_min
    prim = W.copy()
    prim[..., 0], prim[..., -1] = _density_pressure(system, W)
    return prim


def _density_pressure(system, W):
    """The decoded rho = softplus(q) and p = rho^gamma * e^s of a gas."""
    rho = softplus(W[..., 0])
    return rho, np.exp(W[..., -1] + system.gamma * np.log(rho))


def from_transformed(system, W, with_pressure: bool = False):
    """U = Psi^{-1}(W); lands in the invariant domain for every finite W.

    with_pressure=True returns (U, p) with the decoded pressure p (None for
    scalar laws), which is more accurate than one recomputed from U.
    """
    if isinstance(system, ScalarLaw):
        U = primitive_from_transformed(system, W)
        return (U, None) if with_pressure else U
    rho, p = _density_pressure(system, W)
    # W holds the primitive velocities and fields: no primitive copy
    U = system.conservative(rho, W, p)
    return (U, p) if with_pressure else U


def jacobian_transformed(system, U):
    """Jacobian matrices of the W-variable quasilinear form at the states U
    (in G), built column by column from apply_jacobian on the identity, so
    they are the hot path's own action."""
    d = U.shape[-1]
    eye = np.broadcast_to(np.eye(d), U.shape[:-1] + (d, d))
    # row k of the result is J e_k, i.e. column k of J
    return np.swapaxes(apply_jacobian(system, U[..., None, :], eye), -1, -2)


def apply_jacobian(system, U, vec, p=None):
    """J(U) @ vec without materialising the matrices (hot path).

    vec has the shape of the result, and U broadcasts against it
    (`jacobian_transformed` hands in (..., 1, d) states and the identities
    at (..., d, d)). p: the pressure of U when the caller has it already
    (systems only). A law with a constant speed c has J = c: c * vec.
    """
    if isinstance(system, ScalarLaw):
        c = system.constant_speed
        if c is not None:
            return c * vec
        return system.dflux_fn(U[..., 0])[..., None] * vec
    if p is None:
        p = system.pressure(U)
    if isinstance(system, Euler):
        rho = U[..., 0]
        v = U[..., 1] / rho
        qp = _softplus_deriv_inv(rho)
        g = system.gamma
        y = np.empty(np.broadcast_shapes(U.shape, vec.shape))
        y[..., 0] = v * vec[..., 0] + qp * rho * vec[..., 1]
        y[..., 1] = (g * p / (rho * rho * qp)) * vec[..., 0] + v * vec[..., 1] \
            + (p / rho) * vec[..., 2]
        y[..., 2] = v * vec[..., 2]
        return y
    if isinstance(system, IdealMHD):
        rho = U[..., 0]
        vx = U[..., 1] / rho
        By, Bz = U[..., 4], U[..., 5]
        qp = _softplus_deriv_inv(rho)
        g = system.gamma
        bx = system.bx
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
    raise TypeError(f"no Jacobian for {type(system).__name__}")
