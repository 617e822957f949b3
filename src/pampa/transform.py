"""Automatic-IDP variable transforms W = Psi(U), inverses, and Jacobians.

The point-value scheme evolves variables chosen so that Psi^{-1}(W) lies in
the invariant domain for every finite W. Each law in `systems` owns its
map; this module holds the Softplus functions and the entry points the
scheme calls the laws' `encode`, `decode` and `jacobian_action` through,
under the names the benchmark traces:

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

from .errors import guard

# exp(x) is safe and the naive expressions are exact to rounding below this
_EXP_SWITCH = 30.0
# ln(e^x - 1) is defined, and the overflow-safe branch handles inf
_POSITIVE_ARG = ("positive values", 5e-324, np.inf)


def softplus(q):
    """ln(1 + e^q), overflow-safe for any finite q."""
    q = np.asarray(q, dtype=float)
    out = np.log1p(np.exp(np.minimum(q, _EXP_SWITCH)))
    # some q above the switch? fmax skips nan, as q > _EXP_SWITCH does
    if q.size and np.fmax.reduce(q, axis=None) > _EXP_SWITCH:
        out = np.where(q > _EXP_SWITCH, q + np.log1p(np.exp(-np.abs(q))), out)
    return out


def inv_softplus(x):
    """ln(e^x - 1) for x > 0, overflow-safe."""
    x = np.asarray(x, dtype=float)
    guard("argument", x, x, _POSITIVE_ARG)
    return _inv_softplus(x)


def _inv_softplus(x):
    """inv_softplus of a float array x already known to be positive."""
    out = np.log(np.expm1(np.minimum(x, _EXP_SWITCH)))
    if x.size and np.fmax.reduce(x, axis=None) > _EXP_SWITCH:
        out = np.where(x > _EXP_SWITCH, x + np.log1p(-np.exp(-x)), out)
    return out


def _softplus_deriv_inv(x):
    """1/(1 - e^{-x}) = e^x/(e^x - 1), stable for x > 0."""
    return 1.0 / (-np.expm1(-x))


def to_transformed(system, U, state=None):
    """W = Psi(U); state: a gas's checked derivation of U (`systems.GasState`),
    else taken and checked."""
    return system.encode(U, state)


def from_transformed(system, W, with_state: bool = False):
    """U = Psi^{-1}(W), in G for every finite W; with_state=True gives
    (U, state), state a gas's derivation of U with the decoded pressure
    (`systems.GasState`; None for a scalar law)."""
    U, p, b2 = system.decode(W)
    return (U, system.derive(U, p, b2)) if with_state else U


def jacobian_transformed(system, U):
    """Jacobian matrices of the W-variable quasilinear form at the states U
    (in G), built column by column from apply_jacobian on the identity, so
    they are the hot path's own action."""
    d = U.shape[-1]
    eye = np.broadcast_to(np.eye(d), U.shape[:-1] + (d, d))
    # row k of the result is J e_k, i.e. column k of J
    return np.swapaxes(apply_jacobian(system, U[..., None, :], eye), -1, -2)


def apply_jacobian(system, U, vec, state=None):
    """J(U) @ vec without the matrices; vec has the shape of the result
    and U broadcasts against it. state: a gas's derivation of U, if known."""
    return system.jacobian_action(U, vec, state)
