"""Kernels against the formulas they replaced.

`oe_theta` takes its grid factors from `oe_geometry`, built once per
scheme at (cells, d) shape, `oe_apply` expands theta once and the MHD flux
works on component rows. `mp_limit` clips to its ordered interval instead
of taking a general median and shares the face half-sums of its two side
orientations, and `minmod4` clamps where it chose by two `np.where` calls.
The gas flux, both encodes and `apply_jacobian` write their
components into one array instead of calling `np.stack`, and the gas
decode encodes W's own columns instead of a primitive copy of W; the gas
encode writes W into an empty array with the derivation's v_x, where it
divided the velocity columns of a copy of U, which replaced a primitive
copy. The scalar
scaling limiter works on its inputs' own shape, copies them only when a
row is limited and takes theta as one quotient's modulus. Advection
carries its wave speed as one number, which the scheme reads in place of
the arrays of ones it built from `_unit_speed`. A field is one buffer
whose ghost rows a stage entry fills in place from one precomputed map,
where `mesh._extend` built new arrays by concatenation, and the
integrators combine whole buffers in place, where they combined the
averages and the points apart into new arrays. A gas interface
flux takes one derivation of both sides stacked, where it took two
pressures, a pair speed of two speed calls and two fluxes.
None of that may change a bit of the result, so the code they replaced is
kept here, byte for byte apart from names and docstrings, as the
reference, and compared with `np.array_equal` and the sign bits (which
`np.array_equal` does not see), or bit for bit as int64 views.
"""

from collections import deque

import numpy as np
import pytest

from pampa import limiters, mesh, oracle, transform
from pampa import run as run_mod
from pampa.config import load_config
from pampa.errors import FINITE, POSITIVE, DomainError, guard
from pampa.limiters import _P2_WEIGHT, MP_ALPHA, MP_BETA, OE_FLOOR, midpoint_value
from pampa.scheme import DofField, LimiterConfig, PampaScheme, llf_flux
from pampa.systems import Euler, IdealMHD, ScalarLaw, advection
from pampa.timeint import make_integrator
from pampa.transform import _softplus_deriv_inv, inv_softplus, softplus


def _oe_theta_ref(avgs, lefts, rights, sizes, dt, lo, hi, speed):
    """oe_theta with its grid factors computed per call."""
    def square_sum(x):                       # over the components, axis 1
        return np.einsum("ij,ij->i", x, x)

    a1 = 0.5 * (rights - lefts)
    a2 = 0.5 * (lefts + rights) - avgs
    own, lnb, rnb = slice(1, -1), slice(0, -2), slice(2, None)
    dxo = sizes[own]
    Ao, a1o, a2o = avgs[own], a1[own], a2[own]
    own_dev = square_sum(a1o) / 3.0 + square_sum(a2o) / 5.0

    def jumps(nb, sign):
        """(eta, d) against the neighbour cells `nb`."""
        b = dxo / sizes[nb]
        off = sign * 0.5 * (b + 1.0)
        b2 = b * b
        n1, n2 = a1[nb], a2[nb]
        t2 = b2[:, None] * n2
        t1 = b[:, None] * (n1 + (6.0 * off)[:, None] * n2)
        t0 = ((avgs[nb] - Ao) + (2.0 * off)[:, None] * n1
              + (6.0 * off * off + 0.5 * (b2 - 1.0))[:, None] * n2)
        d0 = square_sum(t0)
        return (d0 + square_sum(a1o - t1) / 3.0 + _P2_WEIGHT * square_sum(a2o - t2),
                d0 + square_sum(t1) / 3.0 + _P2_WEIGHT * square_sum(t2) + own_dev)

    eta_l, d_l = jumps(lnb, 1.0)
    eta_r, d_r = jumps(rnb, -1.0)

    s_l = np.minimum(np.minimum(lo[lnb], lo[own]), np.minimum(lo[rnb], 0.0))
    s_r = np.maximum(np.maximum(hi[lnb], hi[own]), np.maximum(hi[rnb], 0.0))
    num = s_r * eta_l - s_l * eta_r
    den = s_r * d_l - s_l * d_r
    live = den > OE_FLOOR * (s_r - s_l) * square_sum(Ao)
    sigma = np.where(live, num / np.where(live, den, 1.0), 0.0)

    beta = np.maximum(np.maximum(speed[lnb], speed[own]), speed[rnb])
    return np.exp(-beta * dt * sigma / dxo)


def _oe_apply_ref(theta, avg, left, right):
    """Blend endpoints toward the average and recompute the midpoint so the
    average decomposition still holds."""
    t = theta[..., None]
    l_new = (1.0 - t) * avg + t * left
    r_new = (1.0 - t) * avg + t * right
    return l_new, midpoint_value(avg, l_new, r_new), r_new


class _ReferenceMHD(IdealMHD):
    """IdealMHD with the flux written on the (..., 7) columns."""

    def _split(self, U):
        rho = U[..., 0]
        v = U[..., 1:4] / rho[..., None]
        By, Bz, E = U[..., 4], U[..., 5], U[..., 6]
        return rho, v, By, Bz, E

    def _flux(self, U, state):
        p = state.p
        rho, v, By, Bz, E = self._split(U)
        vx, vy, vz = v[..., 0], v[..., 1], v[..., 2]
        bx = self.bx
        ptot = p + 0.5 * self._b_squared(U)
        bdotv = bx * vx + By * vy + Bz * vz
        F = np.empty(U.shape)
        F[..., 0] = mx = rho * vx    # rho * vx * vx is (rho * vx) * vx
        F[..., 1] = mx * vx + ptot - bx * bx
        F[..., 2] = mx * vy - bx * By
        F[..., 3] = mx * vz - bx * Bz
        F[..., 4] = By * vx - bx * vy
        F[..., 5] = Bz * vx - bx * vz
        F[..., 6] = (E + ptot) * vx - bx * bdotv
        return F


def _assert_same(a, b):
    """Equal shapes, equal values and equal sign bits (so -0.0 != 0.0)."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("K", [3, 4, 9, 400])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_oe_theta_matches_per_call_factors(d, K, rng):
    for _ in range(4):
        # non-uniform grid with neighbour size ratios up to 8
        sizes = 10.0 ** rng.uniform(-3.0, -2.1, K)
        avgs = rng.uniform(-1.0, 2.0, (K, d))
        lefts = avgs + rng.normal(0.0, 0.3, (K, d))
        rights = avgs + rng.normal(0.0, 0.3, (K, d))
        # flat cells, a constant run (theta = 1 under the floor) on the
        # longer grids and cells at rounding noise beside the damped ones
        flat = rng.random(K) < 0.3
        if K >= 9:
            flat[K // 3 : K // 3 + 4] = True
            avgs[K // 3 : K // 3 + 4] = avgs[K // 3]
        lefts[flat] = rights[flat] = avgs[flat]
        noisy = rng.random(K) < 0.2
        lefts[noisy] = avgs[noisy] + np.spacing(avgs[noisy])
        lo = rng.uniform(-2.0, 0.5, K)
        hi = lo + rng.uniform(0.0, 2.0, K)
        speed = np.maximum(np.abs(lo), np.abs(hi))
        dt = 0.1 * sizes.min() / speed.max()
        theta = limiters.oe_theta(avgs, lefts, rights,
                                  limiters.oe_geometry(sizes, d), dt, lo, hi,
                                  speed)
        ref = _oe_theta_ref(avgs, lefts, rights, sizes, dt, lo, hi, speed)
        _assert_same(theta, ref)
        assert np.any(ref < 1.0)
        if K >= 9:
            assert np.any(ref == 1.0)


def _screen_inputs(kind, d, rng):
    """One oe_theta input set of K = 300 cells that probes the screen:
    neighbour size ratios up to 8 and the fields of `kind`."""
    K = 300
    sizes = 10.0 ** rng.uniform(-3.0, -3.0 + np.log10(8.0), K)
    # runs of 2 to 12 cells share a base state (and, below, a magnitude)
    run = np.repeat(np.arange(K), rng.integers(2, 13, K))[:K]
    base = (rng.uniform(0.5, 2.0, (K, d)) * rng.choice([-1.0, 1.0], (K, d)))[run]
    x = np.cumsum(sizes) / np.sum(sizes)
    if kind == "magnitudes":
        # random parabolas, flat cells and ulp noise at 1e-150 to 1e150
        scale = 10.0 ** rng.uniform(-150.0, 150.0, (K, 1))[run]
        avgs = scale * base
        lefts = avgs + scale * rng.normal(0.0, 0.3, (K, d))
        rights = avgs + scale * rng.normal(0.0, 0.3, (K, d))
        flat = rng.random(K) < 0.4
        lefts[flat] = rights[flat] = avgs[flat]
        noisy = rng.random(K) < 0.3
        lefts[noisy] = avgs[noisy] + 3.0 * np.spacing(avgs[noisy])
    elif kind == "ulp_noise":
        # constant runs with 0 to 16 ulps of noise per component
        ulps = rng.integers(0, 17, (K, 1))

        def noisy():
            return base + rng.integers(-16, 17, (K, d)) % (ulps + 1) * np.spacing(base)

        avgs, lefts, rights = noisy(), noisy(), noisy()
    else:
        # smooth waves, random noise and pure curvature (L = R, where the
        # bound is tight) of relative size 1e-15 to 1e-11, across the
        # floor's 1000 eps ~ 2e-13: jump integrals of 0.1 to 10 times the
        # floor lie inside. The zero-span kind takes the same fields
        # (on a quarter of the runs: the rest stay constant, so that the
        # screen's rows are few and are gathered)
        amp = 10.0 ** rng.uniform(-15.0, -11.0, (K, 1)) * (rng.random((K, 1)) < 0.25)[run]
        pick = rng.integers(0, 3, K)
        phase = rng.uniform(0.0, 2.0 * np.pi, d)
        cycles = rng.uniform(1.0, 40.0)

        def field(xi):
            return base * (1.0 + amp * np.sin(2.0 * np.pi * cycles * xi[:, None] + phase))

        def noise():
            return base * (1.0 + amp * rng.normal(0.0, 1.0, (K, d)))

        h = np.concatenate([[0.0], x])
        avgs = field(0.5 * (h[:-1] + h[1:]))
        lefts, rights = field(h[:-1]), field(h[1:])
        rough, bump = pick == 1, pick == 2
        avgs[rough], lefts[rough], rights[rough] = noise()[rough], noise()[rough], noise()[rough]
        avgs[bump] = base[bump]
        lefts[bump] = rights[bump] = noise()[bump]
    lo = rng.uniform(-2.0, 0.5, K)
    hi = lo + rng.uniform(0.0, 2.0, K)
    if kind == "zero_span":
        lo[:] = hi[:] = 0.0
    elif kind != "ulp_noise":
        lo[rng.random(K) < 0.1] = 0.0        # one-sided spans, some of them
        hi[rng.random(K) < 0.1] = 0.0
        hi = np.maximum(hi, lo)
    speed = np.maximum(np.abs(lo), np.abs(hi))
    dt = 0.1 * sizes.min() / max(speed.max(), 1.0)
    return sizes, avgs, lefts, rights, lo, hi, speed, dt


@pytest.mark.parametrize("kind", ["magnitudes", "ulp_noise", "near_floor", "zero_span"])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_oe_theta_screen_is_exact(kind, d, rng):
    # the screen skips a row only where the floor test would: theta is the
    # unscreened formula's bit for bit on fields that probe its bound from
    # both sides. A screen 100 times weaker, or one without the average
    # jumps D, fails here (checked on a broken copy)
    screened = 0
    for _ in range(6):
        sizes, avgs, lefts, rights, lo, hi, speed, dt = _screen_inputs(kind, d, rng)
        theta = limiters.oe_theta(avgs, lefts, rights, limiters.oe_geometry(sizes, d),
                                  dt, lo, hi, speed)
        ref = _oe_theta_ref(avgs, lefts, rights, sizes, dt, lo, hi, speed)
        _assert_same(theta, ref)
        assert theta.tobytes() == ref.tobytes()
        screened += np.count_nonzero(ref == 1.0)
        if kind == "near_floor":
            assert np.any(ref < 1.0) and np.any(ref == 1.0)
    assert screened > 0


@pytest.mark.parametrize("d", [1, 3, 7])
def test_oe_apply_matches_broadcast_blend(d, rng):
    K = 64
    avg = rng.uniform(-1.0, 1.0, (K, d))
    left = rng.uniform(-1.0, 1.0, (K, d))
    right = rng.uniform(-1.0, 1.0, (K, d))
    theta = rng.uniform(0.0, 1.0, K)
    theta[::3] = 1.0                                  # undamped rows
    theta[1::7] = 0.0                                 # fully damped rows
    # signed-zero endpoints and averages, in damped and undamped rows
    avg[::5] = 0.0
    avg[2::5] = -0.0
    left[::4] = -0.0
    right[1::4] = 0.0
    right[3::4] = -0.0
    out = limiters.oe_apply(theta, avg, left, right)
    ref = _oe_apply_ref(theta, avg, left, right)
    for got, want in zip(out, ref):
        _assert_same(got, want)
    assert np.any(np.signbit(ref[0]) & (ref[0] == 0.0))   # a -0.0 survives


@pytest.mark.parametrize("bx", [0.0, 0.75])
@pytest.mark.parametrize("shape", [(), (33,), (2, 33)], ids=["7", "K7", "2K7"])
def test_mhd_flux_matches_column_formula(shape, bx, rng):
    system, ref = IdealMHD(5.0 / 3.0, bx), _ReferenceMHD(5.0 / 3.0, bx)
    prim = rng.uniform(-2.0, 2.0, shape + (7,))
    prim[..., 0] = rng.uniform(0.1, 3.0, shape)
    prim[..., -1] = rng.uniform(0.1, 3.0, shape)
    U = system.from_primitive(prim)
    U[..., 4].flat[0] = -0.0                          # a signed-zero field
    state = system.derive(U)
    _assert_same(system._flux(U, state), ref._flux(U, state))
    _assert_same(system.flux(U), ref.flux(U))
    assert system.flux(U).flags.c_contiguous


def _minmod4_ref(a, b, c, d):
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))


def _median3_ref(a, b, c):
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def _mp_limit_ref(w_avg, w_node):
    """mp_limit with a general median and a half-sum per side."""
    n2 = len(w_avg) - 4                      # nodes per side, n + 2
    # the cells before, at and after each node's own cell, in w_avg rows
    lo, mid, hi = slice(1, n2 + 1), slice(2, n2 + 2), slice(3, n2 + 3)
    # the minmod4 interfaces before and after each node's own cell
    face_lo, face_hi = slice(0, n2), slice(1, n2 + 1)
    own = w_avg[mid]
    ahead, behind, twice = w_avg[2:], w_avg[:-2], 2.0 * w_avg[1:-1]
    out = np.empty((2,) + own.shape)
    # per row: curvature summation order (leading, trailing term), far cell,
    # straddling cell, node and far-face minmod slices, node values
    sides = ((ahead, behind, lo, hi, face_hi, face_lo, w_node[mid]),
             (behind, ahead, hi, lo, face_lo, face_hi, w_node[lo]))
    for row, (lead, trail, far, near, at_node, at_face, u) in enumerate(sides):
        curv = (lead - twice) + trail        # centred on cells -2..n+1
        c4 = 4.0 * curv
        c, e = curv[:-1], curv[1:]
        dm4 = _minmod4_ref(c4[:-1] - e, c4[1:] - c, c, e)
        a_near = w_avg[near]
        step = own - w_avg[far]
        u_md = 0.5 * (own + a_near) - 0.5 * dm4[at_node]
        u_ul = own + MP_ALPHA * step
        u_lc = own + 0.5 * step + (MP_BETA / 3.0) * dm4[at_face]
        u_min = np.maximum(np.minimum(np.minimum(own, a_near), u_md),
                           np.minimum(np.minimum(own, u_ul), u_lc))
        u_max = np.minimum(np.maximum(np.maximum(own, a_near), u_md),
                           np.maximum(np.maximum(own, u_ul), u_lc))
        out[row] = _median3_ref(u, u_min, u_max)
    return out


# the signed zeros, the least subnormals and a few exact values, so that
# brackets tie often and the sign of a tied zero shows
_MP_GRID = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.0, 0.5])


@pytest.mark.parametrize("n2", [1, 2, 3, 8, 200])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_mp_limit_matches_median_form(d, n2, rng):
    for _ in range(5):
        # a smooth field with noise (most values unclipped) and a rough one
        x = np.linspace(0.0, 3.0, n2 + 4)[:, None] * rng.uniform(0.5, 2.0, d)
        for w_avg in (np.sin(x) + rng.normal(0.0, 1e-3, x.shape),
                      rng.normal(0.0, 1.0, x.shape)):
            w_node = 0.5 * (w_avg[:-1] + w_avg[1:]) \
                + rng.normal(0.0, 0.1, (n2 + 3, d))
            _assert_same(limiters.mp_limit(w_avg, w_node),
                         _mp_limit_ref(w_avg, w_node))
    for _ in range(300):
        w_avg = rng.choice(_MP_GRID, (n2 + 4, d))
        w_node = rng.choice(_MP_GRID, (n2 + 3, d))
        _assert_same(limiters.mp_limit(w_avg, w_node),
                     _mp_limit_ref(w_avg, w_node))


# _MP_GRID with the infinities and nan
_NONFINITE_GRID = np.append(_MP_GRID, [np.inf, -np.inf, np.nan])


def test_minmod4_matches_where_form_on_every_tuple():
    # the clamp fmin(fmax(lo, 0), hi) + 0.0 against the two np.where calls
    # on all 11^4 argument tuples of the grid, sign bits included; neither
    # form gives a nan, so the bytes compare
    args = np.meshgrid(*(4 * [_NONFINITE_GRID]), indexing="ij")
    got, want = limiters.minmod4(*args), _minmod4_ref(*args)
    assert got.shape == want.shape == (11,) * 4
    assert not np.isnan(want).any()
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(want[want == 0.0]).any()   # every zero is +0.0


def _assert_same_or_nan(a, b):
    """Equal shapes, nan in the same places and, everywhere else, equal
    values and sign bits."""
    assert a.shape == b.shape
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    _assert_same(a[~nan], b[~nan])


@pytest.mark.parametrize("n2", [1, 2, 3, 8, 200])
@pytest.mark.parametrize("d", [1, 3, 7])
def test_mp_limit_matches_median_form_on_nonfinite_values(d, n2, rng):
    # infinities make nan curvatures and steps, which both forms must carry
    # into the same node sides
    finite = 0
    for _ in range(300):
        w_avg = rng.choice(_NONFINITE_GRID, (n2 + 4, d))
        w_node = rng.choice(_NONFINITE_GRID, (n2 + 3, d))
        with np.errstate(invalid="ignore"):
            got = limiters.mp_limit(w_avg, w_node)
            want = _mp_limit_ref(w_avg, w_node)
        _assert_same_or_nan(got, want)
        finite += np.count_nonzero(np.isfinite(want))
    assert finite > 0


class _StackedEuler(Euler):
    """Euler with the flux and the encode assembled by np.stack."""

    def _flux(self, U, state):
        p = state.p
        rho, mom, E = U[..., 0], U[..., 1], U[..., 2]
        v = mom / rho
        return np.stack([mom, mom * v + p, v * (E + p)], axis=-1)

    def from_primitive(self, prim):
        rho, v, p = prim[..., 0], prim[..., 1], prim[..., 2]
        E = p / (self.gamma - 1.0) + 0.5 * rho * v * v
        return np.stack([rho, rho * v, E], axis=-1)


class _StackedMHD(IdealMHD):
    """IdealMHD with the encode assembled by np.stack."""

    def from_primitive(self, prim):
        rho, vx, vy, vz = prim[..., 0], prim[..., 1], prim[..., 2], prim[..., 3]
        By, Bz, p = prim[..., 4], prim[..., 5], prim[..., 6]
        b2 = self.bx ** 2 + By ** 2 + Bz ** 2
        v2 = vx * vx + vy * vy + vz * vz
        E = p / (self.gamma - 1.0) + 0.5 * rho * v2 + 0.5 * b2
        return np.stack([rho, rho * vx, rho * vy, rho * vz, By, Bz, E], axis=-1)


def _apply_jacobian_ref(system, U, vec, p=None):
    """apply_jacobian of the gases with the result assembled by np.stack."""
    if p is None:
        p = system.pressure(U)
    if isinstance(system, Euler):
        rho = U[..., 0]
        v = U[..., 1] / rho
        qp = _softplus_deriv_inv(rho)
        g = system.gamma
        y0 = v * vec[..., 0] + qp * rho * vec[..., 1]
        y1 = (g * p / (rho * rho * qp)) * vec[..., 0] + v * vec[..., 1] \
            + (p / rho) * vec[..., 2]
        y2 = v * vec[..., 2]
        return np.stack([y0, y1, y2], axis=-1)
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
    # primitive quasilinear action A @ dV
    r0 = vx * d_rho + rho * dvx
    r1 = vx * dvx + (By * dBy + Bz * dBz + d_p) / rho
    r2 = vx * dvy - (bx / rho) * dBy
    r3 = vx * dvz - (bx / rho) * dBz
    r4 = By * dvx - bx * dvy + vx * dBy
    r5 = Bz * dvx - bx * dvz + vx * dBz
    r6 = g * p * dvx + vx * d_p
    # T: primitive perturbation -> W-perturbation
    return np.stack([qp * r0, r1, r2, r3, r4, r5,
                     -(g / rho) * r0 + r6 / p], axis=-1)


def _primitive_from_transformed_ref(system, W):
    """The primitive vector of the gas decode: W with rho and p in place of
    q and s."""
    prim = W.copy()
    rho = softplus(W[..., 0])
    prim[..., 0] = rho
    prim[..., -1] = np.exp(W[..., -1] + system.gamma * np.log(rho))
    return prim


def _gas_pair(name):
    if name == "euler":
        return Euler(1.4), _StackedEuler(1.4)
    return IdealMHD(5.0 / 3.0, 0.75), _StackedMHD(5.0 / 3.0, 0.75)


def _primitive_states(d, shape, rng):
    prim = rng.uniform(-2.0, 2.0, shape + (d,))
    prim[..., 0] = rng.uniform(0.1, 3.0, shape)
    prim[..., -1] = rng.uniform(1e-3, 3.0, shape)
    prim[..., 1].flat[0] = -0.0                       # signed-zero velocities
    prim[..., 1].flat[-1] = 0.0
    if d == 7:
        prim[..., 4].flat[0] = -0.0                   # and a signed-zero field
    return prim


@pytest.mark.parametrize("name", ["euler", "mhd"])
@pytest.mark.parametrize("shape", [(), (33,), (2, 33)], ids=["d", "Kd", "2Kd"])
def test_gas_assembly_matches_stack(name, shape, rng):
    system, ref = _gas_pair(name)
    prim = _primitive_states(system.nvars, shape, rng)
    U = system.from_primitive(prim)
    _assert_same(U, ref.from_primitive(prim))
    assert U.flags.c_contiguous
    _assert_same(system.flux(U), ref.flux(U))
    vec = rng.normal(0.0, 1.0, U.shape)
    vec[..., 0].flat[0] = -0.0
    _assert_same(transform.apply_jacobian(system, U, vec, system.derive(U)),
                 _apply_jacobian_ref(system, U, vec, system.pressure(U)))
    _assert_same(transform.apply_jacobian(system, U, vec),
                 _apply_jacobian_ref(system, U, vec))


@pytest.mark.parametrize("name", ["euler", "mhd"])
@pytest.mark.parametrize("shape", [(), (33,), (2, 33)], ids=["d", "Kd", "2Kd"])
def test_decode_matches_primitive_copy(name, shape, rng):
    # from_transformed encodes straight from W's middle columns with the
    # decoded rho and p; it used to encode a primitive copy of W
    system, ref = _gas_pair(name)
    W = rng.uniform(-3.0, 3.0, shape + (system.nvars,))
    W[..., 1].flat[0] = -0.0
    W[..., 1].flat[-1] = 0.0
    U, state = transform.from_transformed(system, W, with_state=True)
    prim = _primitive_from_transformed_ref(system, W)
    _assert_same(U[..., 0], prim[..., 0])
    _assert_same(U, ref.from_primitive(prim))
    _assert_same(state.p, prim[..., -1])
    _assert_same(transform.from_transformed(system, W), U)


@pytest.mark.parametrize("name", ["euler", "mhd"])
@pytest.mark.parametrize("shape", [(), (9,), (2, 9)], ids=["d", "Kd", "2Kd"])
def test_jacobian_broadcast_matches_stack(name, shape, rng):
    # jacobian_transformed hands (..., 1, d) states and the identities,
    # broadcast to (..., d, d), to apply_jacobian
    system, _ = _gas_pair(name)
    U = system.from_primitive(_primitive_states(system.nvars, shape, rng))
    eye = np.eye(system.nvars)
    ref = np.swapaxes(_apply_jacobian_ref(system, U[..., None, :], eye), -1, -2)
    J = transform.jacobian_transformed(system, U)
    assert J.shape == shape + (system.nvars, system.nvars)
    _assert_same(J, ref)


def _to_transformed_ref(system, U, p=None):
    """The gas branch of to_transformed through a primitive copy of U: the
    velocities divided by rho and p in the last column, then q and s
    written over the first and last."""
    if p is None:
        p = system.pressure(U)
    rho = U[..., 0]
    W = U.copy()
    W[..., system._velocity] /= U[..., :1]
    W[..., -1] = p
    W[..., 0] = inv_softplus(rho)
    W[..., -1] = np.log(p) - system.gamma * np.log(rho)
    return W


@pytest.mark.parametrize("name", ["euler", "mhd"])
@pytest.mark.parametrize("shape", [(), (33,), (2, 33)], ids=["d", "Kd", "2Kd"])
def test_encode_matches_primitive_copy(name, shape, rng):
    system, _ = _gas_pair(name)
    U = system.from_primitive(_primitive_states(system.nvars, shape, rng))
    _assert_same(transform.to_transformed(system, U, system.derive(U)),
                 _to_transformed_ref(system, U, system.pressure(U)))
    _assert_same(transform.to_transformed(system, U), _to_transformed_ref(system, U))


def _encode_copy_divide_ref(system, U, state):
    """The gas encode that wrote W into a copy of U and divided its
    velocity columns there."""
    rho = U[..., 0]
    W = U.copy()                     # the fields (MHD's By, Bz) as they are
    W[..., 0] = transform._inv_softplus(rho)
    W[..., system._velocity] /= U[..., :1]
    W[..., -1] = np.log(state.p) - system.gamma * np.log(rho)
    return W


@pytest.mark.parametrize("name", ["euler", "mhd"])
@pytest.mark.parametrize("shape", [(33,), (2, 33)], ids=["Kd", "2Kd"])
def test_encode_takes_vx_from_the_derivation(name, shape, rng):
    # encode writes the derivation's v_x into an empty W: that must be the
    # old division of the momentum column in a copy of U, bit for bit
    system, _ = _gas_pair(name)
    U = system.from_primitive(_primitive_states(system.nvars, shape, rng))
    momenta = system._velocity                       # Euler 1, MHD 1..3
    rows = U.reshape(-1, system.nvars)
    rows[1, momenta] = -0.0                          # signed-zero momenta
    rows[2, momenta] = 0.0
    rows[3, 0], rows[3, momenta] = 5e-324, -0.0      # subnormal densities
    rows[4, 0], rows[4, momenta] = 2.5e-310, -1e-320
    want = _encode_copy_divide_ref(system, U, system.derive(U))
    for state in (system.derive(U), None):
        _assert_same(transform.to_transformed(system, U, state), want)
    assert np.signbit(want.reshape(rows.shape)[1:4, 1]).tolist() == [True, False, True]
    # the limiter's midpoint derivation, whose limited rows come from blends
    n = 64
    avg = oracle.sample_states_moderate(system, rng, n)
    left, right = (oracle.sample_states_representable(system, rng, n)
                   for _ in range(2))
    mid = midpoint_value(avg, left, right)
    mid[::2] = avg[::2]                              # rows left alone
    mid[::5, 1] = -0.0
    _, mid_hat, _, theta, state = system.scaling_limit(avg, left, mid, right)
    # rows limited by their density and rows by their pressure alone
    by_density = mid[:, 0] < np.minimum(limiters.EPS_RHO, avg[:, 0])
    assert np.any(by_density) and np.any((theta < 1.0) & ~by_density)
    assert np.any(theta == 1.0)
    _assert_same(system.encode(mid_hat, state),
                 _encode_copy_divide_ref(system, mid_hat, state))
    # without a derivation the encode still checks its densities first
    bad = U.reshape(-1, system.nvars).copy()
    for value in (np.nan, 0.0, -1.0):
        bad[3, 0] = value
        with pytest.raises(DomainError, match=r"^state 3 needs positive"):
            system.encode(bad)


def _scaling_limit_scalar_ref(avg, left, mid, right, lo, hi):
    """scaling_limit_scalar on flattened copies of its inputs."""
    avg, left, mid, right = (np.asarray(x, dtype=float)
                             for x in (avg, left, mid, right))
    shape = mid.shape
    hat_l, hat_m, hat_r = left.flatten(), mid.flatten(), right.flatten()
    theta = np.ones(hat_m.shape)
    rows = ((hat_m < lo) | (hat_m > hi)).nonzero()[0]
    a, m = avg.ravel()[rows], hat_m[rows]
    below = m < lo
    t = np.where(below, (a - lo) / (a - m), (hi - a) / (m - a))
    theta[rows] = t
    # land the midpoint exactly on the violated bound
    hat_m[rows] = np.where(below, lo, hi)
    base = (1.0 - t) * a
    hat_l[rows] = base + t * hat_l[rows]
    hat_r[rows] = base + t * hat_r[rows]
    return (hat_l.reshape(shape), hat_m.reshape(shape), hat_r.reshape(shape),
            theta.reshape(shape))


def _scalar_limiter_cells(lo, hi):
    """(avg, left, mid, right) of cells whose midpoints lie below, above
    and exactly on the bounds, with averages inside and exactly at a bound
    and signed-zero endpoints: the cases where a regrouped quotient or
    blend could differ from the old one in a bit or a sign."""
    w = hi - lo
    cells = [
        (lo + 0.5 * w, lo + 0.2 * w, lo - 0.3 * w, hi),     # below
        (lo + 0.5 * w, hi, hi + 0.7 * w, lo + 0.1 * w),     # above
        (lo + 0.25 * w, lo, lo, hi),                        # on lo: kept
        (hi - 0.25 * w, hi, hi, lo),                        # on hi: kept
        (lo, lo + 0.5 * w, lo - 0.1 * w, lo),               # avg at lo, below
        (hi, hi, hi + 0.1 * w, hi - 0.5 * w),               # avg at hi, above
        (lo + 0.5 * w, -0.0, lo - 2.0 * w, 0.0),            # signed-zero ends
        (lo + 0.5 * w, 0.0, hi + 1e-300, -0.0),             # barely above
        (lo + 0.5 * w, lo + 0.5 * w, lo + 0.5 * w, lo + 0.5 * w),   # at rest
    ]
    return tuple(np.array(c) for c in zip(*cells))


def _assert_limited_same(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        _assert_same(g, w)
        assert np.shape(g) == np.shape(w)


# bounds with a zero at either end make zero averages, bounds and blends
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 0.0), (1.0, 2.0)])
def test_scalar_limiter_matches_flattened_copies(lo, hi):
    avg, left, mid, right = _scalar_limiter_cells(lo, hi)
    _assert_limited_same(limiters.scaling_limit_scalar(avg, left, mid, right, lo, hi),
                         _scaling_limit_scalar_ref(avg, left, mid, right, lo, hi))
    # the scheme's (k, 1) rows
    cols = [x[:, None] for x in (avg, left, mid, right)]
    _assert_limited_same(limiters.scaling_limit_scalar(*cols, lo, hi),
                         _scaling_limit_scalar_ref(*cols, lo, hi))
    # one cell at a time: 0-d arrays and plain floats
    for j in range(len(avg)):
        cell = [x[j] for x in (avg, left, mid, right)]
        want = _scaling_limit_scalar_ref(*cell, lo, hi)
        _assert_limited_same(limiters.scaling_limit_scalar(
            *[np.array(c) for c in cell], lo, hi), want)
        _assert_limited_same(limiters.scaling_limit_scalar(
            *[float(c) for c in cell], lo, hi), want)


def test_scalar_limiter_returns_its_inputs_when_no_row_is_limited():
    avg, left, mid, right = (np.array([[0.5], [0.2], [1.0]]) for _ in range(4))
    got = limiters.scaling_limit_scalar(avg, left, mid, right, 0.0, 1.0)
    assert got[0] is left and got[1] is mid and got[2] is right
    _assert_limited_same(got, _scaling_limit_scalar_ref(avg, left, mid, right, 0.0, 1.0))
    # a limited row: every output is a new array, the inputs keep their values
    mid2 = np.array([[0.5], [-0.1], [1.0]])
    got = limiters.scaling_limit_scalar(avg, left, mid2, right, 0.0, 1.0)
    assert not any(g is x for g, x in zip(got, (left, mid2, right)))
    assert mid2[1, 0] == -0.1
    _assert_limited_same(got, _scaling_limit_scalar_ref(avg, left, mid2, right, 0.0, 1.0))


@pytest.mark.parametrize("n_active", [0, 1, 7, 64])
def test_scalar_limiter_matches_on_random_rows(n_active, rng):
    k = 64
    avg = rng.uniform(0.0, 1.0, (k, 1))
    left, right = rng.uniform(0.0, 1.0, (2, k, 1))
    mid = np.clip(midpoint_value(avg, left, right), 0.0, 1.0)
    rows = rng.choice(k, n_active, replace=False)
    past = rng.uniform(0.01, 1.0, n_active)
    mid[rows, 0] = np.where(rng.random(n_active) < 0.5, -past, 1.0 + past)
    got = limiters.scaling_limit_scalar(avg, left, mid, right, 0.0, 1.0)
    _assert_limited_same(got, _scaling_limit_scalar_ref(avg, left, mid, right, 0.0, 1.0))
    assert np.array_equal(np.flatnonzero(got[3] < 1.0), np.sort(rows))


def _unit_speed_ref(u):
    # np.ones, np.ones_like and np.shape are Python wrappers; u is an array
    one = np.empty(u.shape)
    one.fill(1.0)
    return one


def _advection_ref(u_min, u_max):
    """Advection through the computed-speed path: arrays of ones from
    `_unit_speed_ref` as its f' and wave speed, no constant speed."""
    return ScalarLaw(lambda u: u, u_min, u_max, name="advection",
                     dflux_fn=_unit_speed_ref, speed_fn=_unit_speed_ref)


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


def _assert_bits(got, want):
    """Equal shapes and equal bits (so -0.0 != 0.0 and every nan is seen)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


def _assert_records_same(got, want):
    assert set(got) == set(want)
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            _assert_bits(got[key], value)
        else:
            assert got[key] == value, key


U_MIN, U_MAX, N_CELLS = -0.5, 1.5, 24


def _scheme_pair(bc, oscillation, idp, uniform, rng):
    if uniform:
        grid = mesh.uniform_grid(0.0, 1.0, N_CELLS)
    else:
        grid = mesh.grid_from_nodes(
            np.concatenate([[0.0], np.cumsum(rng.uniform(0.25, 1.0, N_CELLS))]))
    lim = LimiterConfig(idp=idp, oscillation=oscillation)
    return (PampaScheme(advection(U_MIN, U_MAX), grid, bc, lim),
            PampaScheme(_advection_ref(U_MIN, U_MAX), grid, bc, lim))


def _random_field(scheme, rng):
    """Averages in G; point values in W a little beyond [0, 1], so that the
    decode clips some and the midpoints of many cells leave G."""
    avgs = rng.uniform(U_MIN, U_MAX, (N_CELLS, 1))
    points = rng.uniform(-0.2, 1.2, (scheme.n_points, 1))
    return DofField(avgs, points)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "random"])
@pytest.mark.parametrize("idp", [True, False], ids=["idp", "no-idp"])
@pytest.mark.parametrize("oscillation", ["none", "oe", "mp"])
@pytest.mark.parametrize("bc", [mesh.PERIODIC, mesh.OUTFLOW])
def test_constant_speed_matches_speed_arrays(bc, oscillation, idp, uniform, rng):
    # advection's constant speed 1.0 against the same law given per-state
    # speed arrays of ones: the stage entry, max_dt, the residual with its
    # stage record and a 20-step advance agree bit for bit
    scheme, ref = _scheme_pair(bc, oscillation, idp, uniform, rng)
    assert scheme.system.constant_speed == 1.0
    assert ref.system.constant_speed is None
    field = _random_field(scheme, rng)

    entry, ref_entry = scheme.stage_entry(field), ref.stage_entry(field)
    for got, want in zip(entry, ref_entry):
        if want is None:
            assert got is None
        elif got is None:            # a speed array the constant stands for
            _assert_bits(want, np.full(want.shape, 1.0))
        elif isinstance(want, tuple):
            for g, w in zip(got, want):
                _assert_bits(g, w)
        else:
            _assert_bits(got, want)
    assert entry.speed_node is None
    assert (entry.speed_avg is None) == (oscillation != "oe")

    cfl = 0.1
    dt = scheme.max_dt(field, cfl, entry)
    _assert_bits(dt, ref.max_dt(field, cfl, ref_entry))
    _assert_bits(scheme.max_dt(field, cfl), dt)

    record, ref_record = {}, {}
    davg, dpts = scheme.residual(field, dt, record, entry=entry)
    ref_davg, ref_dpts = ref.residual(field, dt, ref_record, entry=ref_entry)
    _assert_bits(davg, ref_davg)
    _assert_bits(dpts, ref_dpts)
    _assert_records_same(record, ref_record)
    if idp:
        assert record["idp_active"] > 0       # the limiter's longer path ran

    out, steps, t = run_mod.advance(scheme, field, 20 * dt, cfl, "ssp_ms3")
    ref_out, ref_steps, ref_t = run_mod.advance(ref, field, 20 * dt, cfl, "ssp_ms3")
    assert steps == ref_steps >= 20
    _assert_bits(t, ref_t)
    _assert_bits(out.avgs, ref_out.avgs)
    _assert_bits(out.points, ref_out.points)


@pytest.mark.parametrize("shape", [(), (9,), (2, 9)], ids=["d", "Kd", "2Kd"])
def test_constant_speed_jacobian_matches_speed_arrays(shape, rng):
    system, ref = advection(U_MIN, U_MAX), _advection_ref(U_MIN, U_MAX)
    U = rng.uniform(U_MIN, U_MAX, shape + (1,))
    vec = rng.normal(size=shape + (1,))
    vec.flat[0] = -0.0
    _assert_bits(transform.apply_jacobian(system, U, vec),
                 transform.apply_jacobian(ref, U, vec))
    _assert_bits(transform.jacobian_transformed(system, U),
                 transform.jacobian_transformed(ref, U))
    for method in ("max_wave_speed", "wave_speed_range", "pair_speed"):
        args = (U, U) if method == "pair_speed" else (U,)
        got, want = getattr(system, method)(*args), getattr(ref, method)(*args)
        _assert_bits(got, want)


def _extend_ref(data, bc, g, reflect=None, nodal=False):
    """data with g ghost rows per side, built by concatenation."""
    k = int(nodal)
    m = data.shape[0]
    if bc == mesh.PERIODIC:
        left, right = data[m - g :], data[: g + k]
    elif bc == mesh.OUTFLOW:
        left = np.repeat(data[:1], g, axis=0)
        right = np.repeat(data[-1:], g, axis=0)
    else:
        left, right = data[k : g + k][::-1], data[m - g - k : m - k][::-1]
        if reflect is not None:
            left, right = reflect(left), reflect(right)
    return np.concatenate([left, data, right], axis=0)


_LAWS = {"advection": advection(U_MIN, U_MAX), "euler": Euler(1.4),
         "mhd": IdealMHD(5.0 / 3.0, 0.75)}


def _law_field(scheme, rng):
    """Averages in G (signed zeros in a scalar law's) and finite points,
    whose decode lies in G, in a buffer whose ghost rows hold nan."""
    law, n = scheme.system, scheme.n
    if law.constant_speed is None:
        avgs = oracle.sample_states_representable(law, rng, n)
    else:
        avgs = rng.uniform(U_MIN, U_MAX, (n, 1))
        avgs[::3] = -0.0
    field = DofField(avgs, rng.normal(size=(scheme.n_points, law.nvars)))
    interior = field.avgs.copy(), field.points.copy()
    field.data.fill(np.nan)
    field.avgs[...], field.points[...] = interior
    return field


@pytest.mark.parametrize("n", [3, 4, 17])
@pytest.mark.parametrize("law, bc", [
    (law, bc) for law in sorted(_LAWS) for bc in mesh.BC_KINDS
    if bc != mesh.REFLECTIVE or law != "advection"])      # no scalar walls
def test_ghost_fill_matches_concatenation(law, bc, n, rng):
    # the extension wrappers and a stage entry's in-place fill of the
    # field's buffer give the concatenated arrays bit for bit, cell and
    # nodal data alike
    system = _LAWS[law]
    reflect = getattr(system, "reflect", None)
    grid = mesh.grid_from_nodes(np.cumsum(rng.uniform(0.25, 1.0, n + 1)))
    scheme = PampaScheme(system, grid, bc)
    field = _law_field(scheme, rng)
    avgs, points = field.avgs.copy(), field.points.copy()
    want_a = _extend_ref(avgs, bc, mesh.AVG_GHOST, reflect)
    want_w = _extend_ref(points, bc, mesh.PT_GHOST, reflect, nodal=True)
    _assert_bits(mesh.extend_averages(avgs, bc, system), want_a)
    _assert_bits(mesh.extend_points(points, bc, system), want_w)
    _assert_bits(mesh.extend_cell_sizes(grid, bc),
                 _extend_ref(grid.cell_sizes, bc, mesh.AVG_GHOST))
    entry = scheme.stage_entry(field)
    _assert_bits(entry.A, want_a)
    _assert_bits(entry.Wx, want_w)
    assert np.shares_memory(entry.A, field.data)
    assert np.shares_memory(entry.Wx, field.data)
    _assert_bits(field.avgs, avgs)        # the interior is left as it was
    _assert_bits(field.points, points)


_MAX = np.finfo(float).max
_EDGE = np.array([-0.0, np.inf, -np.inf, np.nan, _MAX, -_MAX, 5e-324, 1.5])


def _edge_rows(m, d):
    """(m, d) edge values, column j the list rotated by 3j."""
    return _EDGE[(np.arange(m)[:, None] + 3 * np.arange(d)) % len(_EDGE)]


@pytest.mark.parametrize("n", [3, 4, 17])
@pytest.mark.parametrize("law, bc", [
    (law, bc) for law in sorted(_LAWS) for bc in mesh.BC_KINDS
    if bc != mesh.REFLECTIVE or law != "advection"])      # no scalar walls
def test_ghost_map_copies_edge_values(law, bc, n):
    # every interior row a boundary condition copies or mirrors holds -0.0,
    # +-inf, nan, +-max or a subnormal (at n=3 the periodic ghosts read
    # every row): the map's gather, the wall's signs and its scatter give
    # the concatenated arrays bit for bit, in both blocks of a field
    # buffer, whose ghost rows held 7.25 before, and in the three
    # extensions, cell sizes mirrored without a sign
    system = _LAWS[law]
    reflect = getattr(system, "reflect", None)
    grid = mesh.uniform_grid(0.0, 1.0, n)
    scheme = PampaScheme(system, grid, bc)
    avgs = _edge_rows(n, system.nvars)
    points = _edge_rows(scheme.n_points, system.nvars)[::-1]
    field = DofField(avgs, points)
    field.data.fill(7.25)
    field.avgs[...], field.points[...] = avgs, points
    want_a = _extend_ref(avgs, bc, mesh.AVG_GHOST, reflect)
    want_w = _extend_ref(points, bc, mesh.PT_GHOST, reflect, nodal=True)
    with np.errstate(all="ignore"), pytest.raises(DomainError):
        scheme.stage_entry(field)                  # after the fill
    _assert_bits(field.data[: n + 6], want_a)
    _assert_bits(field.data[n + 6 :], want_w)
    _assert_bits(mesh.extend_averages(avgs, bc, system), want_a)
    _assert_bits(mesh.extend_points(points, bc, system), want_w)
    sizes = _edge_rows(n, 1)[:, 0]
    _assert_bits(mesh.extend_cell_sizes(mesh.Grid1D(grid.nodes, sizes,
                                                    grid.cell_centers), bc),
                 _extend_ref(sizes, bc, mesh.AVG_GHOST))


def _euler_stage_ref(scheme, field, dt, resid=None):
    """A forward-Euler stage on the averages and the points apart."""
    if resid is None:
        resid = scheme.residual(field, dt, {})
    da, dp = resid
    return scheme.finish_stage(DofField(field.avgs + dt * da,
                                        field.points + dt * dp))


def _rk3_step_ref(scheme, field, dt, first_resid=None):
    s1 = _euler_stage_ref(scheme, field, dt, first_resid)
    fe2 = _euler_stage_ref(scheme, s1, dt)
    s2 = DofField(0.75 * field.avgs + 0.25 * fe2.avgs,
                  0.75 * field.points + 0.25 * fe2.points)
    s2 = scheme.finish_stage(s2)
    fe3 = _euler_stage_ref(scheme, s2, dt)
    out = DofField(field.avgs / 3.0 + (2.0 / 3.0) * fe3.avgs,
                   field.points / 3.0 + (2.0 / 3.0) * fe3.points)
    return scheme.finish_stage(out)


class _Ms3Ref:
    """SspMultistep3's step with the two-array combination."""

    def __init__(self):
        self._hist = deque(maxlen=3)
        self._hist_dt = None

    def step(self, scheme, field, dt):
        if self._hist_dt is not None and abs(dt - self._hist_dt) > 1e-9 * dt:
            self._hist.clear()
        resid = scheme.residual(field, dt, {})
        if len(self._hist) < 3:
            self._hist.append((field, resid))
            self._hist_dt = dt
            return _rk3_step_ref(scheme, field, dt, first_resid=resid)
        old_field, old_resid = self._hist[0]
        da, dp = resid
        oda, odp = old_resid
        w_new, w_old = 16.0 / 27.0, 11.0 / 27.0
        avgs = (w_new * (field.avgs + 3.0 * dt * da)
                + w_old * (old_field.avgs + (12.0 / 11.0) * dt * oda))
        points = (w_new * (field.points + 3.0 * dt * dp)
                  + w_old * (old_field.points + (12.0 / 11.0) * dt * odp))
        out = scheme.finish_stage(DofField(avgs, points))
        self._hist.append((field, resid))
        self._hist_dt = dt
        return out


_REF_STEPS = {"forward_euler": lambda: _euler_stage_ref,
              "ssp_rk3": lambda: _rk3_step_ref,
              "ssp_ms3": lambda: _Ms3Ref().step}


@pytest.mark.parametrize("kind", sorted(_REF_STEPS))
@pytest.mark.parametrize("preset", ["jiang_shu", "sod", "blast_waves"],
                         ids=["periodic", "outflow", "reflective"])
def test_buffer_combinations_match_two_array_formulas(preset, kind):
    # 20 steps of each integrator, its combinations on whole buffers
    # against the same terms on the averages and the points apart
    cfg = load_config(preset).with_overrides(n=40)
    scheme = run_mod.build_scheme(cfg)
    integ, ref_step = make_integrator(kind), _REF_STEPS[kind]()
    field = ref = run_mod.initial_field(cfg, scheme)
    for _ in range(20):
        dt = integ.step_size(scheme.max_dt(field, cfg.cfl))
        field, ref = integ.step(scheme, field, dt), ref_step(scheme, ref, dt)
        _assert_bits(field.avgs, ref.avgs)
        _assert_bits(field.points, ref.points)


def _step_inputs(field, entry, hist):
    """The arrays a step is handed or holds: the field's buffer, every
    array of the entry and every buffer of the history."""
    arrays = [field.data]
    for part in entry:
        arrays += [a for a in (part if isinstance(part, tuple) else (part,))
                   if a is not None]
    return arrays + [x.data for pair in hist for x in pair]


@pytest.mark.parametrize("kind", sorted(_REF_STEPS))
@pytest.mark.parametrize("preset", ["jiang_shu", "sod", "blast_waves"],
                         ids=["periodic", "outflow", "reflective"])
def test_step_combines_only_into_its_own_buffers(preset, kind):
    # the combinations work in place: each step leaves its input field,
    # the entry it is handed and every (field, resid) of the multistep
    # history (the residuals that start steps hand their first stage) as
    # they were, bit for bit. One step size, half the first step's, holds
    # the history, so ssp_ms3 leaves its RK3 start after three steps (sod's
    # CFL step falls at every step and would restart it)
    cfg = load_config(preset).with_overrides(n=40)
    scheme = run_mod.build_scheme(cfg)
    integ = make_integrator(kind)
    hist = getattr(integ, "_hist", ())
    field = run_mod.initial_field(cfg, scheme)
    dt = 0.5 * integ.step_size(scheme.max_dt(field, cfg.cfl))
    multistep = 0
    for _ in range(6):
        entry = scheme.stage_entry(field)
        multistep += len(hist) == 3
        held = list(hist)
        kept = [a.copy() for a in _step_inputs(field, entry, held)]
        out = integ.step(scheme, field, dt, entry=entry)
        for got, want in zip(_step_inputs(field, entry, held), kept):
            _assert_bits(got, want)
        if hist:
            # this step's residual, which it kept, is still the field's
            new_field, resid = hist[-1]
            assert new_field is field
            _assert_bits(resid.data, scheme.residual(field, dt, {}, entry=entry).data)
        assert not np.shares_memory(out.data, field.data)
        field = out
    assert multistep == (3 if kind == "ssp_ms3" else 0)


# The gas interface as two calls per side: each side's pressure (or, with
# none given, a checked one), the pair speed from two speed calls and the
# two fluxes, with the laws' formulas as they were.

def _pressure_ref(system, U, check=True):
    rho = U[..., 0]
    if check:
        guard("state", U, rho, POSITIVE)
    if isinstance(system, Euler):
        return (system.gamma - 1.0) * (U[..., 2] - 0.5 * U[..., 1] ** 2 / rho)
    kin = 0.5 * (U[..., 1] ** 2 + U[..., 2] ** 2 + U[..., 3] ** 2) / rho
    b2 = system.bx ** 2 + U[..., 4] ** 2 + U[..., 5] ** 2
    return (system.gamma - 1.0) * (U[..., 6] - kin - 0.5 * b2)


def _fast_speed_ref(system, U, p=None):
    p = np.maximum(_pressure_ref(system, U) if p is None else p, 0.0)
    if isinstance(system, Euler):
        return np.sqrt(system.gamma * p / U[..., 0])
    rho = U[..., 0]
    b2 = system.bx ** 2 + U[..., 4] ** 2 + U[..., 5] ** 2
    a = (system.gamma * p + b2) / rho
    disc = np.fmax(a * a - 4.0 * system.gamma * p * system.bx ** 2 / rho ** 2, 0.0)
    return np.sqrt(0.5 * (a + np.sqrt(disc)))


def _max_wave_speed_ref(system, U, p=None):
    return np.abs(U[..., 1] / U[..., 0]) + _fast_speed_ref(system, U, p)


def _pair_speed_ref(system, UL, UR, pL=None, pR=None):
    if isinstance(system, Euler):
        return np.maximum(_max_wave_speed_ref(system, UL, pL),
                          _max_wave_speed_ref(system, UR, pR))
    sl = np.sqrt(UL[..., 0])
    sr = np.sqrt(UR[..., 0])
    vxl = UL[..., 1] / UL[..., 0]
    vxr = UR[..., 1] / UR[..., 0]
    cfl = _fast_speed_ref(system, UL, pL)
    cfr = _fast_speed_ref(system, UR, pR)
    v_roe = np.abs(sl * vxl + sr * vxr) / (sl + sr)
    base = np.maximum(
        np.maximum(np.abs(vxl) + cfl, np.abs(vxr) + cfr),
        v_roe + np.maximum(cfl, cfr),
    )
    db = np.sqrt(
        (UL[..., 4] - UR[..., 4]) ** 2 + (UL[..., 5] - UR[..., 5]) ** 2
    )
    return base + db / (sl + sr)


def _flux_ref(system, U, p=None):
    if p is None:
        p = _pressure_ref(system, U)
        guard("state", U, p, FINITE)
    if isinstance(system, Euler):
        rho, mom, E = U[..., 0], U[..., 1], U[..., 2]
        v = mom / rho
        F = np.empty(U.shape)
        F[..., 0] = mom
        F[..., 1] = mom * v + p
        F[..., 2] = v * (E + p)
        return F
    rho, m1, m2, m3, By, Bz, E = U.T.copy()
    p = p.T
    vx, vy, vz = m1 / rho, m2 / rho, m3 / rho
    bx = system.bx
    ptot = p + 0.5 * (bx ** 2 + By ** 2 + Bz ** 2)
    bdotv = bx * vx + By * vy + Bz * vz
    F = np.empty(U.T.shape)
    F[0] = mx = rho * vx
    F[1] = mx * vx + ptot - bx * bx
    F[2] = mx * vy - bx * By
    F[3] = mx * vz - bx * Bz
    F[4] = By * vx - bx * vy
    F[5] = Bz * vx - bx * vz
    F[6] = (E + ptot) * vx - bx * bdotv
    return F.T.copy()


def _llf_two_calls(system, UL, UR, pL=None, pR=None):
    lam = _pair_speed_ref(system, UL, UR, pL, pR)[..., None]
    return 0.5 * (_flux_ref(system, UL, pL) + _flux_ref(system, UR, pR)) \
        - 0.5 * lam * (UR - UL)


def _stage_interface_ref(system, UL, UR):
    """The scheme's interface: unchecked pressures handed to the flux."""
    pL = _pressure_ref(system, UL, check=False)
    pR = _pressure_ref(system, UR, check=False)
    return _llf_two_calls(system, UL, UR, pL, pR)


_GASES = {"euler": Euler(1.4), "mhd": IdealMHD(5.0 / 3.0, 0.75)}


def _gas_pairs(system, k, rng):
    """k pairs: random states of G, then pairs with UL == UR, near-vacuum
    states (rho down to 1e-12, p down to 1e-14, fast flow) and
    strong-field states (|B| up to 1e3 over p near 1e-6)."""
    d = system.nvars
    UL, UR = (oracle.sample_states_representable(system, rng, k)
              for _ in range(2))
    if k < 3:
        return UL, UR
    same, vac, strong = np.array_split(rng.permutation(k), 4)[1:]
    UR[same] = UL[same]
    for U in (UL, UR):
        prim = rng.uniform(-2.0, 2.0, (k, d))
        prim[:, 0] = 10.0 ** rng.uniform(-12.0, -6.0, k)
        prim[:, -1] = 10.0 ** rng.uniform(-14.0, -8.0, k)
        prim[:, 1] *= 100.0
        U[vac] = system.from_primitive(prim[vac])
        if d == 7:
            prim = rng.uniform(-1.0, 1.0, (k, d))
            prim[:, 0] = rng.uniform(0.1, 2.0, k)
            prim[:, 4:6] = rng.uniform(-1e3, 1e3, (k, 2))
            prim[:, -1] = 10.0 ** rng.uniform(-6.0, -3.0, k)
            U[strong] = system.from_primitive(prim[strong])
    return UL, UR


@pytest.mark.parametrize("shape", [(1,), (3,), (801,), (), (2, 5)],
                         ids=["1", "3", "801", "one", "2x5"])
@pytest.mark.parametrize("name", sorted(_GASES))
def test_interface_flux_matches_two_calls(name, shape, rng):
    # one derivation of UL stacked over UR gives both fluxes and the pair
    # speed bit for bit, checked (the reference solution's call) and
    # unchecked (the stage's); pair_speed and flux alone as well
    system = _GASES[name]
    k = int(np.prod(shape))
    UL, UR = _gas_pairs(system, k, rng)
    UL, UR = UL.reshape(shape + (-1,)), UR.reshape(shape + (-1,))
    want = _llf_two_calls(system, UL, UR)
    _assert_bits(llf_flux(system, UL, UR), want)
    _assert_bits(llf_flux(system, UL, UR, check=False),
                 _stage_interface_ref(system, UL, UR))
    _assert_bits(system.pair_speed(UL, UR), _pair_speed_ref(system, UL, UR))
    _assert_bits(system.flux(UL), _flux_ref(system, UL))
    if k > 1:
        same = (UL == UR).all(axis=-1)
        assert same.any()
        _assert_bits(want[same], _flux_ref(system, UL[same]))


@pytest.mark.parametrize("name", sorted(_GASES))
def test_interface_flux_names_each_sides_bad_state(name, rng):
    # the checked interface stops where the two calls stopped: densities of
    # UL, then of UR, then finite pressures of UL, then of UR, each row
    # counted within its own side; one bad state planted per side, and on
    # both sides at once
    system = _GASES[name]
    k = 12
    base = _gas_pairs(system, k, rng)

    def plant(U, row, kind):
        if kind == "density":
            U[row, 0] = -1.0
        else:
            U[row, -1] = np.inf                # an infinite energy and pressure

    cases = [((side, row, kind),) for side in (0, 1) for row in (0, 4, k - 1)
             for kind in ("density", "pressure")]
    cases += [((0, 7, "pressure"), (1, 3, "density")),
              ((0, 9, "density"), (1, 2, "density")),
              ((0, 5, "pressure"), (1, 1, "pressure"))]
    for planted in cases:
        UL, UR = (U.copy() for U in base)
        for side, row, kind in planted:
            plant((UL, UR)[side], row, kind)
        # (the two calls took square roots before their checks)
        with pytest.raises(DomainError) as want, np.errstate(invalid="ignore"):
            _llf_two_calls(system, UL, UR)
        with pytest.raises(DomainError) as got:
            llf_flux(system, UL, UR)
        assert str(got.value) == str(want.value), planted
        assert str(got.value).startswith("state ")
