"""The OE kernels and the MHD flux against the formulas they replaced.

`oe_theta` takes its grid factors from `oe_geometry`, built once per
scheme at (cells, d) shape, `oe_apply` expands theta once and the MHD flux
works on component rows. None of that may change a bit of the result, so
the code they replaced is kept here, byte for byte apart from names and
docstrings, as the reference, and compared with `np.array_equal` and the
sign bits (which `np.array_equal` does not see).
"""

import numpy as np
import pytest

from pampa import limiters
from pampa.limiters import _P2_WEIGHT, OE_FLOOR, midpoint_value
from pampa.systems import IdealMHD


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

    def _flux(self, U, p):
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
    p = system.pressure(U)
    _assert_same(system._flux(U, p), ref._flux(U, p))
    _assert_same(system.flux(U), ref.flux(U))
    assert system.flux(U).flags.c_contiguous
