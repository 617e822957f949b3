"""Point-value limiters.

Three independent pieces, all preserving the 1/6-4/6-1/6 decomposition of
the cell average over (left endpoint, midpoint, right endpoint):

* the local scaling IDP limiter that pulls the midpoint (and, with the same
  blend factor, the endpoints) toward the cell average until the midpoint
  satisfies the invariant-domain bounds (each law's `scaling_limit`);
* the OE procedure, which damps endpoint values toward the cell average by
  exp(-beta*dt*sigma/dx) with sigma measuring the mismatch between the
  cell's parabola and its neighbours' parabolas, in Legendre form; a cell
  whose jump integrals lie under a relative rounding floor (OE_FLOOR)
  counts as constant and keeps theta = 1 exactly;
* the MP limiter, which clips node values into a monotonicity-preserving
  interval built from neighbouring cell averages and curvature estimates.

The IDP piece works per cell and is vectorised over leading axes, OE on
(cells, d) arrays. The IDP limiter changes only the cells whose midpoint
leaves G, in a run almost always a few or none, so it finds those rows
first and runs its blends on them alone; every other cell costs the row
search and a copy. The scalar limiter takes the scheme's (k, 1) rows as
they are and copies its inputs only when a row is limited, since at paper
sizes each array pass costs about as much as its whole arithmetic.
The MP limiter is a whole-field kernel: it limits both one-sided values of
every node at once, so each curvature and each four-argument minmod is
computed once per side orientation instead of once per node side that
reads it.
"""

from __future__ import annotations

import numpy as np

# positivity floors of the scaling limiter (Zhang & Shu, JCP 229, 2010)
EPS_RHO = EPS_P = 1e-13
# MP limiter constants (Suresh & Huynh, JCP 136, 1997)
MP_ALPHA, MP_BETA = 2.0, 4.0
# OE: relative floor on the jump integrals, (1000 eps)^2 (see `oe_theta`),
# and the P2 weight of a jump integral, 1/5 plus the folded curvature term
OE_FLOOR, _P2_WEIGHT = (1000.0 * np.finfo(float).eps) ** 2, 0.2 + 48.0


def minmod4(a, b, c, d):
    """sign * min(|a|,|b|,|c|,|d|) when all four share a sign, else 0.

    With lo/hi the min/max of the four: all positive means lo > 0 and the
    result is lo; all negative means hi < 0 and the result is hi.
    """
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return np.where(lo > 0, lo, np.where(hi < 0, hi, 0.0))


def median3(a, b, c):
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def midpoint_value(avg, left, right):
    """Midpoint of the cell parabola: (3/2)*avg - (1/4)*(left + right)."""
    return 1.5 * avg - 0.25 * (left + right)


# ---------------------------------------------------------------------------
# scaling IDP limiter


def scaling_limit_scalar(avg, left, mid, right, lo, hi):
    """Blend (left, mid, right) toward avg until mid lies in [lo, hi].

    avg, left, mid and right are arrays of one shape (the scheme's (k, 1)
    rows, or 0-d) or plain numbers for one cell; lo and hi are numbers, and
    avg lies in [lo, hi] (the scheme checks its averages once per stage).
    Returns (left_hat, mid_hat, right_hat, theta) in that shape. Only the
    cells whose midpoint leaves [lo, hi] are blended, and an output is
    copied only if there is one: with none, the inputs themselves come
    back (as arrays) with theta = 1. Limited cells are gathered and
    scattered by flat index (`take`, `put`), whatever the shape.
    """
    if not isinstance(mid, np.ndarray):
        avg, left, mid, right = (np.asarray(x, dtype=float)
                                 for x in (avg, left, mid, right))
    rows = ((mid < lo) | (mid > hi)).ravel().nonzero()[0]  # the limited cells
    theta = np.empty(mid.shape)
    theta.fill(1.0)
    if not rows.size:
        return left, mid, right, theta
    hat_m = np.minimum(np.maximum(mid, lo), hi)  # limited ones on their bound
    a, m, bound = avg.take(rows), mid.take(rows), hat_m.take(rows)
    # a - bound and a - m share their sign, and negating both terms of a
    # quotient negates it exactly: the modulus is (a - lo)/(a - m) below
    # and (hi - a)/(m - a) above bit for bit, and a +0 where a is the bound
    t = np.abs((a - bound) / (a - m))
    theta.put(rows, t)
    base = (1.0 - t) * a
    hat_l, hat_r = left.copy(), right.copy()
    hat_l.put(rows, base + t * left.take(rows))
    hat_r.put(rows, base + t * right.take(rows))
    return hat_l, hat_m, hat_r, theta


def scaling_limit_system(system, avg, left, mid, right, avg_state=None):
    """Two-stage (density then pressure) scaling limiter for Euler/MHD.

    Floors are per cell: min(EPS_RHO or EPS_P, value at the cell average).
    The pressure stage is re-halved up to three times (then fully
    collapsed) if rounding leaves the recomputed midpoint pressure under
    the floor.

    avg, left, mid, right: (..., d) states of one shape; avg has positive,
    finite density and pressure (the scheme checks its averages once per
    stage). avg_state: avg's derivation if the caller has it. Returns
    (left_hat, mid_hat, right_hat, theta, mid_state) with mid_state the
    derivation (`GasState`: rho, v_x, p, B^2) of the limited midpoints.

    Each stage works on its own rows only: the density stage on the cells
    whose midpoint density is under the floor, the pressure stage and its
    re-halving on the cells whose pressure is then under the floor (with
    none, mid_state is the derivation already taken of the density stage's
    states; a limited row takes its blend's), and the endpoint blends on
    the cells with theta < 1. Every
    other cell gets its inputs as a blend with theta = 1 gives them,
    `0*avg + value`, so the result is the full-array formula's bit for
    bit, signed zeros included.
    """
    lead, d = avg.shape[:-1], avg.shape[-1]
    avg = avg.reshape(-1, d)
    mid = mid.reshape(-1, d)

    p_a = (system.derive(avg) if avg_state is None else avg_state).p.reshape(-1)
    e_rho = np.minimum(EPS_RHO, avg[:, 0])
    e_p = np.minimum(EPS_P, p_a)
    theta = np.ones(len(avg))
    zero = 0.0 * avg                  # (1 - theta) * avg where theta = 1

    # every state below is a convex blend with the checked average whose
    # density is at least the floor, so its pressure needs no guard
    u_star = zero + mid
    rows = (mid[:, 0] < e_rho).nonzero()[0]
    if rows.size:
        a, m = avg.take(rows, 0), mid.take(rows, 0)
        t = (a[:, 0] - e_rho[rows]) / (a[:, 0] - m[:, 0])
        theta[rows] = t
        u_star[rows] = (1.0 - t)[:, None] * a + t[:, None] * m

    # where t_p = 1 the midpoint is u_star bit for bit and so is its
    # derivation; its rho is a view of mid_hat, which the rows below update
    mid_hat = u_star
    st = system.derive(u_star)
    rows = (st.p < e_p).nonzero()[0]
    if rows.size:
        a, us = avg.take(rows, 0), u_star.take(rows, 0)
        pa, e = p_a[rows], e_p[rows]
        t = (pa - e) / (pa - st.p[rows])

        def blend(t):
            return (1.0 - t)[:, None] * a + t[:, None] * us

        m = blend(t)
        sm = system.derive(m)
        for attempt in range(4):
            bad = sm.p < e
            if not np.logical_or.reduce(bad):
                break
            t = np.where(bad, 0.5 * t if attempt < 3 else 0.0, t)
            m = blend(t)
            sm = system.derive(m)
        mid_hat[rows] = m
        st.vx[rows], st.p[rows] = sm.vx, sm.p
        if st.b2 is not None:
            st.b2[rows] = sm.b2
        theta[rows] *= t

    left = left.reshape(-1, d)
    right = right.reshape(-1, d)
    hat_l, hat_r = zero + left, zero + right
    # theta <= 1, so these are the rows with theta < 1 (and a nan theta)
    rows = (theta != 1.0).nonzero()[0]
    if rows.size:
        th = theta[rows][:, None]
        base = (1.0 - th) * avg.take(rows, 0)
        hat_l[rows] = base + th * left.take(rows, 0)
        hat_r[rows] = base + th * right.take(rows, 0)
    if len(lead) != 1:                  # states given other than as rows
        st = type(st)(*(None if a is None else a.reshape(lead) for a in st))
    shape = lead + (d,)
    return (hat_l.reshape(shape), mid_hat.reshape(shape), hat_r.reshape(shape),
            theta.reshape(lead), st)


# ---------------------------------------------------------------------------
# OE procedure


def parabola_coeffs(avg, left, right):
    """Coefficients of p(xi) = c0 + c1*xi + c2*xi^2 on xi in [-1/2, 1/2]
    matching the endpoint values and the cell mean."""
    c2 = 3.0 * (left + right - 2.0 * avg)
    c1 = right - left
    c0 = 1.5 * avg - 0.25 * (left + right)
    return c0, c1, c2


def oe_geometry(sizes, d):
    """The grid factors of `oe_theta` for cells 1..K-2 of K cells of the
    given (K,) sizes and d components: (dx, left, right), with dx the (K-2,)
    own sizes and, per neighbour side, the (K-2, d) factors b, 2 off, 6 off,
    6 off^2 + (b^2 - 1)/2 and b^2 of the neighbour's Legendre coefficients
    on the own cell (see `oe_theta`). They depend on the grid alone, so a
    scheme builds them once. They come at full (K-2, d) shape because a
    product of same-shape arrays runs several times faster than one that
    broadcasts a per-cell factor over the short component axis; at d = 1
    that is the (K-2, 1) shape of the broadcast."""
    dxo = sizes[1:-1]

    def side(nb, sign):
        b = dxo / sizes[nb]
        off = sign * 0.5 * (b + 1.0)
        b2 = b * b
        return tuple(np.repeat(f[:, None], d, axis=1) for f in
                     (b, 2.0 * off, 6.0 * off, 6.0 * off * off + 0.5 * (b2 - 1.0), b2))

    return dxo, side(slice(0, -2), 1.0), side(slice(2, None), -1.0)


def oe_theta(avgs, lefts, rights, geometry, dt, lo, hi, speed):
    """Damping factors theta_OE for cells 1..K-2 given data for cells 0..K-1.

    avgs/lefts/rights: (K, d) cell averages and one-sided endpoint values;
    geometry: `oe_geometry` of the (K,) cell sizes and d; lo, hi: the signed
    wave speeds v - c, v + c of avgs, and speed their largest modulus
    |v| + c. Returns (K-2,) factors in (0, 1].

    The jump integrals over the own cell are exact. Each parabola is taken
    in Legendre form on xi in [-1/2, 1/2], p = A + a1 P1(2xi) + a2 P2(2xi)
    with slope a1 = (R - L)/2 and curvature a2 = (L + R)/2 - A, whose square
    integrates to A^2 + a1^2/3 + a2^2/5. A neighbour's parabola at
    xi_nb = off + b*xi has on the own cell the coefficients
    A + 2 off a1 + (6 off^2 + (b^2 - 1)/2) a2, b (a1 + 6 off a2) and b^2 a2.
    The curvature term dx^5/3 (p'')^2 is 48 dx a2^2 and folds into the P2
    weight: each jump integral is dx sum_k (da0^2 + da1^2/3 + (1/5 + 48) da2^2).
    The factors dx and span = s_r - s_l cancel in sigma and are left out.

    A cell with den <= OE_FLOOR * span * sum_k A_k^2 counts as constant:
    sigma = 0 and theta = 1 exactly, where otherwise sigma is a ratio of
    two rounding-noise integrals. Relative to span * sum_k A_k^2, noise of
    up to 4 ulps per component reaches 4e3 eps^2 on a uniform grid and 3e5
    eps^2 with neighbour size ratios up to 4, and the solver's constant
    states stay under 1e-28 (2e3 eps^2), while a smooth profile of
    relative amplitude 1e-8 on 24 cells gives 5e-21 or more; the floor
    (1000 eps)^2 ~ 4.9e-26 lies between the two.
    """
    def square_sum(x):                       # over the components, axis 1
        return np.einsum("ij,ij->i", x, x)

    dxo, left, right = geometry
    a1 = 0.5 * (rights - lefts)
    a2 = 0.5 * (lefts + rights) - avgs
    own, lnb, rnb = slice(1, -1), slice(0, -2), slice(2, None)
    Ao, a1o, a2o = avgs[own], a1[own], a2[own]
    own_dev = square_sum(a1o) / 3.0 + square_sum(a2o) / 5.0

    def jumps(nb, factors):
        """(eta, d) against the neighbour cells `nb`."""
        b, off2, off6, c2, b2 = factors
        n1, n2 = a1[nb], a2[nb]
        t2 = b2 * n2
        t1 = b * (n1 + off6 * n2)
        t0 = (avgs[nb] - Ao) + off2 * n1 + c2 * n2
        d0 = square_sum(t0)
        return (d0 + square_sum(a1o - t1) / 3.0 + _P2_WEIGHT * square_sum(a2o - t2),
                d0 + square_sum(t1) / 3.0 + _P2_WEIGHT * square_sum(t2) + own_dev)

    eta_l, d_l = jumps(lnb, left)
    eta_r, d_r = jumps(rnb, right)

    s_l = np.minimum(np.minimum(lo[lnb], lo[own]), np.minimum(lo[rnb], 0.0))
    s_r = np.maximum(np.maximum(hi[lnb], hi[own]), np.maximum(hi[rnb], 0.0))
    num = s_r * eta_l - s_l * eta_r
    den = s_r * d_l - s_l * d_r
    live = den > OE_FLOOR * (s_r - s_l) * square_sum(Ao)
    sigma = np.where(live, num / np.where(live, den, 1.0), 0.0)

    beta = np.maximum(np.maximum(speed[lnb], speed[own]), speed[rnb])
    return np.exp(-beta * dt * sigma / dxo)


def oe_apply(theta, avg, left, right):
    """Blend (cells, d) endpoints toward the average by the (cells,) theta
    and recompute the midpoint so the average decomposition still holds.
    theta is expanded to (cells, d) once (see `oe_geometry`)."""
    t = np.repeat(theta[:, None], avg.shape[1], axis=1)
    base = (1.0 - t) * avg
    l_new = base + t * left
    r_new = base + t * right
    return l_new, midpoint_value(avg, l_new, r_new), r_new


# ---------------------------------------------------------------------------
# MP limiter


def mp_limit(w_avg, w_node):
    """Monotonicity-preserving clip of both one-sided values of every node.

    w_avg: (n+6, d) averages of cells -3..n+2; w_node: (n+5, d) values at
    nodes -2..n+2. Returns a (2, n+2, d) array: row 0 holds the left-side
    values at nodes 0..n+1 (right endpoints of cells -1..n), row 1 the
    right-side values at nodes -1..n (left endpoints of cells -1..n).

    Per node side the classical MP construction reads five averages
    a0..a4 ordered from the far side of the node's own cell a2 to the
    straddling neighbour a3, the curvatures d2m, d2c, d2p centred on a1, a2,
    a3, and minmod4(4c - e, 4e - c, c, e) of the curvature pairs (d2c, d2p)
    at the node and (d2m, d2c) at the own cell's far face. The min/max
    groups pair the own-cell average with the straddling neighbour, and
    u_md carries -d/2 (a smooth profile is never modified; the
    transcription pairing the away neighbour with +d/2 clips smooth curved
    regions at second order and breaks the scheme's accuracy tables). The
    value is median(u, u_min, u_max), taken as the clip
    min(max(u, u_min), u_max): `own` is an argument of every min/max
    bracket, so u_min <= own <= u_max holds exactly and the clip is the
    median bit for bit, signed zeros included (`median3` is the general
    form, kept for the tracer).

    Each side orientation builds one curvature array over cells -2..n+1 and
    one minmod4 array over the interfaces between them; the node and
    far-face terms are two shifted slices of it. The curvature keeps the
    per-node summation order of its orientation, (a[i+1] - 2a[i]) + a[i-1]
    for the left side and (a[i-1] - 2a[i]) + a[i+1] for the mirrored right
    side: the two orders round differently, so one shared array would
    change the limited values in the last bit. The face half-sums
    0.5 (a[i] + a[i+1]) are shared, since addition commutes; the min/max
    brackets are not, because a shared one would swap the arguments of
    np.minimum and np.maximum and with them the sign of a tied zero.
    """
    n2 = len(w_avg) - 4                      # nodes per side, n + 2
    # the cells before, at and after each node's own cell, in w_avg rows
    lo, mid, hi = slice(1, n2 + 1), slice(2, n2 + 2), slice(3, n2 + 3)
    # the minmod4 interfaces before and after each node's own cell
    face_lo, face_hi = slice(0, n2), slice(1, n2 + 1)
    own = w_avg[mid]
    ahead, behind, twice = w_avg[2:], w_avg[:-2], 2.0 * w_avg[1:-1]
    # 0.5 (a + a_near) at the faces between cells -2..n+1 and their right
    # neighbours, so each row's node slice picks its straddling face
    half = 0.5 * (w_avg[1 : n2 + 2] + w_avg[2 : n2 + 3])
    out = np.empty((2,) + own.shape)
    # per row: curvature summation order (leading, trailing term), far cell,
    # straddling cell, node and far-face minmod slices, node values
    sides = ((ahead, behind, lo, hi, face_hi, face_lo, w_node[mid]),
             (behind, ahead, hi, lo, face_lo, face_hi, w_node[lo]))
    for row, (lead, trail, far, near, at_node, at_face, u) in enumerate(sides):
        curv = (lead - twice) + trail        # centred on cells -2..n+1
        c4 = 4.0 * curv
        c, e = curv[:-1], curv[1:]
        dm4 = minmod4(c4[:-1] - e, c4[1:] - c, c, e)
        a_near = w_avg[near]
        step = own - w_avg[far]
        u_md = half[at_node] - 0.5 * dm4[at_node]
        u_ul = own + MP_ALPHA * step
        u_lc = own + 0.5 * step + (MP_BETA / 3.0) * dm4[at_face]
        u_min = np.maximum(np.minimum(np.minimum(own, a_near), u_md),
                           np.minimum(np.minimum(own, u_ul), u_lc))
        u_max = np.minimum(np.maximum(np.maximum(own, a_near), u_md),
                           np.maximum(np.maximum(own, u_ul), u_lc))
        np.minimum(np.maximum(u, u_min), u_max, out=out[row])
    return out
