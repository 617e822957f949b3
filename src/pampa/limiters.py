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
  counts as constant and keeps theta = 1 exactly. Those are most cells of
  a run, so a screen finds them first and OE forms its jump integrals on
  the other rows alone. It bounds each cell's denominator from the l2
  norms of the average jumps D and of the neighbours' slopes N1 and
  curvatures N2: by the triangle inequality the neighbour's coefficients
  on the own cell are at most max(1, |2 off|, |c2|)(D + N1 + N2),
  b max(1, |6 off|)(N1 + N2) and b^2 N2, and (D + N1 + N2)^2 <= 3 (D^2 +
  N1^2 + N2^2). The denominator sums non-negative terms, so rounding moves
  it by about 1e-14 relative, and a cell whose bound times 16 (plus floors
  against underflow) stays under the floor is one the floor test leaves
  alone (proof in `oe_theta`);
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
# OE screen: floors against underflow, and the X rows of an own row's left
# neighbour, right neighbour and own cell (see `oe_theta`)
_OE_TAU, _OE_TINY = 2.0 ** -1000, 2.0 ** -900
_OE_ROWS = np.array([[0], [2], [1]])


def minmod4(a, b, c, d):
    """sign * min(|a|,|b|,|c|,|d|) when all four share a sign, else 0.

    With lo/hi the min/max of the four: all positive means lo > 0 and the
    result is lo; all negative means hi < 0 and the result is hi. That is
    lo clamped into [0, hi]: fmax and fmin take the number where the other
    argument is nan, so a nan row (whose lo and hi are both nan) gives 0,
    and + 0.0 makes a tied zero +0.0, the value of a mixed row.
    """
    lo = np.minimum(np.minimum(a, b), np.minimum(c, d))
    hi = np.maximum(np.maximum(a, b), np.maximum(c, d))
    return np.fmin(np.fmax(lo, 0.0), hi) + 0.0


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
    the cells with theta < 1, searched for only if a stage limited a row.
    Every other cell gets its inputs as a blend with theta = 1 gives them,
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
    limited = rows.size               # theta is 1 unless a stage limits
    if limited:
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
        limited = True
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
    rows = (theta != 1.0).nonzero()[0] if limited else ()
    if len(rows):
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
    given (K,) sizes and d components: (dx, factors, screen), with dx the
    (K-2,) own sizes, factors the (5, 2, K-2, d) factors b, 2 off, 6 off,
    c2 = 6 off^2 + (b^2 - 1)/2 and b^2 of the neighbour's Legendre
    coefficients on the own cell (see `oe_theta`), left neighbour then
    right, and screen the (2, K-2) constants 16 * 3C of the two sides, with
    C = m0^2 + b^2 m1^2/3 + (1/5 + 48) b^4, m0 = max(1, |2 off|, |c2|) and
    m1 = max(1, |6 off|). They depend on the grid alone, so a scheme builds
    them once. The factors come at full (K-2, d) shape because a product
    of same-shape arrays runs several times faster than one that
    broadcasts a per-cell factor over the short component axis; at d = 1
    that is the (K-2, 1) shape of the broadcast."""
    dxo = sizes[1:-1]
    b = dxo / np.stack((sizes[:-2], sizes[2:]))
    off = np.array([[0.5], [-0.5]]) * (b + 1.0)
    b2 = b * b
    f = np.stack((b, 2.0 * off, 6.0 * off, 6.0 * off * off + 0.5 * (b2 - 1.0), b2))
    m0 = np.maximum(np.maximum(1.0, np.abs(f[1])), np.abs(f[3]))
    m1 = np.maximum(1.0, np.abs(f[2]))
    screen = 48.0 * (m0 * m0 + b2 * (m1 * m1) / 3.0 + _P2_WEIGHT * (b2 * b2))
    return dxo, np.repeat(f[..., None], d, axis=-1), screen


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
    A_nb + 2 off a1 + c2 a2 (c2 = 6 off^2 + (b^2 - 1)/2), t1 = b (a1 +
    6 off a2) and t2 = b^2 a2, in the neighbour's a1, a2; t0 is the first
    less A. The curvature term dx^5/3 (p'')^2 is 48 dx a2^2 and folds into
    the P2 weight: each jump integral is dx sum_k (da0^2 + da1^2/3 +
    (1/5 + 48) da2^2), so a side's denominator term is d = |t0|^2 +
    |t1|^2/3 + (1/5 + 48)|t2|^2 + own_dev with own_dev = |a1|^2/3 +
    |a2|^2/5 of the own cell. The factors dx and span = s_r - s_l cancel in
    sigma and are left out.

    A cell with den <= rhs = OE_FLOOR * span * sum_k A_k^2 counts as
    constant: sigma = 0 and theta = 1 exactly, where otherwise sigma is a
    ratio of two rounding-noise integrals. Relative to span * sum_k A_k^2,
    noise of up to 4 ulps per component reaches 4e3 eps^2 on a uniform
    grid and 3e5 eps^2 with neighbour size ratios up to 4, and the solver's
    constant states stay under 1e-28 (2e3 eps^2), while a smooth profile
    of relative amplitude 1e-8 on 24 cells gives 5e-21 or more; the floor
    (1000 eps)^2 ~ 4.9e-26 lies between the two.

    Most cells are often such constants (94% of mhd_shock_tube's up to
    t = 0.005), so a screen bounds den from above before any jump integral
    is formed, and the exact formulas run only on the rows it keeps:
    gathered by `take`, both sides stacked, their ten square sums reduced
    by one einsum; where it keeps more than half, over the whole range as
    views. Gathering costs more than it saves from about two thirds kept
    (mhd_shock_tube and blast_waves states, 2-core Xeon), and gathers
    that large made malloc return and re-fault their pages on every call,
    so the views take over at half: gathering every time made a shu_osher
    stage (93% kept) 8% slower than the unscreened formula, and the last
    third of an mhd_shock_tube run 30% slower.

    The bound. Per row, with l2 norms over the components, take the
    average jump D = |A_nb - A|, N1 = |a1_nb|, N2 = |a2_nb| and S = D +
    N1 + N2. The triangle inequality gives

        |t0| <= m0 (D + N1 + N2),   m0 = max(1, |2 off|, |c2|),
        |t1| <= b m1 (N1 + N2),     m1 = max(1, |6 off|),
        |t2|  = b^2 N2,

    so a side's d is at most C S^2 + own_dev with C = m0^2 + b^2 m1^2/3 +
    (1/5 + 48) b^4. By Cauchy-Schwarz S^2 <= 3 (D^2 + N1^2 + N2^2), which
    the square sums give without a square root: d is at most
    B = 3C (D^2 + N1^2 + N2^2) + own_dev (16 * 3C is `oe_geometry`'s
    screen), and den at most s_r B_l - s_l B_r.

    Rounding. As s_r >= 0 >= s_l, den = s_r d_l - s_l d_r sums
    non-negative terms, as do the sums forming each d and the bound (a
    t-component sums signed terms, but its rounded value is bounded by
    the absolute values of its rounded terms). In the normal range a
    rounding is a relative error of at most 2^-53, and the few dozen
    between the inputs and den, or the bound, move each by at most about
    1e-14 relative, which the factor 16 covers. An operation that
    underflows makes an absolute error of at most 2^-1075 instead: a
    t-component may then pass its bound by 2^-1073, which at most doubles
    its square (the square of the excess underflows), and the final
    products of den may add a few 2^-1074. tau = 2^-1000, added to each
    side's bound and scaled by s like d, exceeds the first; tiny = 2^-900
    keeps rhs above everything the second adds, and no row with rhs <=
    2^-900 is skipped. A row with

        s_r (16 B_l + tau) - s_l (16 B_r + tau) + tiny < rhs

    therefore has den < rhs and gets sigma = +0.0, the live test's value.
    A finite 16 B keeps its side's d under a fifth of the largest double,
    so no d overflows on a skipped row, and a NaN or infinite bound (which
    a NaN or infinite value among the row's inputs gives) fails the
    comparison: such a row is never skipped. The screen's square sums are
    the exact path's (own_dev and rhs come from the same einsum), so every
    kept row gets the unscreened formula's value, and theta is that
    formula's bit for bit, signed zeros included.
    """
    dxo, factors, screen = geometry
    K, d = avgs.shape
    lnb, own, rnb = slice(0, -2), slice(1, -1), slice(2, None)
    # planes: slope a1, curvature a2, average A and the jump A[j+1] - A[j]
    X = np.empty((4, K, d))
    a1, a2, A, jump = X
    np.subtract(rights, lefts, out=a1)
    a1 *= 0.5
    np.add(lefts, rights, out=a2)
    a2 *= 0.5
    a2 -= avgs
    A[...] = avgs
    np.subtract(avgs[1:], avgs[:-1], out=jump[:-1])
    jump[-1] = 0.0                                   # summed, never read
    sq = np.einsum("qkd,qkd->qk", X, X)
    # per own row, in one array for one gather: own_dev, s_l, s_r, rhs
    P = np.empty((4, K - 2))
    own_dev, s_l, s_r, rhs = P
    np.add(sq[0, own] / 3.0, sq[1, own] / 5.0, out=own_dev)
    np.minimum(np.minimum(lo[lnb], lo[own]), np.minimum(lo[rnb], 0.0), out=s_l)
    np.maximum(np.maximum(hi[lnb], hi[own]), np.maximum(hi[rnb], 0.0), out=s_r)
    np.multiply(OE_FLOOR * (s_r - s_l), sq[2, own], out=rhs)

    # the screen: D^2 + N1^2 + N2^2 per side, then the bound of den
    n12 = sq[0] + sq[1]
    S = np.empty((2, K - 2))
    np.add(sq[3, :-2], n12[lnb], out=S[0])
    np.add(sq[3, 1:-1], n12[rnb], out=S[1])
    B = screen * S + (16.0 * own_dev + _OE_TAU)
    rows = (~(s_r * B[0] - s_l * B[1] + _OE_TINY < rhs)).nonzero()[0]

    sigma = np.zeros(K - 2)
    k = rows.size
    if 2 * k > K - 2:
        # every row, as views: neighbour side s of own row r is X row r + 2s
        s0, s1, s2 = X.strides
        nb = np.ndarray((3, 2, K - 2, d), X.dtype, X, 0, (s0, 2 * s1, s1, s2))
        ow, f, rows = X[:3, own], factors, slice(None)
    elif k:
        # X rows r (left), r + 2 (right) and r + 1 (own) of own rows r
        G = X[:3].take(rows + _OE_ROWS, 1)
        nb, ow, f = G[:, :2], G[:, 2], factors.take(rows, 2)
        P = P.take(rows, 1)
    if k:
        own_dev, s_l, s_r, rhs = P
        n1, n2, A_nb = nb
        a1o, a2o, Ao = ow
        b, off2, off6, c2, b2 = f
        # per side t0, a1o - t1, t1, a2o - t2 and t2, in the order of the
        # unscreened formula: t0 = ((A_nb - Ao) + off2 n1) + c2 n2,
        # t1 = b (n1 + off6 n2), t2 = b2 n2
        W = np.empty((5,) + n1.shape)
        t0, u1, t1, u2, t2 = W
        np.multiply(b2, n2, out=t2)
        np.multiply(off6, n2, out=t1)
        t1 += n1
        t1 *= b
        np.subtract(A_nb, Ao, out=t0)
        np.multiply(off2, n1, out=u1)
        t0 += u1
        np.multiply(c2, n2, out=u1)
        t0 += u1
        np.subtract(a1o, t1, out=u1)
        np.subtract(a2o, t2, out=u2)
        ss = np.einsum("qskd,qskd->qsk", W, W)
        # (eta, d - own_dev) per side, then (num, den)
        E = (ss[0] + ss[1:3] / 3.0) + _P2_WEIGHT * ss[3:5]
        E[1] += own_dev
        num, den = s_r * E[:, 0] - s_l * E[:, 1]
        live = den > rhs
        sigma[rows] = np.where(live, num / np.where(live, den, 1.0), 0.0)

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
