import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pampa import limiters, oracle, run as run_mod
from pampa.config import load_config
from pampa.errors import DomainError
from pampa.systems import Euler, IdealMHD, advection, burgers

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_minmod4_and_median3():
    assert limiters.minmod4(1.0, 2.0, 3.0, 4.0) == 1.0
    assert limiters.minmod4(-1.0, 2.0, 3.0, 4.0) == 0.0
    assert limiters.minmod4(-1.0, -2.0, -3.0, -4.0) == -1.0
    assert limiters.median3(5.0, 1.0, 3.0) == 3.0


@given(finite, finite, finite)
def test_median3_is_middle(a, b, c):
    assert limiters.median3(a, b, c) == sorted([a, b, c])[1]


def test_scaling_scalar_counterexample_cell():
    # avg = 1 - 2*eps/3 with endpoints (1, 0): midpoint 5/4 - eps leaves
    # [0, 1]; theta = 4/13 and the limited midpoint lands exactly on 1
    eps = 0.1
    avg = 1.0 - 2.0 * eps / 3.0
    mid = limiters.midpoint_value(avg, 1.0, 0.0)
    assert mid == pytest.approx(1.15, rel=1e-14)
    hl, hm, hr, theta = limiters.scaling_limit_scalar(avg, 1.0, mid, 0.0, 0.0, 1.0)
    assert theta == pytest.approx(0.3076923076923077, rel=1e-12)  # 4/13
    assert hm == 1.0
    assert (hl + 4.0 * hm + hr) / 6.0 == pytest.approx(avg, rel=1e-14)


def test_scaling_scalar_inactive():
    hl, hm, hr, theta = limiters.scaling_limit_scalar(0.5, 0.4, 0.5, 0.6, 0.0, 1.0)
    assert (theta, hl, hm, hr) == (1.0, 0.4, 0.5, 0.6)
    hl, hm, hr, theta = limiters.scaling_limit_scalar(0.5, 0.5, 0.5, 0.5, 0.0, 1.0)
    assert (theta, hl, hm, hr) == (1.0, 0.5, 0.5, 0.5)


@given(st.floats(0.01, 0.99), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_scalar_theta_monotone_in_violation(avg, left, right):
    # theta is nonincreasing as the midpoint moves further past the bound
    thetas = []
    for excess in (0.1, 0.5, 1.0, 3.0):
        *_, th = limiters.scaling_limit_scalar(avg, left, 1.0 + excess, right,
                                               0.0, 1.0)
        thetas.append(th)
    assert all(a >= b for a, b in zip(thetas, thetas[1:]))


def test_scaling_system_density_stage():
    # endpoints with rho = 3.2 drive the parabola midpoint density to -0.1
    # exactly; theta_rho = (1 - 1e-13)/1.1
    sys = Euler(1.4)
    avg = sys.from_primitive(np.array([[1.0, 0.0, 1.0]]))
    left = sys.from_primitive(np.array([[3.2, 0.0, 1.0]]))
    right = sys.from_primitive(np.array([[3.2, 0.0, 1.0]]))
    mid = limiters.midpoint_value(avg, left, right)
    assert mid[0, 0] == pytest.approx(-0.1, rel=1e-13)
    hl, hm, hr, theta, _ = limiters.scaling_limit_system(sys, avg, left, mid, right)
    assert theta[0] == pytest.approx(0.9090909090908182, rel=1e-12)
    # the blend lands on the floor up to rounding at the average's scale
    assert hm[0, 0] > 0.0
    assert hm[0, 0] == pytest.approx(1e-13, abs=5e-16)
    cad = (hl + 4.0 * hm + hr) / 6.0
    assert np.allclose(cad, avg, rtol=1e-13, atol=1e-16)


def test_scaling_system_inactive_when_compliant():
    sys = Euler(1.4)
    avg = sys.from_primitive(np.array([[1.0, 0.1, 1.0]]))
    left = sys.from_primitive(np.array([[0.9, 0.1, 0.8]]))
    right = sys.from_primitive(np.array([[1.1, 0.1, 1.2]]))
    mid = limiters.midpoint_value(avg, left, right)
    hl, hm, hr, theta, _ = limiters.scaling_limit_system(sys, avg, left, mid, right)
    assert theta[0] == 1.0
    assert np.array_equal(hl, left) and np.array_equal(hr, right)


@pytest.mark.parametrize("system", [advection(0.0, 1.0), burgers(-1.0, 2.0),
                                    Euler(1.4), IdealMHD(5.0 / 3.0, 0.75)],
                         ids=["advection", "burgers", "euler", "mhd"])
def test_scaling_limit_dispatch(system):
    # each law's scaling_limit equals its per-kind limiter
    rng = np.random.Generator(np.random.Philox(5))
    avg, left, right = (oracle.sample_states_moderate(system, rng, 64)
                        for _ in range(3))
    mid = limiters.midpoint_value(avg, left, right)
    got = system.scaling_limit(avg, left, mid, right)
    if system.nvars == 1:
        want = limiters.scaling_limit_scalar(
            avg[:, 0], left[:, 0], mid[:, 0], right[:, 0],
            system.u_min, system.u_max)
        want = [w[:, None] for w in want[:3]] + [want[3], None]
        assert got[4] is None
    else:
        want = limiters.scaling_limit_system(system, avg, left, mid, right)
    for g, w in zip(got[:4], want[:4]):
        assert g.shape == w.shape and np.array_equal(g, w)
    if want[4] is not None:
        for g, w in zip(got[4], want[4]):
            assert (g is None and w is None) or np.array_equal(g, w)


# The full-array limiters as they were before the row-subset form: every
# formula evaluated on every cell. The row-subset limiters must return the
# same bits, signed zeros included. `log` (added) counts the cells of each
# stage and the cells re-halved per attempt.


def _scaling_limit_scalar_full(avg, left, mid, right, lo, hi):
    avg, left, mid, right = map(lambda x: np.asarray(x, dtype=float),
                                (avg, left, mid, right))
    if np.any(avg < lo) or np.any(avg > hi):
        raise DomainError("cell average outside the invariant interval")
    below = mid < lo
    above = mid > hi
    den_b = np.where(below, avg - mid, 1.0)
    den_a = np.where(above, mid - avg, 1.0)
    theta = np.where(below, (avg - lo) / den_b,
                     np.where(above, (hi - avg) / den_a, 1.0))
    active = below | above
    mid_hat = np.where(below, lo, np.where(above, hi, mid))
    left_hat = np.where(active, (1.0 - theta) * avg + theta * left, left)
    right_hat = np.where(active, (1.0 - theta) * avg + theta * right, right)
    return left_hat, mid_hat, right_hat, theta


def _scaling_limit_system_full(system, avg, left, mid, right, p_avg=None,
                               log=None):
    avg = np.asarray(avg, dtype=float)
    left = np.asarray(left, dtype=float)
    mid = np.asarray(mid, dtype=float)
    right = np.asarray(right, dtype=float)

    rho_a = avg[..., 0]
    if p_avg is None:
        if np.any(rho_a <= 0) or not np.all(np.isfinite(rho_a)):
            raise DomainError("cell average with non-positive density")
        p_a = system.pressure(avg, check=False)
        if np.any(p_a <= 0) or not np.all(np.isfinite(p_a)):
            raise DomainError("cell average with non-positive pressure")
    else:
        p_a = p_avg
    e_rho = np.minimum(limiters.EPS_RHO, rho_a)
    e_p = np.minimum(limiters.EPS_P, p_a)

    rho_m = mid[..., 0]
    low_rho = rho_m < e_rho
    den = np.where(low_rho, rho_a - rho_m, 1.0)
    t_rho = np.where(low_rho, (rho_a - e_rho) / den, 1.0)
    u_star = (1.0 - t_rho)[..., None] * avg + t_rho[..., None] * mid

    p_star = system.pressure(u_star, check=False)
    low_p = p_star < e_p
    den = np.where(low_p, p_a - p_star, 1.0)
    t_p = np.where(low_p, (p_a - e_p) / den, 1.0)

    def blend(t):
        return (1.0 - t)[..., None] * avg + t[..., None] * u_star

    mid_hat = blend(t_p)
    p_mid = system.pressure(mid_hat, check=False)
    halved = []
    for attempt in range(4):
        bad = p_mid < e_p
        if not np.any(bad):
            break
        halved.append(int(np.count_nonzero(bad)))
        t_p = np.where(bad, 0.5 * t_p if attempt < 3 else 0.0, t_p)
        mid_hat = blend(t_p)
        p_mid = system.pressure(mid_hat, check=False)
    if log is not None:
        log.update(low_rho=int(np.count_nonzero(low_rho)),
                   low_p=int(np.count_nonzero(low_p)), halved=halved)

    theta = t_rho * t_p
    th = theta[..., None]
    left_hat = (1.0 - th) * avg + th * left
    right_hat = (1.0 - th) * avg + th * right
    return left_hat, mid_hat, right_hat, theta, p_mid


def _assert_system_limited_same(system, got, want):
    """scaling_limit_system's outputs against the full-array formula's:
    the limited states and theta bit for bit, the midpoints' derivation's
    p against p_mid there, and its rho, v_x and B^2 against a derivation
    taken afresh of the limited midpoints."""
    for g, w in zip(got[:4], want[:4]):
        _assert_same_bits(g, w)
    state, fresh = got[4], system.derive(got[1])
    _assert_same_bits(state.p, want[4])
    for g, w in zip(state, fresh):
        if w is None:                           # Euler's B^2
            assert g is None
        else:
            _assert_same_bits(g, w)


def _scalar_inputs(system, rng, n, active):
    """Averages, endpoints and midpoints of n cells in G whose midpoints
    leave G (below or above at random) on the rows `active` only. Inactive
    rows include midpoints on either bound, a nan midpoint and endpoints of
    -0.0 where the bound allows them."""
    lo, hi = system.u_min, system.u_max
    avg, left, right = (rng.uniform(lo, hi, n) for _ in range(3))
    mid = avg.copy()
    quiet = np.setdiff1d(np.arange(n), active)
    if lo <= 0.0 <= hi:
        left[quiet[::3]] = right[quiet[1::3]] = -0.0
    for row, value in zip(quiet[::5], (lo, hi, np.nan)):
        mid[row] = value
    out = rng.uniform(1e-3, 2.0, len(active)) * (hi - lo)
    mid[active] = np.where(rng.random(len(active)) < 0.5, lo - out, hi + out)
    return avg, left, mid, right


@pytest.mark.parametrize("system", [advection(0.0, 1.0), burgers(-1.0, 2.0)],
                         ids=["advection", "burgers"])
@pytest.mark.parametrize("n_active", [0, 1, 5, 40])
def test_scaling_scalar_matches_full_array_formula(system, n_active, rng):
    n = 40
    active = np.sort(rng.choice(n, n_active, replace=False))
    avg, left, mid, right = _scalar_inputs(system, rng, n, active)
    lo, hi = system.u_min, system.u_max
    got = limiters.scaling_limit_scalar(avg, left, mid, right, lo, hi)
    want = _scaling_limit_scalar_full(avg, left, mid, right, lo, hi)
    for g, w in zip(got, want):
        _assert_same_bits(g, w)
    assert np.array_equal(np.flatnonzero(got[3] < 1.0), active)
    # 0-d inputs, one cell at a time, as plain floats
    for j in range(n):
        cell = [float(x[j]) for x in (avg, left, mid, right)]
        got = limiters.scaling_limit_scalar(*cell, lo, hi)
        want = _scaling_limit_scalar_full(*cell, lo, hi)
        for g, w in zip(got, want):
            _assert_same_bits(g, w)


def _gas_inputs(system, rng, n, active, kind):
    """Averages, endpoints and midpoints of n cells whose midpoints leave
    G on the rows `active` only: by density alone (states at rest, so the
    density-limited state keeps the average's pressure), by pressure alone
    (the average's density, energy cut by twice its internal energy), or
    both (`mixed`: the parabola midpoint of random endpoints, as in a run;
    the active rows there are whatever the data gives)."""
    if kind == "density":
        prim = system.primitive(oracle.sample_states_moderate(system, rng, n))
        prim[:, 1 : 4 if system.nvars > 3 else 2] = 0.0    # velocities
        avg = system.from_primitive(prim)
        left, right = avg.copy(), avg.copy()
        mid = avg.copy()
        # -0.0 momenta against +0.0 averages: a blend with theta = 1 turns
        # them into +0.0
        left[::2, 1] = right[1::2, 1] = mid[::3, 1] = -0.0
        mid[active, 0] = -rng.uniform(0.0, 1.0, len(active)) * avg[active, 0]
        return avg, left, mid, right
    avg, left, right = (oracle.sample_states_moderate(system, rng, n)
                        for _ in range(3))
    if kind == "pressure":
        mid = avg.copy()
        internal = system.pressure(avg) / (system.gamma - 1.0)
        mid[active, -1] -= 2.0 * internal[active]
        return avg, left, mid, right
    left, right = (oracle.sample_states_representable(system, rng, n)
                   for _ in range(2))
    return avg, left, limiters.midpoint_value(avg, left, right), right


@pytest.mark.parametrize("system", [Euler(1.4), IdealMHD(5.0 / 3.0, 0.75)],
                         ids=["euler", "mhd"])
@pytest.mark.parametrize("kind,n_active", [
    ("density", 0), ("density", 1), ("density", 5), ("density", 64),
    ("pressure", 1), ("pressure", 5), ("pressure", 64), ("mixed", None)])
def test_scaling_system_matches_full_array_formula(system, kind, n_active, rng):
    n = 64
    active = np.sort(rng.choice(n, n_active or 0, replace=False))
    avg, left, mid, right = _gas_inputs(system, rng, n, active, kind)
    log = {}
    want = _scaling_limit_system_full(system, avg, left, mid, right, log=log)
    if kind == "density":
        assert (log["low_rho"], log["low_p"]) == (n_active, 0)
    elif kind == "pressure":
        assert (log["low_rho"], log["low_p"]) == (0, n_active)
    else:
        assert log["low_rho"] > 0 and log["low_p"] > 0
    for state in (None, system.derive(avg)):
        got = limiters.scaling_limit_system(system, avg, left, mid, right, state)
        _assert_system_limited_same(system, got, want)
    if kind != "mixed":
        assert np.array_equal(np.flatnonzero(want[3] < 1.0), active)
    # single states and two leading axes
    for j in range(0, n, 7):
        got = limiters.scaling_limit_system(system, avg[j], left[j], mid[j],
                                            right[j])
        want_j = _scaling_limit_system_full(system, avg[j], left[j], mid[j],
                                            right[j])
        _assert_system_limited_same(system, got, want_j)
    shape = (4, 16, system.nvars)
    got = limiters.scaling_limit_system(
        system, *(x.reshape(shape) for x in (avg, left, mid, right)))
    want = tuple(w.reshape(shape if w.ndim == 2 else shape[:2]) for w in want)
    _assert_system_limited_same(system, got, want)


@pytest.mark.parametrize("system", [Euler(1.4), IdealMHD(5.0 / 3.0, 0.75)],
                         ids=["euler", "mhd"])
def test_scaling_system_rehalving_matches_full_array_formula(system, rng):
    # averages just above the pressure floor carry kinetic energies whose
    # rounding noise is of the size of the gap to the floor, so the limited
    # midpoints land under the floor again and again
    n = 4000
    avg, left, mid, right = _gas_inputs(system, rng, n, np.arange(0, n, 2),
                                        "pressure")
    near = slice(0, 400)
    p_near = rng.uniform(1.0e-13, 1.02e-13, 400)
    avg[near, -1] += (p_near - system.pressure(avg[near])) / (system.gamma - 1.0)
    log = {}
    want = _scaling_limit_system_full(system, avg, left, mid, right, log=log)
    assert len(log["halved"]) >= 2, log
    got = limiters.scaling_limit_system(system, avg, left, mid, right)
    _assert_system_limited_same(system, got, want)


def test_limiter_bulk_invariants():
    for sys, seed in [(advection(0.0, 1.0), 11), (Euler(1.4), 12)]:
        rep = oracle.check_limiter_invariants(sys, 20_000, seed)
        assert rep.passed, rep.summary()


# ---------------------------------------------------------------------------
# OE procedure


def _oe_theta(system, avgs, lefts, rights, sizes, dt):
    """limiters.oe_theta with the grid factors of `sizes` and the speed
    range and the speeds of `avgs` taken from the system."""
    lo, hi = system.wave_speed_range(avgs)
    return limiters.oe_theta(avgs, lefts, rights,
                             limiters.oe_geometry(sizes, avgs.shape[1]), dt,
                             lo, hi, system.max_wave_speed(avgs))


def test_oe_theta_constant_field():
    sys = advection(0.0, 2.0)
    avgs = np.full((6, 1), 1.3)
    ends = np.full((6, 1), 1.3)
    th = _oe_theta(sys, avgs, ends, ends, np.full(6, 0.1), dt=0.01)
    assert np.all(th == 1.0)


def test_oe_theta_jump_strictly_damps():
    # single unit jump between flat states: sigma > 0 strictly
    sys = advection(0.0, 1.0)
    avgs = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])[:, None]
    # endpoint values consistent with flat cells away from the jump
    lefts = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0])[:, None]
    rights = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])[:, None]
    th = _oe_theta(sys, avgs, lefts, rights, np.full(6, 0.1), dt=0.01)
    assert np.any(th < 1.0)
    assert np.all(th > 0.0)


def test_oe_theta_smooth_limit_generic_profile():
    # smooth data with non-degenerate curvature: theta_OE -> 1 everywhere
    import pampa.mesh as mesh
    import pampa.transform as transform
    from pampa.scheme import DofField, LimiterConfig, PampaScheme
    from pampa.systems import advection

    sys = advection(0.0, 3.0)
    n = 640
    grid = mesh.uniform_grid(0.0, 1.0, n)
    scheme = PampaScheme(sys, grid, mesh.PERIODIC, LimiterConfig(oscillation="oe"))
    edges = grid.nodes
    avg = 1.5 + 0.4 * (np.cos(2 * np.pi * edges[:-1])
                       - np.cos(2 * np.pi * edges[1:])) / (2 * np.pi) / grid.cell_sizes
    pts = transform.to_transformed(
        sys, (1.5 + 0.4 * np.sin(2 * np.pi * grid.nodes[:n]))[:, None])
    field = DofField(avg[:, None], pts)
    dt = scheme.max_dt(field, 0.1) / 3.0  # multistep scaling
    record = {}
    scheme.residual(field, dt, record)
    assert np.min(record["theta_oe"]) >= 1.0 - 1e-3


def test_oe_theta_smooth_limit_quartic_tangency():
    # the accuracy benchmark's profile has fourth-order tangency points
    # where sigma stays O(1); away from those isolated cells theta -> 1,
    # and the damping there acts at the size of the local (quartic)
    # variation, so accuracy is unaffected (see the accuracy test below)
    cfg = load_config('advection_smooth').with_overrides(n=640, oscillation='oe')
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    dt = scheme.max_dt(field, cfg.cfl) / 3.0
    record = {}
    scheme.residual(field, dt, record)
    th = record['theta_oe']
    assert np.mean(th >= 1.0 - 1e-3) >= 0.95
    assert np.min(th) >= 0.8


def _oe_theta_gauss(system, avgs, lefts, rights, sizes, dt):
    """Reference theta_OE: the jump integrals by the 3-point Gauss rule,
    which is exact for the quartic integrands, on (3, K-2, d) samples."""
    nodes = np.array([-np.sqrt(3.0 / 5.0), 0.0, np.sqrt(3.0 / 5.0)])
    weights = np.array([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0])
    c0, c1, c2 = limiters.parabola_coeffs(avgs, lefts, rights)
    own, lnb, rnb = slice(1, -1), slice(0, -2), slice(2, None)
    dxo, dxl, dxr = sizes[own], sizes[lnb], sizes[rnb]
    g = nodes[:, None]
    xi_o = 0.5 * g
    xi_l = (0.5 * (dxl + dxo) + 0.5 * g * dxo) / dxl
    xi_r = (-0.5 * (dxr + dxo) + 0.5 * g * dxo) / dxr

    def peval(sl, xi):
        xi = xi[..., None]
        return c0[sl] + c1[sl] * xi + c2[sl] * xi * xi

    P, PL, PR = peval(own, xi_o), peval(lnb, xi_l), peval(rnb, xi_r)
    A = avgs[own]

    def cell_integral(Q):
        return 0.5 * dxo * np.sum(weights[:, None, None] * Q, axis=(0, 2))

    ppo = 2.0 * c2[own] / dxo[:, None] ** 2
    ppl = 2.0 * c2[lnb] / dxl[:, None] ** 2
    ppr = 2.0 * c2[rnb] / dxr[:, None] ** 2
    dx5 = dxo ** 5 / 3.0
    eta_l = cell_integral((P - PL) ** 2) + dx5 * np.sum((ppo - ppl) ** 2, axis=-1)
    eta_r = cell_integral((P - PR) ** 2) + dx5 * np.sum((ppo - ppr) ** 2, axis=-1)
    d_l = cell_integral((PL - A) ** 2 + (P - A) ** 2) + dx5 * np.sum(ppl ** 2, axis=-1)
    d_r = cell_integral((PR - A) ** 2 + (P - A) ** 2) + dx5 * np.sum(ppr ** 2, axis=-1)

    lo, hi = system.wave_speed_range(avgs)
    s_l = np.minimum(np.minimum(lo[lnb], lo[own]), np.minimum(lo[rnb], 0.0))
    s_r = np.maximum(np.maximum(hi[lnb], hi[own]), np.maximum(hi[rnb], 0.0))
    span = s_r - s_l
    w1 = np.where(span > 0, s_r / np.where(span > 0, span, 1.0), 0.0)
    w2 = np.where(span > 0, -s_l / np.where(span > 0, span, 1.0), 0.0)
    num = w1 * eta_l + w2 * eta_r
    den = w1 * d_l + w2 * d_r
    sigma = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    speed = system.max_wave_speed(avgs)
    beta = np.maximum(np.maximum(speed[lnb], speed[own]), speed[rnb])
    return np.exp(-beta * dt * sigma / dxo)


@pytest.mark.parametrize("system", [advection(-1.0, 2.0), Euler(1.4),
                                    IdealMHD(gamma=5.0 / 3.0, bx=0.7)],
                         ids=lambda s: s.name)
def test_oe_theta_closed_form_matches_gauss(system, rng):
    K = 400
    for _ in range(5):
        # non-uniform grid with neighbour size ratios up to 4
        sizes = 0.01 * rng.uniform(0.5, 2.0, K)

        def states():
            if system.nvars == 1:
                return rng.uniform(-1.0, 2.0, (K, 1))
            prim = rng.uniform(-1.0, 1.0, (K, system.nvars))
            prim[:, 0] = rng.uniform(0.1, 2.0, K)
            prim[:, -1] = rng.uniform(0.1, 2.0, K)
            return system.from_primitive(prim)

        avgs, lefts, rights = states(), states(), states()
        # smooth cells too, where the jump integrals are small
        smooth = rng.random(K) < 0.3
        lefts[smooth] = rights[smooth] = avgs[smooth]
        dt = 0.05 * sizes.min() / system.max_wave_speed(avgs).max()
        th = _oe_theta(system, avgs, lefts, rights, sizes, dt)
        ref = _oe_theta_gauss(system, avgs, lefts, rights, sizes, dt)
        assert np.any(ref < 0.5) and np.any(ref > 0.99)
        np.testing.assert_allclose(th, ref, rtol=1e-12, atol=0.0)


FOUR_SYSTEMS = [advection(-1.0, 2.0), burgers(-1.0, 2.0), Euler(1.4),
                IdealMHD(gamma=5.0 / 3.0, bx=0.7)]


def _base_state(system):
    """One state of G with every component nonzero."""
    if system.nvars == 1:
        return np.array([1.3])
    prim = np.linspace(0.3, 0.9, system.nvars)
    prim[0], prim[-1] = 1.2, 0.8
    return system.from_primitive(prim)


def _grid_sizes(rng, K, uniform):
    # non-uniform: neighbour size ratios up to 4
    return np.full(K, 0.01) if uniform else 0.01 * rng.uniform(0.5, 2.0, K)


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("system", FOUR_SYSTEMS, ids=lambda s: s.name)
def test_oe_theta_rounding_noise_is_constant(system, uniform, rng):
    # a constant field perturbed by up to 4 ulps per component is constant
    # to the OE floor: theta is 1 exactly, not a ratio of noise integrals
    K = 2000
    base = np.tile(_base_state(system), (K, 1))

    def noisy():
        return base + rng.integers(-4, 5, base.shape) * np.spacing(base)

    avgs, lefts, rights = noisy(), noisy(), noisy()
    assert np.any(lefts != avgs) and np.any(rights != avgs)
    sizes = _grid_sizes(rng, K, uniform)
    dt = 0.5 * sizes.min() / system.max_wave_speed(avgs).max()
    th = _oe_theta(system, avgs, lefts, rights, sizes, dt)
    assert np.all(th == 1.0)


def test_oe_theta_blast_waves_constant_left_state():
    # the constant left state of blast_waves is undamped at the first stage
    # (cells 0-5 got 0.9486 from the ratio of two noise integrals)
    cfg = load_config("blast_waves").with_overrides(n=80)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    record = {}
    scheme.residual(field, scheme.max_dt(field, cfg.cfl), record)
    th = record["theta_oe"]                       # cells -1..n
    assert np.all(th[1:7] == 1.0)
    assert np.min(th) < 0.9                       # the blast fronts are damped


@pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "nonuniform"])
@pytest.mark.parametrize("system", FOUR_SYSTEMS, ids=lambda s: s.name)
def test_oe_theta_small_smooth_signal_is_not_floored(system, uniform, rng):
    # a smooth profile of relative amplitude 1e-8 lies far above the floor:
    # every cell the reference damps stays damped, by the reference amount.
    # Cancellation in the jumps limits any formula (the Gauss rule too) to
    # ~1e-7 in theta here, against 1 - theta of 2e-5 to 1e-2, so the
    # match is to rtol 1e-6.
    K = 24
    sizes = _grid_sizes(rng, K, uniform)
    nodes = np.concatenate([[0.0], np.cumsum(sizes)]) / np.sum(sizes)
    sizes = np.diff(nodes)
    base = _base_state(system)
    phase = np.linspace(0.0, 1.0, system.nvars)

    def state(x):
        return base * (1.0 + 1e-8 * np.sin(2.0 * np.pi * (x[..., None] + phase)))

    g, w = np.polynomial.legendre.leggauss(5)
    avgs = np.einsum("q,kqd->kd", 0.5 * w,
                     state(0.5 * (nodes[:-1, None] + nodes[1:, None])
                           + 0.5 * sizes[:, None] * g))
    lefts, rights = state(nodes[:-1]), state(nodes[1:])
    dt = sizes.min() / system.max_wave_speed(avgs).max()
    th = _oe_theta(system, avgs, lefts, rights, sizes, dt)
    ref = _oe_theta_gauss(system, avgs, lefts, rights, sizes, dt)
    damped = ref < 1.0
    assert damped.sum() >= K // 2
    assert np.all(th[damped] < 1.0)
    np.testing.assert_allclose(th[damped], ref[damped], rtol=1e-6, atol=0.0)


def test_oe_apply():
    avg = np.array([[0.0]])
    left = np.array([[2.0]])
    right = np.array([[-2.0]])
    l1, m1, r1 = limiters.oe_apply(np.array([1.0]), avg, left, right)
    assert (l1[0, 0], r1[0, 0]) == (2.0, -2.0)
    l0, m0, r0 = limiters.oe_apply(np.array([0.0]), avg, left, right)
    assert (l0[0, 0], m0[0, 0], r0[0, 0]) == (0.0, 0.0, 0.0)
    lh, mh, rh = limiters.oe_apply(np.array([0.5]), avg, left, right)
    assert (lh[0, 0], rh[0, 0]) == (1.0, -1.0)
    assert mh[0, 0] == 0.0  # 1.5*0 - 0.25*(1 - 1)


@given(st.floats(0.0, 1.0), finite, finite, finite)
def test_oe_apply_preserves_decomposition(theta, avg, left, right):
    l, m, r = limiters.oe_apply(np.array([theta]), np.array([[avg]]),
                                np.array([[left]]), np.array([[right]]))
    recomposed = (l[0, 0] + 4.0 * m[0, 0] + r[0, 0]) / 6.0
    assert recomposed == pytest.approx(avg, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# MP limiter


def test_mp_linear_data_identity():
    # linear averages: all curvature measures vanish, value kept
    s = 0.7
    a = np.arange(5.0) * s
    u = a[2] + 0.5 * s  # node value between cells 2 and 3
    out = limiters.mp_limit(a[:, None], np.full((4, 1), u))[0, 0, 0]
    assert out == pytest.approx(u, rel=1e-15)


def test_mp_clips_outlier_to_max():
    out = limiters.mp_limit(np.zeros((5, 1)), np.full((4, 1), 5.0))[0, 0, 0]
    assert out == 0.0


def test_mp_constant_identity():
    out = limiters.mp_limit(np.ones((5, 1)), np.ones((4, 1)))[0, 0, 0]
    assert out == 1.0


def _minmod4_node(a, b, c, d):
    pos = (a > 0) & (b > 0) & (c > 0) & (d > 0)
    neg = (a < 0) & (b < 0) & (c < 0) & (d < 0)
    m = np.minimum(np.minimum(np.abs(a), np.abs(b)), np.minimum(np.abs(c), np.abs(d)))
    return np.where(pos, m, np.where(neg, -m, 0.0))


def _mp_limit_node(a0, a1, a2, a3, a4, u):
    """Reference MP clip of one node side, written per node: a0..a4 run from
    the far side of the own cell a2 to the straddling neighbour a3."""
    d2m = a2 - 2.0 * a1 + a0
    d2c = a3 - 2.0 * a2 + a1
    d2p = a4 - 2.0 * a3 + a2
    dm4_node = _minmod4_node(4.0 * d2c - d2p, 4.0 * d2p - d2c, d2c, d2p)
    dm4_prev = _minmod4_node(4.0 * d2m - d2c, 4.0 * d2c - d2m, d2m, d2c)
    u_md = 0.5 * (a2 + a3) - 0.5 * dm4_node
    u_ul = a2 + limiters.MP_ALPHA * (a2 - a1)
    u_lc = a2 + 0.5 * (a2 - a1) + (limiters.MP_BETA / 3.0) * dm4_prev
    u_min = np.maximum(np.minimum(np.minimum(a2, a3), u_md),
                       np.minimum(np.minimum(a2, u_ul), u_lc))
    u_max = np.minimum(np.maximum(np.maximum(a2, a3), u_md),
                       np.maximum(np.maximum(a2, u_ul), u_lc))
    return np.maximum(np.minimum(u, u_min), np.minimum(np.maximum(u, u_min), u_max))


def _assert_same_bits(x, y):
    assert x.shape == y.shape
    assert np.ascontiguousarray(x).tobytes() == np.ascontiguousarray(y).tobytes()


@pytest.mark.parametrize("d", [1, 3, 7])
@pytest.mark.parametrize("n", [3, 17, 200])
def test_mp_field_kernel_matches_per_node_formula(n, d, rng):
    fields = [
        (rng.normal(size=(n + 6, d)), rng.normal(size=(n + 5, d))),
        # smooth averages with node values near them: mostly left alone
        (np.cumsum(rng.normal(size=(n + 6, d)), axis=0) * 1e-3,
         rng.normal(scale=1e-3, size=(n + 5, d))),
        # small integers: ties, exact zeros and curvature sign changes
        (rng.integers(-2, 3, size=(n + 6, d)).astype(float),
         0.5 * rng.integers(-5, 6, size=(n + 5, d))),
    ]
    for w_avg, w_node in fields:
        out = limiters.mp_limit(w_avg, w_node)
        a = [w_avg[k : k + n + 2] for k in range(5)]
        # left side of nodes 0..n+1: own cell k-1, straddling cell k
        _assert_same_bits(out[0], _mp_limit_node(*a, w_node[2 : n + 4]))
        # right side of nodes -1..n: the mirrored stencil
        _assert_same_bits(out[1], _mp_limit_node(*a[::-1], w_node[1 : n + 3]))
        assert np.any(out != np.stack([w_node[2 : n + 4], w_node[1 : n + 3]]))


# ---------------------------------------------------------------------------
# accuracy preservation (smooth advection benchmark at n = 160)


def test_limiters_preserve_accuracy():
    base = load_config('advection_smooth').with_overrides(n=160)
    errors = {}
    for name, over in [("plain", dict(idp=False)),
                       ("idp_oe", dict(oscillation='oe')),
                       ("idp_mp", dict(oscillation='mp'))]:
        cfg = base.with_overrides(**over)
        scheme = run_mod.build_scheme(cfg)
        field = run_mod.initial_field(cfg, scheme)
        field, _, _ = run_mod.advance(scheme, field, cfg.t_final, cfg.cfl,
                                      cfg.integrator)
        errors[name] = run_mod.l1_errors(cfg, scheme, field)[0]
    assert errors["idp_oe"] == pytest.approx(errors["plain"], rel=0.05)
    assert errors["idp_mp"] == pytest.approx(errors["plain"], rel=0.05)
