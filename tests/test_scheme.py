import math
import sys
import warnings

import numpy as np
import pytest

from pampa import mesh, oracle, run as run_mod, transform
from pampa.config import build_system, load_config
from pampa.errors import FINITE, ConfigError, DomainError, guard
from pampa.presets import IC_REGISTRY
from pampa.scheme import DofField, LimiterConfig, PampaScheme, llf_flux
from pampa.systems import Euler, IdealMHD, ScalarLaw, advection, burgers
from pampa.timeint import make_integrator


def test_midpoint_value_examples():
    from pampa.limiters import midpoint_value

    assert midpoint_value(1.0, 1.0, 1.0) == 1.0
    eps = 0.1
    assert midpoint_value(1.0 - 2 * eps / 3, 1.0, 0.0) == pytest.approx(1.15, rel=1e-14)
    assert midpoint_value(0.0, 2.0, -2.0) == 0.0


def test_llf_flux_values():
    adv = advection(0.0, 1.0)
    f = llf_flux(adv, np.array([1.0]), np.array([0.0]))
    assert f[0] == 1.0  # pure upwind
    b = burgers(-5.0, 5.0)
    f = llf_flux(b, np.array([2.0]), np.array([-1.0]))
    assert f[0] == pytest.approx(4.25, rel=1e-14)


def test_llf_flux_consistency_bit_for_bit():
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([[1.3, 0.4, 0.9], [0.2, -1.0, 3.0]]))
    assert np.array_equal(llf_flux(sys, U, U), sys.flux(U))


def _scalar_scheme(n=32, bc=mesh.PERIODIC, lim=None, bounds=(0.0, 2.0)):
    sys = advection(*bounds)
    grid = mesh.uniform_grid(0.0, 1.0, n)
    return PampaScheme(sys, grid, bc, lim or LimiterConfig())


def _field_from_function(scheme, f, df_avg=None):
    grid = scheme.grid
    avgs = run_mod.gauss_cell_averages(
        lambda x: f(x)[..., None] if f(x).ndim == x.ndim else f(x), grid)
    pts = transform.to_transformed(scheme.system,
                                   f(grid.nodes[: scheme.n_points])[:, None])
    return DofField(avgs, pts)


def test_gauss_cell_averages_exact_for_constants(monkeypatch):
    def constant(state):
        return lambda x: np.broadcast_to(state, x.shape + state.shape)

    def assert_constant_exact(state, grid):
        avgs = run_mod.gauss_cell_averages(constant(state), grid)
        assert np.array_equal(avgs, np.broadcast_to(state, avgs.shape))

    w = run_mod._GAUSS5_W
    # the leggauss weights as rounded by numpy, and the same scaled by 1 - 2^-52
    for weights in (w, w * (1.0 - 2.0**-52)):
        monkeypatch.setattr(run_mod, "_GAUSS5_W", weights)
        grid = mesh.uniform_grid(-1.0, 1.0, 100)
        for c in (-1.0, 0.1, 2.0):
            assert_constant_exact(np.array([c]), grid)
        # both sides of the preset Riemann problems, on the presets' grids
        for preset in ("sod", "leblanc", "mhd_leblanc"):
            cfg = load_config(preset)
            system = build_system(cfg)
            grid = mesh.uniform_grid(cfg.a, cfg.b, cfg.n)
            ic = IC_REGISTRY[cfg.ic]
            for x_end in (cfg.a, cfg.b):
                state = system.from_primitive(ic(cfg, np.array([x_end])))[0]
                assert_constant_exact(state, grid)
    monkeypatch.undo()

    # still exact for degree 9 up to rounding: x^9 + x^4 on [0, 2]
    grid = mesh.uniform_grid(0.0, 2.0, 7)
    avgs = run_mod.gauss_cell_averages(lambda x: (x**9 + x**4)[..., None], grid)
    F = grid.nodes**10 / 10 + grid.nodes**5 / 5
    exact = np.diff(F) / grid.cell_sizes
    np.testing.assert_allclose(avgs[:, 0], exact, rtol=1e-13, atol=0.0)


def test_constant_field_zero_residual():
    for bc in (mesh.PERIODIC, mesh.OUTFLOW):
        scheme = _scalar_scheme(bc=bc)
        avgs = np.full((scheme.grid.n_cells, 1), 0.7)
        pts = transform.to_transformed(
            scheme.system, np.full((scheme.n_points, 1), 0.7))
        da, dp = scheme.residual(DofField(avgs, pts), 1e-3)
        assert np.max(np.abs(da)) == 0.0
        assert np.max(np.abs(dp)) == 0.0


def test_smooth_residual_reduces_to_continuous_flux():
    # profile strictly inside G: no limiter fires, so every interface flux
    # equals the continuous flux at the node bit for bit
    scheme = _scalar_scheme(n=64, bounds=(0.0, 3.0))
    f = _field_from_function(scheme, lambda x: 1.5 + 0.4 * np.sin(2 * np.pi * x))
    rec = {}
    da, dp = scheme.residual(f, 1e-4, rec)
    assert np.all(rec["theta"] == 1.0)
    u_nodes = transform.from_transformed(scheme.system, f.points)[:, 0]
    flux_nodes = u_nodes  # advection: f(u) = u
    expected = -(np.roll(flux_nodes, -1) - flux_nodes) / scheme.grid.cell_sizes
    assert np.array_equal(da[:, 0], expected)


def test_counterexample_cell_update_with_and_without_idp():
    # one cell with average 1 - 2*eps/3 and endpoints (1, 0): at dt/dx = 1/6
    # the continuous-flux update leaves [0, 1], the IDP update does not
    eps = 0.1
    n = 6
    sys = advection(0.0, 1.0)
    grid = mesh.uniform_grid(0.0, 1.0, n)
    avgs = np.array([1.0, 1.0, 1.0 - 2 * eps / 3, 0.0, 0.5, 1.0])[:, None]
    pts = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 1.0])[:, None]

    def one_step(idp):
        scheme = PampaScheme(sys, grid, mesh.PERIODIC, LimiterConfig(idp=idp))
        field = DofField(avgs.copy(), pts.copy())
        dt = scheme.max_dt(field, 1.0 / 6.0)
        assert dt == pytest.approx(grid.cell_sizes[0] / 6.0, rel=1e-14)
        return make_integrator("forward_euler").step(scheme, field, dt)

    with_idp = one_step(True)
    assert np.all(with_idp.avgs >= 0.0) and np.all(with_idp.avgs <= 1.0)
    without = one_step(False)
    assert without.avgs[2, 0] == pytest.approx(1.0 - 2 * eps / 3 + 1.0 / 6.0,
                                               rel=1e-13)
    assert without.avgs[2, 0] > 1.0


def test_point_residual_upwind_advection():
    # advection: J = 1, alpha = 1 so the update is the one-sided stencil;
    # a linear profile gives dW/dt = -u'(x)/span exactly at interior nodes
    sys = advection(-10.0, 10.0)
    grid = mesh.uniform_grid(0.0, 1.0, 16)
    scheme = PampaScheme(sys, grid, mesh.OUTFLOW, LimiterConfig())
    xs = grid.nodes
    avgs = (0.5 * (xs[1:] ** 2 - xs[:-1] ** 2) / grid.cell_sizes)[:, None]
    pts = transform.to_transformed(sys, xs[:, None])
    da, dp = scheme.residual(DofField(avgs, pts), 1e-3)
    span = 20.0
    assert np.allclose(dp[1:-1, 0], -1.0 / span, rtol=0, atol=1e-13)


def test_point_residual_quadratic_exactness():
    sys = advection(-10.0, 10.0)
    grid = mesh.uniform_grid(0.0, 1.0, 16)
    scheme = PampaScheme(sys, grid, mesh.OUTFLOW, LimiterConfig())
    xs = grid.nodes
    avgs = ((xs[1:] ** 3 - xs[:-1] ** 3) / 3.0 / grid.cell_sizes)[:, None]
    pts = transform.to_transformed(sys, (xs ** 2)[:, None])
    da, dp = scheme.residual(DofField(avgs, pts), 1e-3)
    exact = -2.0 * xs / 20.0
    assert np.allclose(dp[2:-2, 0], exact[2:-2], rtol=0, atol=1e-13)


def test_alpha_is_max_of_three_speeds():
    sys = burgers(-5.0, 5.0)
    vals = np.array([[2.0], [-1.0], [0.5]])
    assert max(sys.max_wave_speed(v) for v in vals) == 2.0
    e = Euler(1.4)
    states = e.from_primitive(np.array([[1.0, 0.5, 1.0], [1.0, 0.0, 1.2],
                                        [2.0, -0.3, 0.5]]))
    speeds = e.max_wave_speed(states)
    assert np.max(speeds) == max(float(s) for s in speeds)


def test_compute_dt():
    scheme = _scalar_scheme(n=400, bounds=(0.0, 2.0))
    grid2 = mesh.uniform_grid(-1.0, 1.0, 400)
    scheme = PampaScheme(advection(0.0, 2.0), grid2, mesh.PERIODIC)
    f = _field_from_function(scheme, lambda x: np.full_like(x, 1.0))
    assert scheme.max_dt(f, 0.1) == pytest.approx(5e-4, rel=1e-13)
    with pytest.raises(ConfigError):
        scheme.max_dt(f, 0.2)  # exceeds the 1/6 guarantee
    # zero wave speed is capped by the driver, max_dt reports inf
    sys0 = burgers(-1.0, 1.0)
    s0 = PampaScheme(sys0, grid2, mesh.PERIODIC)
    f0 = _field_from_function(s0, lambda x: np.zeros_like(x))
    assert math.isinf(s0.max_dt(f0, 0.1))


def _max_dt_roll(scheme, field, cfl):
    """max_dt as it was written before: node speeds paired by np.roll for
    periodic grids, zero and nan speeds masked by a double np.where."""
    sys = scheme.system
    u_nodes, nodes = transform.from_transformed(sys, field.points,
                                                with_state=True)
    s_node = sys.max_wave_speed(u_nodes, nodes)
    periodic = scheme.bc == mesh.PERIODIC
    s_right = np.roll(s_node, -1) if periodic else s_node[1:]
    s_left = s_node if periodic else s_node[:-1]
    lam = np.maximum(sys.max_wave_speed(field.avgs),
                     np.maximum(s_left, s_right))
    with np.errstate(divide="ignore"):
        ratios = np.where(lam > 0, scheme.grid.cell_sizes
                          / np.where(lam > 0, lam, 1.0), np.inf)
    dt = cfl * float(np.min(ratios))
    return dt if math.isfinite(dt) else math.inf


_DT_SYSTEMS = {"advection": advection(0.0, 1.0), "burgers": burgers(-1.0, 2.0),
               "euler": Euler(1.4), "mhd": IdealMHD(5.0 / 3.0, 0.75)}


@pytest.mark.parametrize("name,bc", [
    (name, bc) for name in _DT_SYSTEMS for bc in mesh.BC_KINDS
    if bc != mesh.REFLECTIVE or name in ("euler", "mhd")])
def test_max_dt_matches_roll_formula(name, bc, rng):
    system = _DT_SYSTEMS[name]
    for n in (3, 17, 200):
        nodes = np.cumsum(rng.uniform(0.2, 1.0, n + 1))
        scheme = PampaScheme(system, mesh.grid_from_nodes(nodes), bc)
        avgs = oracle.sample_states_representable(system, rng, n)
        points = rng.normal(scale=2.0, size=(scheme.n_points, system.nvars))
        field = DofField(avgs, points)
        want = _max_dt_roll(scheme, field, 0.1)
        assert 0.0 < want < math.inf
        assert scheme.max_dt(field, 0.1) == want
        # the stage entry advance hands to max_dt gives the same step
        entry = scheme.stage_entry(field)
        assert scheme.max_dt(field, 0.1, entry=entry) == want
        # a nan node is outside G: the entry's check names it
        field.points[n // 2] = np.nan
        for call in (lambda: scheme.max_dt(field, 0.1),
                     lambda: scheme.stage_entry(field)):
            with pytest.raises(DomainError,
                               match=rf"^point {n // 2} needs finite values"):
                call()


@pytest.mark.parametrize("bc", [mesh.PERIODIC, mesh.OUTFLOW])
def test_max_dt_zero_and_nan_speeds(bc):
    # a resting Burgers state has no wave speed: the step is unbounded
    scheme = PampaScheme(burgers(-1.0, 1.0), mesh.uniform_grid(0.0, 1.0, 8), bc)
    zero = transform.to_transformed(scheme.system, np.zeros((scheme.n_points, 1)))
    field = DofField(np.zeros((8, 1)), zero)
    assert scheme.max_dt(field, 0.1) == _max_dt_roll(scheme, field, 0.1) == math.inf
    # one moving cell bounds the step
    field.avgs[3] = 0.5
    want = _max_dt_roll(scheme, field, 0.1)
    assert want == pytest.approx(0.1 * 0.125 / 0.5, rel=1e-15)
    assert scheme.max_dt(field, 0.1) == want
    assert scheme.max_dt(field, 0.1, entry=scheme.stage_entry(field)) == want
    # a nan node next to it is outside G: the entry's check names it
    field.points[5] = np.nan
    with pytest.raises(DomainError, match=r"^point 5 needs finite values, got \[nan\]$"):
        scheme.max_dt(field, 0.1)
    # nan everywhere: the first node is named
    field.avgs[:] = np.nan
    field.points[:] = np.nan
    with pytest.raises(DomainError, match=r"^point 0 needs finite values, got \[nan\]$"):
        scheme.max_dt(field, 0.1)


@pytest.mark.parametrize("bc", [mesh.PERIODIC, mesh.OUTFLOW, mesh.REFLECTIVE])
def test_guard_names_boundary_rows_not_their_ghosts(bc):
    # ghost rows copy or mirror the rows next to a boundary, so a bad first
    # or last average or node is named by its own index, not a ghost's
    scheme = PampaScheme(Euler(1.4), mesh.uniform_grid(0.0, 1.0, 8), bc)
    m, state = scheme.n_points, np.array([1.0, 0.5, 2.0])
    for array, kind, last in (("avgs", "average", 7), ("points", "point", m - 1)):
        for row in (0, last):
            field = DofField(np.tile(state, (8, 1)), transform.to_transformed(
                scheme.system, np.tile(state, (m, 1))))
            getattr(field, array)[row, 0] = np.nan
            with pytest.raises(DomainError, match=rf"^{kind} {row} needs"):
                scheme.stage_entry(field)


def _calls_per_step(preset, n, t_frac, monkeypatch):
    """Decode, wave-speed and residual calls in each step of an advance
    after the first and, last, those after the last step (the check of the
    returned field), counted where perfbench's tracer counts them: the
    decode as a module attribute, the others on the instances, so that a
    speed a system method takes through another counts too."""
    cfg = load_config(preset).with_overrides(n=n)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    calls = {"decode": 0, "speed": 0, "residual": 0}

    def count(owner, attr, key):
        inner = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    count(transform, "from_transformed", "decode")
    for attr in ("max_wave_speed", "pair_speed", "wave_speed_range"):
        count(scheme.system, attr, "speed")
    count(scheme, "residual", "residual")
    seen = []
    run_mod.advance(scheme, field, t_frac * cfg.t_final, cfg.cfl,
                    cfg.integrator, on_step=lambda *a: seen.append(dict(calls)))
    seen.append(dict(calls))
    return [{k: b[k] - a[k] for k in calls} for a, b in zip(seen, seen[1:])]


def test_max_dt_and_first_residual_share_one_stage_entry(monkeypatch):
    # advance builds one checked stage entry per step, when the step before
    # it ends: max_dt reads its speeds and the step's first residual reads
    # it, and so does on_step before them, so the entry counts with the
    # step before, and the last step builds none. On ssp_ms3, one residual
    # per step after the three RK3 start-up steps: one decode and, for
    # Burgers, six wave speeds (nodes and averages of the entry, midpoints,
    # and the interface pair_speed with its two max_wave_speed calls);
    # advection's constant speed takes none
    for preset, speeds in (("burgers_steepening", 6), ("advection_smooth", 0)):
        *steps, last, _ = _calls_per_step(preset, 40, 0.1, monkeypatch)[2:]
        assert len(steps) >= 3
        assert all(s == {"decode": 1, "speed": speeds, "residual": 1}
                   for s in steps)
        assert last == {"decode": 0, "speed": max(speeds - 2, 0), "residual": 1}
        monkeypatch.undo()
    # OE on MHD: every entry takes its averages' speeds and OE range in one
    # wave_speed_range call and its nodes' in one max_wave_speed call, and
    # every residual its midpoints' in another, all from derivations the
    # stage holds; the interface speeds come with the interface flux. Three
    # wave-speed calls per residual, where there were four
    *steps, last, _ = _calls_per_step("mhd_shock_tube", 100, 0.02, monkeypatch)
    assert len(steps) >= 3
    assert all(s == {"decode": 3, "speed": 9, "residual": 3} for s in steps)
    assert last == {"decode": 2, "speed": 7, "residual": 3}


def test_final_field_check_takes_no_wave_speeds(monkeypatch):
    # advance checks the field its last step returns with `guard`, which
    # decodes it once and takes no wave speed
    final = _calls_per_step("mhd_shock_tube", 100, 0.025, monkeypatch)[-1]
    assert final == {"decode": 1, "speed": 0, "residual": 0}


def test_one_errstate_per_gas_stage_entry(monkeypatch):
    # a gas stage entry runs the guard's decode and derivations and the
    # speeds under one np.errstate, which the guard does not enter again; a
    # scalar entry takes none. advance holds one around its final-field
    # guard, after the last on_step
    made = [0]
    errstate = np.errstate

    def counted(*args, **kwargs):
        made[0] += 1
        return errstate(*args, **kwargs)

    for preset, per_entry in (("sod", 1), ("advection_smooth", 0)):
        cfg = load_config(preset).with_overrides(n=40)
        scheme = run_mod.build_scheme(cfg)
        field = run_mod.initial_field(cfg, scheme)
        monkeypatch.setattr(np, "errstate", counted)
        made[0] = 0
        scheme.stage_entry(field)
        assert made[0] == per_entry
        at_step = []
        run_mod.advance(scheme, field, 0.02 * cfg.t_final, cfg.cfl,
                        cfg.integrator, on_step=lambda *a: at_step.append(made[0]))
        assert len(at_step) >= 2 and made[0] - at_step[-1] == 1
        monkeypatch.undo()


@pytest.mark.parametrize("preset", ["sod", "mhd_shock_tube", "jiang_shu",
                                    "advection_smooth"])
def test_diagnostics_row_from_the_next_entry(preset, tmp_path):
    # on_step reads the decoded points and the averages' pressures of the
    # entry advance built for the next step: the row is the one it wrote
    # from its own decode and pressures, byte for byte
    cfg = load_config(preset).with_overrides(n=40)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    field, _, _ = run_mod.advance(scheme, field, 0.1 * cfg.t_final, cfg.cfl,
                                  cfg.integrator)
    rows = []
    for entry in (scheme.stage_entry(field), None):
        path = tmp_path / f"{entry is None}.csv"
        diag = run_mod.DiagnosticsRecorder(scheme, path)
        diag.on_step(0.5, 7, 0.01, field, entry)
        diag.close()
        rows.append(path.read_text().splitlines()[1])
    assert rows[0] == rows[1]


def test_failed_entry_still_gets_its_row(tmp_path, monkeypatch):
    # the next step's entry is built before on_step: when its check fails,
    # the field still gets its diagnostics row, then the run raises the
    # failure as stage 0 of the next step
    cfg = load_config("sod").with_overrides(n=50)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    integ = make_integrator(cfg.integrator)
    step, steps = integ.step, []

    def poisoned(*args, **kwargs):
        out = step(*args, **kwargs)
        steps.append(out)
        if len(steps) == 2:
            out.points[5] = np.nan
        return out

    monkeypatch.setattr(integ, "step", poisoned)
    monkeypatch.setattr(run_mod, "make_integrator", lambda name: integ)
    diag = run_mod.DiagnosticsRecorder(scheme, tmp_path / "diagnostics.csv")
    times = []

    def on_step(t, step, dt, fld, entry):
        times.append(t)
        diag.on_step(t, step, dt, fld, entry)

    with pytest.raises(DomainError) as err:
        run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator,
                        on_stage=diag.on_stage, on_step=on_step)
    diag.close()
    assert str(err.value) == (f"step 3 stage 0 (t = {times[-1]!r}): point 5 "
                              "needs finite values, got [nan nan nan]")
    rows = (tmp_path / "diagnostics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2"]
    assert rows[1].split(",")[4] == "nan"         # min_p of the bad node


def test_final_step_clamp():
    scheme = _scalar_scheme(n=16)
    f = _field_from_function(scheme, lambda x: np.full_like(x, 1.0))
    # remaining time smaller than the CFL step: one clamped step
    _, steps, t = run_mod.advance(scheme, f, 1e-5, 0.1, "forward_euler")
    assert steps == 1
    assert t == pytest.approx(1e-5, rel=1e-12)


def test_discrete_conservation_periodic():
    cfg = load_config("jiang_shu").with_overrides(n=100, t_final=0.5)
    scheme = run_mod.build_scheme(cfg)
    f = run_mod.initial_field(cfg, scheme)
    tot0 = math.fsum((scheme.grid.cell_sizes[:, None] * f.avgs).ravel())
    f2, _, _ = run_mod.advance(scheme, f, cfg.t_final, cfg.cfl, cfg.integrator)
    tot1 = math.fsum((scheme.grid.cell_sizes[:, None] * f2.avgs).ravel())
    assert abs(tot1 - tot0) / abs(tot0) < 1e-12


def test_periodic_shift_invariance_of_residual():
    cfg = load_config("jiang_shu").with_overrides(n=64)
    scheme = run_mod.build_scheme(cfg)
    f = run_mod.initial_field(cfg, scheme)
    da, dp = scheme.residual(f, 1e-3)
    k = 17
    f2 = DofField(np.roll(f.avgs, k, axis=0), np.roll(f.points, k, axis=0))
    da2, dp2 = scheme.residual(f2, 1e-3)
    assert np.array_equal(da2, np.roll(da, k, axis=0))
    assert np.array_equal(dp2, np.roll(dp, k, axis=0))


def test_point_values_in_domain_at_cfl_bound():
    # the point update is IDP regardless of cfl; run at the 1/6 bound and
    # sweep the decoded point values every stage
    from pampa import oracle
    from pampa.config import build_system

    for name, t in (("jiang_shu", 0.1), ("euler_smooth", 0.02)):
        cfg = load_config(name).with_overrides(cfl=1.0 / 6.0, t_final=t, n=100)
        scheme = run_mod.build_scheme(cfg)
        sweep = oracle.DomainSweep(build_system(cfg))
        field = run_mod.initial_field(cfg, scheme)
        run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator,
                        on_stage=sweep.on_stage)
        assert sweep.report.is_empty, (name, sweep.report.summary())


def test_l1_errors_requires_exact_solution():
    cfg = load_config("sod").with_overrides(n=16)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    with pytest.raises(ConfigError):
        run_mod.l1_errors(cfg, scheme, field)


def test_reflective_run_keeps_mirror_symmetry():
    # symmetric two-blast variant: the evolution preserves mirror symmetry
    cfg = load_config("blast_waves").with_overrides(n=64, t_final=2e-4)
    scheme = run_mod.build_scheme(cfg)
    sys = scheme.system
    x = scheme.grid.cell_centers
    prim = np.stack([np.ones_like(x), np.zeros_like(x),
                     np.where((x < 0.1) | (x > 0.9), 1e3, 1e-2)], axis=-1)
    avgs = sys.from_primitive(prim)
    nodes = scheme.grid.nodes
    pn = np.stack([np.ones_like(nodes), np.zeros_like(nodes),
                   np.where((nodes < 0.1) | (nodes > 0.9), 1e3, 1e-2)], axis=-1)
    pts = transform.to_transformed(sys, sys.from_primitive(pn))
    field = DofField(avgs, pts)
    field, steps, _ = run_mod.advance(scheme, field, cfg.t_final, cfg.cfl,
                                      cfg.integrator)
    assert steps > 3
    flip = np.array([1.0, -1.0, 1.0])
    assert np.allclose(field.avgs, field.avgs[::-1] * flip, rtol=1e-10, atol=1e-10)
    assert np.allclose(field.points, field.points[::-1] * flip,
                       rtol=1e-10, atol=1e-10)
    # wall nodes keep zero normal velocity
    assert field.points[0, 1] == 0.0
    assert field.points[-1, 1] == 0.0


@pytest.mark.parametrize("preset,n", [("jiang_shu", 100), ("sod", 200)])
def test_nonfinite_point_fails_loudly(preset, n):
    # a nan planted in one point value must stop the run at the first
    # stage of the first step, naming the node, for scalar laws as for
    # systems
    cfg = load_config(preset).with_overrides(n=n)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    field.points[10] = np.nan
    with pytest.raises(DomainError, match=r"^step 1 stage 0 \(t = 0\.0\): point 10 "):
        run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator)


def _planted_run(integrator, plant_at=None):
    """sod at n=50 to a tenth of its end time. The rates of residual call
    `plant_at` (counted from 0) get a nan at node 10. Returns the (step,
    stage) pairs passed to on_stage, the result of `advance` and the
    number of residual calls."""
    cfg = load_config("sod").with_overrides(n=50, integrator=integrator)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    inner = scheme.residual
    calls = []

    def residual(*args, **kwargs):
        rates = inner(*args, **kwargs)
        if len(calls) == plant_at:
            rates = rates.copy()
            rates.points[10] = np.nan
        calls.append(None)
        return rates

    scheme.residual = residual
    stages = []
    out = run_mod.advance(scheme, field, 0.1 * cfg.t_final, cfg.cfl, integrator,
                          on_stage=lambda t, k, s, f, rec: stages.append((k, s)))
    return stages, out, len(calls)


@pytest.mark.parametrize("integrator", ["ssp_rk3", "ssp_ms3"])
def test_nan_in_last_stage_fails_loudly(integrator):
    # the last stage's output is the returned field, which no residual
    # reads: advance must check it, naming the last step and the stage
    # that produced it
    stages, (_, steps, _), calls = _planted_run(integrator)
    last_step, last_stage = stages[-1]
    assert last_step + 1 == steps > 3
    assert last_stage == (2 if integrator == "ssp_rk3" else 0)
    with pytest.raises(DomainError, match=rf"^step {steps} stage {last_stage} "
                       r"\(t = [^)]+\): final field: point 10 needs finite"):
        _planted_run(integrator, plant_at=calls - 1)


def test_nan_in_a_stage_names_the_next_stage():
    # rates of stage 0 of step 2 poisoned: the residual of stage 1 finds it
    with pytest.raises(DomainError, match=r"^step 2 stage 1 \(t = [^)]+\): "
                       r"point 10 needs finite"):
        _planted_run("ssp_rk3", plant_at=3)


def test_bad_average_fails_loudly():
    cfg = load_config("sod").with_overrides(n=50)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    field.avgs[7, 2] = 0.1 * field.avgs[7, 2] - 1.0  # negative pressure
    with pytest.raises(DomainError, match=r"average 7 needs positive"):
        scheme.residual(field, 1e-3)
    # a negative density: the check of the step's stage entry names the
    # average, without a RuntimeWarning
    field = run_mod.initial_field(cfg, scheme)
    field.avgs[7, 0] = -1.0
    with pytest.raises(DomainError) as err, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator)
    assert str(err.value) == (
        "step 1 stage 0 (t = 0.0): average 7 needs positive, finite density "
        "and pressure, got [-1.   0.   2.5]")


@pytest.mark.parametrize("preset,array,row,col,value,got", [
    ("sod", "points", 10, 2, 800.0,
     "point 10 needs finite values, got [ 1.  0. inf]"),
    ("sod", "points", 10, 1, 1e200,
     "point 10 needs finite values, got [1.e+000 1.e+200     inf]"),
    ("sod", "avgs", 7, 0, 1e-310,
     "wave speed of cell 7 needs finite values, got inf"),
    ("mhd_shock_tube", "avgs", 7, 0, 1e-310,
     "wave speed of cell 7 needs finite values, got inf"),
    ("sod", "avgs", 7, 2, math.inf,
     "average 7 needs positive, finite density and pressure, got [ 1.  0. inf]"),
    ("mhd_shock_tube", "avgs", 7, 6, math.inf,
     "average 7 needs positive, finite density and pressure, "
     "got [ 1.  0.  0.  0.  0.  0. inf]"),
], ids=["pressure-overflow", "energy-overflow", "speed-overflow",
        "mhd-speed-overflow", "energy-inf", "mhd-energy-inf"])
def test_finite_entry_that_overflows_fails_at_stage_0(preset, array, row, col,
                                                      value, got):
    # a finite entry whose decoded state or wave speed overflows: an
    # infinite pressure (s = 800), an infinite energy (v = 1e200) or an
    # average in G whose sound or fast speed is infinite (for MHD the
    # discriminant is then inf - inf). An average with an infinite energy,
    # whose pressure is then inf, is named by the upper bound of the
    # pressure guard alone. Each stops at the first stage with a located
    # DomainError, not a zero step size or a nan speed, and without a
    # floating-point warning before it.
    cfg = load_config(preset).with_overrides(n=50)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    getattr(field, array)[row, col] = value
    with pytest.raises(DomainError) as err, warnings.catch_warnings():
        warnings.simplefilter("error")
        run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator)
    assert str(err.value) == f"step 1 stage 0 (t = 0.0): {got}"


@pytest.mark.parametrize("preset", ["sod", "mhd_shock_tube"])
def test_gas_entry_fails_as_its_located_guards_do(preset, monkeypatch, rng):
    # a gas entry tests rho and p of each state set in one guard call: with
    # planted faults (one or two, in averages and points, every component)
    # it passes or fails as its five located guards, run one quantity at a
    # time in the same order, do, with the same message
    from pampa import scheme as scheme_mod

    cfg = load_config(preset).with_overrides(n=20)
    scheme = run_mod.build_scheme(cfg)
    d = scheme.system.nvars
    bad = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-310, 1e200, 800.0]

    def one_at_a_time(kind, states, values, rule, offset=0, more=None):
        guard(kind, states, values, rule, offset)
        if more is not None:
            guard(kind, states, more, rule, offset)

    def outcome(field):
        try:
            scheme.stage_entry(field)
        except DomainError as exc:
            return str(exc)
        return None

    failures = 0
    for _ in range(60):
        field = run_mod.initial_field(cfg, scheme)
        for _ in range(rng.integers(1, 3)):
            arr = getattr(field, "avgs" if rng.random() < 0.5 else "points")
            arr[rng.integers(len(arr)), rng.integers(d)] = rng.choice(bad)
        fast = outcome(field)
        with monkeypatch.context() as m:
            m.setattr(scheme_mod, "guard", one_at_a_time)
            located = outcome(field)
        assert fast == located
        failures += fast is not None
    assert failures > 20


def _scalar_located_guards(scheme, field):
    """A scalar entry's check as its two located guards, in its order, over
    `field`, whose ghost rows the entry has filled: the points' W finite
    (named from node 0 on), then the averages in [u_min, u_max] with the
    IDP limiter, else finite (named from cell 0 on)."""
    n, system = scheme.n, scheme.system
    A, Wx = field.data[: n + 6], field.data[n + 6 :]
    guard("point", transform.from_transformed(system, Wx), Wx, FINITE,
          mesh.PT_GHOST)
    rule = system.domain_rule if scheme.limiter.idp else FINITE
    guard("average", A, A, rule, mesh.AVG_GHOST)


@pytest.mark.parametrize("idp", [True, False], ids=["idp", "no-idp"])
@pytest.mark.parametrize("preset,bc", [
    ("advection_smooth", "periodic"), ("advection_smooth", "outflow"),
    ("burgers_steepening", "periodic")])
def test_scalar_entry_fails_as_its_located_guards_do(preset, bc, idp):
    # a scalar entry tests both blocks of the field buffer (A against its
    # rule, W finite) with one minimum and one maximum reduction: with a
    # fault planted in A or in W, in an interior row or in one that feeds
    # the ghosts, it passes or fails as the two located guards do, with the
    # same message; values on u_min and u_max pass, and so do averages
    # outside [u_min, u_max] without the limiter and any finite W
    cfg = load_config(preset).with_overrides(n=20, bc=bc, idp=idp)
    scheme = run_mod.build_scheme(cfg)
    lo, hi = scheme.system.u_min, scheme.system.u_max
    big = np.finfo(float).max
    values = [math.nan, -math.nan, math.inf, -math.inf, big, -big, lo, hi,
              np.nextafter(lo, -math.inf), np.nextafter(hi, math.inf),
              lo - 1.0, hi + 1.0]
    base = run_mod.initial_field(cfg, scheme)

    def outcomes(field):
        got = []
        for check in (scheme.stage_entry, lambda f: _scalar_located_guards(scheme, f)):
            try:
                check(field)
                got.append(None)
            except DomainError as exc:
                got.append(str(exc))
        return got

    for array, kind in (("avgs", "average"), ("points", "point")):
        m = len(getattr(base, array))
        for row in (0, 1, 2, m // 2, m - 3, m - 2, m - 1):
            for value in values:
                field = base.copy()
                getattr(field, array)[row] = value
                fast, located = outcomes(field)
                assert fast == located
                bad = not math.isfinite(value) or (
                    kind == "average" and idp and not lo <= value <= hi)
                if bad:
                    assert fast.startswith(f"{kind} {row} needs ")
                else:
                    assert fast is None
    # a bad average and a bad point: the points are named first
    for value in (math.nan, math.inf, hi + 1.0):
        field = base.copy()
        field.avgs[1], field.points[-1] = value, -math.inf
        fast, located = outcomes(field)
        assert fast == located
        assert fast.startswith(f"point {len(base.points) - 1} needs ")


def test_unit_speed_multiplies_nothing(monkeypatch, rng):
    # advection's constant speed is exactly 1.0 and x * 1.0 is x bit for bit
    # (-0.0, infinities and nan too), so its Jacobian action is vec and its
    # residual skips the product alpha * (delta_m - delta_p): both are what
    # the path that multiplies by c = 1.0 gives; another constant multiplies
    law = advection(0.0, 1.0)
    vec = np.array([[-0.0], [0.0], [math.inf], [-math.inf], [math.nan],
                    [-math.nan], [5e-324], [-2.5]])
    assert law.jacobian_action(np.full_like(vec, 0.5), vec).tobytes() == vec.tobytes()
    double = ScalarLaw(lambda u: 2.0 * u, 0.0, 1.0, constant_speed=2.0)
    assert double.jacobian_action(vec, vec).tobytes() == (2.0 * vec).tobytes()

    cfg = load_config("advection_smooth").with_overrides(n=20)
    scheme = run_mod.build_scheme(cfg)
    preset_field, _, _ = run_mod.advance(      # where cells are limited
        scheme, run_mod.initial_field(cfg, scheme), 0.05 * cfg.t_final,
        cfg.cfl, cfg.integrator)
    random_field = DofField(rng.uniform(1.0, 2.0, (20, 1)),
                            rng.uniform(-0.2, 1.2, (20, 1)))
    random_field.points[::3] = -0.0
    for field in (preset_field, random_field):
        dt = scheme.max_dt(field, cfg.cfl)
        record, ref_record = {}, {}
        rates = scheme.residual(field, dt, record)
        with monkeypatch.context() as m:
            m.setattr(scheme, "_unit_speed", False)
            m.setattr(scheme.system, "_unit_speed", False)
            ref = scheme.residual(field, dt, ref_record)
        assert rates.data.tobytes() == ref.data.tobytes()
        assert record["theta"].tobytes() == ref_record["theta"].tobytes()
        assert record["idp_active"] == ref_record["idp_active"] > 0


def test_unlimited_midpoint_outside_g_fails_loudly():
    # without the IDP limiter a gas midpoint may leave G; the residual
    # names the row of the midpoints (row j is the midpoint of cell j - 1)
    cfg = load_config("double_rarefaction").with_overrides(
        n=50, idp=False, oscillation="none")
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    with pytest.raises(DomainError) as err:
        run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator)
    assert str(err.value) == (
        "step 1 stage 0 (t = 0.0): state 25 needs positive, finite density "
        "and pressure, got [ 7.    -8.75   4.875]")


def test_scalar_average_outside_g_fails_loudly():
    # the scaling limiter needs a scalar law's averages in [u_min, u_max]:
    # one outside is named with its step, stage and cell. Without the
    # limiter the averages may leave G by design and only need be finite.
    cfg = load_config("advection_smooth").with_overrides(n=40)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    field.avgs[7] = 2.5
    with pytest.raises(DomainError, match=r"^step 1 stage 0 \(t = 0\.0\): "
                       r"average 7 needs values in \[1\.0, 2\.0\], got \[2\.5\]$"):
        run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator)
    with pytest.raises(DomainError, match=r"^average 7 needs values in"):
        scheme.max_dt(field, cfg.cfl)
    plain = run_mod.build_scheme(cfg.with_overrides(idp=False))
    plain.residual(field, plain.max_dt(field, cfg.cfl))


@pytest.mark.parametrize("preset", ["mhd_shock_tube", "double_rarefaction"])
def test_pressure_calls_per_residual(preset, monkeypatch):
    # one pressure per distinct state array of a stage, counted at the
    # law's pressure formula: the extended averages, the density-limited
    # midpoints, the one-sided interface states stacked into one array
    # (node pressures come from the decode) and the pressure-limited
    # midpoints, which this state, with no limited cell, does not have.
    # The interface took two and the public `pressure` none of them now
    cfg = load_config(preset).with_overrides(n=200)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    field, _, _ = run_mod.advance(scheme, field, 0.05 * cfg.t_final, cfg.cfl,
                                  cfg.integrator)
    dt = scheme.max_dt(field, cfg.cfl)
    calls = []

    def count(attr):
        inner = getattr(scheme.system, attr)

        def counted(*args, **kwargs):
            calls.append((attr, args[0].shape))
            return inner(*args, **kwargs)
        monkeypatch.setattr(scheme.system, attr, counted)

    count("pressure")
    count("_pressure")
    record = {}
    scheme.residual(field, dt, record)
    assert record["idp_active"] == 0
    d = scheme.system.nvars
    assert calls == [("_pressure", (206, d)), ("_pressure", (202, d)),
                     ("_pressure", (402, d))], calls


def test_unlimited_midpoint_pressure_is_computed_once(monkeypatch):
    # without the IDP limiter the midpoints' derivation is computed and
    # checked once, then handed to their encode and their speeds: one
    # pressure per distinct state array (the extended averages, the
    # midpoints and the stacked one-sided interface states), counted at the
    # law's pressure formula, where the encode and the speeds each took
    # their own and the interface two
    cfg = load_config("sod").with_overrides(n=100, oscillation="oe", idp=False)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    dt = scheme.max_dt(field, cfg.cfl)
    pressure = scheme.system._pressure
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return pressure(*args, **kwargs)

    monkeypatch.setattr(scheme.system, "_pressure", counted)
    scheme.residual(field, dt)
    # cells -3..n+2, the midpoints of cells -1..n, interface nodes 0..n
    # from both sides in one array
    assert calls == [(106, 3), (102, 3), (202, 3)]


@pytest.mark.parametrize("oscillation", ["oe", "mp"])
def test_b_squared_once_per_state_set(oscillation, monkeypatch):
    # a stage derives B^2 once per distinct MHD state array and hands it on:
    # the decoded nodes (from the decode's W), the extended averages, the
    # limited midpoints, the one-sided interface states stacked into one
    # array and, with MP, its limited endpoints' decode. Wrapped at the
    # law's formula, which a stage called 9 times per residual when each
    # pressure and speed took its own
    cfg = load_config("mhd_shock_tube").with_overrides(
        n=200, oscillation=oscillation)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    field, _, _ = run_mod.advance(scheme, field, 0.05 * cfg.t_final, cfg.cfl,
                                  cfg.integrator)
    b_squared = scheme.system._b_squared
    seen = []

    def counted(U):
        seen.append(U)
        return b_squared(U)

    monkeypatch.setattr(scheme.system, "_b_squared", counted)
    record = {}
    entry = scheme.stage_entry(field)
    scheme.residual(field, scheme.max_dt(field, cfg.cfl, entry), record,
                    entry=entry)
    assert record["idp_active"] == 0
    n = cfg.n
    want = [(n + 5, 7), (n + 6, 7)]                 # nodes -2..n+2, cells -3..n+2
    if oscillation == "mp":
        want.append((2, n + 2, 7))                  # limited endpoints
    want += [(n + 2, 7), (2 * (n + 1), 7)]          # midpoints, interfaces
    assert [U.shape for U in seen] == want
    assert len({id(U) for U in seen}) == len(seen)  # all held, so ids distinct
    # a whole step: three stages, each its own state sets
    seen.clear()
    make_integrator(cfg.integrator).step(scheme, field, 1e-4)
    assert [U.shape for U in seen] == 3 * want


@pytest.mark.parametrize("preset", ["sod", "mhd_shock_tube"])
def test_no_stack_calls_per_residual(preset, monkeypatch):
    # the flux, the gas encode and the Jacobian action write their
    # components into one array: np.stack costs about three times as much
    # at paper sizes
    cfg = load_config(preset).with_overrides(n=200)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    dt = scheme.max_dt(field, cfg.cfl)
    stack = np.stack
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return stack(*args, **kwargs)

    monkeypatch.setattr(np, "stack", counted)
    scheme.residual(field, dt)
    assert calls == []


@pytest.mark.parametrize("preset", ["advection_smooth", "sod", "mhd_shock_tube",
                                    "blast_waves"])
def test_stage_makes_no_concatenate_call(preset, monkeypatch):
    # a stage fills its field's ghost rows in place, on periodic, outflow
    # and wall grids alike, and the integrator combines whole buffers: no
    # extension by np.concatenate. Counted through a wrapper: np.concatenate
    # is no builtin, so the profiler's c_call events do not show it
    cfg = load_config(preset).with_overrides(n=40)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    concatenate = np.concatenate
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return concatenate(*args, **kwargs)

    monkeypatch.setattr(np, "concatenate", counted)
    entry = scheme.stage_entry(field)
    dt = scheme.max_dt(field, cfg.cfl, entry)
    scheme.residual(field, dt, {}, entry=entry)
    make_integrator(cfg.integrator).step(scheme, field, dt, entry=entry)
    assert calls == []
    mesh.extend_averages(field.avgs, scheme.bc, scheme.system)
    assert calls == []


def _stage_calls(scheme, field, cfl):
    """Python-level calls (sys.setprofile's `call` and `c_call` events) of
    one stage as `advance` runs it: stage_entry, max_dt and the residual,
    each call itself included, as scripts/stage_calls.py counts them."""
    calls = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    record = {}
    sys.setprofile(profile)
    entry = scheme.stage_entry(field)
    dt = scheme.max_dt(field, cfl, entry)
    scheme.residual(field, dt, record, entry=entry)
    sys.setprofile(None)
    return calls[0] - 1, record          # less the setprofile(None) call


@pytest.mark.parametrize("preset, n, budget, limited", [
    ("advection_smooth", 20, 52, True), ("burgers_steepening", 20, 66, True),
    ("sod", 200, 160, False), ("mhd_shock_tube", 200, 247, False),
    ("sod", 200, 150, False), ("mhd_shock_tube", 200, 158, False),
    ("advection_smooth", 20, 48, True), ("burgers_steepening", 20, 62, True),
    ("sod", 200, 142, False), ("mhd_shock_tube", 200, 154, False)])
def test_stage_call_budget(preset, n, budget, limited):
    # at paper sizes each call costs about as much as its arithmetic: these
    # stages made 127 (advection) and 240 (sod, MP) calls, then 48 and 187,
    # since the scalar limiter stopped copying its inputs, the scalar speeds
    # became one kernel call, the guards' reductions lost their Python
    # wrappers, advection's speed became one constant and each law took its
    # own numerics in place of the dispatch on its type. They made 51 and
    # 162 once the ghost rows were filled in place, where extension built
    # new arrays; the scalar limiter's flat gathers and scatters cost
    # advection 9 more. They make 52 and 156 since a gas derives each
    # state set once and its interface flux takes both sides in one law
    # call (the law's `interface_flux` is one call deeper for advection).
    # Advection's budget stays at 52. Burgers (computed scalar speeds)
    # holds the 66 it makes, so all four paths of scripts/stage_calls.py
    # are held. Sod and MHD with OE made 156 and 247; they make 150 and 158
    # since a gas entry tests each state set at once, with the located
    # guards only on a failure, and OE forms its jump integrals on the few
    # rows its floor screen keeps, both sides in one pass. The 160 and 247
    # rows are kept as the cases they were; the 150 and 158 rows hold the
    # counts the gas paths made then. A scalar entry tests both blocks of
    # the field buffer with one minimum and one maximum reduction, where
    # two located guards made four (advection 48, Burgers 62), and a gas
    # encode no longer guards the densities its derivation has checked
    # (sod with MP encodes twice a stage: 142; MHD with OE once: 154)
    cfg = load_config(preset).with_overrides(n=n)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    field, _, _ = run_mod.advance(scheme, field, 0.05 * cfg.t_final, cfg.cfl,
                                  cfg.integrator)
    calls, record = _stage_calls(scheme, field, cfg.cfl)
    # the advection stage is counted with limited cells, the limiter's
    # longer path
    assert (record["idp_active"] > 0) == limited
    assert calls <= budget


STAGE_RECORD_KEYS = {"theta", "mid_hat", "idp_active", "theta_oe", "oe_active",
                     "mp_active"}


@pytest.mark.parametrize("oscillation", ["none", "oe", "mp"])
@pytest.mark.parametrize("preset", ["jiang_shu", "sod"])
def test_stage_record_contract(preset, oscillation):
    # the diagnostics CSV, the domain sweep and the benchmark's tracer read
    # the stage record by key: one residual call fills exactly these six
    cfg = load_config(preset).with_overrides(n=40, oscillation=oscillation)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    record = {}
    scheme.residual(field, scheme.max_dt(field, cfg.cfl), record)
    assert set(record) == STAGE_RECORD_KEYS
    n = cfg.n
    assert record["theta"].shape == (n + 2,)
    assert record["mid_hat"].shape == (n, scheme.system.nvars)
    assert record["idp_active"] == np.count_nonzero(record["theta"] < 1.0)
    if oscillation == "oe":
        assert record["theta_oe"].shape == (n + 2,)
        assert record["oe_active"] > 0  # both profiles have jumps
    else:
        assert record["theta_oe"] is None and record["oe_active"] == 0
    if oscillation == "mp":
        assert record["mp_active"] > 0
    else:
        assert record["mp_active"] == 0


class _Forwarding:
    """A law behind attribute forwarding: an instance of no law class, so
    the scheme reaches its numerics only by calling its methods."""

    def __init__(self, law):
        self._law = law

    def __getattr__(self, name):
        return getattr(self._law, name)


def _same_bits(got, want):
    """Equal None-ness, or equal shapes and bits (-0.0 != 0.0, nan seen);
    tuples item by item."""
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_bits(g, w)
    elif want is None:
        assert got is None
    else:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("oscillation", ["oe", "mp"])
@pytest.mark.parametrize("preset,law", [
    ("sod", Euler(1.4)), ("mhd_shock_tube", IdealMHD(5.0 / 3.0, 0.75))],
    ids=["euler", "mhd"])
def test_laws_dispatch_by_method_not_type(preset, law, oscillation):
    # the scheme, the transform entry points and the IDP limiter call the
    # law's own methods: a law they cannot recognise by type runs the same
    # stages, bit for bit
    cfg = load_config(preset).with_overrides(n=40, oscillation=oscillation)
    built = run_mod.build_scheme(cfg)
    plain, proxy = (PampaScheme(s, built.grid, built.bc, built.limiter)
                    for s in (law, _Forwarding(law)))
    assert not isinstance(proxy.system, (Euler, IdealMHD))
    field = run_mod.initial_field(cfg, plain)
    entry = plain.stage_entry(field)
    _same_bits(tuple(proxy.stage_entry(field)), tuple(entry))
    dt = plain.max_dt(field, cfg.cfl, entry)
    _same_bits(proxy.max_dt(field, cfg.cfl), dt)
    record, proxy_record = {}, {}
    _same_bits(tuple(proxy.residual(field, dt, proxy_record)),
               tuple(plain.residual(field, dt, record, entry=entry)))
    assert set(proxy_record) == set(record)
    for key, value in record.items():
        _same_bits(proxy_record[key], value)
    out, steps, t = run_mod.advance(plain, field, 10 * dt, cfg.cfl,
                                    cfg.integrator)
    proxy_out, proxy_steps, proxy_t = run_mod.advance(
        proxy, field, 10 * dt, cfg.cfl, cfg.integrator)
    assert proxy_steps == steps >= 10
    _same_bits((proxy_t, proxy_out.avgs, proxy_out.points),
               (t, out.avgs, out.points))
