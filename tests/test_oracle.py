import numpy as np
import pytest

from pampa import oracle, run as run_mod
from pampa.config import build_system, load_config
from pampa.errors import ConfigError
from pampa.systems import Euler, IdealMHD, ScalarLaw, advection, burgers


def test_thm43_eps_01():
    res = oracle.thm43_counterexample(0.1)
    assert res.continuous_avg == pytest.approx(1.1, abs=1e-12)
    assert res.continuous_avg > 1.0
    assert 0.0 <= res.idp_avg <= 1.0
    assert res.theta == pytest.approx(4.0 / 13.0, rel=1e-13)
    assert res.limited_mid == 1.0


def test_thm43_eps_024():
    res = oracle.thm43_counterexample(0.24)
    assert res.continuous_avg == pytest.approx(1.0066666666666666, rel=1e-13)
    assert res.continuous_avg > 1.0
    assert 0.0 <= res.idp_avg <= 1.0


def test_thm43_boundary_ratio():
    # at dt/dx = 2*eps/3 the continuous-flux update sits exactly on 1
    eps = 0.1
    res = oracle.thm43_counterexample(eps, ratio=2.0 * eps / 3.0)
    assert res.continuous_avg == pytest.approx(1.0, abs=1e-15)


def test_thm43_rejects_bad_eps():
    with pytest.raises(ConfigError):
        oracle.thm43_counterexample(0.3)


def test_splitting_deterministic_and_identical_states():
    sys = Euler(1.4)
    r1 = oracle.sample_lf_splitting(sys, 5000, 42)
    r2 = oracle.sample_lf_splitting(sys, 5000, 42)
    assert r1.worst_margin == r2.worst_margin
    U = sys.from_primitive(np.array([[1.0, 0.3, 2.0]]))
    state = oracle._splitting_states(sys, U, U)
    assert np.array_equal(state, U)


def test_splitting_detects_undersized_speed():
    rep = oracle.sample_lf_splitting(burgers(-1.0, 2.0), 20_000, 42,
                                     lam_scale=0.5)
    assert rep.n_violations > 0
    assert rep.first_violation is not None


def test_domain_sweep_clean_run():
    cfg = load_config("jiang_shu").with_overrides(n=80, t_final=0.2)
    scheme = run_mod.build_scheme(cfg)
    sweep = oracle.DomainSweep(build_system(cfg))
    field = run_mod.initial_field(cfg, scheme)
    sweep.check_field(field)
    run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator,
                    on_stage=sweep.on_stage)
    assert sweep.report.is_empty
    assert sweep.report.n_checked > 1000
    assert sweep.report.worst_margin >= 0.0


def test_domain_sweep_flags_planted_fault():
    cfg = load_config("sod").with_overrides(n=16)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    sys = scheme.system
    sweep = oracle.DomainSweep(sys)
    bad = field.copy()
    bad.avgs[7] = [1.0, 1.0, 0.1]  # E < kinetic: pressure -0.16
    sweep.check_field(bad, step=3, stage=1)
    rep = sweep.report
    assert not rep.is_empty
    v = rep.violations[0]
    assert (v.step, v.stage, v.location, v.kind) == (3, 1, 7, "average")
    assert v.margin < 0.0


def _in_domain_ref(system, U):
    if isinstance(system, ScalarLaw):
        u = U[..., 0]
        with np.errstate(invalid="ignore"):
            ok = (u >= system.u_min) & (u <= system.u_max)
        return ok & np.all(np.isfinite(U), axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = system.pressure(U, check=False)
        ok = (U[..., 0] > 0.0) & (p > 0.0)
    return ok & np.all(np.isfinite(U), axis=-1) & np.isfinite(p)


def _domain_margin_ref(system, U):
    if isinstance(system, ScalarLaw):
        u = U[..., 0]
        return np.minimum(u - system.u_min, system.u_max - u)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = system.pressure(U, check=False)
    return np.minimum(U[..., 0], p)


class _TwoPressureSweep(oracle.DomainSweep):
    """DomainSweep with the predicate and the margin taken separately, each
    with its own pressure."""

    def _check(self, states, kind, step, stage):
        rep = self.report
        margin = _domain_margin_ref(self.system, states)
        ok = _in_domain_ref(self.system, states)
        rep.n_checked += states.shape[0]
        rep.worst_margin = min(rep.worst_margin, float(np.min(margin)))
        if not np.all(ok):
            for loc in np.flatnonzero(~ok):
                if len(rep.violations) >= self.MAX_RECORDED:
                    break
                rep.violations.append(oracle.Violation(
                    step=step, stage=stage, location=int(loc), kind=kind,
                    state=states[loc].copy(), margin=float(margin[loc]),
                ))


def _assert_same_report(got, want):
    assert got.n_checked == want.n_checked
    assert np.array_equal(got.worst_margin, want.worst_margin, equal_nan=True)
    assert len(got.violations) == len(want.violations)
    for a, b in zip(got.violations, want.violations):
        assert (a.step, a.stage, a.location, a.kind) == \
            (b.step, b.stage, b.location, b.kind)
        assert np.array_equal(a.state, b.state, equal_nan=True)
        assert np.array_equal(a.margin, b.margin, equal_nan=True)


@pytest.mark.parametrize("preset,n", [
    ("double_rarefaction", 40), ("sedov", 41), ("blast_waves", 40),
    ("leblanc", 40), ("mhd_leblanc", 40), ("mhd_shock_tube", 40),
    ("jiang_shu", 40)])
def test_domain_sweep_matches_two_pressure_sweep(preset, n):
    # the c05 stress presets (and a scalar law): one pressure per state set
    # gives the report of a predicate and a margin taken separately
    cfg = load_config(preset).with_overrides(n=n)
    scheme = run_mod.build_scheme(cfg)
    sweep = oracle.DomainSweep(scheme.system)
    ref = _TwoPressureSweep(scheme.system)
    field = run_mod.initial_field(cfg, scheme)
    for s in (sweep, ref):
        s.check_field(field)

    def on_stage(*args):
        sweep.on_stage(*args)
        ref.on_stage(*args)

    run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator,
                    on_stage=on_stage)
    assert sweep.report.n_checked > 1000
    _assert_same_report(sweep.report, ref.report)


@pytest.mark.parametrize("preset", ["sod", "mhd_shock_tube"])
def test_domain_sweep_planted_faults_match_two_pressure_sweep(preset):
    # an out-of-G point (its decoded pressure overflows: infinite energy)
    # and an out-of-G midpoint (negative pressure)
    cfg = load_config(preset).with_overrides(n=16)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    field.points[5, -1] = 800.0
    mid = field.avgs.copy()
    mid[9, -1] = -1.0
    sweep = oracle.DomainSweep(scheme.system)
    ref = _TwoPressureSweep(scheme.system)
    with np.errstate(over="ignore"):
        for s in (sweep, ref):
            s.on_stage(0.0, 2, 1, field, {"mid_hat": mid})
    _assert_same_report(sweep.report, ref.report)
    rep = sweep.report
    assert [(v.kind, v.location) for v in rep.violations] == \
        [("point", 5), ("midpoint", 9)]
    assert rep.violations[1].margin < 0.0
    assert rep.worst_margin == rep.violations[1].margin


def test_offline_sweep_snapshots():
    cfg = load_config("jiang_shu").with_overrides(n=60, t_final=0.05)
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    snaps = []
    run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator,
                    on_stage=lambda t, s, g, f, r: snaps.append((s, g, f.copy(), r)))
    # replay the recorded (step, stage, field, record) snapshots offline
    sweep = oracle.DomainSweep(build_system(cfg))
    for step, stage, fld, record in snaps:
        sweep.on_stage(None, step, stage, fld, record)
    assert sweep.report.is_empty and sweep.report.n_checked > 0


def test_fd_jacobian_matches_analytic_euler_flux():
    sys = Euler(1.4)
    U = sys.from_primitive(np.array([1.2, 0.7, 1.5]))
    J = oracle.conservative_flux_jacobian_fd(sys, U)
    # row 0 of dF/dU is exactly (0, 1, 0)
    assert np.allclose(J[0], [0.0, 1.0, 0.0], atol=1e-9)


# The three per-system state samplers as they were written before they
# shared one gas sampler: the reference for the draws of the merged code.

def _ref_log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def _ref_sample_states(system, rng, n):
    if isinstance(system, ScalarLaw):
        u = rng.uniform(system.u_min, system.u_max, n)
        return u[:, None]
    if isinstance(system, Euler):
        rho = _ref_log_uniform(rng, 1e-6, 1e3, n)
        p = _ref_log_uniform(rng, 1e-8, 1e6, n)
        v = rng.uniform(-100.0, 100.0, n)
        return system.from_primitive(np.stack([rho, v, p], axis=-1))
    rho = _ref_log_uniform(rng, 1e-6, 1e3, n)
    p = _ref_log_uniform(rng, 1e-8, 1e6, n)
    v = rng.uniform(-100.0, 100.0, (n, 3))
    b = rng.uniform(-100.0, 100.0, (n, 2))
    prim = np.concatenate([rho[:, None], v, b, p[:, None]], axis=-1)
    return system.from_primitive(prim)


def _ref_sample_states_representable(system, rng, n):
    if isinstance(system, ScalarLaw):
        return _ref_sample_states(system, rng, n)
    rho = _ref_log_uniform(rng, 1e-6, 1e3, n)
    if isinstance(system, Euler):
        p = _ref_log_uniform(rng, 1e-8, 1e6, n)
        c = np.sqrt(system.gamma * p / rho)
        v = rng.uniform(-50.0, 50.0, n) * c
        return system.from_primitive(np.stack([rho, v, p], axis=-1))
    p_lo = max(1e-8, system.bx ** 2 / 2000.0)
    p = _ref_log_uniform(rng, p_lo, 1e6, n)
    c = np.sqrt(system.gamma * p / rho)
    v = rng.uniform(-50.0, 50.0, (n, 3)) * c[:, None]
    b = rng.uniform(-25.0, 25.0, (n, 2)) * np.sqrt(p)[:, None]
    prim = np.concatenate([rho[:, None], v, b, p[:, None]], axis=-1)
    return system.from_primitive(prim)


def _ref_sample_states_moderate(system, rng, n):
    if isinstance(system, ScalarLaw):
        return _ref_sample_states(system, rng, n)
    rho = _ref_log_uniform(rng, 0.1, 10.0, n)
    p = _ref_log_uniform(rng, 0.1, 10.0, n)
    if isinstance(system, Euler):
        v = rng.uniform(-3.0, 3.0, n)
        return system.from_primitive(np.stack([rho, v, p], axis=-1))
    v = rng.uniform(-3.0, 3.0, (n, 3))
    b = rng.uniform(-2.0, 2.0, (n, 2))
    prim = np.concatenate([rho[:, None], v, b, p[:, None]], axis=-1)
    return system.from_primitive(prim)


_SAMPLER_SYSTEMS = [Euler(1.4), IdealMHD(5.0 / 3.0, 0.0), IdealMHD(5.0 / 3.0, 0.75),
                    IdealMHD(5.0 / 3.0, 3.0), burgers(-1.0, 2.0), advection(0.0, 1.0)]


@pytest.mark.parametrize("system", _SAMPLER_SYSTEMS,
                         ids=["euler", "mhd-bx0", "mhd-bx0.75", "mhd-bx3",
                              "burgers", "advection"])
@pytest.mark.parametrize("new,ref", [
    (oracle._sample_states, _ref_sample_states),
    (oracle.sample_states_representable, _ref_sample_states_representable),
    (oracle.sample_states_moderate, _ref_sample_states_moderate),
], ids=["wide", "representable", "moderate"])
def test_samplers_match_per_system_reference(system, new, ref):
    rng_new = np.random.Generator(np.random.Philox(11))
    rng_ref = np.random.Generator(np.random.Philox(11))
    got = new(system, rng_new, 257)
    want = ref(system, rng_ref, 257)
    assert got.shape == want.shape == (257, system.nvars)
    assert np.array_equal(got, want)
    # the generators consumed the same draws
    assert rng_new.uniform() == rng_ref.uniform()
