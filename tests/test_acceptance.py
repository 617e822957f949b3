"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The heavy positivity-stress runs execute the full benchmark
configurations, so this module takes a few minutes.
"""

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pampa import oracle, run as run_mod, transform
from pampa.config import build_system, load_config
from pampa.svgplot import write_solution_svgs
from pampa.systems import Euler, IdealMHD, advection

GOLDEN_DIR = Path(__file__).parent / "goldens"


def _report(num, name):
    print(f"ACCEPTANCE {num:>2} {name}: PASS", flush=True)


def _full_run(name, **overrides):
    cfg = load_config(name).with_overrides(**overrides)
    scheme = run_mod.build_scheme(cfg)
    system = build_system(cfg)
    sweep = oracle.DomainSweep(system)
    field = run_mod.initial_field(cfg, scheme)
    sweep.check_field(field)
    tot0 = [math.fsum(scheme.grid.cell_sizes * field.avgs[:, k])
            for k in range(system.nvars)]
    field, steps, _ = run_mod.advance(scheme, field, cfg.t_final, cfg.cfl,
                                      cfg.integrator, on_stage=sweep.on_stage)
    tot1 = [math.fsum(scheme.grid.cell_sizes * field.avgs[:, k])
            for k in range(system.nvars)]
    return dict(cfg=cfg, scheme=scheme, system=system, field=field,
                steps=steps, sweep=sweep, tot0=tot0, tot1=tot1)


@pytest.fixture(scope="module")
def jiang_shu_run():
    return _full_run("jiang_shu")


@pytest.fixture(scope="module")
def burgers_run():
    return _full_run("burgers_steepening")


def test_c01_advection_convergence():
    # published ladder: third order, 2.14e-7 at n = 1280
    cfg = load_config("advection_smooth")
    rows = run_mod.convergence_table(cfg, [20, 40, 80, 160, 320, 640, 1280])
    for r in rows[-2:]:
        assert r.order_avg >= 2.9, rows
        assert r.order_point >= 2.9, rows
    assert 2.14e-7 / 3 <= rows[-1].err_avg <= 2.14e-7 * 3
    assert 2.14e-7 / 3 <= rows[-1].err_point <= 2.14e-7 * 3
    _report(1, "advection accuracy ladder")


@pytest.mark.parametrize("oscillation", ["none", "oe", "mp"])
def test_c02_euler_convergence(oscillation):
    cfg = load_config("euler_smooth").with_overrides(oscillation=oscillation)
    rows = run_mod.convergence_table(cfg, [20, 40, 80, 160, 320, 640, 1280])
    for r in rows[-2:]:
        assert r.order_avg >= 2.8, (oscillation, rows)
        assert r.order_point >= 2.8, (oscillation, rows)
    assert 4.89e-9 / 3 <= rows[-1].err_avg <= 4.89e-9 * 3, rows[-1]
    assert 6.58e-9 / 3 <= rows[-1].err_point <= 6.58e-9 * 3, rows[-1]
    # no domain violation despite the 1e-8 background pressure
    run = _full_run("euler_smooth", oscillation=oscillation, n=160)
    assert run["sweep"].report.is_empty, run["sweep"].report.summary()
    _report(2, f"smooth Euler accuracy ladder [{oscillation}]")


def test_c03_maximum_principle_sweep(jiang_shu_run):
    rep = jiang_shu_run["sweep"].report
    assert jiang_shu_run["steps"] > 10_000
    assert rep.is_empty, rep.summary()
    assert rep.worst_margin >= 0.0
    _report(3, f"maximum principle sweep ({rep.n_checked} states)")


def test_c04_no_constant_cfl_counterexample():
    res = oracle.thm43_counterexample(0.1)
    assert abs(res.continuous_avg - 1.1) <= 1e-12
    assert res.continuous_avg > 1.0
    assert 0.0 <= res.idp_avg <= 1.0
    _report(4, "single-cell counterexample (continuous flux exits, IDP stays)")


@pytest.mark.parametrize("preset", ["double_rarefaction", "sedov",
                                    "blast_waves", "leblanc", "mhd_leblanc",
                                    "mhd_shock_tube"])
def test_c05_positivity_stress(preset):
    run = _full_run(preset)
    rep = run["sweep"].report
    assert rep.is_empty, rep.summary()
    assert rep.worst_margin > 0.0
    prim = run["system"].primitive(run["field"].avgs)
    assert np.min(prim[:, 0]) > 0.0
    assert np.min(prim[:, -1]) > 0.0
    _report(5, f"positivity stress [{preset}] ({run['steps']} steps, "
               f"worst margin {rep.worst_margin:.2e})")


def test_c06_conservation_periodic(jiang_shu_run, burgers_run):
    runs = {"jiang_shu": jiang_shu_run, "burgers_steepening": burgers_run}
    for name in ("advection_smooth", "euler_smooth"):
        runs[name] = _full_run(name)
    for name, run in runs.items():
        for k, (t0, t1) in enumerate(zip(run["tot0"], run["tot1"])):
            scale = max(abs(t0), 1e-30)
            assert abs(t1 - t0) / scale < 1e-12, (name, k, t0, t1)
    _report(6, "discrete conservation on periodic presets")


def test_c07_splitting_property_sampled():
    rep_e = oracle.sample_lf_splitting(Euler(1.4), 100_000, 42)
    rep_m = oracle.sample_lf_splitting(IdealMHD(gamma=5.0 / 3.0), 100_000, 43)
    assert rep_e.passed, rep_e.summary()
    assert rep_m.passed, rep_m.summary()
    _report(7, f"LF splitting membership (worst margins "
               f"{rep_e.worst_margin:.2e}, {rep_m.worst_margin:.2e})")


def test_c08_transform_unconditional_idp():
    for sys, seed in [(Euler(1.4), 7), (IdealMHD(gamma=5.0 / 3.0, bx=0.5), 8)]:
        rep = oracle.check_transform_membership(sys, 1_000_000, seed)
        assert rep.passed, rep.summary()
        rt = oracle.check_transform_roundtrip(sys, 100_000, seed + 10)
        assert rt.passed, rt.summary()
    _report(8, "transform membership (1e6 W) and round trips (1e5)")


def test_c09_limiter_cad_invariant():
    for sys, seed in [(advection(0.0, 1.0), 11), (Euler(1.4), 12)]:
        rep = oracle.check_limiter_invariants(sys, 100_000, seed)
        assert rep.passed, rep.summary()
    _report(9, "scaling limiter keeps the 1/6-4/6-1/6 decomposition")


def test_c10_burgers_invariant_interval(burgers_run):
    rep = burgers_run["sweep"].report
    assert rep.is_empty, rep.summary()
    u_avg = burgers_run["field"].avgs[:, 0]
    u_nodes = transform.from_transformed(burgers_run["system"],
                                         burgers_run["field"].points)[:, 0]
    assert np.min(u_avg) >= -1.0 and np.max(u_avg) <= 2.0
    assert np.min(u_nodes) >= -1.0 and np.max(u_nodes) <= 2.0
    _report(10, "self-steepening Burgers stays in [-1, 2]")


def _svg_series(path):
    root = ET.parse(path).getroot()
    ns = {"svg": "http://www.w3.org/2000/svg"}
    series = {}
    for line in root.findall(".//svg:polyline", ns):
        pts = [tuple(map(float, p.split(","))) for p in
               line.attrib["points"].split()]
        series[line.attrib["data-label"]] = pts
    return series


def test_c11_sod_svg_structural_regression(tmp_path):
    golden_path = GOLDEN_DIR / "sod_density.svg"
    assert golden_path.exists(), "golden SVG missing; run scripts/make_goldens.py"
    run = _full_run("sod")
    paths = write_solution_svgs(tmp_path, "sod", run["scheme"], run["field"])
    fresh = _svg_series(tmp_path / "density.svg")
    golden = _svg_series(golden_path)
    assert set(fresh) == set(golden)
    for label in golden:
        assert len(fresh[label]) == len(golden[label])

    # rarefaction monotonicity: density nonincreasing on x in [-1.3, -0.3]
    prim = run["system"].primitive(run["field"].avgs)
    x = run["scheme"].grid.cell_centers
    window = (x >= -1.3) & (x <= -0.3)
    rho = prim[window, 0]
    assert np.all(np.diff(rho) <= 1e-10)
    # same check parsed straight from the fresh SVG pixel coordinates
    # (y grows downward, so the plotted series must be nondecreasing in y)
    pts = fresh["density"]
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    x0, x1 = xs.min(), xs.max()
    lo = x0 + (x1 - x0) * (-1.3 - (-5.0)) / 10.0
    hi = x0 + (x1 - x0) * (-0.3 - (-5.0)) / 10.0
    seg = ys[(xs >= lo) & (xs <= hi)]
    assert np.all(np.diff(seg) >= -0.51)  # pixel-rounding tolerance
    _report(11, "Sod SVG structural regression")
