import json
import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from pampa import cli, config, run as run_mod
from pampa.config import load_config, parse_config_text, preset_names
from pampa.errors import ConfigError, DomainError
from pampa.timeint import make_integrator

PAPER_PRESETS = {
    # label: (a, b, n, bc, t_final, gamma, oscillation, integrator)
    "advection_smooth": (0.0, 1.0, 200, "periodic", 1.0, None, "none", "ssp_ms3"),
    "jiang_shu": (-1.0, 1.0, 400, "periodic", 2.0, None, "none", "ssp_ms3"),
    "burgers_steepening": (-1.0, 1.0, 400, "periodic", 0.5, None, "none", "ssp_ms3"),
    "euler_smooth": (0.0, 2.0 * np.pi, 200, "periodic", 0.1, 1.4, "none", "ssp_ms3"),
    "sod": (-5.0, 5.0, 200, "outflow", 1.3, 1.4, "mp", "ssp_rk3"),
    "blast_waves": (0.0, 1.0, 800, "reflective", 0.038, 1.4, "oe", "ssp_rk3"),
    "double_rarefaction": (-1.0, 1.0, 400, "outflow", 0.6, 1.4, "mp", "ssp_rk3"),
    "shu_osher": (-5.0, 5.0, 640, "outflow", 1.8, 1.4, "oe", "ssp_rk3"),
    "sedov": (-2.0, 2.0, 801, "outflow", 0.001, 1.4, "mp", "ssp_rk3"),
    "leblanc": (0.0, 9.0, 800, "outflow", 6.0, 5.0 / 3.0, "mp", "ssp_rk3"),
    "mhd_shock_tube": (0.0, 1.0, 800, "outflow", 0.2, 5.0 / 3.0, "oe", "ssp_rk3"),
    "mhd_leblanc": (-10.0, 10.0, 2000, "outflow", 3e-5, 1.4, "mp", "ssp_rk3"),
}


def test_preset_list_complete():
    assert set(preset_names()) == set(PAPER_PRESETS)


@pytest.mark.parametrize("name", sorted(PAPER_PRESETS))
def test_preset_fidelity(name):
    a, b, n, bc, t_final, gamma, osc, integ = PAPER_PRESETS[name]
    cfg = load_config(name)
    assert (cfg.a, cfg.b) == pytest.approx((a, b), rel=1e-15)
    assert cfg.n == n
    assert cfg.bc == bc
    assert cfg.t_final == pytest.approx(t_final, rel=1e-15)
    if gamma is not None:
        assert cfg.gamma == pytest.approx(gamma, rel=1e-15)
    assert cfg.oscillation == osc
    assert cfg.integrator == integ
    assert cfg.cfl == 0.1


def test_preset_initial_conditions_spot_values():
    # left/right primitive states as stated by the benchmarks
    cfg = load_config("sod")
    from pampa.presets import IC_REGISTRY

    ic = IC_REGISTRY[cfg.ic]
    assert np.allclose(ic(cfg, np.array([-1.0]))[0], [1.0, 0.0, 1.0])
    assert np.allclose(ic(cfg, np.array([2.0]))[0], [0.125, 0.0, 0.1])
    assert np.allclose(ic(cfg, np.array([0.0]))[0], [1.0, 0.0, 1.0])  # x <= 0

    cfg = load_config("leblanc")
    ic = IC_REGISTRY[cfg.ic]
    g = cfg.gamma
    assert np.allclose(ic(cfg, np.array([1.0]))[0], [1.0, 0.0, 0.1 * (g - 1)])
    assert np.allclose(ic(cfg, np.array([5.0]))[0], [1e-3, 0.0, 1e-7 * (g - 1)])

    cfg = load_config("mhd_leblanc")
    ic = IC_REGISTRY[cfg.ic]
    assert cfg.bx == 0.0
    assert np.allclose(ic(cfg, np.array([-1.0]))[0],
                       [2.0, 0.0, 0.0, 0.0, 5000.0, 5000.0, 1e9])
    assert np.allclose(ic(cfg, np.array([1.0]))[0],
                       [1e-3, 0.0, 0.0, 0.0, 5000.0, 5000.0, 1.0])

    cfg = load_config("mhd_shock_tube")
    ic = IC_REGISTRY[cfg.ic]
    assert cfg.bx == pytest.approx(0.7)
    assert np.allclose(ic(cfg, np.array([0.2]))[0],
                       [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
    assert np.allclose(ic(cfg, np.array([0.8]))[0],
                       [0.3, 0.0, 0.0, 1.0, 1.0, 0.0, 0.2])


def _piecewise_data(cfg):
    """(splits, primitive states between them, the value on a split:
    'left' for the state before it, 'mean' for the mean of the two)."""
    g = cfg.gamma
    return {
        "sod": ([0.0], [[1.0, 0.0, 1.0], [0.125, 0.0, 0.1]], "left"),
        "double_rarefaction": ([0.0], [[7.0, -1.0, 0.2], [7.0, 1.0, 0.2]], "mean"),
        "leblanc": ([3.0], [[1.0, 0.0, 0.1 * (g - 1.0)],
                            [1e-3, 0.0, 1e-7 * (g - 1.0)]], "left"),
        "blast_waves": ([0.1, 0.9], [[1.0, 0.0, 1e3], [1.0, 0.0, 1e-2],
                                     [1.0, 0.0, 1e2]], "mean"),
        "mhd_shock_tube": ([0.5], [[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                                   [0.3, 0.0, 0.0, 1.0, 1.0, 0.0, 0.2]], "mean"),
        "mhd_leblanc": ([0.0], [[2.0, 0.0, 0.0, 0.0, 5000.0, 5000.0, 1e9],
                                [1e-3, 0.0, 0.0, 0.0, 5000.0, 5000.0, 1.0]], "mean"),
        "burgers_steepening": ([-0.2, 0.2], [[-1.0], [2.0], [-1.0]], "mean"),
        "sedov": ([], [[1.0, 0.0, (g - 1.0) * 1e-12]], "mean"),
    }[cfg.label]


@pytest.mark.parametrize("preset", ["sod", "double_rarefaction", "leblanc",
                                    "blast_waves", "mhd_shock_tube", "mhd_leblanc",
                                    "burgers_steepening", "sedov"])
def test_piecewise_initial_conditions_at_and_beside_each_split(preset):
    # a point on a split takes the tie state; one ulp either side, the
    # state on that side; a state's value is the same across its interval
    cfg = load_config(preset)
    from pampa.presets import IC_REGISTRY

    ic = IC_REGISTRY[cfg.ic]
    splits, states, tie = _piecewise_data(cfg)
    states = np.array(states)
    edges = [cfg.a, *splits, cfg.b]
    for k, state in enumerate(states):
        inside = np.linspace(edges[k], edges[k + 1], 7)[1:-1]
        assert np.array_equal(ic(cfg, inside), np.tile(state, (5, 1)))
    for k, s in enumerate(splits):
        before, after = states[k], states[k + 1]
        on = before if tie == "left" else 0.5 * (before + after)
        x = np.array([np.nextafter(s, -np.inf), s, np.nextafter(s, np.inf)])
        assert np.array_equal(ic(cfg, x), np.stack([before, on, after]))


def test_sedov_center_cell_energy():
    cfg = load_config("sedov")
    scheme = run_mod.build_scheme(cfg)
    field = run_mod.initial_field(cfg, scheme)
    dx = scheme.grid.cell_sizes[0]
    c = cfg.n // 2
    assert field.avgs[c, 2] == pytest.approx(3.2e6 * dx, rel=1e-14)
    others = np.delete(field.avgs[:, 2], c)
    assert np.allclose(others, 1e-12, rtol=1e-12)
    # the centre cell is truly centred (odd cell count)
    assert scheme.grid.cell_centers[c] == pytest.approx(0.0, abs=1e-13)


def test_jiang_shu_constants():
    from pampa.presets import _jiang_shu

    # G1 combination at x = z: (2 e^{-beta delta^2} + 4)/6 with
    # beta = ln2/(36 delta^2), delta = 0.005 -> exponent = -ln2/36
    expected = (2.0 * np.exp(-np.log(2.0) / 36.0) + 4.0) / 6.0
    assert _jiang_shu(np.array([-0.7]))[0] == pytest.approx(expected, rel=1e-14)
    # square pulse and the triangle apex
    assert _jiang_shu(np.array([-0.3]))[0] == 1.0
    assert _jiang_shu(np.array([0.1]))[0] == 1.0
    assert _jiang_shu(np.array([0.85]))[0] == 0.0


def test_config_overrides_and_validation():
    cfg = load_config("sod")
    assert cfg.with_overrides(n=100).n == 100
    with pytest.raises(ConfigError):
        cfg.with_overrides(cfl=0.2)
    with pytest.raises(ConfigError):
        load_config("no_such_preset")
    with pytest.raises(ConfigError):
        cfg.with_overrides(oscillation="weird")
    with pytest.raises(ConfigError, match="unknown initial condition 'nope'"):
        cfg.with_overrides(ic="nope")
    with pytest.raises(ConfigError, match="unknown exact solution 'nope'"):
        cfg.with_overrides(exact="nope")
    for t_final, need in ((0.0, "positive"), (-1.0, "positive"),
                          (math.nan, "positive"), (math.inf, "finite")):
        with pytest.raises(ConfigError, match=f"^t_final must be {need}$"):
            cfg.with_overrides(t_final=t_final)


def _build_and_size_a_step(cfg):
    scheme = run_mod.build_scheme(cfg)
    make_integrator(cfg.integrator)
    scheme.max_dt(run_mod.initial_field(cfg, scheme), cfg.cfl)


@pytest.mark.parametrize("preset,overrides,error,message", [
    ("sod", {"system": "plasma"}, ConfigError, "unknown system 'plasma'"),
    ("euler_smooth", {"system": "advection"}, ConfigError,
     "scalar systems need u_min and u_max"),
    ("advection_smooth", {"u_min": 2.0, "u_max": 1.0}, DomainError,
     "need u_min < u_max, got [2.0, 1.0]"),
    ("sod", {"bc": "wall"}, ConfigError, "unknown boundary condition 'wall'"),
    ("advection_smooth", {"bc": "reflective"}, ConfigError,
     "reflective boundaries need a velocity component; advection has none"),
    ("sod", {"n": 2}, ConfigError, "need n >= 3 cells, got 2"),
    ("sod", {"a": 5.0}, ConfigError, "domain must satisfy a < b, got [5.0, 5.0]"),
    ("sod", {"integrator": "rk4"}, ConfigError, "unknown integrator 'rk4'"),
    ("sod", {"oscillation": "weird"}, ConfigError,
     "unknown oscillation control 'weird'"),
    ("sod", {"cfl": 0.2}, ConfigError,
     "cfl must lie in (0, 1/6] for the IDP guarantee, got 0.2"),
    ("sod", {"gamma": 0.5}, ConfigError,
     "gamma must be a finite number above 1, got 0.5"),
    ("sod", {"gamma": 1.0}, ConfigError,
     "gamma must be a finite number above 1, got 1.0"),
    ("mhd_shock_tube", {"gamma": math.nan}, ConfigError,
     "gamma must be a finite number above 1, got nan"),
    ("mhd_shock_tube", {"bx": math.inf}, ConfigError, "bx must be finite, got inf"),
    ("advection_smooth", {"u_min": -math.inf}, ConfigError,
     "need finite u_min and u_max, got [-inf, 2.0]"),
    ("jiang_shu", {"u_max": math.inf}, ConfigError,
     "need finite u_min and u_max, got [0.0, inf]"),
])
def test_validate_rejects_what_building_rejects(preset, overrides, error,
                                                message):
    base = load_config(preset)
    with pytest.raises(error) as at_validate:
        base.with_overrides(**overrides)
    with pytest.raises(error) as at_build:
        _build_and_size_a_step(replace(base, **overrides))
    assert str(at_validate.value) == str(at_build.value) == message


def test_config_file_round_trip(tmp_path):
    text = """
[system]
kind = burgers
u_min = -1.0
u_max = 2.0
[grid]
a = -1.0
b = 1.0
n = 40
bc = periodic
[time]
t_final = 0.1
integrator = ssp_ms3
cfl = 0.05
[limiter]
oscillation = mp
[ic]
name = burgers_square
"""
    path = tmp_path / "custom.ini"
    path.write_text(text)
    cfg = load_config(str(path))
    assert cfg.label == "custom"
    assert cfg.system == "burgers" and cfg.cfl == 0.05


def test_every_run_config_field_has_one_ini_key():
    names = [config._RENAMES.get((section, key), key)
             for section, keys in config._SECTION_KEYS.items() for key in keys]
    settable = {f.name for f in fields(config.RunConfig)} - {"label"}
    assert len(names) == len(set(names))
    assert set(names) == settable
    # the parser reads each key's type off its annotation: int, bool, a str
    # or else a float, so every annotation must be one of those
    kinds = {config._TYPES[name] for name in settable}
    assert all(k in ("int", "bool") or k.startswith(("str", "float"))
               for k in kinds), kinds


_MINIMAL_INI = {
    "system": "kind = burgers\nu_min = -1.0\nu_max = 2.0\n",
    "grid": "a = -1.0\nb = 1.0\nn = 40\nbc = periodic\n",
    "time": "t_final = 0.1\n",
    "limiter": "oscillation = mp\n",
    "ic": "name = burgers_square\n",
}


def _ini_with(section: str, line: str) -> str:
    sections = dict(_MINIMAL_INI)
    sections[section] = sections.get(section, "") + line
    return "".join(f"[{name}]\n{body}" for name, body in sections.items())


@pytest.mark.parametrize("section,key", [
    ("system", "rho_ref"), ("limiter", "mp_alpha"), ("limiter", "mp_beta"),
    ("limiter", "eps_rho"), ("limiter", "eps_p"), ("output", "snapshot_every"),
])
def test_config_rejects_removed_keys(section, key):
    assert parse_config_text(_ini_with(section, ""), "ok").n == 40
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
        parse_config_text(_ini_with(section, f"{key} = 1\n"), "bad")


def test_cli_run_and_determinism(tmp_path):
    out1 = tmp_path / "r1"
    out2 = tmp_path / "r2"
    args = ["run", "sod", "--n", "40", "--t-final", "0.2"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    for name in ("cells.csv", "nodes.csv", "diagnostics.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    meta = json.loads((out1 / "meta.json").read_text())
    assert meta["config"]["n"] == 40


def test_scalar_diagnostics(tmp_path):
    # a scalar law's diagnostics rows: its own state columns, one row per
    # step, and every value of the field inside G
    cfg = load_config("jiang_shu").with_overrides(n=40, t_final=0.05)
    run_mod.run_to_files(cfg, tmp_path)
    lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[3:7] == ["min_u", "max_u", "w_min", "w_max"]
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    n_steps = json.loads((tmp_path / "meta.json").read_text())["n_steps"]
    assert n_steps > 0 and np.array_equal(rows[:, 0], np.arange(1, n_steps + 1))
    min_u, max_u = rows[:, 3], rows[:, 4]
    assert np.all((cfg.u_min <= min_u) & (min_u <= max_u) & (max_u <= cfg.u_max))


def test_cli_run_svg_and_snapshots(tmp_path):
    out = tmp_path / "svg_run"
    rc = cli.main(["run", "sod", "--n", "40", "--t-final", "0.2",
                   "--svg", "--snapshots", "10", "--out", str(out)])
    assert rc == 0
    assert (out / "density.svg").exists()
    assert (out / "pressure.svg").exists()
    snaps = sorted((out / "snapshots").glob("cells_*.csv"))
    assert snaps


def test_cli_convergence(tmp_path, capsys):
    out = tmp_path / "conv.csv"
    rc = cli.main(["convergence", "advection_smooth", "--N", "20,40",
                   "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,err_avg,order_avg,err_point,order_point"
    assert len(lines) == 3
    # halving sanity on a third-order scheme: doubling n divides the error
    # by roughly 8 (loose at this coarse pair)
    row40 = lines[2].split(",")
    assert float(row40[2]) > 1.5


def test_cli_reference_run(tmp_path):
    # constant regions away from any wave stay exactly constant through the
    # first-order solver (finite propagation: one cell per step)
    cfg = load_config("burgers_steepening").with_overrides(t_final=0.01)
    centers, U, prim = run_mod.reference_solution(cfg, 100)
    far = np.abs(centers) > 0.6
    assert np.all(U[far, 0] == -1.0)
    rc = cli.main(["reference", "sod", "--n", "60", "--out", str(tmp_path / "ref")])
    assert rc == 0
    assert (tmp_path / "ref" / "reference.csv").exists()
    meta = json.loads((tmp_path / "ref" / "reference_meta.json").read_text())
    assert meta["reference_cells"] == 60
    assert meta["cfl"] == 0.45  # fixed: no flag or setting moves it


def test_reference_reflective_walls_conserve_mass():
    # the LLF mass flux through a mirrored wall is exactly 0, so the total
    # mass changes only by rounding
    cfg = load_config("blast_waves")
    _, U0, _ = run_mod.reference_solution(cfg.with_overrides(t_final=1e-12), 101)
    _, U, _ = run_mod.reference_solution(cfg, 101)
    assert np.sum(U[:, 0]) == pytest.approx(np.sum(U0[:, 0]), rel=1e-12, abs=0)
    assert abs(U[0, 1]) > 1e-3  # gas moves at the wall: a copied ghost leaks mass


def test_reference_uses_the_average_builder():
    # the point blast deposits its energy in the centre cell average, and
    # only at odd cell counts
    cfg = load_config("sedov")
    centers, U, prim = run_mod.reference_solution(cfg, 61)
    assert np.all(np.isfinite(U))
    assert np.all(prim[:, 0] > 0.0) and np.all(prim[:, 2] > 0.0)
    dx = 4.0 / 61
    assert np.sum(U[:, 2]) * dx == pytest.approx(3.2e6 * dx * dx, rel=1e-12)
    with pytest.raises(ConfigError):
        run_mod.reference_solution(cfg, 60)


@pytest.mark.parametrize("preset, cell, comp, value, error", [
    ("sod", 0, 2, -1.0, "average 0 needs positive, finite density and pressure, "
                        "got [ 1.  0. -1.]"),
    ("burgers_steepening", 5, 0, np.nan, "average 5 needs values in [-1.0, 2.0], "
                                         "got [nan]"),
    ("mhd_shock_tube", 3, 6, 0.0, "average 3 needs positive, finite density and "
                                  "pressure, got [1. 0. 0. 0. 0. 0. 0.]"),
    ("sod", 5, 0, -1.0, "average 5 needs positive, finite density and pressure, "
                        "got [-1.   0.   2.5]"),
    ("sod", 5, 0, 1e-310, "wave speed of cell 5 needs finite values, got inf"),
], ids=["sod-energy", "burgers-nan", "mhd-energy", "sod-density", "sod-speed"])
def test_reference_fails_on_the_bad_average(monkeypatch, preset, cell, comp,
                                            value, error):
    # the reference checks each step's averages itself: a state outside G,
    # and an infinite wave speed, fail at step 1 and name the cell, not a
    # ghost-counted row and not silently
    built = run_mod.initial_averages

    def planted(cfg, system, grid):
        avgs = built(cfg, system, grid)
        avgs[cell, comp] = value
        return avgs

    monkeypatch.setattr(run_mod, "initial_averages", planted)
    with pytest.raises(DomainError) as err:
        run_mod.reference_solution(load_config(preset), 20)
    assert str(err.value) == f"step 1 (t = 0.0): {error}"


def test_reference_metadata_notes_published_resolution(tmp_path):
    cfg = load_config("shu_osher").with_overrides(n=64, t_final=0.01)
    run_mod.write_reference_csv(cfg, 100, tmp_path)
    meta = json.loads((tmp_path / "reference_meta.json").read_text())
    assert "300000" in meta["note"].replace(",", "")


def test_cli_verify_suites():
    assert cli.main(["verify", "thm43", "--eps", "0.1"]) == 0
    assert cli.main(["verify", "splitting", "--system", "euler",
                     "--samples", "5000", "--seed", "42"]) == 0
    assert cli.main(["verify", "limiters", "--system", "advection",
                     "--samples", "5000"]) == 0
    assert cli.main(["verify", "transform", "--system", "euler",
                     "--samples", "2000"]) == 0
    assert cli.main(["verify", "sweep", "--preset", "burgers_steepening"]) in (0,)


@pytest.mark.parametrize("suite", ["all", "splitting", "transform", "limiters"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_verify_rejects_no_samples(suite, samples, capsys):
    # no sample is no check: the parser refuses it before any suite runs
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", suite, "--samples", samples])
    assert err.value.code == 2
    assert f"must be at least 1, got {samples}" in capsys.readouterr().err


def test_cli_run_rejects_negative_snapshots(tmp_path, capsys):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as err:
        cli.main(["run", "sod", "--snapshots", "-1", "--out", str(out)])
    assert err.value.code == 2
    assert "must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()
    # 0 means no snapshots
    assert cli.main(["run", "sod", "--n", "40", "--t-final", "0.05",
                     "--snapshots", "0", "--out", str(out)]) == 0
    assert (out / "cells.csv").exists() and not (out / "snapshots").exists()


@pytest.mark.parametrize("ladder, bad", [("20,abc", "abc"), ("20,,40", ""),
                                        ("2.5", "2.5")])
def test_cli_convergence_names_a_bad_ladder_entry(ladder, bad, capsys):
    # an entry that is not an int exits 2 at parse time, named, where it
    # raised a ValueError traceback from the run
    with pytest.raises(SystemExit) as err:
        cli.main(["convergence", "advection_smooth", "--N", ladder])
    assert err.value.code == 2
    assert f"--N: {bad!r} in {ladder!r} is not a cell count" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["splitting", "transform", "limiters"])
def test_cli_verify_rejects_a_negative_seed(suite, capsys):
    # the random generators take no negative seed: the parser refuses it
    # where numpy's seeding raised a ValueError traceback
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", suite, "--seed", "-1", "--samples", "10"])
    assert err.value.code == 2
    assert "--seed: must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("eps", ["-1", "0", "0.25", "nan", "abc"])
def test_cli_verify_rejects_a_bad_eps_before_any_suite(eps, capsys):
    # the counterexample's eps is checked by the parser: no suite runs
    # first (they ran, for minutes at the default samples, before the
    # counterexample refused it)
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "all", "--eps", eps, "--samples", "10"])
    assert err.value.code == 2
    out = capsys.readouterr()
    want = ("invalid float value: 'abc'" if eps == "abc"
            else "counterexample needs 0 < eps < 1/4")
    assert f"argument --eps: {want}" in out.err and out.out == ""


def test_cli_verify_rejects_a_bad_preset_before_any_suite(capsys):
    assert cli.main(["verify", "all", "--preset", "nope", "--samples", "10"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error: no preset or config file 'nope'; presets: ")
    assert out.out == ""


@pytest.mark.parametrize("argv, bad", [
    (["verify", "bogus"], "argument suite: invalid choice: 'bogus'"),
    (["verify", "thm43", "--system", "bogus"],
     "argument --system: invalid choice: 'bogus'")], ids=["suite", "system"])
def test_cli_verify_rejects_unknown_names(argv, bad, capsys):
    # an unknown suite or system exits 2 with the parser's error on stderr,
    # as every other bad argument does; the suite's went to stdout, and an
    # unknown system was ignored by the suites that take none (exit 0)
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    out = capsys.readouterr()
    assert bad in out.err and out.out == ""


def test_run_to_files_rejects_negative_snapshot_every(tmp_path):
    # the library refuses it as the CLI does, before writing anything; it
    # wrote a snapshot every step
    cfg = load_config("sod").with_overrides(n=40, t_final=0.05)
    with pytest.raises(ConfigError, match="^snapshot_every must be at least 0, got -1$"):
        run_mod.run_to_files(cfg, tmp_path / "run", snapshot_every=-1)
    assert not (tmp_path / "run").exists()
    run_mod.run_to_files(cfg, tmp_path / "every", snapshot_every=1)
    assert len(list((tmp_path / "every" / "snapshots").iterdir())) == 3


def test_cli_presets_listing(capsys):
    assert cli.main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "sod" in out and "mhd_leblanc" in out


def test_cli_rejects_bad_config():
    assert cli.main(["run", "definitely_not_a_preset"]) == 2


def _ini_setting(section: str, key: str, raw: str) -> str:
    """The minimal config with `[section] key = raw`, replacing any value."""
    sections = dict(_MINIMAL_INI)
    kept = [ln for ln in sections[section].splitlines()
            if not ln.startswith(f"{key} =")]
    sections[section] = "".join(f"{ln}\n" for ln in kept + [f"{key} = {raw}"])
    return "".join(f"[{name}]\n{body}" for name, body in sections.items())


@pytest.mark.parametrize("word,value", [
    ("1", True), ("yes", True), ("true", True), ("On", True),
    ("0", False), ("no", False), ("FALSE", False), ("off", False),
])
def test_config_boolean_words(word, value):
    cfg = parse_config_text(_ini_setting("limiter", "idp", word), "ok")
    assert cfg.idp is value


@pytest.mark.parametrize("section,key,raw", [
    ("limiter", "idp", "ture"), ("grid", "n", "4x"), ("time", "cfl", "fast"),
])
def test_config_rejects_unparsable_values(section, key, raw):
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")) as err:
        parse_config_text(_ini_setting(section, key, raw), "bad")
    assert repr(raw) in str(err.value)


def test_config_rejects_missing_keys():
    text = "".join(f"[{name}]\n{body}" for name, body in _MINIMAL_INI.items()
                   if name != "time")
    with pytest.raises(ConfigError,
                       match=re.escape("missing required keys: ['t_final']")):
        parse_config_text(text, "bad")


def test_config_rejects_malformed_ini():
    # a repeated key is a configparser error, not a ValueError
    with pytest.raises(ConfigError, match="unreadable config"):
        parse_config_text(_ini_with("grid", "n = 80\n"), "bad")


def test_cli_run_reports_unparsable_config(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(_ini_setting("time", "cfl", "fast"))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "[time] cfl" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "sod", "--seed", "1"],
    ["convergence", "advection_smooth", "--N", "20", "--seed", "1"],
    ["reference", "sod", "--n", "60", "--seed", "1"],
    ["verify", "thm43", "--out", "x"],
    # settings of the config file, not of the command line
    ["run", "sod", "--integrator", "forward_euler"],
    ["run", "sod", "--cfl", "0.1"],
    ["convergence", "advection_smooth", "--N", "20", "--oscillation", "oe"],
    ["convergence", "advection_smooth", "--N", "20", "--integrator", "ssp_rk3"],
    ["convergence", "advection_smooth", "--N", "20", "--cfl", "0.1"],
    # the reference solver's CFL is fixed
    ["reference", "sod", "--n", "20", "--cfl", "0"],
])
def test_cli_rejects_flags_a_subcommand_does_not_read(argv):
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
