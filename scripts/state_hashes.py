#!/usr/bin/env python3
"""Print SHA-256 hashes of pampa's outputs as one JSON object.

    python scripts/state_hashes.py SRC_DIR

SRC_DIR is the directory that holds the `pampa` package (`src` of a
checkout); it is put first on sys.path. For every bundled preset at n=60
(61 for the odd-only point blast) and t_final/8 (t_final/4 for
mhd_leblanc) it prints the step count and the hashes of

* the initial and the final (averages, points) arrays;
* the first-order reference solution on 2n+1 cells, to the same time;

and the hashes of the cells, nodes and diagnostics CSVs of `run_to_files`
for double_rarefaction, blast_waves and jiang_shu at n=60 and t_final/10,
plus the SVG plots of the double_rarefaction run (`svg=True`), and the
hashes of `reference.csv` and `reference_meta.json` that
`write_reference_csv` writes for mhd_shock_tube on 60 cells at t_final/8
(its metadata notes the published resolution).

For Euler(1.4), IdealMHD(5/3, 0.75), burgers(-1, 2) and advection(0, 1) it
also prints the SHA-256 of the `repr` of each oracle report (LF splitting,
transform membership and round trip, limiter invariants and, for the
gases, Jacobian similarity), and one hash of the three state samplers'
draws at a fixed seed, including each generator's next draw.

For a fixed list of bad settings and of fields with one planted bad entry
it prints the first error as `phase: class: message`, the phase being
`validate` (`with_overrides`), `build` (`build_scheme` and
`initial_field`) or `advance`; `no error` if there is none.

A refactor that claims byte-identical outputs is checked by diffing this
output between two checkouts.
"""

import argparse
import hashlib
import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

CSV_RUNS = ("double_rarefaction", "blast_waves", "jiang_shu")
CSV_FILES = ("cells.csv", "nodes.csv", "diagnostics.csv")
SVG_RUN = "double_rarefaction"
REFERENCE_RUN = "mhd_shock_tube"
REFERENCE_FILES = ("reference.csv", "reference_meta.json")

# (preset, overrides) that no run accepts
BAD_SETTINGS = (
    ("sod", {"system": "plasma"}),
    ("euler_smooth", {"system": "advection"}),
    ("advection_smooth", {"u_min": 2.0, "u_max": 1.0}),
    ("sod", {"bc": "wall"}),
    ("advection_smooth", {"bc": "reflective"}),
    ("sod", {"n": 2}),
    ("sod", {"a": 5.0}),
    ("sod", {"integrator": "rk4"}),
    ("sod", {"oscillation": "weird"}),
    ("sod", {"cfl": 0.2}),
    ("sod", {"ic": "no_such_ic"}),
    ("sod", {"t_final": -1.0}),
    ("sod", {"t_final": math.inf}),
    ("sod", {"t_final": math.nan}),
    ("sod", {"gamma": 0.5}),
    ("sod", {"gamma": 1.0}),
    ("sod", {"gamma": math.nan}),
    ("mhd_shock_tube", {"bx": math.inf}),
    ("advection_smooth", {"u_min": -math.inf}),
    ("sedov", {"n": 60}),
    ("double_rarefaction", {"n": 50, "idp": False, "oscillation": "none"}),
)
# (preset, overrides, array, row, column, value): one planted entry
BAD_FIELDS = (
    ("advection_smooth", {"n": 40}, "avgs", 7, 0, 2.5),
    ("advection_smooth", {"n": 40, "idp": False}, "avgs", 7, 0, 2.5),
    ("advection_smooth", {"n": 40}, "points", 10, 0, math.nan),
    ("burgers_steepening", {"n": 40}, "avgs", 3, 0, -2.0),
    ("sod", {"n": 50}, "avgs", 7, 0, -1.0),
    ("sod", {"n": 50}, "avgs", 7, 2, -1.0),
    ("sod", {"n": 50}, "points", 10, 0, math.nan),
    # finite entries whose decode or wave speed overflows
    ("sod", {"n": 50}, "points", 10, 2, 800.0),
    ("sod", {"n": 50}, "points", 10, 1, 1e200),
    ("sod", {"n": 50}, "avgs", 7, 0, 1e-310),
    ("mhd_shock_tube", {"n": 50}, "avgs", 7, 0, 1e-310),
    ("mhd_shock_tube", {"n": 50, "t_final": 0.01}, "avgs", 7, 6, -1.0),
)


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _oracle_hashes(out):
    import numpy as np

    from pampa import oracle
    from pampa.systems import Euler, IdealMHD, advection, burgers

    systems = {"euler": Euler(1.4), "mhd": IdealMHD(5.0 / 3.0, 0.75),
               "burgers": burgers(-1.0, 2.0), "advection": advection(0.0, 1.0)}
    for label, system in systems.items():
        reports = {
            "splitting": oracle.sample_lf_splitting(system, 5000, 42),
            "membership": oracle.check_transform_membership(system, 5000, 42),
            "roundtrip": oracle.check_transform_roundtrip(system, 1000, 43),
            "limiter": oracle.check_limiter_invariants(system, 5000, 42),
        }
        if label in ("euler", "mhd"):
            reports["jacobian"] = oracle.check_jacobian_similarity(system, 50, 42)
        # arrays inside a report (a first violation) print every digit
        with np.printoptions(floatmode="unique", threshold=sys.maxsize):
            for name, rep in reports.items():
                digest = hashlib.sha256(repr(rep).encode()).hexdigest()
                out[f"oracle/{label}/{name}"] = digest

    samplers = (oracle._sample_states, oracle.sample_states_representable,
                oracle.sample_states_moderate)
    draws = []
    for system in (*systems.values(), IdealMHD(5.0 / 3.0, 0.0),
                   IdealMHD(5.0 / 3.0, 3.0)):
        for sample in samplers:
            rng = np.random.Generator(np.random.Philox(7))
            draws += [sample(system, rng, 500), rng.uniform(size=1)]
    out["oracle/samplers"] = _digest(*draws)


def _first_error(phases) -> str:
    for phase, fn in phases:
        try:
            fn()
        except Exception as exc:  # any class, so that a change shows
            return f"{phase}: {type(exc).__name__}: {exc}"
    return "no error"


def _error_lines(out):
    from pampa import run as run_mod
    from pampa.config import load_config

    def build_and_advance(cfg, plant=None):
        built = {}

        def build():
            built["scheme"] = run_mod.build_scheme(cfg)
            built["field"] = run_mod.initial_field(cfg, built["scheme"])

        def advance():
            field = built["field"]
            if plant is not None:
                array, row, col, value = plant
                getattr(field, array)[row, col] = value
            run_mod.advance(built["scheme"], field, cfg.t_final, cfg.cfl,
                            cfg.integrator)

        return [("build", build), ("advance", advance)]

    for preset, kw in BAD_SETTINGS:
        base = load_config(preset)
        bad = replace(base, **kw)
        out[f"error/{preset} {kw}"] = _first_error(
            [("validate", lambda: base.with_overrides(**kw)),
             *build_and_advance(bad)])
    for preset, kw, *plant in BAD_FIELDS:
        cfg = load_config(preset).with_overrides(**kw)
        out[f"error/{preset} {kw} {plant}"] = _first_error(
            build_and_advance(cfg, plant))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="directory holding the pampa package")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))

    from pampa import run as run_mod
    from pampa.config import load_config, preset_names

    out = {}
    for name in preset_names():
        base = load_config(name)
        n = 61 if name == "sedov" else 60
        frac = 4.0 if name == "mhd_leblanc" else 8.0
        cfg = base.with_overrides(n=n, t_final=base.t_final / frac)
        scheme = run_mod.build_scheme(cfg)
        field = run_mod.initial_field(cfg, scheme)
        out[f"{name}/initial"] = _digest(field.avgs, field.points)
        field, steps, _ = run_mod.advance(scheme, field, cfg.t_final, cfg.cfl,
                                          cfg.integrator)
        out[f"{name}/final"] = _digest(field.avgs, field.points)
        out[f"{name}/steps"] = steps
        centers, U, prim = run_mod.reference_solution(cfg, 2 * n + 1)
        out[f"{name}/reference"] = _digest(centers, U, prim)

    for name in CSV_RUNS:
        base = load_config(name)
        cfg = base.with_overrides(n=60, t_final=base.t_final / 10.0)
        with tempfile.TemporaryDirectory() as tmp:
            run_mod.run_to_files(cfg, tmp, svg=name == SVG_RUN)
            svgs = sorted(p.name for p in Path(tmp).glob("*.svg"))
            for fname in (*CSV_FILES, *svgs):
                data = (Path(tmp) / fname).read_bytes()
                out[f"{name}/{fname}"] = hashlib.sha256(data).hexdigest()

    base = load_config(REFERENCE_RUN)
    cfg = base.with_overrides(n=60, t_final=base.t_final / 8.0)
    with tempfile.TemporaryDirectory() as tmp:
        run_mod.write_reference_csv(cfg, 60, tmp)
        for fname in REFERENCE_FILES:
            data = (Path(tmp) / fname).read_bytes()
            out[f"{REFERENCE_RUN}/{fname}"] = hashlib.sha256(data).hexdigest()

    _oracle_hashes(out)
    _error_lines(out)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
