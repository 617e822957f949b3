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
plus the SVG plots of the double_rarefaction run (`svg=True`).

A refactor that claims byte-identical outputs is checked by diffing this
output between two checkouts.
"""

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

CSV_RUNS = ("double_rarefaction", "blast_waves", "jiang_shu")
CSV_FILES = ("cells.csv", "nodes.csv", "diagnostics.csv")
SVG_RUN = "double_rarefaction"


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


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

    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
