#!/usr/bin/env python3
"""Measure how far rounding-level input changes move pampa's results.

    python scripts/ulp_spread.py SRC_DIR [--save FILE.npz] [--against FILE.npz]

SRC_DIR is the directory that holds the `pampa` package (`src` of a
checkout); it is put first on sys.path. For the three OE presets
(blast_waves n=80, mhd_shock_tube n=200, shu_osher n=200), sod (n=100) and
the four stress presets that use MP (leblanc n=200, mhd_leblanc n=200,
sedov n=201, double_rarefaction n=100), each to its full t_final, it runs
the initial field with the cell-average energies scaled by 1 + k*2^-52 for
k = 0..3 (k = 0 is the unscaled run) and prints, per preset and k, the
step count and max |U_k - U_0| over the final cell averages: the spread
that rounding alone causes.

`--save` writes each preset's unscaled final averages to an npz file.
`--against` reads such a file, written by another checkout, and prints
max |U_0 - U_other| per preset, so that a change of the
arithmetic can be set beside the spread that rounding alone causes.

On a shared 2-vCPU Xeon (Python 3.11, numpy 2.4) the 32 runs take about a
minute.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

RUNS = (("blast_waves", 80), ("mhd_shock_tube", 200), ("shu_osher", 200),
        ("sod", 100), ("leblanc", 200), ("mhd_leblanc", 200), ("sedov", 201),
        ("double_rarefaction", 100))
KS = (0, 1, 2, 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="directory holding the pampa package")
    ap.add_argument("--save", help="write the k = 0 final averages here (npz)")
    ap.add_argument("--against", help="npz of another checkout's --save")
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))

    from pampa import run as run_mod
    from pampa.config import load_config

    other = np.load(args.against) if args.against else None
    saved = {}
    start = time.perf_counter()
    print(f"{'preset':<18} {'n':>4} {'k':>2} {'steps':>6} {'max|dU| vs k=0':>15}")
    for name, n in RUNS:
        cfg = load_config(name).with_overrides(n=n)
        scheme = run_mod.build_scheme(cfg)
        finals = []
        for k in KS:
            field = run_mod.initial_field(cfg, scheme)
            field.avgs[:, -1] *= 1.0 + k * 2.0 ** -52
            field, steps, _ = run_mod.advance(scheme, field, cfg.t_final,
                                              cfg.cfl, cfg.integrator)
            finals.append(field.avgs)
            spread = np.max(np.abs(field.avgs - finals[0]))
            print(f"{name:<18} {n:>4} {k:>2} {steps:>6} {spread:>15.3e}")
        saved[name] = finals[0]
        if other is not None:
            moved = np.max(np.abs(finals[0] - other[name]))
            print(f"{name:<18} {n:>4}  max|dU| of k=0 against --against: "
                  f"{moved:.3e}")
    print(f"total {time.perf_counter() - start:.1f} s")
    if args.save:
        np.savez(args.save, **saved)


if __name__ == "__main__":
    main()
