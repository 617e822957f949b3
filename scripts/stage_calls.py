#!/usr/bin/env python3
"""Print the fixed cost of one stage: Python-level calls and in-process time.

    python scripts/stage_calls.py SRC_DIR [--rounds 5]

SRC_DIR is the directory that holds the `pampa` package (`src` of a
checkout); it is put first on sys.path. For advection_smooth and
burgers_steepening (n=20, 640), sod with MP (n=200, 2000),
mhd_shock_tube with OE (n=200, 2000) and shu_osher with OE (n=640) it
advances the preset's initial field to t_final/20, where the advection runs
limit a cell or two per stage as they do for most of a run, and prints, for
each of the three calls of the next step's first stage,

* `scheme.stage_entry(field)`,
* `scheme.max_dt(field, cfl, entry)`,
* `scheme.residual(field, dt, {}, entry=entry)`,

the Python-level calls it makes (`call` and `c_call` events of
`sys.setprofile`, the call itself included) and its best time in µs over
`--rounds` rounds, each round the mean of enough repeats to fill about
20 ms. At paper sizes most of a stage is such fixed cost, so this table
is where a change of it shows first; compare two checkouts by running it
on each, alternately. Advection's speed is one constant and Burgers' is
computed per state, so the two scalar laws show the two speed paths side
by side. So do the two OE runs for `oe_theta`: mhd_shock_tube forms its
jump integrals on a few gathered rows, shu_osher, almost all of whose
cells are live, on the whole range.
"""

import argparse
import sys
import time
from pathlib import Path

CASES = (("advection_smooth", 20), ("advection_smooth", 640),
         ("burgers_steepening", 20), ("burgers_steepening", 640),
         ("sod", 200), ("sod", 2000),
         ("mhd_shock_tube", 200), ("mhd_shock_tube", 2000), ("shu_osher", 640))
CALLS = ("stage_entry", "max_dt", "residual")
T_FRAC = 0.05


def count_calls(fn) -> int:
    """The call and c_call events of fn(), a lambda around one call: that
    call's own event and those of everything it calls."""
    seen = [0]

    def profile(frame, event, arg):
        if event == "call" or event == "c_call":
            seen[0] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    # less the events of the lambda and of setprofile(None)
    return seen[0] - 2


def best_us(fn, rounds: int) -> float:
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(0.02 / max(time.perf_counter() - t0, 1e-7)))
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        best = min(best, (time.perf_counter() - t0) / reps)
    return 1e6 * best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", help="directory holding the pampa package")
    ap.add_argument("--rounds", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))

    from pampa import run as run_mod
    from pampa.config import load_config

    print(f"{'preset':<17} {'n':>5} {'osc':>4}"
          + "".join(f" {c + ' calls':>17}" for c in CALLS)
          + "".join(f" {c + ' us':>14}" for c in CALLS)
          + f" {'total calls':>11} {'total us':>9}")
    for name, n in CASES:
        cfg = load_config(name).with_overrides(n=n)
        scheme = run_mod.build_scheme(cfg)
        field = run_mod.initial_field(cfg, scheme)
        field, _, _ = run_mod.advance(scheme, field, T_FRAC * cfg.t_final,
                                      cfg.cfl, cfg.integrator)
        entry = scheme.stage_entry(field)
        dt = scheme.max_dt(field, cfg.cfl, entry)
        fns = {
            "stage_entry": lambda: scheme.stage_entry(field),
            "max_dt": lambda: scheme.max_dt(field, cfg.cfl, entry),
            "residual": lambda: scheme.residual(field, dt, {}, entry=entry),
        }
        calls = {c: count_calls(fns[c]) for c in CALLS}
        times = {c: best_us(fns[c], args.rounds) for c in CALLS}
        print(f"{name:<17} {n:>5} {cfg.oscillation:>4}"
              + "".join(f" {calls[c]:>17}" for c in CALLS)
              + "".join(f" {times[c]:>14.1f}" for c in CALLS)
              + f" {sum(calls.values()):>11} {sum(times.values()):>9.1f}")


if __name__ == "__main__":
    main()
