"""Command-line runner: benchmark runs, convergence tables, reference
solutions, and verification suites."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import oracle, run as run_mod
from .config import load_config, preset_names
from .errors import ConfigError, PampaError
from .scheme import OSCILLATION_KINDS
from .systems import Euler, IdealMHD, advection, burgers


def _at_least(least: int):
    """An argparse type: an int of `least` or more, else exit 2."""
    def count(text: str) -> int:
        if int(text) < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {text}")
        return int(text)
    return count


def _cell_counts(text: str) -> list[int]:
    """An argparse type: comma-separated ints, else exit 2 naming the entry."""
    counts = []
    for entry in text.split(","):
        try:
            counts.append(int(entry))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{entry!r} in {text!r} is not a cell count") from None
    return counts


def _thm43_eps(text: str) -> float:
    """An argparse type: an eps the counterexample takes, else exit 2."""
    try:
        eps = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    try:
        oracle.check_thm43_eps(eps)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return eps


def cmd_run(args) -> int:
    cfg = load_config(args.config).with_overrides(
        n=args.n, oscillation=args.oscillation, t_final=args.t_final)
    outdir = Path(args.out or f"out/{cfg.label}")
    paths = run_mod.run_to_files(cfg, outdir, svg=args.svg,
                                 snapshot_every=args.snapshots)
    print(f"{cfg.label}: wrote {paths['cells']}, {paths['nodes']}, "
          f"{paths['diagnostics']}")
    return 0


def cmd_convergence(args) -> int:
    cfg = load_config(args.config)
    rows = run_mod.convergence_table(cfg, args.N)
    print(run_mod.format_convergence(rows))
    if args.out:
        run_mod.write_convergence_csv(rows, args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_reference(args) -> int:
    cfg = load_config(args.config)
    outdir = Path(args.out or f"out/{cfg.label}_reference")
    path = run_mod.write_reference_csv(cfg, args.n, outdir)
    print(f"wrote {path}")
    return 0


_VERIFY_SYSTEMS = {
    "euler": Euler(gamma=1.4),
    "mhd": IdealMHD(gamma=5.0 / 3.0, bx=0.75),
    "burgers": burgers(-1.0, 2.0),
    "advection": advection(0.0, 1.0),
}


def _verify_systems(which):
    """The laws `--system` names (a choice of the parser), or all of them."""
    return list(_VERIFY_SYSTEMS.values()) if which == "all" else [_VERIFY_SYSTEMS[which]]


def _report_lines(reports) -> list[str]:
    """Each report's summary, followed by FAILED if it did not pass."""
    lines = []
    for rep in reports:
        lines.append(rep.summary())
        if not rep.passed:
            lines.append("FAILED")
    return lines


def _verify_splitting(args) -> list[str]:
    return _report_lines(oracle.sample_lf_splitting(system, args.samples, args.seed)
                         for system in _verify_systems(args.system))


def _verify_thm43(args) -> list[str]:
    res = oracle.thm43_counterexample(args.eps)
    ok = res.continuous_avg > 1.0 and 0.0 <= res.idp_avg <= 1.0
    return [res.summary(), "pass" if ok else "FAILED"]


def _verify_transform(args) -> list[str]:
    n_roundtrip = max(args.samples // 10, 1000)
    return _report_lines(
        rep for system in _verify_systems(args.system)
        for rep in (oracle.check_transform_membership(system, args.samples, args.seed),
                    oracle.check_transform_roundtrip(system, n_roundtrip, args.seed + 1)))


def _verify_limiters(args) -> list[str]:
    return _report_lines(oracle.check_limiter_invariants(system, args.samples, args.seed)
                         for system in _verify_systems(args.system))


def _verify_sweep(args) -> list[str]:
    cfg = load_config(args.preset)
    scheme = run_mod.build_scheme(cfg)
    sweep = oracle.DomainSweep(scheme.system)
    field = run_mod.initial_field(cfg, scheme)
    sweep.check_field(field)
    run_mod.advance(scheme, field, cfg.t_final, cfg.cfl, cfg.integrator,
                    on_stage=sweep.on_stage)
    lines = [f"sweep[{cfg.label}] " + sweep.report.summary()]
    if not sweep.report.is_empty:
        lines.append("FAILED")
    return lines


_VERIFY_SUITES = {
    "splitting": _verify_splitting,
    "thm43": _verify_thm43,
    "transform": _verify_transform,
    "limiters": _verify_limiters,
    "sweep": _verify_sweep,
}


def cmd_verify(args) -> int:
    names = list(_VERIFY_SUITES) if args.suite == "all" else [args.suite]
    if "sweep" in names:
        load_config(args.preset)  # a bad preset fails before any suite runs
    failed = False
    for name in names:
        for line in _VERIFY_SUITES[name](args):
            print(line)
            failed = failed or line == "FAILED"
    print("verification FAILED" if failed else "verification passed")
    return 1 if failed else 0


def cmd_presets(args) -> int:
    for name in preset_names():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pampa",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a benchmark preset or config file")
    p.add_argument("config")
    p.add_argument("--svg", action="store_true", help="emit SVG plots")
    p.add_argument("--snapshots", type=_at_least(0), default=0,
                   help="write cell snapshots every K steps (0: none)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--oscillation", choices=OSCILLATION_KINDS, default=None)
    p.add_argument("--t-final", dest="t_final", type=float, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("convergence", help="error table over a cell-count ladder")
    p.add_argument("config")
    p.add_argument("--N", required=True, type=_cell_counts,
                   help="comma-separated cell counts")
    p.add_argument("--out", default=None, help="CSV file for the table")
    p.set_defaults(fn=cmd_convergence)

    p = sub.add_parser("reference", help="first-order LLF reference run")
    p.add_argument("config")
    p.add_argument("--n", type=int, required=True, help="reference cell count")
    p.add_argument("--out", default=None, help="output directory")
    p.set_defaults(fn=cmd_reference)

    p = sub.add_parser("verify", help="run oracle/property verification suites")
    p.add_argument("suite", choices=("all", *_VERIFY_SUITES))
    p.add_argument("--system", choices=("all", *_VERIFY_SYSTEMS), default="all")
    p.add_argument("--samples", type=_at_least(1), default=100_000)
    p.add_argument("--eps", type=_thm43_eps, default=0.1)
    p.add_argument("--preset", default="jiang_shu", help="preset for the sweep suite")
    p.add_argument("--seed", type=_at_least(0), default=42,
                   help="seed for the randomised suites")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("presets", help="list bundled benchmark presets")
    p.set_defaults(fn=cmd_presets)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PampaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
