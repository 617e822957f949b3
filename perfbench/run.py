#!/usr/bin/env python3
"""pampa benchmark: one workload per process, repeated for a fixed time.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--trace 0 times the unmodified program (only `run.advance` is timed and
residual calls counted) and prints the end-to-end metrics; set-up is timed
in fresh interpreters. --trace 1 alternates traced and untraced repeats and
prints the per-layer metrics. The seed only orders and interleaves the
repeats; the program receives the bundled preset config and nothing else.
The last line of standard output is the JSON result; a fuller record goes
to perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
COUNT_GROUPS = ("mesh.extend", "transform.decode", "transform.encode",
                "systems.pressure", "systems.wave_speed")


def load_pampa():
    """Import pampa from this checkout's src/ and nowhere else."""
    if not (SRC / "pampa" / "__init__.py").is_file():
        sys.exit(f"benchmark: no pampa sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pampa
    from pampa import config, limiters, mesh, presets, run, scheme, transform

    if Path(pampa.__file__).resolve().parent != (SRC / "pampa").resolve():
        sys.exit(f"benchmark: imported pampa from {pampa.__file__}, not {SRC}")
    return SimpleNamespace(config=config, limiters=limiters, mesh=mesh,
                           presets=presets, run=run, scheme=scheme,
                           transform=transform, version=pampa.__version__)


def environment():
    import numpy as np

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    model = platform.processor() or "unknown"
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (read(d / f) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level} {kind}"] = size
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "platform": platform.platform()}


def setup_seconds(workload, host) -> tuple[float, float]:
    """Fresh interpreter -> ready for the first step, timed on the monotonic
    clock, which Linux shares between processes. Returns (raw s, host scale)."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           workload.preset, json.dumps(workload.setup_overrides())]
    host.begin()
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    raw = (int(proc.stdout.split()[-1]) - t0) / 1e9
    return raw, host.end()


# -- repeats ---------------------------------------------------------------


def _finish(unit, workload, out, fields, error, leaked):
    problems = []
    if error is not None:
        problems.append("raised: " + error.strip().splitlines()[-1])
        unit["traceback"] = error
    else:
        try:
            digest, err_l1, failed_checks = workload.verify(out, fields)
        except Exception:
            problems.append("output check raised: "
                            + traceback.format_exc().strip().splitlines()[-1])
        else:
            unit.update(digest=digest, err_l1=err_l1)
            problems += failed_checks
    if leaked:
        problems.append("attributes still patched: " + ", ".join(leaked))
    unit["problems"] = problems
    return unit


def plain_unit(workload, pampa, host):
    """One untraced workload run: the program as shipped plus the advance probe."""
    probe = AdvanceProbe(pampa.run, host)
    probe.install()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out = error = None
        host.begin()
        t0 = time.perf_counter()
        paused0 = host.paused_s
        try:
            out = workload.execute(tmp)
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0 - (host.paused_s - paused0)
        scale = host.end()
        leaked = probe.patches.restore()
        unit = {"kind": "plain", "wall_s": wall, "scale": scale,
                "advance_s": probe.advance_s, "residuals": probe.residuals,
                "cell_stages": probe.cell_stages}
        return _finish(unit, workload, out, probe.fields, error, leaked)


def traced_unit(workload, pampa, tracer, host):
    """One traced workload run; host speed is sampled only before and after."""
    tracer.reset()
    tracer.install()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        out = error = None
        host.begin()
        t0 = time.perf_counter()
        try:
            out = tracer.run(lambda: workload.execute(tmp))
        except Exception:
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        scale = host.end()
        leaked = tracer.patches.restore()
        spans, root_ns, span_problems = tracer.summarize(len(tracer.runs) - 1)
        unit = {"kind": "traced", "run_id": len(tracer.runs) - 1, "wall_s": wall,
                "scale": scale,
                "root_ns": root_ns, "residuals": tracer.counts["residuals"],
                "counts": dict(tracer.counts), "spans": spans}
        unit = _finish(unit, workload, out, tracer.fields, error, leaked)
        unit["problems"] += span_problems
        return unit


def check_repeats(units):
    """Every repeat must give the state, error and residual count of the
    first correct one (the README promises byte-identical output)."""
    ok = [u for u in units if not u["problems"]]
    if not ok:
        return
    ref = ok[0]
    for u in ok[1:]:
        for key in ("digest", "err_l1", "residuals"):
            if u[key] != ref[key]:
                u["problems"].append(f"{key} differs from the first repeat")


def layer_metrics(unit):
    spans, c = unit["spans"], unit["counts"]

    def total(group, key):
        return sum(spans.get(s, {}).get(key, 0) for s in LAYER_GROUPS[group])

    def ratio(a, b):
        return a / b if b else 0.0

    scale = unit["scale"]
    m = {f"{g}.self_ns": total(g, "self_ns") * scale / c["cell_stages"]
         for g in LAYER_GROUPS if g != "run.initial_field"}
    m["run.initial_field.self_s"] = total("run.initial_field", "self_ns") * scale / 1e9
    for g in COUNT_GROUPS:
        m[f"{g}.calls_per_residual"] = total(g, "calls") / c["residuals"]
    m["limiters.idp.active_ratio"] = ratio(c["idp_active"], c["idp_cells"])
    m["limiters.oe.active_ratio"] = ratio(c["oe_active"], c["oe_cells"])
    m["limiters.mp.changed_ratio"] = ratio(c["mp_changed"], c["mp_values"])
    return m


def shape_pass(workload, pampa, llc):
    """Bytes moved by one traced residual at the workload's largest n,
    computed from the shapes of the ndarray arguments and results of every
    traced call inside it (nested calls count again at each level)."""
    tracer = Tracer(pampa)
    tracer.install()
    cfg = workload.largest_config()
    try:
        scheme = pampa.run.build_scheme(cfg)
        field = pampa.run.initial_field(cfg, scheme)
        dt = scheme.max_dt(field, cfg.cfl)
        tracer.run(lambda: scheme.residual(field, dt, {}))
    finally:
        leaked = tracer.patches.restore()
    spans, _, problems = tracer.summarize(0)
    by_group = {g: sum(spans.get(s, {}).get("bytes", 0) for s in names)
                for g, names in LAYER_GROUPS.items()}
    d = scheme.system.nvars
    array_bytes = (cfg.n + 2 * pampa.mesh.AVG_GHOST) * d * 8
    return {
        "label": "computed from array shapes, not measured",
        "n": cfg.n, "nvars": d,
        "bytes_per_residual": sum(v["bytes"] for k, v in spans.items() if k != "workload"),
        "bytes_per_residual_by_layer": {g: b for g, b in by_group.items() if b},
        "largest_state_array_bytes": array_bytes,
        "note": (f"working set at n={cfg.n}: {array_bytes / 1024:.1f} KiB per state "
                 f"array, far inside the {llc} last-level cache, so no "
                 "memory-bandwidth metric is claimed"),
        "problems": problems + [f"attributes still patched: {a}" for a in leaked],
    }


# -- the two run modes ------------------------------------------------------


def timed_run(workload, pampa, rng, seconds):
    host = HostSpeed()
    setups, units = [], []  # setups: (raw seconds, host scale)
    t_begin = time.perf_counter()
    while True:
        # the seed interleaves the set-up probes with the repeats
        if len(setups) < SETUP_PROBES and rng.random() < 0.5:
            setups.append(setup_seconds(workload, host))
        units.append(plain_unit(workload, pampa, host))
        if time.perf_counter() - t_begin >= seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(workload, host))
    check_repeats(units)
    ok = [u for u in units if not u["problems"]]
    metrics = {}
    if ok:
        metrics = {
            "wall_s": statistics.median(u["wall_s"] * u["scale"] for u in ok),
            "ns_per_cell_stage": statistics.median(
                1e9 * u["advance_s"] * u["scale"] / u["cell_stages"] for u in ok),
            "setup_s": statistics.median(raw * scale for raw, scale in setups),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "residual_evals": ok[0]["residuals"],
            "err_l1": ok[0]["err_l1"],
        }
    return units, metrics, {"setup_s_raw_and_scale": setups, "kernel_s": host.kernel_s}


def traced_run(workload, pampa, rng, seconds):
    host = HostSpeed()
    tracer = Tracer(pampa)
    units = []
    t_begin = time.perf_counter()
    # two traced repeats at least, for the count self-test, and one untraced
    kinds = rng.sample(("traced", "traced", "plain"), 3)
    while True:
        for kind in kinds:
            units.append(traced_unit(workload, pampa, tracer, host) if kind == "traced"
                         else plain_unit(workload, pampa, host))
        if time.perf_counter() - t_begin >= seconds:
            break
        kinds = rng.sample(("traced", "plain"), 2)
    check_repeats(units)
    traced = [u for u in units if u["kind"] == "traced" and not u["problems"]]
    plain = [u for u in units if u["kind"] == "plain" and not u["problems"]]

    def count_key(u):
        return (u["counts"], {k: (v["calls"], v["bytes"]) for k, v in u["spans"].items()})

    for u in traced[1:]:
        if count_key(u) != count_key(traced[0]):
            u["problems"].append("traced counts differ from the first traced repeat")
    traced = [u for u in traced if not u["problems"]]
    metrics = {}
    if traced and plain:
        per_unit = [layer_metrics(u) for u in traced]
        metrics = {k: (statistics.median(m[k] for m in per_unit)
                       if k.endswith(("self_ns", "self_s")) else per_unit[0][k])
                   for k in per_unit[0]}
        metrics["trace.overhead_ratio"] = (
            statistics.median(u["wall_s"] * u["scale"] for u in traced)
            / statistics.median(u["wall_s"] * u["scale"] for u in plain))
    spans_path = OUT / f"spans-{workload.name}.npz"
    tracer.write(spans_path)
    extra = {"spans_file": str(spans_path.relative_to(ROOT)),
             "unpatched_names": sorted(set(tracer.missing)), "kernel_s": host.kernel_s}
    return units, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    pampa = load_pampa()
    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](pampa)
    OUT.mkdir(exist_ok=True)
    rng = random.Random(args.seed)

    env = environment()
    caches = env["caches"]
    llc = caches[max(caches)] if caches else "unknown"
    # the shape pass also runs every code path once before the timed repeats
    shapes = shape_pass(workload, pampa, llc)
    mode = traced_run if args.trace else timed_run
    units, computed, extra = mode(workload, pampa, rng, args.seconds)
    failed = sum(bool(u["problems"]) for u in units)
    if not computed:
        for u in units:
            print(f"{u['kind']} repeat failed: {u['problems']}", file=sys.stderr)
            if "traceback" in u:
                print(u["traceback"], file=sys.stderr)
        sys.exit("benchmark: no correct repeat to measure")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = failed == 0 and not shapes["problems"]
    digests = sorted({u["digest"] for u in units if "digest" in u})

    record = {
        "workload": workload.name, "seed": args.seed,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == workload.name),
        "trace": args.trace, "seconds": args.seconds, "pampa": pampa.version,
        "environment": env, "bytes_moved": shapes,
        "attempted": len(units), "failed": failed,
        "failed_share": failed / len(units), "state_sha256": digests,
        "metrics": metrics, **extra,
        "units": [{k: v for k, v in u.items() if k != "spans"} for u in units],
        "spans_by_unit": [u["spans"] for u in units if "spans" in u],
    }
    path = OUT / f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"repeats {len(units)}  failed {failed}  failed_share {failed / len(units):g}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    for u in units:
        if u["problems"]:
            print(f"  FAILED {u['kind']} repeat: {'; '.join(u['problems'])}")
    print(f"  state sha256 {' '.join(digests)}")
    print(f"  bytes per residual (computed) {shapes['bytes_per_residual']} at n={shapes['n']}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": len(units), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    # numpy must see these before its first import: single-threaded BLAS,
    # and the convergence table's thread pool stays off
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    os.environ.pop("PAMPA_THREADS", None)
    from calibration import HostSpeed  # noqa: E402
    from tracer import LAYER_GROUPS, AdvanceProbe, Tracer  # noqa: E402
    from workloads import WORKLOADS  # noqa: E402

    main()
