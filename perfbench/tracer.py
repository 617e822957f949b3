"""Call tracing of the pampa package from the outside.

Public callables are replaced at the place where the caller looks them up
(a module attribute, a class attribute or an instance attribute), so the
package itself is never edited. Every replacement is recorded and undone
afterwards; `Patches.restore` reports any attribute that is not the
original object again, so untraced runs time the unmodified program.

Spans (name, start, end, parent) are kept in flat in-memory arrays and
written out at the end of a benchmark run. A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested in this single-threaded program, so the children never overlap.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# Span name -> the layer group whose metrics it feeds. Spans outside these
# groups (the workload root, build_scheme, make_integrator) still count in
# the per-span table of the result file.
LAYER_GROUPS = {
    "scheme.residual": ("scheme.residual",),
    "scheme.max_dt": ("scheme.max_dt",),
    "scheme.llf_flux": ("scheme.llf_flux",),
    "scheme.finish_stage": ("scheme.finish_stage",),
    "mesh.extend": ("mesh.extend_averages", "mesh.extend_points",
                    "mesh.extend_cell_sizes"),
    "transform.decode": ("transform.from_transformed",),
    "transform.encode": ("transform.to_transformed",),
    "transform.apply_jacobian": ("transform.apply_jacobian",),
    "limiters.oe": ("limiters.oe_theta", "limiters.oe_apply",
                    "limiters.parabola_coeffs"),
    "limiters.mp": ("limiters.mp_limit", "limiters.minmod4", "limiters.median3"),
    "limiters.idp": ("limiters.scaling_limit_scalar",
                     "limiters.scaling_limit_system"),
    "limiters.midpoint": ("limiters.midpoint_value",),
    "systems.pressure": ("systems.pressure",),
    "systems.wave_speed": ("systems.max_wave_speed", "systems.pair_speed",
                           "systems.wave_speed_range"),
    "systems.flux": ("systems.flux",),
    "timeint.step": ("timeint.step",),
    "run.advance": ("run.advance",),
    "run.output": ("run.write_cells_csv", "run.write_nodes_csv",
                   "run.DiagnosticsRecorder.on_step"),
    "run.initial_field": ("run.initial_field",),
}

SCHEME_METHODS = ("residual", "max_dt", "finish_stage")
SYSTEM_METHODS = ("pressure", "flux", "max_wave_speed", "pair_speed",
                  "wave_speed_range")


class Patches:
    """Attribute replacements that can be undone and verified by identity."""

    def __init__(self):
        self._saved = []  # (owner, attr, had_own_attr, original)

    def set(self, owner, attr, value):
        own = vars(owner)
        self._saved.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> list[str]:
        """Undo every replacement; return the attributes left modified."""
        saved, self._saved = self._saved, []
        for owner, attr, had, original in reversed(saved):
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        leaked = []
        for owner, attr, had, original in saved:
            own = vars(owner)
            restored = own.get(attr) is original if had else attr not in own
            if not restored:
                leaked.append(f"{type(owner).__name__}.{attr}")
        return leaked


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(a.nbytes for a in obj if isinstance(a, np.ndarray))
    return 0


class AdvanceProbe:
    """The only instrumentation of an untraced run: it times `run.advance`
    and counts residual calls (a counter on the scheme instance for the
    duration of each advance call). After each residual call it lets the
    host-speed sampler run; sampling time is left out of `advance_s`. The
    final fields are kept for hashing."""

    def __init__(self, run_mod, host):
        self._run = run_mod
        self._host = host
        self.patches = Patches()
        self.advance_s = 0.0
        self.residuals = 0
        self.cell_stages = 0
        self.fields = []

    def install(self):
        original = self._run.advance
        host = self._host

        def advance(scheme, field, *args, **kwargs):
            inner = scheme.residual
            n_cells = scheme.grid.n_cells
            calls = [0]

            def residual(*a, **kw):
                calls[0] += 1
                out = inner(*a, **kw)
                host.tick()
                return out

            scheme.residual = residual
            t0 = time.perf_counter()
            paused0 = host.paused_s
            try:
                out = original(scheme, field, *args, **kwargs)
            finally:
                self.advance_s += time.perf_counter() - t0 - (host.paused_s - paused0)
                del scheme.residual
                self.residuals += calls[0]
                self.cell_stages += calls[0] * n_cells
            self.fields.append(out[0])
            return out

        self.patches.set(self._run, "advance", advance)


class Tracer:
    """Span recorder wrapped around the public callables of pampa."""

    def __init__(self, pampa):
        self._pampa = pampa
        self.patches = Patches()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("h")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.nbytes = array("q")
        self.runs: list[tuple[int, int]] = []  # span index range per run id
        self._stack = [-1]
        self.missing: list[str] = []
        self.reset()

    def reset(self):
        """Per-run counters filled from the stage records and advance calls."""
        self.counts = {"residuals": 0, "cell_stages": 0, "idp_active": 0,
                       "idp_cells": 0, "oe_active": 0, "oe_cells": 0,
                       "mp_changed": 0, "mp_values": 0}
        self.fields = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, after=None):
        nid = self._id(name)
        names, parents, starts, ends, nbytes = (
            self.name, self.parent, self.start, self.end, self.nbytes)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            nbytes.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            nbytes[i] = _array_bytes(args) + _array_bytes(out)
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def run(self, fn):
        """Trace one workload run under a root span; its spans share a run id."""
        first = len(self.name)
        try:
            return self.wrap("workload", fn)()
        finally:
            self.runs.append((first, len(self.name)))

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, name, after=None):
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return
        self.patches.set(owner, attr, self.wrap(name, fn, after))

    def install(self):
        p = self._pampa
        for attr in ("extend_averages", "extend_points", "extend_cell_sizes"):
            self._patch(p.mesh, attr, f"mesh.{attr}")
        for attr in ("to_transformed", "from_transformed", "apply_jacobian"):
            self._patch(p.transform, attr, f"transform.{attr}")
        for group in ("limiters.oe", "limiters.mp", "limiters.idp",
                      "limiters.midpoint"):
            for span in LAYER_GROUPS[group]:
                self._patch(p.limiters, span.split(".", 1)[1], span)
        self._patch(p.scheme, "llf_flux", "scheme.llf_flux")
        self._patch(p.run, "build_scheme", "run.build_scheme",
                    after=lambda a, kw, scheme: self._instrument_scheme(scheme))
        self._patch(p.run, "make_integrator", "run.make_integrator",
                    after=lambda a, kw, integ: self._patch(integ, "step", "timeint.step"))
        self._patch(p.run, "advance", "run.advance",
                    after=lambda a, kw, out: self.fields.append(out[0]))
        for attr in ("initial_field", "write_cells_csv", "write_nodes_csv"):
            self._patch(p.run, attr, f"run.{attr}")
        self._patch(p.run.DiagnosticsRecorder, "on_step",
                    "run.DiagnosticsRecorder.on_step")

    def _instrument_scheme(self, scheme):
        n = scheme.grid.n_cells
        d = scheme.system.nvars
        mp = scheme.limiter.oscillation == "mp"

        def after_residual(args, kwargs, out):
            counts = self.counts
            record = args[2] if len(args) > 2 else kwargs.get("record")
            counts["residuals"] += 1
            counts["cell_stages"] += n
            if not record:
                return
            counts["idp_active"] += record["idp_active"]
            counts["idp_cells"] += len(record["theta"])
            if record["theta_oe"] is not None:
                counts["oe_active"] += record["oe_active"]
                counts["oe_cells"] += len(record["theta_oe"])
            if mp:
                counts["mp_changed"] += record["mp_active"]
                counts["mp_values"] += 2 * (n + 2) * d

        for attr in SCHEME_METHODS:
            self._patch(scheme, attr, f"scheme.{attr}",
                        after_residual if attr == "residual" else None)
        for attr in SYSTEM_METHODS:
            if hasattr(scheme.system, attr):
                self._patch(scheme.system, attr, f"systems.{attr}")

    # -- analysis --------------------------------------------------------------

    def summarize(self, run_id: int):
        """Per-span-name calls, self time (ns) and array bytes of one run,
        plus the problems found by the self-time sanity checks."""
        lo, hi = self.runs[run_id]
        names = np.frombuffer(self.name, dtype=np.int16)[lo:hi].astype(np.intp)
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.intp)
        dur = (np.frombuffer(self.end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.int64)[lo:hi])
        nb = np.frombuffer(self.nbytes, dtype=np.int64)[lo:hi]
        inner = parent >= lo
        child = np.zeros(hi - lo, dtype=np.int64)
        np.add.at(child, parent[inner] - lo, dur[inner])
        self_ns = dur - child
        problems = []
        if self_ns.size and self_ns.min() < 0:
            problems.append("negative self time")
        if int(self_ns.sum()) > int(dur[0]):
            problems.append("self times exceed the root span")
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_tot = np.bincount(names, weights=self_ns, minlength=k)
        bytes_tot = np.bincount(names, weights=nb, minlength=k)
        table = {self.names[i]: {"calls": int(calls[i]),
                                 "self_ns": int(self_tot[i]),
                                 "bytes": int(bytes_tot[i])}
                 for i in range(k) if calls[i]}
        return table, int(dur[0]), problems

    def write(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            run_ranges=np.array(self.runs, dtype=np.int64).reshape(-1, 2),
        )
