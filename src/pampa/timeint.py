"""SSP time integrators built from forward-Euler stages.

Every stage is a forward-Euler step (the limiters re-run inside each
residual evaluation), so convexity carries the invariant-domain property of
a single Euler step to the composed methods. Each integrator's
`step_size` turns the forward-Euler CFL step into the step it may take.
Fields and rates share one buffer layout (`DofField`), and each term of a
combination is one operation on whole buffers, ghost rows included, made in
place in a buffer that the step allocated itself: the step's input, the
residuals it is handed and its history are only read.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import ConfigError


def _stages(scheme, field, dt, t, step, on_stage, table, resid=None,
            record=None, entry=None):
    """One step in Shu-Osher form. Stage k takes a forward-Euler step s
    from the stage before it (from `field` at k = 0); where table[k] is not
    None, the stage is the convex combination table[k](u, s) with the
    step's input u, made in place in s. Each stage passes `finish_stage`,
    then `on_stage`. A given residual (with its record) or entry serves the
    first stage."""
    stage = field
    for k, combine in enumerate(table):
        if resid is None:
            record = {}
            resid = scheme.residual(stage, dt, record, entry=entry)
        data = resid.data * dt
        data += stage.data
        stage = scheme.finish_stage(field.like(data))
        if combine is not None:
            combine(field.data, data)
            stage = scheme.finish_stage(stage)
        if on_stage:
            on_stage(t + dt, step, k, stage, record)
        resid = entry = None
    return stage


def _rk3_second(u, s):
    """s = 0.75 u + 0.25 s, in place."""
    s *= 0.25
    s += 0.75 * u


def _rk3_third(u, s):
    """s = u / 3 + (2/3) s, in place."""
    s *= 2.0 / 3.0
    s += u / 3.0


class ForwardEuler:
    table = (None,)

    def step_size(self, cfl_dt: float) -> float:
        return cfl_dt

    def step(self, scheme, field, dt, t=0.0, step=0, on_stage=None, entry=None):
        return _stages(scheme, field, dt, t, step, on_stage, self.table,
                       entry=entry)


class SspRk3(ForwardEuler):
    """Shu-Osher three-stage SSP RK3 (weights 1; 3/4,1/4; 1/3,2/3)."""

    table = (None, _rk3_second, _rk3_third)


class SspMultistep3:
    """Four-step third-order SSP multistep:

        u^{n+1} = (16/27)(u^n + 3 dt L(u^n))
                + (11/27)(u^{n-3} + (12/11) dt L(u^{n-3})).

    Needs three history states and a constant step size; the first steps
    (and any step whose dt deviates from the stored history) fall back to
    RK3, which restarts the history.
    """

    def __init__(self):
        self._hist: deque = deque(maxlen=3)
        self._hist_dt: float | None = None
        self._dt_frozen: float | None = None

    def step_size(self, cfl_dt: float) -> float:
        """A third of cfl_dt (the method's SSP coefficient is 1/3), frozen
        at the smallest value so far, so that the step stays constant while
        the speeds allow and the history stays valid. inf passes through."""
        dt = cfl_dt * (1.0 / 3.0)
        if not math.isfinite(dt):
            return dt
        if self._dt_frozen is None or dt < self._dt_frozen * (1.0 - 1e-12):
            self._dt_frozen = dt
        return self._dt_frozen

    def step(self, scheme, field, dt, t=0.0, step=0, on_stage=None, entry=None):
        mismatch = self._hist_dt is not None and abs(dt - self._hist_dt) > 1e-9 * dt
        if mismatch:
            self._hist.clear()
        record: dict = {}
        resid = scheme.residual(field, dt, record, entry=entry)
        if len(self._hist) < 3:
            self._hist.append((field, resid))
            self._hist_dt = dt
            return _stages(scheme, field, dt, t, step, on_stage, SspRk3.table,
                           resid, record)
        old_field, old_resid = self._hist[0]
        w_new, w_old = 16.0 / 27.0, 11.0 / 27.0
        # both terms in place in two new buffers
        data = resid.data * (3.0 * dt)
        data += field.data
        data *= w_new
        old = old_resid.data * ((12.0 / 11.0) * dt)
        old += old_field.data
        old *= w_old
        data += old
        out = scheme.finish_stage(field.like(data))
        self._hist.append((field, resid))
        self._hist_dt = dt
        if on_stage:
            on_stage(t + dt, step, 0, out, record)
        return out


INTEGRATORS = {"forward_euler": ForwardEuler, "ssp_rk3": SspRk3,
               "ssp_ms3": SspMultistep3}


def make_integrator(kind: str):
    cls = INTEGRATORS.get(kind)
    if cls is None:
        raise ConfigError(f"unknown integrator {kind!r}")
    return cls()
