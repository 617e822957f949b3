"""SSP time integrators built from forward-Euler stages.

Every stage is a forward-Euler step (the limiters re-run inside each
residual evaluation), so convexity carries the invariant-domain property of
a single Euler step to the composed methods. Each integrator's
`step_size` turns the forward-Euler CFL step into the step it may take.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import ConfigError
from .scheme import DofField


def _euler_stage(scheme, field, dt, resid=None, record=None, entry=None):
    if resid is None:
        record = {} if record is None else record
        resid = scheme.residual(field, dt, record, entry=entry)
    da, dp = resid
    out = DofField(field.avgs + dt * da, field.points + dt * dp)
    return scheme.finish_stage(out), record


def _rk3_step(scheme, field, dt, t, step, on_stage, first_resid=None,
              first_record=None, entry=None):
    """Shu-Osher three-stage SSP RK3 (weights 1; 3/4,1/4; 1/3,2/3)."""
    s1, rec1 = _euler_stage(scheme, field, dt, first_resid, first_record, entry)
    if on_stage:
        on_stage(t + dt, step, 0, s1, rec1)

    fe2, rec2 = _euler_stage(scheme, s1, dt)
    s2 = DofField(0.75 * field.avgs + 0.25 * fe2.avgs,
                  0.75 * field.points + 0.25 * fe2.points)
    s2 = scheme.finish_stage(s2)
    if on_stage:
        on_stage(t + dt, step, 1, s2, rec2)

    fe3, rec3 = _euler_stage(scheme, s2, dt)
    out = DofField(field.avgs / 3.0 + (2.0 / 3.0) * fe3.avgs,
                   field.points / 3.0 + (2.0 / 3.0) * fe3.points)
    out = scheme.finish_stage(out)
    if on_stage:
        on_stage(t + dt, step, 2, out, rec3)
    return out


class ForwardEuler:
    def step_size(self, cfl_dt: float) -> float:
        return cfl_dt

    def step(self, scheme, field, dt, t=0.0, step=0, on_stage=None, entry=None):
        out, rec = _euler_stage(scheme, field, dt, entry=entry)
        if on_stage:
            on_stage(t + dt, step, 0, out, rec)
        return out


class SspRk3:
    def step_size(self, cfl_dt: float) -> float:
        return cfl_dt

    def step(self, scheme, field, dt, t=0.0, step=0, on_stage=None, entry=None):
        return _rk3_step(scheme, field, dt, t, step, on_stage, entry=entry)


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
            return _rk3_step(scheme, field, dt, t, step, on_stage,
                             first_resid=resid, first_record=record)
        old_field, old_resid = self._hist[0]
        da, dp = resid
        oda, odp = old_resid
        w_new, w_old = 16.0 / 27.0, 11.0 / 27.0
        avgs = (w_new * (field.avgs + 3.0 * dt * da)
                + w_old * (old_field.avgs + (12.0 / 11.0) * dt * oda))
        points = (w_new * (field.points + 3.0 * dt * dp)
                  + w_old * (old_field.points + (12.0 / 11.0) * dt * odp))
        out = scheme.finish_stage(DofField(avgs, points))
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
