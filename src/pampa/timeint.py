"""SSP time integrators built from forward-Euler stages.

Every stage is a forward-Euler step (the limiters re-run inside each
residual evaluation), so convexity carries the invariant-domain property of
a single Euler step to the composed methods. Each integrator's
`step_size` turns the forward-Euler CFL step into the step it may take.
Fields and rates share one buffer layout (`DofField`), and each term of a
combination is one operation on whole buffers, ghost rows included.
"""

from __future__ import annotations

import math
from collections import deque

from .errors import ConfigError


def _euler_stage(scheme, field, dt, resid=None, record=None, entry=None):
    if resid is None:
        record = {} if record is None else record
        resid = scheme.residual(field, dt, record, entry=entry)
    return scheme.finish_stage(field.like(field.data + dt * resid.data)), record


def _rk3_step(scheme, field, dt, t, step, on_stage, first_resid=None,
              first_record=None, entry=None):
    """Shu-Osher three-stage SSP RK3 (weights 1; 3/4,1/4; 1/3,2/3)."""
    s1, rec1 = _euler_stage(scheme, field, dt, first_resid, first_record, entry)
    if on_stage:
        on_stage(t + dt, step, 0, s1, rec1)

    fe2, rec2 = _euler_stage(scheme, s1, dt)
    s2 = scheme.finish_stage(field.like(0.75 * field.data + 0.25 * fe2.data))
    if on_stage:
        on_stage(t + dt, step, 1, s2, rec2)

    fe3, rec3 = _euler_stage(scheme, s2, dt)
    out = scheme.finish_stage(
        field.like(field.data / 3.0 + (2.0 / 3.0) * fe3.data))
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
        w_new, w_old = 16.0 / 27.0, 11.0 / 27.0
        data = (w_new * (field.data + 3.0 * dt * resid.data)
                + w_old * (old_field.data + (12.0 / 11.0) * dt * old_resid.data))
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
