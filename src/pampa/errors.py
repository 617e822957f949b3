"""The package's errors and `guard`, the one located check of G."""

import numpy as np


class PampaError(Exception):
    """Base class for solver errors."""


class ConfigError(PampaError):
    """Invalid run configuration or arguments."""


class DomainError(PampaError):
    """A state left the invariant domain where validity is required."""


# Guard rules (what is needed, lo, hi): the values must lie in [lo, hi], so
# "finite" is [-max, max] and "positive" starts at the least positive double.
_BIG = float(np.finfo(float).max)
FINITE = ("finite values", -_BIG, _BIG)
POSITIVE = ("positive, finite density and pressure", 5e-324, _BIG)


def guard(kind: str, states, values, rule, offset: int = 0, more=None):
    """The one located check of G: raise DomainError unless every entry of
    `values` (a quantity of `states`, row for row; 0-d is one row) lies in
    the closed interval of `rule`. It names the first bad row from `offset`
    on, counted from offset, as `{kind} {j}`: that row is never a ghost, as
    ghosts copy or mirror interior rows (finiteness, rho and p kept).

    `more`, a second quantity of `states` at values' shape, is checked
    after `values` as a second guard would check it, and both are tested
    at once: one min over np.minimum(values, more), one max over
    np.maximum(values, more)."""
    need, lo, hi = rule
    low, high = ((values, values) if more is None
                 else (np.minimum(values, more), np.maximum(values, more)))
    # ufunc reductions: ndarray.min/max are Python wrappers around them
    if not values.size or (np.minimum.reduce(low, axis=None) >= lo
                           and np.maximum.reduce(high, axis=None) <= hi):
        return  # a nan fails both
    states = np.asarray(states) if np.ndim(values) else np.asarray(states)[None]
    for v in (values,) if more is None else (values, more):
        ok = ((v >= lo) & (v <= hi)).reshape(len(states), -1)[offset:].all(axis=-1)
        if not ok.all():
            j = int(np.argmin(ok))
            raise DomainError(f"{kind} {j} needs {need}, got {states[offset + j]}")
