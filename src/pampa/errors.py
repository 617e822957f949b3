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


def guard(kind: str, states, values, rule, offset: int = 0):
    """The one located check of G: raise DomainError unless every entry of
    `values` (a quantity of `states`, row for row; 0-d is one row) lies in
    the closed interval of `rule`. It names the first bad row from `offset`
    on, counted from offset, as `{kind} {j}`: that row is never a ghost, as
    ghosts copy or mirror interior rows (finiteness, rho and p kept)."""
    need, lo, hi = rule
    # ufunc reductions: ndarray.min/max are Python wrappers around them
    if not values.size or (np.minimum.reduce(values, axis=None) >= lo
                           and np.maximum.reduce(values, axis=None) <= hi):
        return  # a nan fails both
    if np.ndim(values) == 0:
        values, states = np.reshape(values, 1), np.asarray(states)[None]
    inner = values[offset:]
    ok = ((inner >= lo) & (inner <= hi)).reshape(len(inner), -1).all(axis=-1)
    j = int(np.argmin(ok))
    raise DomainError(f"{kind} {j} needs {need}, got {states[offset + j]}")
