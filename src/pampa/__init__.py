"""Invariant-domain-preserving PAMPA solver for 1D hyperbolic conservation laws.

Evolves cell averages (conservative form) and point values (non-conservative
form in automatic-IDP variables) together, with a local scaling limiter for
midpoint values, IDP numerical fluxes for the averages, and optional
oscillation control (OE damping or MP limiting).
"""

from .errors import ConfigError, DomainError, PampaError
from .mesh import Grid1D, OUTFLOW, PERIODIC, REFLECTIVE, uniform_grid
from .scheme import DofField, LimiterConfig, PampaScheme
from .systems import Euler, IdealMHD, ScalarLaw, advection, burgers

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DofField",
    "DomainError",
    "Euler",
    "Grid1D",
    "IdealMHD",
    "LimiterConfig",
    "OUTFLOW",
    "PERIODIC",
    "PampaError",
    "PampaScheme",
    "REFLECTIVE",
    "ScalarLaw",
    "advection",
    "burgers",
    "uniform_grid",
]
