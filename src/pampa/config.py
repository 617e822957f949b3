"""Run configuration: dataclass, validation, and INI preset files."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

from . import mesh
from .errors import ConfigError
from .presets import EXACT_REGISTRY, IC_REGISTRY
from .scheme import LimiterConfig, check_cfl
from .systems import Euler, IdealMHD, advection, burgers
from .timeint import make_integrator


@dataclass(frozen=True)
class RunConfig:
    label: str
    system: str
    a: float
    b: float
    n: int
    bc: str
    t_final: float
    ic: str
    gamma: float = 1.4
    bx: float = 0.0
    u_min: float | None = None
    u_max: float | None = None
    integrator: str = "ssp_rk3"
    cfl: float = 0.1
    idp: bool = True
    oscillation: str = "none"
    exact: str | None = None

    def validate(self) -> "RunConfig":
        """Check each setting with the code that uses it, so that what
        passes builds and steps. Raises what that code raises: ConfigError,
        or DomainError for u_min >= u_max."""
        mesh.check_bc(self.bc, build_system(self))
        mesh.uniform_grid(self.a, self.b, self.n)
        make_integrator(self.integrator)
        LimiterConfig(idp=self.idp, oscillation=self.oscillation)
        check_cfl(self.cfl)
        if self.ic not in IC_REGISTRY:
            raise ConfigError(f"unknown initial condition {self.ic!r}")
        if self.exact is not None and self.exact not in EXACT_REGISTRY:
            raise ConfigError(f"unknown exact solution {self.exact!r}")
        if not self.t_final > 0:
            raise ConfigError("t_final must be positive")
        if not self.t_final < math.inf:
            raise ConfigError("t_final must be finite")
        return self

    def with_overrides(self, **kw) -> "RunConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw).validate()


def _scalar_bounds(cfg: RunConfig) -> tuple[float, float]:
    if cfg.u_min is None or cfg.u_max is None:
        raise ConfigError("scalar systems need u_min and u_max")
    return cfg.u_min, cfg.u_max


_SYSTEMS = {
    "advection": lambda cfg: advection(*_scalar_bounds(cfg)),
    "burgers": lambda cfg: burgers(*_scalar_bounds(cfg)),
    "euler": lambda cfg: Euler(gamma=cfg.gamma),
    "mhd": lambda cfg: IdealMHD(gamma=cfg.gamma, bx=cfg.bx),
}


def build_system(cfg: RunConfig):
    factory = _SYSTEMS.get(cfg.system)
    if factory is None:
        raise ConfigError(f"unknown system {cfg.system!r}")
    return factory(cfg)


_SECTION_KEYS = {
    "system": ("kind", "gamma", "bx", "u_min", "u_max"),
    "grid": ("a", "b", "n", "bc"),
    "time": ("t_final", "integrator", "cfl"),
    "limiter": ("idp", "oscillation"),
    "ic": ("name", "exact"),
}
_RENAMES = {("system", "kind"): "system", ("ic", "name"): "ic"}
# each key's type as RunConfig annotates it ("float | None" and the like)
_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_text(text: str, label: str) -> RunConfig:
    """A validated RunConfig from INI text. Booleans take configparser's
    words (1/yes/true/on, 0/no/false/off); a value that does not parse is a
    ConfigError naming its key."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unreadable config: {exc}") from None
    kw = {"label": label}
    for section in parser.sections():
        keys = _SECTION_KEYS.get(section, ())
        for key in parser[section]:
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}")
            name = _RENAMES.get((section, key), key)
            kind = _TYPES[name]
            try:
                if kind.startswith("str"):
                    kw[name] = parser.get(section, key).strip()
                else:
                    kw[name] = {"int": parser.getint, "bool": parser.getboolean}.get(
                        kind, parser.getfloat)(section, key)
            except (ValueError, configparser.Error):
                raw = parser.get(section, key, raw=True)
                raise ConfigError(f"[{section}] {key}: bad value {raw!r}") from None
    missing = {"system", "a", "b", "n", "bc", "t_final", "ic"} - set(kw)
    if missing:
        raise ConfigError(f"config is missing required keys: {sorted(missing)}")
    return RunConfig(**kw).validate()


def preset_names() -> list[str]:
    root = resources.files("pampa") / "presets"
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".ini"))


def load_config(name_or_path: str) -> RunConfig:
    """Load a named preset or an INI file path."""
    path = Path(name_or_path)
    if path.suffix == ".ini" and path.exists():
        return parse_config_text(path.read_text(), path.stem)
    res = resources.files("pampa") / "presets" / f"{name_or_path}.ini"
    if not res.is_file():
        raise ConfigError(
            f"no preset or config file {name_or_path!r}; presets: "
            + ", ".join(preset_names())
        )
    return parse_config_text(res.read_text(), name_or_path)
