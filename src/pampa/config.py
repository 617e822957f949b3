"""Run configuration: dataclass, validation, and INI preset files."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .mesh import BC_KINDS
from .presets import EXACT_REGISTRY, IC_REGISTRY
from .scheme import IDP_CFL_LIMIT, OSCILLATION_KINDS, LimiterConfig
from .systems import Euler, IdealMHD, advection, burgers
from .timeint import INTEGRATORS

SYSTEM_KINDS = ("advection", "burgers", "euler", "mhd")


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
        if self.system not in SYSTEM_KINDS:
            raise ConfigError(f"unknown system {self.system!r}")
        if self.system in ("advection", "burgers"):
            if self.u_min is None or self.u_max is None:
                raise ConfigError("scalar systems need u_min and u_max")
        if self.bc not in BC_KINDS:
            raise ConfigError(f"unknown boundary condition {self.bc!r}")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        if self.oscillation not in OSCILLATION_KINDS:
            raise ConfigError(f"unknown oscillation control {self.oscillation!r}")
        if not 0.0 < self.cfl <= IDP_CFL_LIMIT + 1e-15:
            raise ConfigError(
                f"cfl must lie in (0, 1/6] for the IDP guarantee, got {self.cfl}"
            )
        if self.ic not in IC_REGISTRY:
            raise ConfigError(f"unknown initial condition {self.ic!r}")
        if self.exact is not None and self.exact not in EXACT_REGISTRY:
            raise ConfigError(f"unknown exact solution {self.exact!r}")
        if not self.a < self.b:
            raise ConfigError("domain must satisfy a < b")
        if self.t_final <= 0:
            raise ConfigError("t_final must be positive")
        return self

    def with_overrides(self, **kw) -> "RunConfig":
        kw = {k: v for k, v in kw.items() if v is not None}
        return replace(self, **kw).validate()


def build_system(cfg: RunConfig):
    if cfg.system == "advection":
        return advection(cfg.u_min, cfg.u_max)
    if cfg.system == "burgers":
        return burgers(cfg.u_min, cfg.u_max)
    if cfg.system == "euler":
        return Euler(gamma=cfg.gamma)
    if cfg.system == "mhd":
        return IdealMHD(gamma=cfg.gamma, bx=cfg.bx)
    raise ConfigError(f"unknown system {cfg.system!r}")


def limiter_config(cfg: RunConfig) -> LimiterConfig:
    return LimiterConfig(idp=cfg.idp, oscillation=cfg.oscillation)


_SECTION_KEYS = {
    "system": ("kind", "gamma", "bx", "u_min", "u_max"),
    "grid": ("a", "b", "n", "bc"),
    "time": ("t_final", "integrator", "cfl"),
    "limiter": ("idp", "oscillation"),
    "ic": ("name", "exact"),
}
_RENAMES = {("system", "kind"): "system", ("ic", "name"): "ic"}
_INT_KEYS = {"n"}
_BOOL_KEYS = {"idp"}
_STR_KEYS = {"system", "bc", "integrator", "oscillation", "ic", "exact"}


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
            try:
                if name in _INT_KEYS:
                    kw[name] = parser.getint(section, key)
                elif name in _BOOL_KEYS:
                    kw[name] = parser.getboolean(section, key)
                elif name in _STR_KEYS:
                    kw[name] = parser.get(section, key).strip()
                else:
                    kw[name] = parser.getfloat(section, key)
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
