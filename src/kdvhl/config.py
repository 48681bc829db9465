"""Flat key-value experiment configs with dotted section keys.

Files look like

    experiment = propagation
    grid.L = 40.0
    grid.n = 801
    time.dt = 0.0125
    weight.epsilon = 0.4

Lines starting with # are comments.  Keys are validated against the schema
below; unknown or malformed keys raise ConfigError naming the key (the CLI
turns that into exit code 2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from typing import Optional

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config", "dump_config"]

_EXPERIMENTS = ("simulate", "converge", "propagation", "traces", "identity", "oracle-compare")
_DATA_KINDS = ("zero", "kink", "soliton", "bump", "mms")
_BOUNDARY_KINDS = ("auto", "zero", "gaussian-pulse", "ramped-cosine")


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Typed view of one config file; field names mirror the dotted keys."""

    experiment: str = "simulate"
    # grid.*
    L: float = 40.0
    n: int = 801
    # time.*
    dt: float = 0.0125
    T: float = 2.0
    theta: float = 0.5
    snapshot_stride: int = 1
    # solver.*
    picard_max: int = 4
    picard_tol: float = 1e-12
    nonlinear: bool = True
    # weight.*
    epsilon: float = 0.4
    b: float = 2.0
    v: float = 1.0
    x0: float = 4.0
    # data.*
    data_kind: str = "zero"
    data_m: int = 1
    data_x1: Optional[float] = None
    data_amplitude: float = 1.0
    data_env_lo: Optional[float] = None
    data_env_hi: Optional[float] = None
    data_base_amplitude: float = 0.0
    data_base_center: float = 0.0
    data_base_width: float = 1.0
    data_c: float = 1.0
    data_center: float = 10.0
    data_width: float = 2.0
    # boundary.*
    boundary_kind: str = "auto"
    boundary_A: float = 0.5
    boundary_t_c: float = 1.0
    boundary_w: float = 0.4
    boundary_omega: float = 3.0
    boundary_ramp: float = 0.5
    # diagnostics.*
    l: int = 2
    identity_levels: tuple = ()
    R: Optional[float] = None
    delta: Optional[float] = None
    trace_branch: int = 1
    # study.*
    levels: int = 3
    stability_tol: float = 0.25
    order_tol: float = 1.9
    residual_decay: float = 2.5
    interp_tol: float = 0.5
    rough_growth: float = 1.8
    # oracle.*
    oracle_P: float = 120.0
    oracle_m: int = 1024
    oracle_x_left: float = -30.0
    oracle_x_star: float = 20.0
    oracle_cfl: float = 0.4
    oracle_kind: str = "soliton"
    oracle_c: float = 1.0
    oracle_center: float = 12.0
    oracle_width: float = 2.0
    oracle_amplitude: float = 1.0
    oracle_samples: int = 9
    oracle_tol: float = 0.01

    def kink_geometry(self):
        """Kink point and envelope (x1, env_lo, env_hi); unset keys scale with x0."""
        return (self.data_x1 if self.data_x1 is not None else 0.5 * self.x0,
                self.data_env_lo if self.data_env_lo is not None else 0.25 * self.x0,
                self.data_env_hi if self.data_env_hi is not None else 0.75 * self.x0)


# sections of the fields without a data_/boundary_/oracle_ prefix; `experiment`
# has none
_SECTIONS = {
    "grid": ("L", "n"),
    "time": ("dt", "T", "theta", "snapshot_stride"),
    "solver": ("picard_max", "picard_tol", "nonlinear"),
    "weight": ("epsilon", "b", "v", "x0"),
    "diagnostics": ("l", "identity_levels", "R", "delta", "trace_branch"),
    "study": ("levels", "stability_tol", "order_tol", "residual_decay", "interp_tol",
              "rough_growth"),
}
# converter per field annotation, read as the string that
# `from __future__ import annotations` leaves in each field
_KINDS = {"str": str, "int": int, "float": float, "Optional[float]": float, "bool": bool,
          "tuple": "intlist"}


def _dotted_key(attr: str) -> str:
    section, _, rest = attr.partition("_")
    if section in ("data", "boundary", "oracle"):
        return f"{section}.{rest}"
    for section, attrs in _SECTIONS.items():
        if attr in attrs:
            return f"{section}.{attr}"
    return attr


# dotted key -> (field name, converter) and field name -> dotted key
_KEYMAP = {_dotted_key(f.name): (f.name, _KINDS[f.type]) for f in fields(ExperimentConfig)}
_REVMAP = {attr: key for key, (attr, _) in _KEYMAP.items()}


def _convert(key: str, raw: str, kind):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        if kind == "intlist":
            if raw.strip() == "":
                return ()
            return tuple(int(p) for p in raw.replace(",", " ").split())
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"malformed value for key {key!r}: {raw!r}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys and bad values raise ConfigError."""
    cfg = ExperimentConfig()
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (p.strip() for p in stripped.split("=", 1))
        if key not in _KEYMAP:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        attr, kind = _KEYMAP[key]
        setattr(cfg, attr, _convert(key, raw, kind))
    _validate(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _validate(cfg: ExperimentConfig):
    for attr, allowed in (("experiment", _EXPERIMENTS), ("data_kind", _DATA_KINDS),
                          ("boundary_kind", _BOUNDARY_KINDS)):
        if getattr(cfg, attr) not in allowed:
            raise ConfigError(f"key {_REVMAP[attr]!r}: {getattr(cfg, attr)!r} not one of {allowed}")
    for attr in ("L", "dt", "T", "epsilon", "b", "data_c", "data_width", "data_base_width",
                 "boundary_w", "boundary_ramp", "oracle_c", "oracle_width", "oracle_cfl",
                 "picard_tol"):
        if not (0 < getattr(cfg, attr) < math.inf):
            raise ConfigError(f"key {_REVMAP[attr]!r} must be positive and finite")
    for attr in ("x0", "boundary_A", "boundary_t_c", "boundary_omega"):
        if not math.isfinite(getattr(cfg, attr)):
            raise ConfigError(f"key {_REVMAP[attr]!r} must be finite")
    for attr, low in (("n", 8), ("snapshot_stride", 1), ("picard_max", 1), ("data_m", 1),
                      ("levels", 1), ("oracle_samples", 1)):
        if getattr(cfg, attr) < low:
            raise ConfigError(f"key {_REVMAP[attr]!r} must be at least {low}")
    if not (0.0 <= cfg.theta <= 1.0):
        raise ConfigError(f"key 'time.theta' must lie in [0, 1], got {cfg.theta}")
    # each per-step series holds steps + 1 float64 values, and numpy sizes an array
    # only while its bytes fit np.intp; T/dt may also overflow to inf
    if not cfg.T / cfg.dt < sys.maxsize // 8:
        raise ConfigError(f"key 'time.T' = {cfg.T} is {cfg.T / cfg.dt:.3g} steps of time.dt = "
                          f"{cfg.dt}, more than an array of {sys.maxsize // 8:.3g} steps holds")
    steps = round(cfg.T / cfg.dt)
    if steps < 1 or abs(steps * cfg.dt - cfg.T) > 1e-9 * max(1.0, cfg.T):
        raise ConfigError(
            f"key 'time.T' = {cfg.T} is not a whole number of steps of time.dt = {cfg.dt}"
        )
    if not (0 <= cfg.v < math.inf):
        raise ConfigError("key 'weight.v' must be nonnegative and finite")
    if cfg.b < 5.0 * cfg.epsilon:
        raise ConfigError(
            f"weight family needs b >= 5*epsilon; got b={cfg.b}, epsilon={cfg.epsilon}"
        )
    for attr in ("l", "trace_branch"):
        if getattr(cfg, attr) not in (1, 2, 3):
            raise ConfigError(f"key {_REVMAP[attr]!r} must be 1, 2 or 3")
    if not set(cfg.identity_levels) <= {1, 2}:
        raise ConfigError("key 'diagnostics.identity_levels' may hold only levels 1 and 2")
    x1, lo, hi = cfg.kink_geometry()
    if cfg.data_kind == "kink" and not (lo < x1 < hi):
        raise ConfigError(f"key 'data.x1' = {x1} must lie inside the envelope "
                          f"(data.env_lo, data.env_hi) = ({lo}, {hi})")
    if cfg.R is not None and not (cfg.epsilon < cfg.R < math.inf):
        raise ConfigError(f"key 'diagnostics.R' = {cfg.R} must be finite and exceed "
                          f"weight.epsilon = {cfg.epsilon}")


def dump_config(cfg: ExperimentConfig) -> dict:
    """Stable dotted-key dict of the config (for report echoing)."""
    out = {}
    for f in fields(cfg):
        key = _REVMAP[f.name]
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = list(val)
        out[key] = val
    return dict(sorted(out.items()))
