"""Experiment configuration: INI-style key = value sections.

Unknown sections or keys are rejected; every value is validated against the
module preconditions before any run starts. The resolved configuration is
echoed into every output artifact together with its content hash.
"""

import configparser
import hashlib
import json

import numpy as np

from . import evolution
from . import grid as gridmod
from .errors import ConfigError

_SCHEMA = {
    "grid": {"s_min": float, "s_max": float, "n": int},
    "solver": {"dt": float, "T": float, "store_every": int},
    "norms": {"N": int, "k": int, "delta": float, "alpha": float},
    "nonlinear": {"eps": float, "taper": str, "picard_tol": float,
                  "picard_max": int, "lipschitz_threshold": float},
    "output": {"dir": str, "snapshots": "floats", "u0": str, "u0_csv": str},
}

_DEFAULTS = {
    "grid": {"s_min": -12.0, "s_max": 4.0, "n": 1025},
    "solver": {"dt": 1e-2, "T": 1.0, "store_every": 1},
    "norms": {"N": 1, "k": 3, "delta": 0.25, "alpha": 0.25},
    "nonlinear": {"eps": 1e-3, "taper": "exp", "picard_tol": 1e-10,
                  "picard_max": 25, "lipschitz_threshold": 0.5},
    "output": {"dir": ".", "snapshots": (), "u0": "x3_decay", "u0_csv": ""},
}

_U0_CATALOG = ("x3_decay", "kernel_x", "kernel_x2", "wave_shift", "zero")


def _parse_value(section, key, raw, kind):
    try:
        if kind == "floats":
            value = tuple(float(p) for p in raw.split(",") if p.strip() != "")
        elif kind is int:
            value = int(raw)
        elif kind is float:
            value = float(raw)
        else:
            value = raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}") from exc
    if kind in (float, "floats") and not np.all(np.isfinite(value)):
        raise ConfigError(f"{section}.{key}", f"must be finite, got {raw!r}")
    return value


class ExperimentConfig:
    """Validated configuration with defaults filled in."""

    def __init__(self, values=None):
        self.values = {sec: dict(defaults) for sec, defaults in _DEFAULTS.items()}
        for sec, entries in (values or {}).items():
            for key, val in entries.items():
                self.values[sec][key] = val
        self._validate()

    def __getitem__(self, section):
        return self.values[section]

    def _validate(self):
        g = self.values["grid"]
        if not g["s_min"] < g["s_max"]:
            raise ConfigError("grid.s_min", "must be below grid.s_max")
        if g["s_min"] > gridmod.RESOLVED_S_MIN:
            raise ConfigError("grid.s_min", f"must be at most {gridmod.RESOLVED_S_MIN:g}")
        if g["n"] < 64:
            raise ConfigError("grid.n", "need at least 64 nodes")
        s = self.values["solver"]
        if not s["dt"] > 0:
            raise ConfigError("solver.dt", "must be positive")
        if not s["T"] > 0:
            raise ConfigError("solver.T", "must be positive")
        if s["T"] / s["dt"] > evolution.MAX_STEPS:
            raise ConfigError("solver.T", f"more than {evolution.MAX_STEPS} steps requested")
        if s["store_every"] < 1:
            raise ConfigError("solver.store_every", "must be at least 1")
        nm = self.values["norms"]
        if not 0 < nm["delta"] < 0.5:
            raise ConfigError("norms.delta", "must lie in (0, 1/2)")
        if nm["N"] not in (0, 1, 2):
            raise ConfigError("norms.N", "composite norms support N in {0, 1, 2}")
        if nm["k"] < 0:
            raise ConfigError("norms.k", "must be non-negative")
        nl = self.values["nonlinear"]
        if nl["eps"] < 0:
            raise ConfigError("nonlinear.eps", "must be non-negative")
        if not 0 < nl["lipschitz_threshold"] < 1:
            raise ConfigError("nonlinear.lipschitz_threshold", "must lie in (0, 1)")
        if nl["picard_max"] < 1:
            raise ConfigError("nonlinear.picard_max", "must be at least 1")
        if not nl["picard_tol"] > 0:
            raise ConfigError("nonlinear.picard_tol", "must be positive")
        if nl["taper"] not in ("exp", "none"):
            raise ConfigError("nonlinear.taper", "must be 'exp' or 'none'")
        out = self.values["output"]
        if out["u0"] not in _U0_CATALOG:
            raise ConfigError("output.u0", f"unknown profile (choose from {_U0_CATALOG})")

    def resolved(self):
        """Flat, JSON-friendly echo of every setting."""
        flat = {}
        for sec in sorted(self.values):
            for key in sorted(self.values[sec]):
                val = self.values[sec][key]
                if isinstance(val, tuple):
                    val = list(val)
                flat[f"{sec}.{key}"] = val
        return flat

    def content_hash(self):
        text = json.dumps(self.resolved(), sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def load(path):
    """Read and validate an INI-style configuration file."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        key = ".".join(filter(None, (getattr(exc, "section", None), getattr(exc, "option", None))))
        raise ConfigError(key or str(path), " ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(str(path), "cannot read configuration file")
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(section, "unknown section")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{section}.{key}", "unknown key")
            values[section][key] = _parse_value(section, key, raw, _SCHEMA[section][key])
    return ExperimentConfig(values)


def initial_profile(cfg, grid_obj):
    """Initial data selected by output.u0 (or output.u0_csv when set)."""
    path = cfg["output"]["u0_csv"]
    if path:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        s = data[:, 0]
        if s.shape != grid_obj.s.shape or not np.allclose(s, grid_obj.s):
            raise ConfigError("output.u0_csv", "samples do not match the configured grid")
        return gridmod.GridFunction(grid_obj, data[:, 1])
    name = cfg["output"]["u0"]
    eps = cfg["nonlinear"]["eps"]
    taper = np.exp(-grid_obj.x) if cfg["nonlinear"]["taper"] == "exp" else 1.0
    x = grid_obj.x
    if name == "zero":
        return gridmod.zero(grid_obj)
    if name == "kernel_x":
        return gridmod.monomial(grid_obj, 1)
    if name == "kernel_x2":
        return gridmod.monomial(grid_obj, 2)
    if name == "wave_shift":
        return gridmod.GridFunction(grid_obj, eps * (3 * x * x + 2 * x) * taper)
    return gridmod.GridFunction(grid_obj, x**3 * np.exp(-x))
