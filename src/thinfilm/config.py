"""Experiment configuration: INI-style key = value sections.

Unknown sections or keys are rejected; every value is validated against the
module preconditions before any run starts (the cli checks solver.T against
the dt values a command runs). The resolved configuration is echoed into
every output artifact together with its content hash.
"""

import configparser
import hashlib
import json
import warnings

import numpy as np

from . import grid as gridmod
from .errors import ConfigError, GridError

# {section: {key: (kind, default)}}; kind "floats" is a comma-separated list
_SCHEMA = {
    "grid": {"s_min": (float, gridmod.DEFAULT_S_MIN), "s_max": (float, gridmod.DEFAULT_S_MAX),
             "n": (int, gridmod.DEFAULT_N)},
    "solver": {"dt": (float, 1e-2), "T": (float, 1.0), "store_every": (int, 1)},
    "norms": {"N": (int, 1), "k": (int, 3), "delta": (float, 0.25), "alpha": (float, 0.25)},
    "nonlinear": {"eps": (float, 1e-3)},
    "output": {"dir": (str, "."), "snapshots": ("floats", ()), "u0": (str, "x3_decay"),
               "u0_csv": (str, "")},
}

# output.u0 name -> builder(grid, eps) of the initial data
_U0_PROFILES = {
    "x3_decay": lambda grid, eps: gridmod.GridFunction(grid, grid.x**3 * np.exp(-grid.x)),
    "kernel_x": lambda grid, eps: gridmod.monomial(grid, 1),
    "kernel_x2": lambda grid, eps: gridmod.monomial(grid, 2),
    "wave_shift": lambda grid, eps: gridmod.GridFunction(
        grid, eps * (3 * grid.x * grid.x + 2 * grid.x) * np.exp(-grid.x)),
    "zero": lambda grid, eps: gridmod.zero(grid),
}


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
        self.values = {sec: {key: default for key, (_, default) in keys.items()}
                       for sec, keys in _SCHEMA.items()}
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
        # beyond these the lab's tables of powers of x overflow (grid.S_MIN_LIMIT)
        if g["s_min"] < gridmod.S_MIN_LIMIT:
            raise ConfigError("grid.s_min", f"must be at least {gridmod.S_MIN_LIMIT:g}")
        if g["s_max"] > gridmod.S_MAX_LIMIT:
            raise ConfigError("grid.s_max", f"must be at most {gridmod.S_MAX_LIMIT:g}")
        if g["n"] < gridmod.SOLVER_MIN_NODES:
            raise ConfigError("grid.n", f"need at least {gridmod.SOLVER_MIN_NODES} nodes")
        if self.values["solver"]["store_every"] < 1:
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
        out = self.values["output"]
        if out["u0"] not in _U0_PROFILES:
            raise ConfigError("output.u0", f"unknown profile (choose from {tuple(_U0_PROFILES)})")

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
            values[section][key] = _parse_value(section, key, raw, _SCHEMA[section][key][0])
    return ExperimentConfig(values)


def read_field(path, key, grid=None):
    """GridFunction from a CSV with a header line and the columns s, value.

    Without ``grid`` the grid is built from the s column, which must be
    uniform; with one, the s column must match its nodes. Every failure is a
    ConfigError naming ``key``, the source of the path.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt only warns on no rows
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except UserWarning as exc:
        raise ConfigError(key, f"no data rows in {path!r}") from exc
    except (OSError, ValueError) as exc:
        raise ConfigError(key, f"cannot read {path!r}: {exc}") from exc
    if data.shape[1] != 2:
        raise ConfigError(key, f"need rows of two columns s,value, got shape {data.shape}")
    s = data[:, 0]
    try:
        if grid is None:
            grid = gridmod.LogGrid(float(s[0]), float(s[-1]), s.size)
            if not np.allclose(grid.s, s):
                raise ConfigError(key, "s column is not uniform")
        elif s.shape != grid.s.shape or not np.allclose(s, grid.s):
            raise ConfigError(key, "samples do not match the configured grid")
        return gridmod.GridFunction(grid, data[:, 1])
    except GridError as exc:
        raise ConfigError(key, str(exc)) from exc


def initial_profile(cfg, grid_obj):
    """Initial data selected by output.u0 (or output.u0_csv when set)."""
    path = cfg["output"]["u0_csv"]
    if path:
        return read_field(path, "output.u0_csv", grid_obj)
    return _U0_PROFILES[cfg["output"]["u0"]](grid_obj, cfg["nonlinear"]["eps"])
