"""Experiment configuration: INI-style key = value sections.

``ExperimentConfig`` is the one place that parses and checks a value,
whatever its source: ``load`` only reads a file's text and hands it over.
Unknown sections or keys, a section that is not a mapping and a file's
[DEFAULT] entries are rejected; text is parsed as a file's value is,
and any other value must already have the schema's kind (an int for an int
key, a real for a float key, a list or tuple of reals for ``output.snapshots``,
never a bool), with every float finite. Each failure is a ``ConfigError``
keyed ``section.key``, and then the range and cross-key rules run (the cli
checks solver.T against the dt values a command runs). So a dict and a file
holding the same entries resolve alike; the resolved configuration is echoed
into every output artifact together with its content hash.
"""

import configparser
import hashlib
import json
import math
import numbers
import warnings
from collections.abc import Mapping

import numpy as np

from . import grid as gridmod
from .errors import ConfigError, GridError

# {section: {key: (kind, default)}}; kind "floats" is a tuple of floats, comma-separated in text
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


# kind -> what a value of that kind given in code must be, as its error says
_KINDS = {int: "an integer", float: "a real number", "floats": "a list or tuple of real numbers",
          str: "text"}


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _float(value):
    """float(value) of a real; inf for one beyond the float range (a large int)."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _coerce(section, key, value):
    """The stored value of ``section.key``: text parsed as a file's value is, or a value
    of the schema's kind (int, float, a list or tuple of floats, str; never a bool).
    ConfigError unless it parses, has that kind and, for a float or a snapshot time,
    is finite."""
    kind, name = _SCHEMA[section][key][0], f"{section}.{key}"
    if isinstance(value, str):
        try:
            if kind == "floats":
                parsed = tuple(float(p) for p in value.split(",") if p.strip() != "")
            elif kind is int:
                parsed = int(value)
            elif kind is float:
                parsed = float(value)
            else:
                parsed = value.strip()
        except ValueError as exc:
            raise ConfigError(name, f"cannot parse {value!r}") from exc
    elif kind is int and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        parsed = int(value)
    elif kind is float and _is_real(value):
        parsed = _float(value)
    elif kind == "floats" and isinstance(value, (list, tuple)) and all(map(_is_real, value)):
        parsed = tuple(map(_float, value))
    else:
        raise ConfigError(name, f"must be {_KINDS[kind]}, got {value!r}")
    if kind in (float, "floats") and not np.all(np.isfinite(parsed)):
        raise ConfigError(name, f"must be finite, got {value!r}")
    return parsed


class ExperimentConfig:
    """Validated configuration with defaults filled in. Each given section must be known
    and a mapping; each of its entries, in order: its key, then its value (``_coerce``)
    must pass; then ``_validate``."""

    def __init__(self, values=None):
        self.values = {sec: {key: default for key, (_, default) in keys.items()}
                       for sec, keys in _SCHEMA.items()}
        for sec, entries in (values or {}).items():
            if sec not in _SCHEMA:
                raise ConfigError(sec, "unknown section")
            if not isinstance(entries, Mapping):
                raise ConfigError(sec, f"must be a mapping of keys to values, got {entries!r}")
            for key, value in entries.items():
                if key not in _SCHEMA[sec]:
                    raise ConfigError(f"{sec}.{key}", "unknown key")
                self.values[sec][key] = _coerce(sec, key, value)
        self._validate(values or {})

    def __getitem__(self, section):
        return self.values[section]

    def _validate(self, given):
        """ConfigError for the first value out of range; ``given`` holds the set keys."""
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
        if nm["N"] not in (0, 1):
            raise ConfigError("norms.N",
                              "must be 0 or 1: the lab fits the expansion only up to x^3")
        if nm["k"] < 0:
            raise ConfigError("norms.k", "must be non-negative")
        nl = self.values["nonlinear"]
        if nl["eps"] < 0:
            raise ConfigError("nonlinear.eps", "must be non-negative")
        out = self.values["output"]
        if out["u0"] not in _U0_PROFILES:
            raise ConfigError("output.u0", f"unknown profile (choose from {tuple(_U0_PROFILES)})")
        # only the wave_shift profile reads eps: set for other initial data it would be ignored
        if "eps" in given.get("nonlinear", ()) and (out["u0"] != "wave_shift" or out["u0_csv"]):
            data = (f"output.u0_csv = {out['u0_csv']!r}" if out["u0_csv"]
                    else f"output.u0 = {out['u0']}")
            raise ConfigError("nonlinear.eps", "is read only by output.u0 = wave_shift without "
                                               f"output.u0_csv, and {data} ignores it")

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
    """ExperimentConfig of an INI-style file's text, each section's entries in file order.
    ConfigError naming the first entry of a [DEFAULT] section, which no key reads."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keys are case-sensitive (T vs t)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        key = ".".join(filter(None, (getattr(exc, "section", None), getattr(exc, "option", None))))
        raise ConfigError(key or str(path), " ".join(str(exc).split())) from exc
    if not read:
        raise ConfigError(str(path), "cannot read configuration file")
    # configparser would copy these into every section, or drop them when there is none
    defaults = list(parser.defaults())
    if defaults:
        raise ConfigError(f"{parser.default_section}.{defaults[0]}",
                          "a [DEFAULT] entry belongs to no section; set it in its own section")
    return ExperimentConfig({section: dict(parser.items(section))
                             for section in parser.sections()})


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
