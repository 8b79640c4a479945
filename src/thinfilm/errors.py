"""Exception types shared across the package."""


class ThinFilmError(Exception):
    """Base class for all package errors."""


class GridError(ThinFilmError):
    """Grid too small/coarse for the requested stencil or fit."""


class EnergyError(GridError):
    """The energies of a linear run are not finite at its weight alpha."""


class SupportError(ThinFilmError):
    """A test function touches the grid boundary where compact support is required."""


class DecayProbeError(ThinFilmError):
    """Left-edge decay probe failed (data does not vanish at the contact line)."""


class CompatibilityError(ThinFilmError):
    """Right-hand side violates the contact-line compatibility condition."""


class SolverError(ThinFilmError):
    """Banded factorization failed or produced an invalid solution."""


class GuardError(ThinFilmError):
    """Lipschitz guard tripped: the coordinate change is no longer trustworthy."""


class PicardError(ThinFilmError):
    """Inner fixed-point iteration did not converge within its PICARD_MAX budget."""


class ConfigError(ThinFilmError):
    """Malformed configuration or input file. `key` names the entry or flag that gave it."""

    def __init__(self, key, message):
        self.key = key
        super().__init__(f"config key '{key}': {message}")
