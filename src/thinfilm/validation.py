"""Independent residual oracles on the physical equation.

These checks never touch the perturbation formulation: they difference a
height field h(t, y) directly in the original film equation
h_t + (h h_yyy)_y = 0 and therefore close the loop on everything upstream.
"""

from dataclasses import dataclass

import numpy as np

H_FLOOR_REL = 1e-6
SMYTH_HILL_X = 1.0


@dataclass
class ResidualReport:
    max_residual: float


def traveling_wave(t, y):
    """Receding wave (y - 6t)^3 + (y - 6t)^2 on its support."""
    x = np.asarray(y, dtype=float) - 6.0 * np.asarray(t, dtype=float)
    return np.where(x >= 0.0, x**3 + x**2, 0.0)


def equilibrium(t, y):
    """Stationary profile y^2 for y >= 0."""
    y = np.asarray(y, dtype=float)
    return np.where(y >= 0.0, y * y, 0.0) + 0.0 * np.asarray(t, dtype=float)


def smyth_hill(t, y):
    """Source-type self-similar droplet of mass X^5 * 2/225, X = SMYTH_HILL_X."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    scale = (t + 1.0) ** (-0.2)
    x = scale * y
    prof = (x * x - SMYTH_HILL_X * SMYTH_HILL_X) ** 2 / 120.0
    return np.where(np.abs(x) <= SMYTH_HILL_X, scale * prof, 0.0)


def tfe_residual(h, t_span, y_span, dt, dy):
    """Centered residual of h_t + (h h_yyy)_y on interior (t, y) stencils.

    h is a callable h(t, y) accepting arrays. Each residual uses a 5 x 7
    stencil (fourth-order in t, second-order in y); stencils containing a
    sample at or below the degeneracy floor are skipped.
    """
    t_nodes = np.arange(t_span[0], t_span[1] + 0.5 * dt, dt)
    y_nodes = np.arange(y_span[0], y_span[1] + 0.5 * dy, dy)
    if t_nodes.size < 5 or y_nodes.size < 7:
        raise ValueError("span too small for the 5 x 7 residual stencil")
    tt, yy = np.meshgrid(t_nodes, y_nodes, indexing="ij")
    hh = np.asarray(h(tt, yy), dtype=float)
    floor = H_FLOOR_REL * hh.max()

    # centers: trim 2 time levels and 3 space nodes at each side
    h_t = (hh[:-4, 3:-3] - 8 * hh[1:-3, 3:-3] + 8 * hh[3:-1, 3:-3] - hh[4:, 3:-3]) / (12 * dt)
    ny = len(y_nodes)
    h_yyy_p = (hh[2:-2, 6:] - 2 * hh[2:-2, 5:ny - 1] + 2 * hh[2:-2, 3:ny - 3]
               - hh[2:-2, 2:ny - 4]) / (2 * dy**3)
    h_yyy_m = (hh[2:-2, 4:ny - 2] - 2 * hh[2:-2, 3:ny - 3] + 2 * hh[2:-2, 1:ny - 5]
               - hh[2:-2, 0:ny - 6]) / (2 * dy**3)
    flux_p = hh[2:-2, 4:ny - 2] * h_yyy_p
    flux_m = hh[2:-2, 2:ny - 4] * h_yyy_m
    residual = h_t + (flux_p - flux_m) / (2 * dy)

    window_min = np.minimum.reduce([hh[i:hh.shape[0] - 4 + i, :] for i in range(5)])
    wmin = np.minimum.reduce([window_min[:, j:ny - 6 + j] for j in range(7)])
    keep = wmin > floor
    if not np.any(keep):
        raise ValueError("no stencil lies inside the positivity region")
    return ResidualReport(max_residual=float(np.max(np.abs(residual[keep]))))


def tw_ode_check(V, nu, x_samples):
    """Max deviation of the wave profile's third derivative from V.

    The profile (V/6) x^3 + nu x^2 vanishes with its slope at the contact
    point by construction; its centered third difference on the uniform
    x_samples must equal V to rounding.
    """
    x = np.asarray(x_samples, dtype=float)
    if x.size < 5:
        raise ValueError("need at least 5 samples")
    dx = np.diff(x)
    if not np.allclose(dx, dx[0], rtol=1e-10, atol=0.0):
        raise ValueError("x_samples must be uniformly spaced")
    step = dx[0]
    prof = (V / 6.0) * x**3 + nu * x * x
    third = (prof[4:] - 2 * prof[3:-1] + 2 * prof[1:-3] - prof[:-4]) / (2 * step**3)
    return float(np.max(np.abs(third - V)))
