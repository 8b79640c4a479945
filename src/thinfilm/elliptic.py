"""Degenerate elliptic factorization and its explicit inverses.

The operator factors through the first-order piece B = x(D-2) + D, which is
inverted by a single weighted integral from the contact line; the full
smooth inverse S is four nested integrals. All integrals carry the measure
dx/x and are therefore evaluated in s = ln x where they are regular. The
grid cannot reach x = 0, so every cumulative integral is closed below s_min
by fitting the integrand to e^{g s} (c0 + c1 e^s + c2 e^{2s}) on the
leftmost band and integrating that tail analytically.
"""

import numpy as np

from . import grid as gridmod
from . import polyops, stencils
from .errors import DecayProbeError, SupportError

TAIL_BAND = 1.5
PROBE_MIN_EXPONENT = 0.05
SUPPORT_EDGE = 4  # nodes at each end where a test function must vanish:
SUPPORT_REL = 1e-12  # stay below this fraction of its maximum


def apply_B(w):
    """B w = x (D w - 2 w) + D w with the discrete D."""
    dw = stencils.apply_derivative(w.values, 1, w.grid.h)
    x = w.grid.x
    return gridmod.GridFunction(w.grid, x * (dw - 2.0 * w.values) + dw)


_TAIL_FLOOR = 1e-250  # below this the band is treated as identically zero


def decay_exponent(values, grid):
    """Fitted growth exponent of |values| on the leftmost band (inf if zero)."""
    band = gridmod.node_slice(grid.s, -np.inf, grid.s_min + TAIL_BAND)
    v = values[band]
    if np.max(np.abs(v)) <= _TAIL_FLOOR:
        return np.inf
    mag = np.abs(v)
    ok = mag > 0
    if ok.sum() < 4:
        return np.inf
    # np.polyfit, not resolvent._line_fit: this slope sets the tail closure's
    # exponent inside apply_S, whose output the benchmark hashes bit for bit;
    # the closed form moves that output in its last bits (resolvent_scan's
    # sha256 changes, with a relative drift of 9.2e-36)
    slope = np.polyfit(grid.s[band][ok], np.log(mag[ok]), 1)[0]
    return float(slope)


def _tail_closure(integrand, grid):
    """Integral of the fitted integrand model over (-inf, s_min].

    The model is e^{g d}(c0 + c0' d + c1 e^d + c2 e^{2d}) with d = s - s_min;
    the d e^{g d} term is the first-order correction in the exponent and
    removes the bias of the log-linear estimate of g.
    """
    band = gridmod.node_slice(grid.s, -np.inf, grid.s_min + TAIL_BAND)
    v = integrand[band]
    if np.max(np.abs(v)) <= _TAIL_FLOOR:
        return 0.0
    gamma = decay_exponent(integrand, grid)
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise DecayProbeError("integrand does not decay towards the contact line")
    d = grid.s[band] - grid.s_min
    base = np.exp(gamma * d)
    a = np.stack([base, d * base, np.exp((gamma + 1) * d), np.exp((gamma + 2) * d)], axis=1)
    coef, _, _, _ = np.linalg.lstsq(a, v, rcond=None)
    # int_{-inf}^{0} e^{g d} d d = 1/g, int d e^{g d} = -1/g^2
    return float(coef[0] / gamma - coef[1] / gamma**2
                 + coef[2] / (gamma + 1) + coef[3] / (gamma + 2))


def cumulative_from_zero(integrand, grid):
    """int_{x=0}^{x(s)} integrand ds', tail-closed below the grid."""
    return _tail_closure(integrand, grid) + stencils.cumulative_integral(integrand, grid.h)


def _require_decay(w, rho=PROBE_MIN_EXPONENT):
    """DecayProbeError unless w vanishes like o(x^rho) at the contact line (leftmost band)."""
    gamma = decay_exponent(w.values, w.grid)
    if gamma <= rho:
        raise DecayProbeError(f"decay probe failed (fitted exponent {gamma:.3f})")


def apply_B_inverse(f):
    """Inverse of B: (x+1)^2 times the cumulative (x'+1)^{-3} f dx'/x'.

    f must vanish at the contact line; the decay probe on the leftmost band
    enforces a positive power.
    """
    _require_decay(f)
    grid = f.grid
    x = grid.x
    integrand = f.values / (x + 1.0) ** 3
    integral = cumulative_from_zero(integrand, grid)
    return gridmod.GridFunction(grid, (x + 1.0) ** 2 * integral)


def apply_S(g):
    """Smooth inverse of the full operator: four nested integrals from x = 0.

    The result has value and first and second x-derivative zero at the left
    edge by construction.
    """
    _require_decay(g)
    grid = g.grid
    x = grid.x
    i4 = cumulative_from_zero(x * g.values, grid)
    i3 = cumulative_from_zero(i4, grid)
    i2 = cumulative_from_zero(grid.inv_x * i3, grid)
    i1 = cumulative_from_zero(grid.exp(2.0) * i2 / (x + 1.0) ** 3, grid)
    return gridmod.GridFunction(grid, (x + 1.0) ** 2 * i1)


def _require_compact_support(w):
    v = np.abs(w.values)
    scale = v.max()
    if scale == 0.0:
        return
    limit = SUPPORT_REL * scale
    if v[:SUPPORT_EDGE].max() > limit or v[-SUPPORT_EDGE:].max() > limit:
        raise SupportError("test function must vanish near the grid boundary")


_HARDY = {
    # variant: (derivative shift a, weight offset from gamma, stated constant)
    1: (0.0, 0.0, lambda g: (g - 1.0) ** 2),
    2: (1.0, -0.5, lambda g: (g - 2.5) ** 2),
    3: (2.0, -1.0, lambda g: (g - 4.0) ** 2),
}


def hardy_check(g, gamma, variant):
    """(lhs, rhs, constant) of the weighted Hardy inequality, one variant.

    lhs = |(D-a) g|^2 at the variant's weight, rhs = |g|^2 at the same
    weight, constant as stated with the elliptic estimates.
    """
    if variant not in _HARDY:
        raise ValueError("variant must be 1, 2 or 3")
    _require_compact_support(g)
    a, offset, const = _HARDY[variant]
    beta = gamma + offset
    shifted = gridmod.shifted_derivative(g, a).values
    lhs, rhs = gridmod._norm_sq(np.stack([shifted, g.values]), 0, g.grid.exp(-2.0 * beta),
                                g.grid)
    return float(lhs), float(rhs), float(const(gamma))


def sharp_hardy_constant(gamma, variant):
    """Best possible constant for compactly supported data.

    |(D-a) g|^2_b = |d/ds ghat|^2 + (b-a)^2 |ghat|^2 with ghat = e^{-bs} g,
    so the optimal factor is (b-a)^2 at the variant's weight b.
    """
    a, offset, _ = _HARDY[variant]
    return float((gamma + offset - a) ** 2)


def polynomial_elliptic_check(p, w, rho, k=0):
    """(|w|_{k+4,rho}, |P(D) w|_{k,rho}) for equivalence-ratio logging.

    w must be supported in the interior and pass the o(x^rho) probe at the
    left edge.
    """
    _require_decay(w, rho)
    _require_compact_support(w)
    lhs = gridmod.weighted_norm(w, gridmod.NormSpec(k + 4, rho))
    pw = polyops.apply_symbol(p, w)
    rhs = gridmod.weighted_norm(pw, gridmod.NormSpec(k, rho))
    return float(lhs), float(rhs)
