"""Coercivity ranges of quartic scaling-invariant operators.

A quartic P(D) with real roots controls |u|_{2,a}^2 in the weight-a inner
product exactly when the real part of its Fourier symbol Re P(i xi + a) is
positive. For a quartic that real part is a quadratic in mu = xi^2,

    Re P(i xi + a) = mu^2 - e2 mu + e4,

with e2, e4 the elementary symmetric functions of the shifted roots a - r_j,
so the minimum over xi is available in closed form. The admissible-weight
window also has a closed form from the root mean and variance; both routes
are implemented and compared.
"""

import numpy as np

from . import grid as gridmod
from . import polyops, stencils
from .elliptic import _require_compact_support

BOUNDARY_TOL = 1e-8  # |margin| below this counts as zero at interval endpoints
MARGIN_SCAN = 4001  # normalized_margin: linear scan points on mu = xi^2 in [0, 4],
MARGIN_MU_MAX = 400.0  # then MARGIN_SCAN // 2 geometric ones up to this mu
_SQRT3 = np.sqrt(3.0)


def _sym(p, alpha):
    a = [alpha - r for r in p.roots]
    e2 = sum(a[i] * a[j] for i in range(4) for j in range(i + 1, 4))
    e4 = a[0] * a[1] * a[2] * a[3]
    return e2, e4


def symbol(p, alpha, xi):
    """Re prod(i xi + alpha - root), a real polynomial in xi^2."""
    e2, e4 = _sym(p, alpha)
    mu = np.asarray(xi, dtype=float) ** 2
    out = mu * mu - e2 * mu + e4
    return out if out.ndim else float(out)


def symbol_margin(p, alpha):
    """min over xi of the real symbol part, by closed-form stationary points.

    The quadratic in mu = xi^2 is minimized at mu = e2/2 when that is
    admissible (mu >= 0), otherwise at mu = 0.
    """
    e2, e4 = _sym(p, alpha)
    margin = e4
    if e2 > 0.0:
        margin = min(margin, e4 - 0.25 * e2 * e2)
    return float(margin)


def normalized_margin(p, alpha):
    """min over xi of Re P(i xi + alpha) / sum_{j<=2} (xi^2 + alpha^2)^j.

    This is the constant that bounds the quadratic form against the full
    two-derivative norm: in Fourier variables of e^{-alpha s} u the j-th
    derivative term carries (xi^2 + alpha^2)^j, while the bare symbol margin
    only controls the j = 0 part. Dense scan in mu = xi^2.
    """
    e2, e4 = _sym(p, alpha)
    mu = np.concatenate([np.linspace(0.0, 4.0, MARGIN_SCAN),
                         np.geomspace(4.0, MARGIN_MU_MAX, MARGIN_SCAN // 2)])
    shifted = mu + alpha * alpha
    ratio = (mu * mu - e2 * mu + e4) / (1.0 + shifted + shifted * shifted)
    return float(min(ratio.min(), 1.0))


def _intersect(intervals_a, intervals_b):
    out = []
    for lo1, hi1 in intervals_a:
        for lo2, hi2 in intervals_b:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo < hi:
                out.append((lo, hi))
    return sorted(out)


def range_closed_form(p):
    """Admissible weights as disjoint open intervals (possibly empty).

    Intersection of the off-root condition (below the smallest root, between
    the two middle roots, or above the largest) with the band of half-width
    sigma/sqrt(3) around the root mean.
    """
    g1, g2, g3, g4 = p.roots
    cond1 = [(-np.inf, g1)]
    if g2 < g3:
        cond1.append((g2, g3))
    cond1.append((g4, np.inf))
    m, s = p.mean(), p.sigma()
    cond2 = [(m - s / _SQRT3, m + s / _SQRT3)]
    return _intersect(cond1, cond2)


def _bisect_zero(p, lo, hi, flo):
    # margin changes sign between lo and hi (either orientation); polish the
    # crossing to ~1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = symbol_margin(p, mid)
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if abs(hi - lo) < 1e-13 * max(1.0, abs(lo)):
            break
    return 0.5 * (lo + hi)


def range_numeric(p, alpha_lo, alpha_hi, n_scan=2000):
    """Positivity intervals of the symbol margin over a scanned weight range."""
    if n_scan < 100:
        raise ValueError("n_scan must be at least 100")
    alphas = np.linspace(alpha_lo, alpha_hi, n_scan)
    margins = np.array([symbol_margin(p, a) for a in alphas])
    pos = margins > 0.0
    intervals = []
    i = 0
    while i < n_scan:
        if not pos[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_scan and pos[j + 1]:
            j += 1
        lo = alphas[i] if i == 0 else _bisect_zero(p, alphas[i - 1], alphas[i], margins[i - 1])
        hi = alphas[j] if j == n_scan - 1 else _bisect_zero(p, alphas[j + 1], alphas[j], margins[j + 1])
        if lo > hi:
            lo, hi = hi, lo
        intervals.append((lo, hi))
        i = j + 1
    return intervals


def composite_range(commutations):
    """Joint weight window of the composite operator, from its symbol pair.

    The weight a is admissible when a + 1/2 lies in the cubic-part range and
    a + 1 in the quadratic-part range. Empty for the uncommuted operator.
    """
    p, q = polyops.symbol_pair(commutations)
    shifted_p = [(lo - 0.5, hi - 0.5) for lo, hi in range_closed_form(p)]
    shifted_q = [(lo - 1.0, hi - 1.0) for lo, hi in range_closed_form(q)]
    return _intersect(shifted_p, shifted_q)


def quadratic_form_check(p, alpha, w):
    """Discrete ((w, P(D) w)_alpha, |w|_{2,alpha}^2) for a compactly supported w."""
    _require_compact_support(w)
    grid = w.grid
    weight = np.exp(-2.0 * alpha * grid.s)
    pw = polyops.apply_symbol(p, w)
    lhs = stencils.trapezoid(weight * w.values * pw.values, grid.h)
    rhs = gridmod.weighted_norm(w, gridmod.NormSpec(2, alpha)) ** 2
    return float(lhs), float(rhs)
