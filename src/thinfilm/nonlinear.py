"""Full nonlinearity, semi-implicit nonlinear evolution, film reconstruction.

The perturbation field u determines the coordinate perturbation
v = u/(3x^2 + 2x); the change of variables behind the whole formulation
stays invertible only while 1 + v_x > 0, so every nonlinear evaluation runs
behind a Lipschitz guard on sup |v_x|. The nonlinearity is evaluated in an
algebraically reduced form whose terms are all explicitly quadratic in v_x,
making the traveling wave and its contact-line shifts exact fixed points of
the discretization.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from . import evolution, resolvent, stencils
from . import grid as gridmod
from .errors import GridError, GuardError

LIPSCHITZ_THRESHOLD = 0.5  # 1 + v_x > 0 with margin: the guard needs sup |v_x| below it
PICARD_TOL = 1e-10
PICARD_MAX = 25


@dataclass
class FilmReconstruction:
    """Physical film profile h(y) at one time, in contact-line coordinates."""

    y: np.ndarray
    h: np.ndarray
    contact_line: float  # Y0


@functools.lru_cache(maxsize=16)
def _mobility(grid):
    """Read-only (m, m', x^3 + x^2) of one grid, m = 3x^2 + 2x, computed once."""
    x = grid.x
    out = (3.0 * x * x + 2.0 * x, 6.0 * x + 2.0, x**3 + x * x)
    for a in out:
        a.flags.writeable = False
    return out


def to_v(u):
    """Coordinate perturbation v = u / (3x^2 + 2x)."""
    return gridmod.GridFunction(u.grid, u.values / _mobility(u.grid)[0])


def _dx(values, grid):
    # d/dx = e^{-s} d/ds
    return grid.inv_x * stencils.apply_derivative(values, 1, grid.h)


def _guarded_dx(v, where):
    """(sup |v_x|, v_x); GuardError naming ``where`` unless sup |v_x| < LIPSCHITZ_THRESHOLD."""
    vx = _dx(v.values, v.grid)
    sup = float(np.max(np.abs(vx)))
    if not sup < LIPSCHITZ_THRESHOLD:
        raise GuardError(f"Lipschitz guard tripped {where}: sup |v_x| = {sup:.4f} "
                         f"is not below {LIPSCHITZ_THRESHOLD}")
    return sup, vx


def lipschitz_guard(v, where="on v"):
    """sup |v_x| of the coordinate perturbation v; GuardError when the guard fails."""
    return _guarded_dx(v, where)[0]


def eval_nonlinearity(u):
    """N(u) by pointwise evaluation of the closed form.

    Requires the Lipschitz guard to pass; raises GuardError otherwise (the
    height map would be invalid). The evaluation uses the algebraically
    reduced bracket

        L(v_x^2 / (1 + v_x)) + Q(v_x / (1 + v_x)),
        L(z) = dx^2(z m) + dx(z m') + z m'',
        Q(w) = dx(w dx(w m)) + w dx^2(w m) + w dx(w m') - w dx(w dx(w m)),

    with m = 3x^2 + 2x. This is identical to the written form
    (chain rule applied to ((1+v_x)^{-1} dx)^2 (1+v_x)^{-1} m - 6 + dx^3 u)
    but every term is explicitly quadratic in v_x, so the traveling wave and
    its contact-line shifts are exact fixed points of the discretization and
    no O(1) cancellation is left to floating point.
    """
    grid = u.grid
    vx = _guarded_dx(to_v(u), "in N(u)")[1]
    mob, mob1, height = _mobility(grid)
    inv = 1.0 / (1.0 + vx)
    w = vx * inv
    z = vx * w  # v_x^2 / (1 + v_x)

    # d/dx = e^{-s} D and d^2/dx^2 = e^{-2s} (D^2 - D); the fields that do not
    # depend on each other are stacked: D of (z m, w m, z m', w m') in one call,
    # D^2 of (z m, w m) in another
    zw = np.array([z, w])
    fields = np.concatenate((zw * mob, zw * mob1))
    d1 = stencils.apply_derivative(fields, 1, grid.h)
    d2 = stencils.apply_derivative(fields[:2], 2, grid.h)
    dx_zm, t, dx_zm1, dx_wm1 = grid.inv_x * d1
    dx2_zm, dx2_wm = grid.inv_x2 * (d2 - d1[:2])
    lin = dx2_zm + dx_zm1 + 6.0 * z
    dx_wt = _dx(w * t, grid)
    quad = dx_wt + w * dx2_wm + w * dx_wm1 - w * dx_wt
    bracket = lin + quad
    return gridmod.GridFunction(grid, _dx(height * bracket, grid))


@dataclass
class NonlinearModel:
    """What evolution.run needs for the nonlinear problem u_t + A u = N(u)."""

    picard_tol = PICARD_TOL  # class attributes, not fields: the stopping rule is fixed
    picard_max = PICARD_MAX
    norm_N: int = 1
    norm_k: int = 3
    delta: float = 0.25

    def N(self, u):
        return eval_nonlinearity(u)

    def guard(self, u, j):
        """sup |v_x| after step j (0: initial data); GuardError when it fails."""
        return lipschitz_guard(to_v(u), "on the initial data" if j == 0 else f"at step {j}")

    def records(self, t, u):
        """(composite initial-data norm, contact line Y0 = 6t + v(0+))."""
        init_norm = gridmod.composite_init_norm(u, self.norm_N, self.norm_k, self.delta)
        return init_norm, 6.0 * t + contact_line_shift(u)


def run_nonlinear(u0, dt, T, norm_N=1, norm_k=3, delta=0.25, store_every=1):
    """Semi-implicit evolution with an inner Picard iteration per step.

    u^{k+1} = (I + dt A)^{-1}(u^n + dt N(u^k)), from u^0 = 2u^n - u^(n-1) (the
    extrapolant of Ascher, Ruuth & Wetton 1995; u^n at the first step), until
    the successive-iterate max-norm delta drops below PICARD_TOL, or the
    contraction rate theta < 1 gives theta / (1 - theta) * delta <= PICARD_TOL
    (Hairer & Wanner, Solving ODEs II, IV.8); theta is carried over from the
    last step that measured it. A step that has not met either rule after
    PICARD_MAX iterations raises PicardError, whose message gives the budget,
    the last increment and the last measured rate: a slowly contracting
    iteration can exhaust the budget too. The run records no energy log.
    """
    model = NonlinearModel(norm_N, norm_k, delta)
    return evolution.run(resolvent.assemble(u0.grid), u0, None, dt, T,
                         store_every=store_every, nonlinear=model)


def contact_line_shift(u):
    """v(0+): constant term of a quadratic-in-x fit of v on the left band."""
    return float(gridmod.fit_powers(to_v(u).values, u.grid, -np.inf, gridmod.FIT_BAND, 3)[0])


def _locate(x, q):
    """(i, q - x[i]): the interval i of each q, x[i] <= q < x[i+1], the end
    intervals extended beyond x (scipy's PPoly rule; NaN falls in the last)."""
    i = np.clip(np.searchsorted(x, q, "right") - 1, 0, len(x) - 2)
    return i, q - x[i]


@functools.lru_cache(maxsize=8)
def _refined(grid, upsample):
    """Read-only (e^s, i, d) of the refined samples s of one grid, computed once
    per upsample; (i, d) = _locate(grid.s, s) is searched, not taken from the
    refinement, since rounding may put a sample at a node on either side."""
    s = np.linspace(grid.s_min, grid.s_max, upsample * (grid.n - 1) + 1)
    out = (np.exp(s),) + _locate(grid.s, s)
    for a in out:
        a.flags.writeable = False
    return out


def _hermite(x, y, dydx, i, d):
    """The piecewise cubic through (x, y) with slopes dydx, at x[i] + d.

    scipy 1.17.1's CubicHermiteSpline coefficients and its compiled PPoly
    evaluation, operation for operation, so the values are scipy's bitwise:
    the local power sum starts from 0.0 and adds the terms from the constant
    one up, so even the sign of a zero result matches.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))
    c0, c1, c2, c3 = c.take(i, axis=1)
    dd = d * d
    return 0.0 + c3 + c2 * d + c1 * dd + c0 * (dd * d)


def _not_a_knot(x, y, i, d):
    """scipy's not-a-knot CubicSpline(x, y) at x[i] + d, for len(x) > 3: the
    slopes solve its tridiagonal system, the not-a-knot end rows included."""
    n = len(x)
    dx = np.diff(x)
    slope = np.diff(y) / dx
    ab = np.zeros((3, n))
    b = np.empty(n)
    ab[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    ab[0, 2:] = dx[:-1]
    ab[-1, :-2] = dx[1:]
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    w = x[2] - x[0]
    ab[1, 0], ab[0, 1] = dx[1], w
    b[0] = ((dx[0] + 2 * w) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / w
    w = x[-1] - x[-3]
    ab[1, -1], ab[-1, -2] = dx[-2], w
    b[-1] = (dx[-1]**2 * slope[-2] + (2 * w + dx[-1]) * dx[-2] * slope[-1]) / w
    dydx = solve_banded((1, 1), ab, b, overwrite_ab=True, overwrite_b=True, check_finite=False)
    return _hermite(x, y, dydx, i, d)


def _pchip(x, y, q):
    """scipy's PchipInterpolator(x, y, extrapolate=False)(q) for len(x) >= 3:
    NaN outside [x[0], x[-1]].

    Inner slopes are the weighted harmonic mean of the neighbouring secants
    (Fritsch & Carlson 1980), 0 where the secants change sign or one
    vanishes; the end slopes are the one-sided three-point estimate, set to 0
    against the sign of the first secant and capped at 3 times it where the
    secants change sign (Moler, Numerical Computing with MATLAB, 3.6).
    """
    hk = np.diff(x)
    mk = np.diff(y) / hk
    smk = np.sign(mk)
    flat = (smk[1:] != smk[:-1]) | (mk[1:] == 0) | (mk[:-1] == 0)
    w1 = 2 * hk[1:] + hk[:-1]
    w2 = hk[1:] + 2 * hk[:-1]
    dydx = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / mk[:-1] + w2 / mk[1:]) / (w1 + w2)
        dydx[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    h0, h1, m0, m1 = hk[[0, -1]], hk[[1, -2]], mk[[0, -1]], mk[[1, -2]]
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0))
    dydx[[0, -1]] = np.where(np.sign(d) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, d))
    return np.where((q >= x[0]) & (q <= x[-1]), _hermite(x, y, dydx, *_locate(x, q)), np.nan)


def reconstruct(u, t, y_grid, upsample=8):
    """Film profile h on y_grid from the parametric pairs (Y(t,x), x^3 + x^2).

    Monotone cubic interpolation in y; below the first resolved sample the
    film height is reported as zero. The contact line is Y0 = 6t + v(0+).
    The parametric samples are refined in s first (the wave profile is exact
    on the refined nodes and only the smooth, small v needs interpolating),
    which keeps third-derivative oracles of the output meaningful at large x
    where the raw spacing x h would be coarse. ``upsample`` is an integer >= 1.
    Both interpolants (not-a-knot cubic spline in s, pchip in y) equal scipy
    1.17.1's bitwise.
    """
    if not isinstance(upsample, numbers.Integral) or upsample < 1:
        raise GridError(f"upsample must be an integer >= 1, got {upsample!r}")
    grid = u.grid
    v = to_v(u)
    lipschitz_guard(v, "in the reconstruction (the height map may fold over)")
    x, i, d = _refined(grid, upsample)
    y_param = x + 6.0 * t + _not_a_knot(grid.s, v.values, i, d)
    if np.any(np.diff(y_param) <= 0):
        raise GuardError("non-monotone height map")
    y = np.asarray(y_grid, dtype=float)
    h = np.zeros(y.shape)
    finite = y[np.isfinite(y)]
    if finite.size:
        # pchip slopes are local (nodes k-1..k+1; one-sided only at the two
        # ends), so the interpolant on the samples that bracket the finite y,
        # with two more on each side, is the full one bitwise on that range
        lo = max(np.searchsorted(y_param, finite.min(), "right") - 3, 0)
        hi = np.searchsorted(y_param, finite.max(), "left") + 3
        xw = x[lo:hi]
        h = np.where(y < y_param[0], 0.0, _pchip(y_param[lo:hi], xw**3 + xw * xw, y))
        h = np.where(np.isnan(h), 0.0, h)
    return FilmReconstruction(y=y, h=h, contact_line=6.0 * t + contact_line_shift(u))
