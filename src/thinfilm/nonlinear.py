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


@functools.lru_cache(maxsize=16)
def _mobility(grid):
    """Read-only (m, m', x^3 + x^2) of one grid, m = 3x^2 + 2x, computed once."""
    x = grid.x
    out = (3.0 * x * x + 2.0 * x, 6.0 * x + 2.0, x**3 + x * x)
    for a in out:
        a.flags.writeable = False
    return out


def _v(values, grid):
    """The values of v = u / (3x^2 + 2x) from those of u: the one change of variables."""
    return values / _mobility(grid)[0]


def _dx(values, grid):
    # d/dx = e^{-s} d/ds
    d = stencils.apply_derivative(values, 1, grid.h)
    d *= grid.inv_x
    return d


def _vx(values, grid):
    """v_x of the coordinate perturbation v = u / (3x^2 + 2x), from the values of u."""
    return _dx(_v(values, grid), grid)


def lipschitz_guard(vx, where):
    """sup |v_x| of the values vx; GuardError naming ``where`` unless it is below
    LIPSCHITZ_THRESHOLD. The one guard comparison: N(u), every step, the initial
    data and each reconstruction go through it."""
    sup = float(np.abs(vx).max())
    if not sup < LIPSCHITZ_THRESHOLD:
        raise GuardError(f"Lipschitz guard tripped {where}: sup |v_x| = {sup:.4f} "
                         f"is not below {LIPSCHITZ_THRESHOLD}")
    return sup


def _nonlinearity(values, grid):
    """N(u) of the values of u on grid, as values: the one implementation.

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
    no O(1) cancellation is left to floating point. The intermediate fields are
    scaled and summed in place, each sum and product with the operands and
    grouping of the written bracket, so the result does not depend on it.
    """
    mob, mob1, height = _mobility(grid)
    vx = _vx(values, grid)
    lipschitz_guard(vx, "in N(u)")
    inv = 1.0 + vx
    np.divide(1.0, inv, out=inv)
    zw = np.empty((2, grid.n))
    z, w = zw
    np.multiply(vx, inv, out=w)
    np.multiply(vx, w, out=z)  # v_x^2 / (1 + v_x)

    # d/dx = e^{-s} D and d^2/dx^2 = e^{-2s} (D^2 - D); the fields that do not
    # depend on each other are stacked: D of (z m, w m, z m', w m') in one call,
    # D^2 of (z m, w m) in another
    fields = np.empty((4, grid.n))
    np.multiply(zw, mob, out=fields[:2])
    np.multiply(zw, mob1, out=fields[2:])
    d1 = stencils.apply_derivative(fields, 1, grid.h)
    d2 = stencils.apply_derivative(fields[:2], 2, grid.h)
    d2 -= d1[:2]
    d2 *= grid.inv_x2
    d1 *= grid.inv_x
    dx_zm, t, dx_zm1, dx_wm1 = d1
    dx2_zm, dx2_wm = d2
    lin = dx2_zm  # dx^2(z m) + dx(z m') + 6 z
    lin += dx_zm1
    z *= 6.0
    lin += z
    t *= w
    dx_wt = _dx(t, grid)
    quad = dx2_wm  # dx(w t) + w dx^2(w m) + w dx(w m') - w dx(w t), t = dx(w m)
    quad *= w
    np.add(dx_wt, quad, out=quad)
    dx_wm1 *= w
    quad += dx_wm1
    dx_wt *= w
    quad -= dx_wt
    lin += quad  # the bracket
    lin *= height
    return _dx(lin, grid)


def eval_nonlinearity(u):
    """N(u) of a GridFunction, as one: the public form of ``_nonlinearity``."""
    return gridmod.GridFunction(u.grid, _nonlinearity(u.values, u.grid))


@dataclass
class NonlinearModel:
    """What evolution.run needs for the nonlinear problem u_t + A u = N(u).

    The Picard iteration runs on value arrays: ``N(values, grid)`` takes the
    values of an iterate and returns those of N(u), a new array of shape (n,)
    the caller may overwrite, and need not be finite; the solve output built
    from it is checked. ``guard(u, j)`` takes the GridFunction of step j.
    """

    picard_tol = PICARD_TOL  # class attributes, not fields: the stopping rule is fixed
    picard_max = PICARD_MAX
    norm_N: int = 1
    norm_k: int = 3
    delta: float = 0.25

    def N(self, values, grid):
        return _nonlinearity(values, grid)

    def guard(self, u, j):
        """sup |v_x| after step j (0: initial data); GuardError when it fails."""
        return lipschitz_guard(_vx(u.values, u.grid),
                               "on the initial data" if j == 0 else f"at step {j}")

    def records(self, t, values, grid):
        """(composite initial-data norms, contact lines Y0 = 6t + v(0+)) of a (steps, n)
        stack of stored steps at times t, two arrays of shape (steps,).

        evolution.run hands over up to grid.STEP_STACK stored steps at a time; the
        norm takes one stencil call per derivative order per stack, and each entry
        equals that of its row alone bitwise.
        """
        init_norm = gridmod.composite_init_norm(values, grid, self.norm_N, self.norm_k,
                                                self.delta)
        return init_norm, 6.0 * np.asarray(t) + contact_line_shift(values, grid)


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


def contact_line_shift(values, grid):
    """v(0+) of one field's values or of each row of a (steps, n) stack: the constant
    term of a quadratic-in-x fit of v = u/(3x^2 + 2x) on the left band; GridError
    unless it is finite (grid.fit_powers)."""
    return gridmod.fit_powers(_v(values, grid), grid, -np.inf, gridmod.FIT_BAND)[..., 0]


def _locate(x, q):
    """(i, q - x[i]): the interval i of each q, x[i] <= q < x[i+1], the end
    intervals extended beyond x."""
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
    """(value, slope) at x[i] + d of the piecewise cubic through (x, y) with slopes dydx.

    Each piece depends on its two end samples alone, so a slice of the samples
    that holds the pieces in i gives the same values as the whole.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    c2 = (3.0 * slope - 2.0 * dydx[:-1] - dydx[1:]) / dx
    c3 = (dydx[:-1] + dydx[1:] - 2.0 * slope) / (dx * dx)
    y0, m0, c2, c3 = np.stack((y[:-1], dydx[:-1], c2, c3)).take(i, axis=1)
    return y0 + d * (m0 + d * (c2 + d * c3)), m0 + d * (2.0 * c2 + 3.0 * d * c3)


def reconstruct(u, t, y_grid, upsample=8):
    """Film profile h on y_grid from the parametric pairs (Y(t,x), x^3 + x^2).

    The film is h = x^3 + x^2 at y = x + 6t + v(x). The parametric samples
    are taken on s refined by ``upsample`` (an integer >= 1): v and its slope
    there come from the cubic Hermite interpolant of v through the grid values
    with the fourth-order D^1 stencil slopes. h is then the cubic Hermite
    interpolant in y through those samples with the exact slopes
    dh/dy = (3x^3 + 2x^2) / (dy/ds), dy/ds = x + v_s. Below the first sample,
    past the last and at a NaN y the film height is reported as zero.
    """
    if not isinstance(upsample, numbers.Integral) or upsample < 1:
        raise GridError(f"upsample must be an integer >= 1, got {upsample!r}")
    if not np.isfinite(t):
        raise GridError(f"reconstruction time t must be finite, got {t!r}")
    grid = u.grid
    v = _v(u.values, grid)
    vs = stencils.apply_derivative(v, 1, grid.h)
    lipschitz_guard(grid.inv_x * vs, "in the reconstruction (the height map may fold over)")
    x, i, d = _refined(grid, upsample)
    v_fine, vs_fine = _hermite(grid.s, v, vs, i, d)
    y_param = x + 6.0 * t + v_fine
    dy_ds = x + vs_fine
    if np.any(dy_ds <= 0) or np.any(np.diff(y_param) <= 0):
        raise GuardError("non-monotone height map")
    y = np.asarray(y_grid, dtype=float)
    h = np.zeros(y.shape)
    inside = (y >= y_param[0]) & (y <= y_param[-1])
    i, d = _locate(y_param, y[inside])
    if i.size:
        # only the pieces that hold a requested y are built
        w = slice(i.min(), i.max() + 2)
        xw = x[w]
        h[inside] = _hermite(y_param[w], xw**3 + xw * xw, (3.0 * xw**3 + 2.0 * xw * xw) / dy_ds[w],
                             i - w.start, d)[0]
    return FilmReconstruction(y=y, h=h)
