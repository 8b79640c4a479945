"""Full nonlinearity, semi-implicit nonlinear evolution, film reconstruction.

The perturbation field u determines the coordinate perturbation
v = u/(3x^2 + 2x); the change of variables behind the whole formulation
stays invertible only while 1 + v_x > 0, so every nonlinear evaluation runs
behind a Lipschitz guard on sup |v_x|. The nonlinearity is evaluated in an
algebraically reduced form whose terms are all explicitly quadratic in v_x,
making the traveling wave and its contact-line shifts exact fixed points of
the discretization.
"""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PchipInterpolator

from . import evolution, resolvent, stencils
from . import grid as gridmod
from .errors import GuardError

LIPSCHITZ_THRESHOLD = 0.5
PICARD_TOL = 1e-10
PICARD_MAX = 25


@dataclass
class LipschitzReport:
    sup_vx: float
    threshold: float
    ok: bool


@dataclass
class FilmReconstruction:
    """Physical film profile h(y) at one time, in contact-line coordinates."""

    t: float
    y: np.ndarray
    h: np.ndarray
    contact_line: float  # Y0
    coefficients: tuple  # (u1, u2)


def to_v(u):
    """Coordinate perturbation v = u / (3x^2 + 2x)."""
    x = u.grid.x
    return gridmod.GridFunction(u.grid, u.values / (3.0 * x * x + 2.0 * x))


def _dx(values, grid):
    # d/dx = e^{-s} d/ds
    return grid.inv_x * stencils.apply_derivative(values, 1, grid.h)


def _dx_dx2(values, grid):
    # (d/dx, d^2/dx^2) = (e^{-s} D, e^{-2s} (D^2 - D)), sharing one D pass
    d1 = stencils.apply_derivative(values, 1, grid.h)
    d2 = stencils.apply_derivative(values, 2, grid.h)
    return grid.inv_x * d1, grid.inv_x2 * (d2 - d1)


def lipschitz_guard(v, threshold=LIPSCHITZ_THRESHOLD):
    vx = _dx(v.values, v.grid)
    sup = float(np.max(np.abs(vx)))
    return LipschitzReport(sup_vx=sup, threshold=threshold, ok=sup < threshold)


def eval_nonlinearity(u, threshold=LIPSCHITZ_THRESHOLD):
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
    v = to_v(u)
    vx = _dx(v.values, grid)
    sup = float(np.max(np.abs(vx)))
    if not sup < threshold:
        raise GuardError(f"sup |v_x| = {sup:.4f} exceeds threshold {threshold}")
    x = grid.x
    mob = 3.0 * x * x + 2.0 * x
    mob1 = 6.0 * x + 2.0
    inv = 1.0 / (1.0 + vx)
    w = vx * inv
    z = vx * w  # v_x^2 / (1 + v_x)

    lin = _dx_dx2(z * mob, grid)[1] + _dx(z * mob1, grid) + 6.0 * z
    t, dx2_wm = _dx_dx2(w * mob, grid)
    dx_wt = _dx(w * t, grid)
    quad = dx_wt + w * dx2_wm + w * _dx(w * mob1, grid) - w * dx_wt
    bracket = lin + quad
    return gridmod.GridFunction(grid, _dx((x**3 + x * x) * bracket, grid))


@dataclass
class NonlinearModel:
    """What evolution.run needs for the nonlinear problem u_t + A u = N(u)."""

    picard_tol: float = PICARD_TOL
    picard_max: int = PICARD_MAX
    threshold: float = LIPSCHITZ_THRESHOLD
    norm_N: int = 1
    norm_k: int = 3
    delta: float = 0.25

    def N(self, u):
        return eval_nonlinearity(u, self.threshold)

    def guard(self, u, j):
        """sup |v_x| after step j (0: initial data); GuardError when it fails."""
        rep = lipschitz_guard(to_v(u), self.threshold)
        if rep.ok:
            return rep.sup_vx
        if j == 0:
            raise GuardError("initial data fails the Lipschitz guard "
                             f"(sup |v_x| = {rep.sup_vx:.4f})")
        raise GuardError(f"Lipschitz guard tripped at step {j} "
                         f"(sup |v_x| = {rep.sup_vx:.4f})")

    def records(self, t, u):
        """(composite initial-data norm, contact line Y0 = 6t + v(0+))."""
        init_norm = gridmod.composite_init_norm(u, self.norm_N, self.norm_k, self.delta)
        return init_norm, 6.0 * t + contact_line_shift(u)


def run_nonlinear(u0, dt, T, picard_tol=PICARD_TOL, picard_max=PICARD_MAX,
                  threshold=LIPSCHITZ_THRESHOLD, alpha=0.25, k=2,
                  norm_N=1, norm_k=3, delta=0.25, store_every=1):
    """Semi-implicit evolution with an inner Picard iteration per step.

    u^{k+1} = (I + dt A)^{-1}(u^n + dt N(u^k)), from u^0 = 2u^n - u^(n-1) (the
    extrapolant of Ascher, Ruuth & Wetton 1995; u^n at the first step), until
    the successive-iterate max-norm delta drops below picard_tol, or the
    contraction rate theta < 1 gives theta / (1 - theta) * delta <= picard_tol
    (Hairer & Wanner, Solving ODEs II, IV.8); theta is carried over from the
    last step that measured it. A step that has not met either rule after
    picard_max iterations raises PicardError, whose message gives the budget,
    the last increment and the last measured rate: a slowly contracting
    iteration can exhaust the budget too.
    """
    model = NonlinearModel(picard_tol, picard_max, threshold, norm_N, norm_k, delta)
    return evolution.run(resolvent.assemble(u0.grid), u0, None, dt, T, alpha=alpha, k=k,
                         store_every=store_every, nonlinear=model)


def contact_line_shift(u):
    """v(0+): constant term of a quadratic-in-x fit of v on the left band."""
    return float(gridmod.fit_powers(to_v(u).values, u.grid, -np.inf, gridmod.FIT_BAND, 3)[0])


def reconstruct(u, t, y_grid, upsample=8):
    """Film profile h on y_grid from the parametric pairs (Y(t,x), x^3 + x^2).

    Monotone cubic interpolation in y; below the first resolved sample the
    film height is reported as zero. The contact line is Y0 = 6t + v(0+).
    The parametric samples are refined in s first (the wave profile is exact
    on the refined nodes and only the smooth, small v needs interpolating),
    which keeps third-derivative oracles of the output meaningful at large x
    where the raw spacing x h would be coarse.
    """
    grid = u.grid
    v = to_v(u)
    rep = lipschitz_guard(v)
    if not rep.ok:
        raise GuardError("Lipschitz guard fails; the height map may fold over")
    s_fine = np.linspace(grid.s_min, grid.s_max, upsample * (grid.n - 1) + 1)
    x = np.exp(s_fine)
    v_fine = CubicSpline(grid.s, v.values)(s_fine)
    y_param = x + 6.0 * t + v_fine
    if np.any(np.diff(y_param) <= 0):
        raise GuardError("non-monotone height map")
    height = x**3 + x * x
    interp = PchipInterpolator(y_param, height, extrapolate=False)
    y = np.asarray(y_grid, dtype=float)
    h = np.where(y < y_param[0], 0.0, interp(y))
    h = np.where(np.isnan(h), 0.0, h)
    y0 = 6.0 * t + contact_line_shift(u)
    u1, u2 = gridmod.extract_coefficients(u, 2)
    return FilmReconstruction(t=t, y=y, h=h, contact_line=y0, coefficients=(u1, u2))
