"""Logarithmic-coordinate discretization.

All spatial fields live on a uniform grid in s = ln x, where the
scaling-invariant derivative D = x d/dx becomes d/ds. The module provides
the D-derivative stencils, the weighted norms

    |w|_{k,a}^2 = sum_{j<=k} int e^{-2as} (d^j w/ds^j)^2 ds,

the composite solution/initial-data/right-hand-side norms built from them,
and left-edge expansion-coefficient extraction.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import stencils
from .errors import GridError

DEFAULT_S_MIN = -12.0
DEFAULT_S_MAX = 4.0
DEFAULT_N = 1025
FIT_BAND = 2.0
RESOLVED_S_MIN = -6.0  # contact-line fits need s_min at or below this (x << 1)


@functools.lru_cache(maxsize=64)
def _coords(s_min, s_max, n):
    """Read-only (s, e^s, e^{-s}, e^{-2s}) of one grid, computed once."""
    s = np.linspace(s_min, s_max, n)
    out = (s, np.exp(s), np.exp(-s), np.exp(-2.0 * s))
    for a in out:
        a.flags.writeable = False
    return out


@functools.lru_cache(maxsize=128)
def _exp_s(s_min, s_max, n, a):
    """Read-only e^{a s} of one grid, computed once per (grid, a)."""
    w = np.exp(a * _coords(s_min, s_max, n)[0])
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in s = ln x."""

    s_min: float = DEFAULT_S_MIN
    s_max: float = DEFAULT_S_MAX
    n: int = DEFAULT_N

    def __post_init__(self):
        if not self.s_min < self.s_max:
            raise GridError("s_min must be below s_max")
        if self.n < 16:
            raise GridError("need at least 16 nodes")

    @property
    def h(self):
        return (self.s_max - self.s_min) / (self.n - 1)

    @property
    def s(self):
        return _coords(self.s_min, self.s_max, self.n)[0]

    @property
    def x(self):
        return _coords(self.s_min, self.s_max, self.n)[1]

    @property
    def inv_x(self):
        """e^{-s} = 1/x, evaluated as exp(-s)."""
        return _coords(self.s_min, self.s_max, self.n)[2]

    @property
    def inv_x2(self):
        """e^{-2s} = 1/x^2, evaluated as exp(-2 s)."""
        return _coords(self.s_min, self.s_max, self.n)[3]

    def exp(self, a):
        """e^{a s}: the norm weights x^a, read-only and computed once per (grid, a)."""
        return _exp_s(self.s_min, self.s_max, self.n, a)

    def refine(self, factor=2):
        """Same span with (n-1)*factor intervals; existing nodes are kept."""
        return LogGrid(self.s_min, self.s_max, (self.n - 1) * factor + 1)


class GridFunction:
    """Real samples on a LogGrid. Values are immutable after construction."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.array(values, dtype=float)
        if values.shape != (grid.n,):
            raise GridError(f"expected {grid.n} values, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise GridError("grid function values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")

    def _compatible(self, other):
        if self.grid != other.grid:
            raise GridError("arithmetic between functions on different grids")

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._compatible(other)
            return GridFunction(self.grid, self.values + other.values)
        return GridFunction(self.grid, self.values + other)

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._compatible(other)
            return GridFunction(self.grid, self.values - other.values)
        return GridFunction(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._compatible(other)
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def __neg__(self):
        return GridFunction(self.grid, -self.values)


def from_callable(grid, fn):
    """Sample fn(x) on the grid (fn takes the physical coordinate x)."""
    return GridFunction(grid, fn(grid.x))


def zero(grid):
    return GridFunction(grid, np.zeros(grid.n))


def monomial(grid, j):
    """Samples of x^j."""
    return GridFunction(grid, np.exp(j * grid.s))


@dataclass(frozen=True)
class NormSpec:
    """Weighted-norm request: k derivatives at weight alpha.

    ``sub`` expansion terms (u_1 x + ... + u_sub x^sub, coefficients fitted at
    the left edge) are subtracted first. N and delta parametrize composite
    norms and are optional for plain requests.
    """

    k: int
    alpha: float
    sub: int = 0
    N: int = 1
    delta: float = 0.25

    def __post_init__(self):
        if self.k < 0 or self.sub < 0:
            raise GridError("k and sub must be non-negative")
        if not 0 < self.delta < 0.5:
            raise GridError("delta must lie in (0, 1/2)")
        if self.sub > 2 * self.N + 1:
            raise GridError("sub exceeds 2N+1")


def d_derivative(w, j):
    """j-th scaling-invariant derivative D^j w = d^j w/ds^j, j in 1..4.

    Fourth-order centered stencils in the interior, shifted one-sided
    stencils of the same order at the edge nodes.
    """
    if not 1 <= j <= 4:
        raise GridError("d_derivative supports j in 1..4")
    return GridFunction(w.grid, stencils.apply_derivative(w.values, j, w.grid.h))


def ds_any(values, j, h):
    """d^j/ds^j for any j >= 0 by composing fourth-order applications."""
    out = np.asarray(values, dtype=float)
    while j > 4:
        out = stencils.apply_derivative(out, 4, h)
        j -= 4
    if j > 0:
        out = stencils.apply_derivative(out, j, h)
    return out


def shifted_derivative(w, a):
    """(D - a) w."""
    return GridFunction(w.grid, stencils.apply_derivative(w.values, 1, w.grid.h) - a * w.values)


@functools.lru_cache(maxsize=64)
def _fit_matrix(s_min, s_max, n, lo, hi, terms):
    """Band s_min+lo <= s <= s_min+hi as a node slice, and the read-only L with
    coefficients = y[sl] @ L.T of the least-squares fit of sum_{j<terms} c_j x^j.

    L is the pseudo-inverse of the column-normalized design [1, x, ...,
    x^(terms-1)], with the normalization divided back out.
    """
    if s_min > RESOLVED_S_MIN:
        raise GridError(f"grid does not resolve x << 1 (need s_min <= {RESOLVED_S_MIN:g})")
    s, x = _coords(s_min, s_max, n)[:2]
    nodes = np.flatnonzero((s >= s_min + lo) & (s <= s_min + hi))
    if nodes.size < max(8, terms + 2):
        raise GridError("fit band too coarse near the contact line")
    sl = slice(nodes[0], nodes[-1] + 1)
    a = x[sl, None] ** np.arange(terms)
    scale = np.max(np.abs(a), axis=0)
    if not np.all(scale > 0) or np.linalg.matrix_rank(a / scale) < terms:
        raise GridError("singular fit matrix near the contact line")
    L = np.linalg.pinv(a / scale) / scale[:, None]
    L.flags.writeable = False
    return sl, L


def fit_powers(y, grid, lo, hi, terms):
    """Coefficients c_0..c_{terms-1} of sum c_j x^j fitted to y on the band
    s_min+lo <= s <= s_min+hi; y is one field or a (steps, n) stack."""
    sl, L = _fit_matrix(grid.s_min, grid.s_max, grid.n, lo, hi, terms)
    # one matrix-vector product per row: a stacked fit equals its per-row fits bitwise
    return (L @ y[..., sl, None])[..., 0]


def _fit_expansion(values, grid, order, fit_band):
    """Coefficients c_1..c_order of sum c_j x^j on the left band, per row of values.

    Dividing by x turns the e^{-2s}-weighted fit of sum c_j x^j into a plain
    fit of sum c_j x^{j-1}.
    """
    return fit_powers(grid.inv_x * values, grid, -np.inf, fit_band, order)


def extract_coefficients(w, order, fit_band=FIT_BAND):
    """Leading expansion coefficients (u_1 .. u_order) of w = u_1 x + u_2 x^2 + ...

    Weighted least squares of c1 e^s + c2 e^{2s} + c3 e^{3s} over the nodes
    with s <= s_min + fit_band, weights e^{-2s}. The grid must resolve the
    contact-line region (s_min <= -6).
    """
    if not 1 <= order <= 3:
        raise GridError("extract_coefficients supports order 1..3")
    return tuple(_fit_expansion(w.values, w.grid, 3, fit_band))[:order]


def subtract_expansion(w, sub, fit_band=FIT_BAND):
    """w minus its fitted expansion u_1 x + ... + u_sub x^sub."""
    if sub == 0:
        return w
    coeffs = extract_coefficients(w, min(sub, 3), fit_band=fit_band)
    return GridFunction(w.grid, _minus_expansion(w.values, coeffs, w.grid))


def _minus_expansion(values, coeffs, grid):
    """values - c_1 x - c_2 x^2 - ..., one term at a time."""
    out = values.copy()
    for j, c in enumerate(coeffs, start=1):
        out -= c * grid.exp(j)
    return out


def _norm_sq(values, k, alpha, grid):
    """|values|_{k,alpha}^2 = sum_{j<=k} trapezoid(e^{-2 alpha s} (d^j values/ds^j)^2)."""
    weight = grid.exp(-2.0 * alpha)
    total = 0.0
    for j in range(k + 1):
        dj = values if j == 0 else ds_any(values, j, grid.h)
        total += stencils.trapezoid(weight * dj * dj, grid.h)
    return max(total, 0.0)


def weighted_norm(w, spec, fit_band=FIT_BAND):
    """|w|_{k,alpha}, trapezoid quadrature, expansion subtracted when sub > 0."""
    v = subtract_expansion(w, spec.sub, fit_band=fit_band) if spec.sub else w
    return float(np.sqrt(_norm_sq(v.values, spec.k, spec.alpha, w.grid)))


def index_sets(N, delta):
    """Index triples (alpha, l, m) defining the composite norms.

    The first set runs over alpha in {delta, 1+delta} with l + m <= N - floor(alpha);
    the second adds the triples whose weight is shifted down by 1/2.
    """
    first = []
    for alpha in (delta, 1.0 + delta):
        budget = N - int(np.floor(alpha))
        for l in range(budget + 1):
            for m in range(budget + 1 - l):
                first.append((alpha, l, m))
    second = list(first)
    for alpha, l, m in first:
        second.append((alpha - 0.5, l, m))
    return first, second


def _init_terms(N, k, delta):
    """Distinct (sub, weight) pairs of the initial-data norm, k_norm = k+4N+1."""
    first, _ = index_sets(N, delta)
    pairs = set()
    for alpha, _l, m in first:
        fl = int(np.floor(alpha))
        for r in range(m + 1):
            pairs.add((fl + m + r, alpha + m + r))
    return sorted(pairs)


def composite_init_norm(w, N, k, delta, fit_band=FIT_BAND):
    if N > 2:
        raise GridError("composite norms implemented for N <= 2 only")
    coeffs = _fit_expansion(w.values, w.grid, _TRACK_ORDER, fit_band)
    kn = k + 4 * N + 1
    total = 0.0
    for sub, alpha in _init_terms(N, k, delta):
        v = _minus_expansion(w.values, coeffs[:sub], w.grid)
        total += weighted_norm(GridFunction(w.grid, v), NormSpec(kn, alpha))**2
    return float(np.sqrt(total))


def _traj_arrays(traj):
    times = np.array([t for t, _ in traj], dtype=float)
    if times.size < 3:
        raise GridError("trajectory shorter than the time-difference stencil")
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-8, atol=0.0):
        raise GridError("composite norms require uniformly stored steps")
    grid = traj[0][1].grid
    values = np.stack([gf.values for _, gf in traj])
    return times, values, grid


def _time_derivative(values, dt, order):
    """Second-order time differences along axis 0 (one-sided at the ends)."""
    out = values
    for _ in range(order):
        d = np.empty_like(out)
        d[1:-1] = (out[2:] - out[:-2]) / (2 * dt)
        d[0] = (-3 * out[0] + 4 * out[1] - out[2]) / (2 * dt)
        d[-1] = (3 * out[-1] - 4 * out[-2] + out[-3]) / (2 * dt)
        out = d
    return out


_TRACK_ORDER = 5  # sol norms with N = 2 subtract expansion terms up to x^5


def _norm_series(values, coeffs, grid, kn, alpha, sub):
    """|w(t) - sum_{j<=sub} c_j(t) x^j|_{kn,alpha}^2 at every stored step."""
    return np.array([_norm_sq(_minus_expansion(v, c[:sub], grid), kn, alpha, grid)
                     for v, c in zip(values, coeffs)])


def _sup(series):
    return float(np.max(series))


def _time_integral(series, dt):
    return float(stencils.trapezoid(series, dt))


def _underline(values, grid):
    return values / (grid.x + 1.0)[None, :]


def _underline_coeffs(coeffs):
    # (w/(x+1))_j = sum_{i<=j} (-1)^{j-i} w_i for w vanishing at x = 0.
    out = np.empty_like(coeffs)
    for j in range(coeffs.shape[1]):
        out[:, j] = sum((-1)**(j - i) * coeffs[:, i] for i in range(j + 1))
    return out


def composite_sol_norm(traj, N, k, delta, fit_band=FIT_BAND):
    """Solution norm of a stored trajectory (time suprema over stored steps)."""
    if N > 2:
        raise GridError("composite norms implemented for N <= 2 only")
    times, values, grid = _traj_arrays(traj)
    dt = times[1] - times[0]
    first, second = index_sets(N, delta)
    coeffs = _fit_expansion(values, grid, _TRACK_ORDER, fit_band)
    under = _underline(values, grid)
    under_coeffs = _underline_coeffs(coeffs)

    dvalues = {0: values}
    dunder = {0: under}
    dcoeffs = {0: coeffs}
    ducoeffs = {0: under_coeffs}
    for l in range(1, N + 2):
        dvalues[l] = _time_derivative(values, dt, l)
        dunder[l] = _time_derivative(under, dt, l)
        dcoeffs[l] = _time_derivative(coeffs, dt, l)
        ducoeffs[l] = _time_derivative(under_coeffs, dt, l)

    total = 0.0
    seen = set()
    for alpha, l, m in first:
        fl = int(np.floor(alpha))
        kn = k + 4 * (N - l) + 1
        for r in range(m + 1):
            key = ("sup", l, fl + m + r, alpha + m + r, kn)
            if key in seen:
                continue
            seen.add(key)
            total += _sup(_norm_series(dvalues[l], dcoeffs[l], grid, kn,
                                       alpha + m + r, fl + m + r))
    for alpha, l, m in second:
        fl = int(np.floor(alpha))
        for r in range(m + 1):
            kn = k + 4 * (N - l) - 1
            sub = max(fl + m + r - 1, 0)
            key = ("iu", l + 1, sub, alpha + m + r - 1, kn)
            if key not in seen:
                seen.add(key)
                total += _time_integral(
                    _norm_series(dunder[l + 1], ducoeffs[l + 1], grid, kn,
                                 alpha + m + r - 1, sub), dt)
            kn = k + 4 * (N - l) + 3
            key = ("ih", l, fl + m + r + 1, alpha + m + r + 1, kn)
            if key not in seen:
                seen.add(key)
                total += _time_integral(
                    _norm_series(dvalues[l], dcoeffs[l], grid, kn,
                                 alpha + m + r + 1, fl + m + r + 1), dt)
    return float(np.sqrt(total))


def composite_rhs_norm(traj, N, k, delta, fit_band=FIT_BAND):
    """Right-hand-side norm of a stored trajectory."""
    if N > 2:
        raise GridError("composite norms implemented for N <= 2 only")
    times, values, grid = _traj_arrays(traj)
    dt = times[1] - times[0]
    coeffs = _fit_expansion(values, grid, _TRACK_ORDER, fit_band)
    under = _underline(values, grid)
    under_coeffs = _underline_coeffs(coeffs)

    dvalues = {0: values}
    dunder = {0: under}
    dcoeffs = {0: coeffs}
    ducoeffs = {0: under_coeffs}
    for l in range(1, N + 1):
        dvalues[l] = _time_derivative(values, dt, l)
        dunder[l] = _time_derivative(under, dt, l)
        dcoeffs[l] = _time_derivative(coeffs, dt, l)
        ducoeffs[l] = _time_derivative(under_coeffs, dt, l)

    total = 0.0
    seen = set()
    if N >= 1:
        first_lower, _ = index_sets(N - 1, delta)
        for alpha, l, m in first_lower:
            fl = int(np.floor(alpha))
            kn = k + 4 * (N - l) - 3
            for r in range(m + 1):
                key = ("sup", l, fl + m + r, alpha + m + r, kn)
                if key in seen:
                    continue
                seen.add(key)
                total += _sup(_norm_series(dvalues[l], dcoeffs[l], grid, kn,
                                           alpha + m + r, fl + m + r))
    _, second = index_sets(N, delta)
    for alpha, l, m in second:
        fl = int(np.floor(alpha))
        kn = k + 4 * (N - l) - 1
        for r in range(m + 1):
            sub = max(fl + m + r - 1, 0)
            key = ("iu", l, sub, alpha + m + r - 1, kn)
            if key in seen:
                continue
            seen.add(key)
            total += _time_integral(
                _norm_series(dunder[l], ducoeffs[l], grid, kn,
                             alpha + m + r - 1, sub), dt)
    return float(np.sqrt(total))


def composite_norm(data, which, N, k, delta, fit_band=FIT_BAND):
    """Composite norm dispatcher; ``which`` in {"sol", "init", "rhs"}.

    "init" takes a single GridFunction, the others a stored trajectory of
    (t, GridFunction) pairs with uniform steps.
    """
    if which == "init":
        return composite_init_norm(data, N, k, delta, fit_band=fit_band)
    if which == "sol":
        return composite_sol_norm(data, N, k, delta, fit_band=fit_band)
    if which == "rhs":
        return composite_rhs_norm(data, N, k, delta, fit_band=fit_band)
    raise GridError(f"unknown composite norm '{which}'")
