"""Logarithmic-coordinate discretization.

All spatial fields live on a uniform grid in s = ln x, where the
scaling-invariant derivative D = x d/dx becomes d/ds. The module provides
the D-derivative stencils, the weighted norms

    |w|_{k,a}^2 = sum_{j<=k} int e^{-2as} (d^j w/ds^j)^2 ds,

the composite solution/initial-data/right-hand-side norms built from them,
and left-edge expansion-coefficient extraction. Each composite norm is a list
of terms (time supremum or time integral of one weighted norm of a time
difference, with its expansion subtracted) that one evaluator, _composite,
sums; the initial-data norm is the one-step case.
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


def zero(grid):
    return GridFunction(grid, np.zeros(grid.n))


def monomial(grid, j):
    """Samples of x^j."""
    return GridFunction(grid, np.exp(j * grid.s))


@dataclass(frozen=True)
class NormSpec:
    """Weighted-norm request: k derivatives at weight alpha.

    ``sub`` expansion terms (u_1 x + ... + u_sub x^sub, coefficients fitted at
    the left edge, at most the 3 that extract_coefficients fits) are
    subtracted first.
    """

    k: int
    alpha: float
    sub: int = 0

    def __post_init__(self):
        if self.k < 0:
            raise GridError("k must be non-negative")
        if not 0 <= self.sub <= 3:
            raise GridError("sub must lie in 0..3")


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


def _fit_expansion(values, grid, order):
    """Coefficients c_1..c_order of sum c_j x^j on the left band, per row of values.

    Dividing by x turns the e^{-2s}-weighted fit of sum c_j x^j into a plain
    fit of sum c_j x^{j-1}.
    """
    return fit_powers(grid.inv_x * values, grid, -np.inf, FIT_BAND, order)


def extract_coefficients(w, order):
    """Leading expansion coefficients (u_1 .. u_order) of w = u_1 x + u_2 x^2 + ...

    Weighted least squares of c1 e^s + c2 e^{2s} + c3 e^{3s} over the nodes
    with s <= s_min + FIT_BAND, weights e^{-2s}. The grid must resolve the
    contact-line region (s_min <= -6).
    """
    if not 1 <= order <= 3:
        raise GridError("extract_coefficients supports order 1..3")
    return tuple(_fit_expansion(w.values, w.grid, 3))[:order]


def subtract_expansion(w, sub):
    """w minus its fitted expansion u_1 x + ... + u_sub x^sub, sub in 0..3."""
    if sub == 0:
        return w
    coeffs = extract_coefficients(w, sub)
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


def weighted_norm(w, spec):
    """|w|_{k,alpha}, trapezoid quadrature, expansion subtracted when sub > 0."""
    v = subtract_expansion(w, spec.sub) if spec.sub else w
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


def _weight_shifts(triples):
    """(l, floor(alpha) + m + r, alpha + m + r) of each index triple (alpha, l, m), r = 0..m."""
    for alpha, l, m in triples:
        for r in range(m + 1):
            yield l, int(np.floor(alpha)) + m + r, alpha + m + r


def _require_small_N(N):
    if N > 2:
        raise GridError("composite norms implemented for N <= 2 only")


def composite_init_norm(w, N, k, delta):
    """Initial-data norm: the distinct |w - u_1 x - ... - u_sub x^sub|_{k+4N+1,beta}
    with (sub, beta) = (floor(alpha) + m + r, alpha + m + r) over the first index
    set, r = 0..m, summed in squares in sorted (sub, beta) order."""
    _require_small_N(N)
    kn = k + 4 * N + 1
    pairs = sorted({(sub, beta) for _l, sub, beta in _weight_shifts(index_sets(N, delta)[0])})
    return _composite(w.values[None, :], 0.0, w.grid,
                      [("sup", "u", 0, sub, beta, kn) for sub, beta in pairs])


def _traj_arrays(traj):
    """(values stacked over steps, step, grid) of a stored trajectory with uniform steps."""
    times = np.array([t for t, _ in traj], dtype=float)
    if times.size < 3:
        raise GridError("trajectory shorter than the time-difference stencil")
    dt = np.diff(times)
    if not np.allclose(dt, dt[0], rtol=1e-8, atol=0.0):
        raise GridError("composite norms require uniformly stored steps")
    return np.stack([gf.values for _, gf in traj]), times[1] - times[0], traj[0][1].grid


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


def _underline_coeffs(coeffs):
    # (w/(x+1))_j = sum_{i<=j} (-1)^{j-i} w_i for w vanishing at x = 0.
    out = np.empty_like(coeffs)
    for j in range(coeffs.shape[1]):
        out[:, j] = sum((-1)**(j - i) * coeffs[:, i] for i in range(j + 1))
    return out


def _composite(values, dt, grid, terms):
    """sqrt of the sum of the distinct terms over a (steps, n) stack of values.

    A term (reduction, field, l, sub, alpha, kn) is the max over steps
    (reduction "sup") or the trapezoid in time ("int") of
    |d^l/dt^l f - sum_{j<=sub} c_j x^j|_{kn,alpha}^2, where f is the stored
    field ("u") or the field divided by x+1 ("under") and c_j its fitted
    expansion coefficients. Duplicates count once, in first-encounter order;
    each (field, l) time difference is taken once.
    """
    coeffs = _fit_expansion(values, grid, _TRACK_ORDER)
    fields = {}
    total = 0.0
    for reduction, field, l, sub, alpha, kn in dict.fromkeys(terms):
        if (field, l) not in fields:
            v, c = values, coeffs
            if field == "under":
                v, c = values / (grid.x + 1.0)[None, :], _underline_coeffs(coeffs)
            fields[field, l] = (_time_derivative(v, dt, l), _time_derivative(c, dt, l))
        series = _norm_series(*fields[field, l], grid, kn, alpha, sub)
        if reduction == "sup":
            total += float(np.max(series))
        else:
            total += float(stencils.trapezoid(series, dt))
    return float(np.sqrt(total))


def composite_sol_norm(traj, N, k, delta):
    """Solution norm of a stored trajectory (time suprema over stored steps)."""
    _require_small_N(N)
    values, dt, grid = _traj_arrays(traj)
    first, second = index_sets(N, delta)
    terms = [("sup", "u", l, sub, beta, k + 4 * (N - l) + 1)
             for l, sub, beta in _weight_shifts(first)]
    for l, sub, beta in _weight_shifts(second):
        terms += [("int", "under", l + 1, max(sub - 1, 0), beta - 1, k + 4 * (N - l) - 1),
                  ("int", "u", l, sub + 1, beta + 1, k + 4 * (N - l) + 3)]
    return _composite(values, dt, grid, terms)


def composite_rhs_norm(traj, N, k, delta):
    """Right-hand-side norm of a stored trajectory."""
    _require_small_N(N)
    values, dt, grid = _traj_arrays(traj)
    # index_sets(-1, delta) is empty: N = 0 has no supremum terms
    terms = [("sup", "u", l, sub, beta, k + 4 * (N - l) - 3)
             for l, sub, beta in _weight_shifts(index_sets(N - 1, delta)[0])]
    terms += [("int", "under", l, max(sub - 1, 0), beta - 1, k + 4 * (N - l) - 1)
              for l, sub, beta in _weight_shifts(index_sets(N, delta)[1])]
    return _composite(values, dt, grid, terms)
