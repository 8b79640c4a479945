"""Logarithmic-coordinate discretization.

All spatial fields live on a uniform grid in s = ln x, where the
scaling-invariant derivative D = x d/dx becomes d/ds. The module provides
the tower of D-derivatives of every order, the weighted norms

    |w|_{k,a}^2 = sum_{j<=k} int e^{-2as} (d^j w/ds^j)^2 ds,

the composite solution/initial-data/right-hand-side norms built from them,
and left-edge expansion-coefficient extraction. Each composite norm is a list
of terms (time supremum or time integral of one weighted norm of a time
difference, with its expansion subtracted) that one evaluator, _composite,
sums; the initial-data norm sums the same series per step. Every weighted
square comes from one series, _norm_series: the rows of one time difference
and derivative count, one per (subtraction order, weight) and stored step,
are differentiated as one stack, STEP_STACK stored steps at a time.
Every fit and norm is evaluated under one finiteness rule, _finite: a value that
overflows is a GridError, never NaN or inf data.
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from . import stencils
from .errors import GridError

DEFAULT_S_MIN = -12.0
DEFAULT_S_MAX = 4.0
DEFAULT_N = 1025
SOLVER_MIN_NODES = 64  # fewest nodes resolvent assembly, and so every configured grid, takes
FIT_BAND = 2.0
RESOLVED_S_MIN = -6.0  # contact-line fits need s_min at or below this (x << 1)
# the widest window a configuration takes: beyond it the lab's tables overflow (the
# largest float is e^709.78). The norms subtract x^5, e^{5 s_max}; their five-term fit
# of u/x meets 1/x times 1/x^4 across its band, e^{-5 s_min - 8}. Each bound keeps a
# margin of e^9.7 or more for the data and the fits' conditioning
S_MIN_LIMIT = -140.0
S_MAX_LIMIT = 140.0
# stored steps per stack of a norm series and of a run's stored-step records: one
# stencil call per derivative order per stack (16 and 32 were not measurably faster,
# and raised peak RSS by 0.8 and 3 MB)
STEP_STACK = 8


@functools.lru_cache(maxsize=64)
def _s(s_min, s_max, n):
    """Read-only nodes s of one grid, computed once."""
    s = np.linspace(s_min, s_max, n)
    s.flags.writeable = False
    return s


@functools.lru_cache(maxsize=128)
def _exp_s(s_min, s_max, n, a):
    """Read-only e^{a s} of one grid, computed once per (grid, a): the one table
    of x = e^s, 1/x, 1/x^2, the monomials and the norm weights."""
    w = np.exp(a * _s(s_min, s_max, n))
    w.flags.writeable = False
    return w


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in s = ln x."""

    s_min: float = DEFAULT_S_MIN
    s_max: float = DEFAULT_S_MAX
    n: int = DEFAULT_N

    def __post_init__(self):
        if not np.isfinite(float(self.s_max) - float(self.s_min)):  # needs finite bounds
            raise GridError(f"s_min and s_max must be finite, and so must s_max - s_min, "
                            f"got {self.s_min!r}, {self.s_max!r}")
        if not self.s_min < self.s_max:
            raise GridError("s_min must be below s_max")
        if not isinstance(self.n, numbers.Integral):
            raise GridError(f"n must be an integer, got {self.n!r}")
        if self.n < 16:
            raise GridError("need at least 16 nodes")

    # h, 1/x and 1/x^2 are read on every nonlinear step, so each instance keeps
    # them (in its __dict__, which equality and hashing do not read); s and x stay
    # plain properties
    @functools.cached_property
    def h(self):
        return (self.s_max - self.s_min) / (self.n - 1)

    @property
    def s(self):
        return _s(self.s_min, self.s_max, self.n)

    @property
    def x(self):
        return self.exp(1.0)

    @functools.cached_property
    def inv_x(self):
        """e^{-s} = 1/x, evaluated as exp(-s)."""
        return self.exp(-1.0)

    @functools.cached_property
    def inv_x2(self):
        """e^{-2s} = 1/x^2, evaluated as exp(-2 s)."""
        return self.exp(-2.0)

    def exp(self, a):
        """e^{a s}: the norm weights x^a, read-only and computed once per (grid, a)."""
        return _exp_s(self.s_min, self.s_max, self.n, a)


class GridFunction:
    """Real samples on a LogGrid: an immutable, validated record with no arithmetic.
    Fields combine through ``.values``; solver entries check grids (require_grid)."""

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
        values = np.array(values, dtype=float)
        if values.shape != (grid.n,):
            raise GridError(f"expected {grid.n} values, got {values.shape}")
        if not np.isfinite(values).all():
            raise GridError("grid function values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("GridFunction is immutable")


def _finite(compute, message):
    """compute() without numpy's overflow and invalid-value warnings, returned as it
    is; GridError(message) unless every entry is finite. The one finiteness rule of
    every value a run records or a command reports: a weight or table that overflows
    on a wide window, or a large k or alpha, becomes a typed error, not NaN data."""
    with np.errstate(over="ignore", invalid="ignore"):
        result = compute()
    if not np.isfinite(result).all():
        raise GridError(message)
    return result


def require_grid(w, grid, name):
    """GridError unless the field w is sampled on grid."""
    if w.grid != grid:
        raise GridError(f"{name} is sampled on {w.grid}, the solver works on {grid}")


def zero(grid):
    return GridFunction(grid, np.zeros(grid.n))


def monomial(grid, j):
    """Samples of x^j."""
    return GridFunction(grid, grid.exp(j))


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
        if not np.isfinite(self.alpha):
            raise GridError("alpha must be finite")
        if not 0 <= self.sub <= 3:
            raise GridError("sub must lie in 0..3")


def _shifted(values, a, h):
    """(D - a) of one field's values or of each row of a (..., n) stack."""
    return stencils.apply_derivative(values, 1, h) - a * values


def shifted_derivative(w, a):
    """(D - a) w."""
    return GridFunction(w.grid, _shifted(w.values, a, w.grid.h))


@functools.lru_cache(maxsize=64)
def _fit_matrix(s_min, s_max, n, lo, hi, terms):
    """Band s_min+lo <= s <= s_min+hi as a node slice, and the read-only L with
    coefficients = y[sl] @ L.T of the least-squares fit of sum_{j<terms} c_j x^j.

    L is the pseudo-inverse of the column-normalized design [1, x, ...,
    x^(terms-1)], with the normalization divided back out.
    """
    if s_min > RESOLVED_S_MIN:
        raise GridError(f"grid does not resolve x << 1 (need s_min <= {RESOLVED_S_MIN:g})")
    s, x = _s(s_min, s_max, n), _exp_s(s_min, s_max, n, 1.0)
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


def fit_powers(y, grid, lo, hi, terms, a=0.0):
    """Coefficients c_0..c_{terms-1} of sum c_j x^j fitted to e^{a s} y on the band
    s_min+lo <= s <= s_min+hi; y is one field or a (steps, n) stack. GridError
    unless every coefficient is finite (_finite): the weight e^{a s} and the fit's
    inverse powers of x overflow on a wide window."""
    def fit():
        sl, L = _fit_matrix(grid.s_min, grid.s_max, grid.n, lo, hi, terms)
        # the weight is taken on the band, with the operands of (y * e^{as})[sl]; one
        # matrix-vector product per row: a stacked fit equals its per-row fits bitwise
        return (L @ (y[..., sl] * grid.exp(a)[sl])[..., None])[..., 0]

    return _finite(fit, "the contact-line fit is not finite on this grid")


def _fit_expansion(values, grid, order):
    """Coefficients c_1..c_order of sum c_j x^j on the left band, per row of values.

    Dividing by x turns the e^{-2s}-weighted fit of sum c_j x^j into a plain
    fit of sum c_j x^{j-1}.
    """
    return fit_powers(values, grid, -np.inf, FIT_BAND, order, a=-1.0)


def extract_coefficients(w, order):
    """Leading expansion coefficients (u_1 .. u_order) of w = u_1 x + u_2 x^2 + ...

    Weighted least squares of c1 e^s + c2 e^{2s} + c3 e^{3s} over the nodes
    with s <= s_min + FIT_BAND, weights e^{-2s}. The grid must resolve the
    contact-line region (s_min <= -6).
    """
    if not 1 <= order <= 3:
        raise GridError("extract_coefficients supports order 1..3")
    return tuple(_fit_expansion(w.values, w.grid, 3))[:order]


def _minus_expansion(values, coeffs, grid):
    """values - c_1 x - c_2 x^2 - ..., one term at a time; coeffs (..., sub) for
    values (..., n), one row of coefficients per row of values."""
    coeffs = np.asarray(coeffs)
    out = values.copy()
    for j in range(coeffs.shape[-1]):
        out -= coeffs[..., j, None] * grid.exp(j + 1)
    return out


def _ds_tower(values, k, h):
    """values, d/ds values, ..., d^k/ds^k values along the last axis.

    The one composition rule for orders above 4: D^4 first, the remainder
    last. The tower takes D^1..D^4, then D^1..D^4 of D^4, and so on, one
    stencil call per order.
    """
    yield values
    base = values
    for j in range(1, k + 1):
        dj = stencils.apply_derivative(base, (j - 1) % 4 + 1, h)
        yield dj
        if j % 4 == 0:
            base = dj


def _norm_sq(values, k, weight, grid):
    """|row|_{k,alpha}^2 = sum_{j<=k} trapezoid(weight (d^j row/ds^j)^2) of each
    row of a (..., n) stack, in increasing j; weight = e^{-2 alpha s}, shared by
    all rows or broadcast against the stack (one per (sub, alpha) row)."""
    total = 0.0
    for dj in _ds_tower(values, k, grid.h):
        sq = weight * dj  # weight dj dj, squared in place
        sq *= dj
        total += stencils.trapezoid(sq, grid.h)
    return np.maximum(total, 0.0)


def weighted_norm(w, spec):
    """|w|_{k,alpha}, trapezoid quadrature, with the fitted expansion
    u_1 x + ... + u_sub x^sub subtracted first when sub > 0. GridError when the
    norm overflows (a large k or alpha on a wide grid)."""
    def norm():
        v = w.values
        if spec.sub:
            v = _minus_expansion(v, extract_coefficients(w, spec.sub), w.grid)
        return float(np.sqrt(_norm_sq(v, spec.k, w.grid.exp(-2.0 * spec.alpha), w.grid)))

    return _finite(norm, f"the norm |w|_{{{spec.k},{spec.alpha:g}}} is not finite on this grid")


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


def _require_norm_indices(N, k, delta):
    """GridError unless N in {0, 1, 2}, k >= 0 and 0 < delta < 1/2."""
    if N not in (0, 1, 2):
        raise GridError(f"composite norms need an integer 0 <= N <= 2, got {N!r}")
    if not k >= 0:
        raise GridError(f"composite norms need k >= 0, got {k!r}")
    if not 0 < delta < 0.5:
        raise GridError(f"composite norms need 0 < delta < 1/2, got {delta!r}")


_TRACK_ORDER = 5  # sol norms with N = 2 subtract expansion terms up to x^5


def composite_init_norm(values, grid, N, k, delta):
    """Initial-data norm of one field's values, or of each row of a (steps, n) stack,
    shape (steps,): the distinct |w - u_1 x - ... - u_sub x^sub|_{k+4N+1,beta} with
    (sub, beta) = (floor(alpha) + m + r, alpha + m + r) over the first index set,
    r = 0..m, summed in squares in sorted (sub, beta) order.

    Each (sub, beta) square is one column of _norm_series; a step's columns are
    summed in that order, so each entry of a stack equals the norm of its row alone
    bitwise. GridError unless every norm is finite (_finite): the weights
    e^{-2 beta s} overflow on a wide window.
    """
    _require_norm_indices(N, k, delta)
    if values.ndim not in (1, 2) or values.shape[-1] != grid.n:
        raise GridError(f"expected one field of {grid.n} values or a (steps, {grid.n}) "
                        f"stack, got shape {values.shape}")
    stack = values if values.ndim == 2 else values[None, :]
    rows = sorted({(sub, beta) for _l, sub, beta in _weight_shifts(index_sets(N, delta)[0])})

    def norms():
        series = _norm_series(stack, _fit_expansion(stack, grid, _TRACK_ORDER), grid,
                              k + 4 * N + 1, rows)
        return np.sqrt(sum(series.T, 0.0))

    out = _finite(norms, f"the initial-data norm (N = {N!r}, k = {k!r}, delta = {delta!r}) "
                         f"is not finite on this grid")
    return out if values.ndim == 2 else out[0]


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


def _norm_series(values, coeffs, grid, kn, rows):
    """|w(t) - sum_{j<=sub} c_j(t) x^j|_{kn,alpha}^2 of each (sub, alpha) in rows at
    every stored step, shape (steps, rows). One tower per STEP_STACK steps takes
    their (steps, rows) fields as one stack; each entry equals its one-row value
    bitwise."""
    weights = np.array([grid.exp(-2.0 * alpha) for _, alpha in rows])
    out = np.empty((len(values), len(rows)))
    for i in range(0, len(values), STEP_STACK):
        v, c = values[i:i + STEP_STACK], coeffs[i:i + STEP_STACK]
        fields = np.stack([_minus_expansion(v, c[:, :sub], grid) for sub, _ in rows], axis=1)
        out[i:i + STEP_STACK] = _norm_sq(fields, kn, weights, grid)
    return out


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
    expansion coefficients. Duplicates count once, in first-encounter order.
    Each (field, l) time difference is taken once, and the distinct
    (sub, alpha) rows of each (field, l, kn) group share one _norm_series.
    """
    coeffs = _fit_expansion(values, grid, _TRACK_ORDER)
    terms = list(dict.fromkeys(terms))
    groups, fields, series = {}, {}, {}
    for _, field, l, sub, alpha, kn in terms:
        groups.setdefault((field, l, kn), {})[sub, alpha] = None
    for (field, l, kn), rows in groups.items():
        if (field, l) not in fields:
            v, c = values, coeffs
            if field == "under":
                v, c = values / (grid.x + 1.0)[None, :], _underline_coeffs(coeffs)
            fields[field, l] = (_time_derivative(v, dt, l), _time_derivative(c, dt, l))
        cols = np.ascontiguousarray(_norm_series(*fields[field, l], grid, kn, list(rows)).T)
        series.update(((field, l, kn, *row), col) for row, col in zip(rows, cols))
    total = 0.0
    for reduction, field, l, sub, alpha, kn in terms:
        col = series[field, l, kn, sub, alpha]
        total += float(np.max(col) if reduction == "sup" else stencils.trapezoid(col, dt))
    return float(np.sqrt(total))


def composite_sol_norm(traj, N, k, delta):
    """Solution norm of a stored trajectory (time suprema over stored steps)."""
    _require_norm_indices(N, k, delta)
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
    _require_norm_indices(N, k, delta)
    values, dt, grid = _traj_arrays(traj)
    # index_sets(-1, delta) is empty: N = 0 has no supremum terms
    terms = [("sup", "u", l, sub, beta, k + 4 * (N - l) - 3)
             for l, sub, beta in _weight_shifts(index_sets(N - 1, delta)[0])]
    terms += [("int", "under", l, max(sub - 1, 0), beta - 1, k + 4 * (N - l) - 1)
              for l, sub, beta in _weight_shifts(index_sets(N, delta)[1])]
    return _composite(values, dt, grid, terms)
