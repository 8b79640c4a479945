"""Discrete operator assembly and resolvent solves.

The operator rows discretize e^{-s} p(d/ds) + e^{-2s} q(d/ds) with the
fourth-order stencils; the first two rows tie the solution to a three-term
expansion c1 x + c2 x^2 + c3 x^3 fitted over nodes 2..6 (the admissible
contact-line behavior), and the last two clamp the super-algebraically
decaying far field to zero. The operator is its (row, column, value) arrays
and its row pointer. `DiscreteOperator.csr` turns them into the one CSR matrix
whose product, which sums each row left to right from 0.0, serves
`DiscreteOperator.apply`, the refinement of the banded solves (on the scaled
matrix each factorization builds once) and the row magnitudes of
`interior_residual`. Solves go through a banded LU factorization reusable
across right-hand sides; each one starts from the operator's band template,
the lambda-free LAPACK band built once per operator.
"""

import functools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import sparse
from scipy.linalg import get_lapack_funcs

from . import elliptic
from . import grid as gridmod
from . import polyops, stencils
from .errors import CompatibilityError, GridError, SolverError

KL = 5  # sub-diagonals: widest shifted interior stencil
KU = 6  # super-diagonals: left closure row reaches node 6
FAR_BAND = (3.5, 1.5)  # far_field_rate's band below s_max, kept clear of the clamp rows
FAR_MIN_NODES = 10  # fewest tail nodes far_field_rate fits a slope to

_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (np.empty(0, dtype=np.float64),))


@dataclass(frozen=True)
class DiscreteOperator:
    """Stored entries of the spatial operator, row by row with ascending columns.

    ``row``, ``col``, ``val`` and the row pointer ``indptr`` (row i holds
    entries indptr[i]:indptr[i+1]) are read-only, and the fields cannot be
    reassigned, so the views cached from them (``abs_csr``,
    ``band_template``) never go stale. Rows 0 and 1 hold the expansion-match
    closure, rows n-2 and n-1 the far-field clamp, and they carry zero
    right-hand side in any solve.
    """

    grid: gridmod.LogGrid
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    indptr: np.ndarray

    @property
    def n(self):
        return self.grid.n

    def csr(self, val):
        """The operator's sparsity pattern with entries ``val``, as a CSR matrix.

        Its product with a vector (scipy's csr_matvec) sums each row left to
        right from 0.0; the hashed benchmark outputs depend on that order.
        """
        return sparse.csr_array((val, self.col, self.indptr), shape=(self.n, self.n))

    @functools.cached_property
    def abs_csr(self):
        """The entries' magnitudes as a CSR matrix, built once: the row
        magnitudes of interior_residual."""
        return self.csr(np.abs(self.val))

    @functools.cached_property
    def band_template(self):
        """(band, index), built once and read-only: the lambda-free band every
        Factorization copies, and each stored entry's flat index into it.

        ``band`` is LAPACK's compact band storage, entry (i, j) at
        band[KU + i - j, KL + j]: KL + KU + 1 rows, with KL zero columns
        before the n columns of the matrix and KU after them, so that every
        row of the operator, the edge rows included, is the KL + KU + 1 cells
        of one anti-diagonal.
        """
        band = np.zeros((KL + KU + 1, self.n + KL + KU))
        index = (KU + self.row - self.col) * band.shape[1] + KL + self.col
        band.ravel()[index] = self.val
        for a in (band, index):
            a.flags.writeable = False
        return band, index

    def apply(self, w):
        """Row-wise product; closure rows evaluate their residual relation.
        GridError unless w lies on the operator's grid."""
        gridmod.require_grid(w, self.grid, "the field w")
        return gridmod.GridFunction(self.grid, self.csr(self.val) @ w.values)


def _left_closure_weights(grid):
    """Extrapolation weights from nodes 2..6 to nodes 0 and 1.

    Least-squares fit of c1 e^s + c2 e^{2s} + c3 e^{3s}, exponentials
    referenced to s_min for conditioning.
    """
    s = grid.s[:7] - grid.s_min
    basis = np.stack([np.exp(m * s) for m in (1, 2, 3)], axis=1)
    pinv = np.linalg.pinv(basis[2:7])
    return [basis[target] @ pinv for target in (0, 1)]


def assemble(grid):
    """Banded discretization with closure rows; n >= gridmod.SOLVER_MIN_NODES."""
    if grid.n < gridmod.SOLVER_MIN_NODES:
        raise GridError(f"resolvent assembly needs at least {gridmod.SOLVER_MIN_NODES} nodes")
    n, h = grid.n, grid.h
    p, q = polyops.symbol_pair(0)
    pc, qc = p.coefficients(), q.coefficients()

    def stencil_rows(rows, offset_of_node, width):
        # Stencil combination sum_m c_m D^m over a `width`-node window,
        # evaluated at the given offset inside the window and scaled by
        # e^{-s} and e^{-2s} of each row. Off-center 7-node windows would
        # drop to third order for D^4, so those rows get 8 nodes instead.
        prow = np.zeros(width)
        qrow = np.zeros(width)
        for m in range(5):
            wm = (stencils.window_weights(width, offset_of_node, m) / h**m if m else
                  (np.arange(width) == offset_of_node).astype(float))
            prow += pc[m] * wm
            qrow += qc[m] * wm
        return (grid.inv_x[rows, None] * prow + grid.inv_x2[rows, None] * qrow).ravel()

    # rows 0, 1: closure over nodes 0..6; rows 2 and n-3 off center in 8-node
    # windows; rows 3..n-4 centered on 7 nodes; rows n-2, n-1: the clamp
    w0, w1 = _left_closure_weights(grid)
    counts = [7, 7, 8] + [7] * (n - 6) + [8, 2, 1]
    row = np.repeat(np.arange(n), counts)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    col = np.concatenate((np.tile(np.arange(7), 2), np.arange(8),
                          (np.arange(n - 6)[:, None] + np.arange(7)).ravel(),
                          np.arange(n - 8, n), [n - 2, n - 1, n - 1]))
    val = np.concatenate(([1.0, 0.0], -w0, [0.0, 1.0], -w1, stencil_rows(2, 2, 8),
                          stencil_rows(slice(3, n - 3), 3, 7), stencil_rows(n - 3, 5, 8),
                          [1.0, 0.0, 1.0]))
    for a in (row, col, val, indptr):
        a.flags.writeable = False
    return DiscreteOperator(grid, row, col, val, indptr)


class Factorization:
    """Banded LU of (lambda I + A) with the closure rows in place."""

    def __init__(self, op, lam):
        if not 0 < lam < np.inf:
            raise SolverError("lambda must be positive and finite")
        self.op = op
        self.lam = float(lam)
        n = op.n
        # Two-sided equilibration with exact powers of two: interior rows
        # carry factors up to e^{-2 s_min}/h^4 and the solution components
        # span the x^2 contact-line scale, either of which would otherwise
        # dominate the backward error of the factorization.
        def pow2(v):
            return 2.0 ** (-np.floor(np.log2(v)))

        template, index = op.band_template
        band = template.copy()
        # row i of the operator as row i of an (n, KL + KU + 1) view whose column
        # r is band row r, matrix column i + KU - r: column KU is the diagonal
        rows = as_strided(band.ravel()[KL + KU:], shape=(n, KL + KU + 1),
                          strides=(band.itemsize, (band.shape[1] - 1) * band.itemsize))
        rows[2:n - 2, KU] += self.lam  # the diagonal, not the closure rows
        row_scale = pow2(np.abs(rows).max(axis=1))
        rows *= row_scale[:, None]
        cols = band[:, KL:KL + n]  # the matrix's columns, between the margins
        col_max = np.abs(cols).max(axis=0)
        col_scale = pow2(np.where(col_max > 0, col_max, 1.0))
        cols *= col_scale
        # the scaled operator, for the refinement residual
        self._matrix = op.csr(band.ravel()[index])
        ab = np.zeros((2 * KL + KU + 1, n), order="F")  # gbtrf fills in the top KL rows
        ab[KL:] = cols
        lu, piv, info = _gbtrf(ab, KL, KU, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded factorization failed (info={info}); "
                              "lambda outside validity or broken closure rows")
        self._lu = lu
        self._piv = piv
        self._row_scale = row_scale
        self._col_scale = col_scale

    def _back_substitute(self, b):
        y, info = _gbtrs(self._lu, KL, KU, b, self._piv)
        if info != 0:
            raise SolverError(f"banded back-substitution failed (info={info})")
        return y

    def solve_values(self, rhs_interior):
        """The solution's values for the right-hand side values ``rhs_interior``,
        a new array; the argument is not changed.

        The right-hand side is scaled by the row scales, and its closure rows
        (0, 1, n-2 and n-1) are set to zero as two slices. The scaled system
        is solved by back-substitution with one step of iterative refinement in
        working precision, and the result is scaled back by the column scales.
        """
        b = rhs_interior * self._row_scale
        b[:2] = 0.0
        b[-2:] = 0.0
        y = self._back_substitute(b)
        y += self._back_substitute(b - self._matrix @ y)
        y *= self._col_scale
        return y

    def solve(self, g):
        """The solution on the operator's grid; GridError unless g lies on it."""
        gridmod.require_grid(g, self.op.grid, "the right-hand side g")
        return gridmod.GridFunction(self.op.grid, self.solve_values(g.values))


def factorization_for(op, lam, factorization=None):
    """``factorization``, or a new Factorization(op, lam) when it is None.
    GridError when it was built on another grid, SolverError when for another
    lambda; a factorization of op itself skips the grid comparison."""
    if factorization is None:
        return Factorization(op, lam)
    if factorization.op is not op and factorization.op.grid != op.grid:
        raise GridError(f"the factorization is built on {factorization.op.grid}, "
                        f"the solver works on {op.grid}")
    if factorization.lam != lam:
        raise SolverError(f"the factorization is built for lambda = {factorization.lam!r}, "
                          f"the solve needs lambda = {lam!r}")
    return factorization


@dataclass
class ResolventSolve:
    solution: gridmod.GridFunction
    residual_norm: float
    decay_rate_fit: float


def _compatibility_probe(g):
    scale = np.max(np.abs(g.values))
    if scale == 0.0:
        return
    band = g.values[:8]
    if np.max(np.abs(band)) <= 1e-3 * scale:
        return
    if elliptic.decay_exponent(g.values, g.grid) > 0.0:
        return
    raise CompatibilityError("right-hand side does not vanish at the contact line")


def interior_residual(op, lam, u, g):
    """Component-wise residual of lambda u + A u - g, independent stencil path.

    The numerator applies the operator through the norm-module stencils (not
    the assembled rows), on the values of u; the denominator is the local row
    magnitude, so the e^{-2s}/h^4 amplification near the contact line does not
    masquerade as a defect. GridError unless u and g lie on op.grid.
    """
    gridmod.require_grid(u, op.grid, "the solution u")
    gridmod.require_grid(g, op.grid, "the right-hand side g")
    # lambda u + A u - g and (lambda |u| + |g| + 1e-300) + |A| |u|, summed in place
    res = lam * u.values
    res += polyops._operator_values(u.values, op.grid)
    res -= g.values
    absu = np.abs(u.values)
    den = lam * absu
    den += np.abs(g.values)
    den += 1e-300
    den += op.abs_csr @ absu
    sl = slice(polyops.EDGE_SKIP, op.n - polyops.EDGE_SKIP)
    ratio = np.abs(res[sl])
    ratio /= den[sl]
    return float(ratio.max())


def solve(op, lam, g, factorization=None):
    """Solve (lambda + A) u = g with closure-augmented right-hand side;
    GridError unless g lies on op.grid. A given factorization must be one of
    (lambda + A) on op.grid (``factorization_for``)."""
    gridmod.require_grid(g, op.grid, "the right-hand side g")
    _compatibility_probe(g)
    fac = factorization_for(op, lam, factorization)
    u = fac.solve(g)
    res = interior_residual(op, lam, u, g)
    rate = far_field_rate(u, lam)
    return ResolventSolve(solution=u, residual_norm=res, decay_rate_fit=rate)


def _line_fit(r, y):
    """(slope, intercept) of the least-squares line through (r, y), in centred
    form. elliptic.decay_exponent keeps np.polyfit (see there)."""
    r_mean, y_mean = r.mean(), y.mean()
    dr = r - r_mean
    slope = np.dot(dr, y - y_mean) / np.dot(dr, dr)
    return slope, y_mean - slope * r_mean


def far_field_rate(u, lam):
    """Least-squares slope of -ln|u| against 4 (lambda x)^{1/4} on the tail.

    The far-field mode analysis predicts 1/sqrt(2). The fit band is the node
    slice FAR_BAND below s_max (keeping a buffer from the clamp);
    the far-field modes oscillate, so nodes near their zeros are dropped by
    one robust re-fit pass. Returns NaN when the tail underflows or fails
    to decay; SolverError unless lambda is positive and finite.
    """
    if not 0 < lam < np.inf:
        raise SolverError("lambda must be positive and finite")
    grid = u.grid
    s = grid.s
    band = slice(s.searchsorted(grid.s_max - FAR_BAND[0], side="left"),
                 s.searchsorted(grid.s_max - FAR_BAND[1], side="right"))
    vals = np.abs(u.values[band])
    if vals.size < FAR_MIN_NODES or vals.min() < 1e-280:  # a zero is below 1e-280 too
        return float("nan")
    q = vals.size // 4
    if vals[-q:].mean() >= vals[:q].mean():
        return float("nan")
    r = 4.0 * (lam * grid.x[band]) ** 0.25
    y = -np.log(vals)
    slope, icpt = _line_fit(r, y)
    keep = np.abs(y - (slope * r + icpt)) < 2.0
    kept = np.count_nonzero(keep)
    if FAR_MIN_NODES <= kept < keep.size:  # a re-fit on every node would repeat the fit
        slope = _line_fit(r[keep], y[keep])[0]
    return float(slope)
