"""Discrete operator assembly and resolvent solves.

The operator rows discretize e^{-s} p(d/ds) + e^{-2s} q(d/ds) with the
fourth-order stencils; the first two rows tie the solution to a three-term
expansion c1 x + c2 x^2 + c3 x^3 fitted over nodes 2..6 (the admissible
contact-line behavior), and the last two clamp the super-algebraically
decaying far field to zero. The operator is its (row, column, value) arrays
and its row pointer. One product, `csr_product`, multiplies a vector by the
operator's pattern with any entries, each row summed left to right from 0.0:
the refinement of the banded solves (the scaled entries each factorization
gathers once) and the row magnitudes of `interior_residual` (the cached
|entries|). It calls scipy's compiled CSR
kernel with no matrix object. Solves go through a banded LU factorization
reusable across right-hand sides; each one starts from the operator's band
template, the lambda-free LAPACK band built once per operator.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from . import elliptic
from . import grid as gridmod
from . import polyops, stencils
from .errors import CompatibilityError, GridError, SolverError

KL = 5  # sub-diagonals: widest shifted interior stencil
KU = 6  # super-diagonals: left closure row reaches node 6
FAR_BAND = (3.5, 1.5)  # far_field_rate's band below s_max, kept clear of the clamp rows
FAR_MIN_NODES = 10  # fewest tail nodes far_field_rate fits a slope to
EDGE_SKIP = 8  # nodes at each end that interior_residual leaves out

_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (np.empty(0, dtype=np.float64),))


def _band_rows(band, n):
    """Row i of the operator as row i of an (n, KL + KU + 1) view of ``band``
    whose column r is band row r, matrix column i + KU - r: column KU is the
    diagonal. (np.ndarray over the band's buffer: as_strided costs 3-5 us more.)"""
    return np.ndarray((n, KL + KU + 1), buffer=band, offset=(KL + KU) * band.itemsize,
                      strides=(band.itemsize, (band.shape[1] - 1) * band.itemsize))


def csr_product(indptr, col, val, y):
    """The CSR pattern (indptr, col) with entries ``val`` times ``y``, a new array;
    each row summed left to right from 0.0, the order the hashed benchmark outputs
    depend on. It is the call a scipy csr_array's product makes (csr_matvec, which
    adds into a zeroed output), without the matrix object. The kernel reads y[col]
    and val unchecked, so GridError unless ``y`` is a C-contiguous float64 vector
    of len(indptr) - 1 values and ``val`` one float64 entry per column index."""
    n = indptr.size - 1
    if not (isinstance(y, np.ndarray) and y.dtype == np.float64 and y.shape == (n,)
            and y.flags.c_contiguous):
        raise GridError(f"the operator's product needs a C-contiguous float64 vector "
                        f"of {n} values")
    if not (isinstance(val, np.ndarray) and val.dtype == np.float64
            and val.shape == col.shape):
        raise GridError(f"the operator's product needs {col.size} float64 entries")
    out = np.zeros(n)
    _csr_matvec(n, n, indptr, col, val, y, out)
    return out


def _pow2(v):
    """2^-floor(log2 v), the power of two that scales v into [1, 2). np.exp2 is
    exact on the integers a float64's exponent takes, and cheaper than 2.0 ** x."""
    return np.exp2(-np.floor(np.log2(v)))


@dataclass(frozen=True)
class DiscreteOperator:
    """Stored entries of the spatial operator, row by row with ascending columns.

    ``row``, ``col``, ``val`` and the row pointer ``indptr`` (row i holds
    entries indptr[i]:indptr[i+1]) are read-only, and the fields cannot be
    reassigned, so the views cached from them (``abs_val``,
    ``band_template``) never go stale. Every product with the operator's
    pattern goes through ``csr_product``. Rows 0 and 1 hold the expansion-match
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

    @functools.cached_property
    def abs_val(self):
        """The entries' magnitudes, built once and read-only: the row
        magnitudes of interior_residual."""
        abs_val = np.abs(self.val)
        abs_val.flags.writeable = False
        return abs_val

    @functools.cached_property
    def band_template(self):
        """(band, index, row_max), built once and read-only: the lambda-free band
        every Factorization copies, each stored entry's flat index into it, and
        each row's largest |entry| leaving out the diagonal of rows 2..n-3, where
        a Factorization adds lambda.

        ``band`` is LAPACK's compact band storage, entry (i, j) at
        band[KU + i - j, KL + j]: KL + KU + 1 rows, with KL zero columns
        before the n columns of the matrix and KU after them, so that every
        row of the operator, the edge rows included, is the KL + KU + 1 cells
        of one anti-diagonal.
        """
        n = self.n
        band = np.zeros((KL + KU + 1, n + KL + KU))
        index = (KU + self.row - self.col) * band.shape[1] + KL + self.col
        band.ravel()[index] = self.val
        off_diagonal = np.abs(_band_rows(band, n))
        off_diagonal[2:n - 2, KU] = 0.0
        row_max = off_diagonal.max(axis=1)
        for a in (band, index, row_max):
            a.flags.writeable = False
        return band, index, row_max


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
    counts = np.full(n, 7)
    counts[[2, n - 3, n - 2, n - 1]] = 8, 8, 2, 1
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
        template, index, row_max = op.band_template
        band = template.copy()
        rows = _band_rows(band, n)
        diagonal = rows[2:n - 2, KU]  # not the closure rows
        diagonal += self.lam
        row_max = row_max.copy()
        np.maximum(row_max[2:n - 2], np.abs(diagonal), out=row_max[2:n - 2])
        row_scale = _pow2(row_max)
        rows *= row_scale[:, None]
        cols = band[:, KL:KL + n]  # the matrix's columns, between the margins
        col_max = np.abs(cols).max(axis=0)
        col_scale = _pow2(np.where(col_max > 0, col_max, 1.0))
        cols *= col_scale
        # the scaled operator's entries, for the refinement residual
        self._entries = band.ravel()[index]
        ab = np.empty((2 * KL + KU + 1, n), order="F")
        ab[:KL] = 0.0  # gbtrf fills in the top KL rows
        ab[KL:] = cols
        lu, piv, info = _gbtrf(ab, KL, KU, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded factorization failed (info={info}); "
                              "lambda outside validity or broken closure rows")
        self._lu = lu
        self._piv = piv
        self._row_scale = row_scale
        self._col_scale = col_scale

    def _back_substitute(self, b, overwrite_b=0):
        y, info = _gbtrs(self._lu, KL, KU, b, self._piv, overwrite_b=overwrite_b)
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
        op = self.op
        y += self._back_substitute(b - csr_product(op.indptr, op.col, self._entries, y),
                                   overwrite_b=1)  # a temporary
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


def require_compatible(g):
    """CompatibilityError unless the right-hand side g vanishes at the contact
    line: zero, below 1e-3 of its maximum on its first 8 nodes, or with a
    positive fitted growth exponent on the leftmost band (elliptic.decay_exponent).
    solve runs it; the cli runs it before making an output directory."""
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
    den += csr_product(op.indptr, op.col, op.abs_val, absu)
    sl = slice(EDGE_SKIP, op.n - EDGE_SKIP)
    ratio = np.abs(res[sl])
    ratio /= den[sl]
    return float(ratio.max())


def solve(op, lam, g, factorization=None):
    """Solve (lambda + A) u = g with closure-augmented right-hand side;
    GridError unless g lies on op.grid. A given factorization must be one of
    (lambda + A) on op.grid (``factorization_for``)."""
    gridmod.require_grid(g, op.grid, "the right-hand side g")
    require_compatible(g)
    fac = factorization_for(op, lam, factorization)
    u = fac.solve(g)
    res = interior_residual(op, lam, u, g)
    rate = far_field_rate(u, lam)
    return ResolventSolve(solution=u, residual_norm=res, decay_rate_fit=rate)


def _line_fit(r, y):
    """(slope, intercept) of the least-squares line through (r, y), in centred
    form. elliptic.decay_exponent keeps np.polyfit (see there)."""
    r_mean, y_mean = r.sum() / r.size, y.sum() / y.size  # the bits of .mean(), cheaper
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
    band = gridmod.node_slice(grid.s, grid.s_max - FAR_BAND[0], grid.s_max - FAR_BAND[1])
    vals = np.abs(u.values[band])
    if vals.size < FAR_MIN_NODES or vals.min() < 1e-280:  # a zero is below 1e-280 too
        return float("nan")
    q = vals.size // 4
    if vals[-q:].sum() / q >= vals[:q].sum() / q:
        return float("nan")
    r = 4.0 * (lam * grid.x[band]) ** 0.25
    y = -np.log(vals)
    slope, icpt = _line_fit(r, y)
    keep = np.abs(y - (slope * r + icpt)) < 2.0
    kept = np.count_nonzero(keep)
    if FAR_MIN_NODES <= kept < keep.size:  # a re-fit on every node would repeat the fit
        slope = _line_fit(r[keep], y[keep])[0]
    return float(slope)
