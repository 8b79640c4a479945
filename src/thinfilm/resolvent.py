"""Discrete operator assembly and resolvent solves.

The operator rows discretize e^{-s} p(d/ds) + e^{-2s} q(d/ds) with the
fourth-order stencils; the first two rows tie the solution to a three-term
expansion c1 x + c2 x^2 + c3 x^3 fitted over nodes 2..6 (the admissible
contact-line behavior), and the last two clamp the super-algebraically
decaying far field to zero. The operator is its (row, column, value) arrays;
`product` is its one matrix-vector product, for `DiscreteOperator.apply`, the
refinement of the banded solves and the row magnitudes of `interior_residual`.
Solves go through a banded LU factorization reusable across right-hand sides.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_lapack_funcs

from . import elliptic
from . import grid as gridmod
from . import polyops, stencils
from .errors import CompatibilityError, GridError, SolverError

KL = 5  # sub-diagonals: widest shifted interior stencil
KU = 6  # super-diagonals: left closure row reaches node 6
EDGE_SKIP = 8  # nodes at each end that interior_residual leaves out
FAR_BAND = (3.5, 1.5)  # far_field_rate's band below s_max, kept clear of the clamp rows
FAR_MIN_NODES = 10  # fewest tail nodes far_field_rate fits a slope to

_gbtrf, _gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (np.empty(0, dtype=np.float64),))


def product(row, col, val, y):
    """A y for the entries (row, col, val); each row is summed left to right from 0."""
    return np.bincount(row, weights=val * y[col], minlength=y.size)


@dataclass
class DiscreteOperator:
    """Stored entries of the spatial operator, row by row with ascending columns.

    ``row``, ``col`` and ``val`` are read-only. Rows 0 and 1 hold the
    expansion-match closure, rows n-2 and n-1 the far-field clamp, and they
    carry zero right-hand side in any solve.
    """

    grid: gridmod.LogGrid
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @property
    def n(self):
        return self.grid.n

    def closure_rows(self):
        return (0, 1, self.n - 2, self.n - 1)

    def apply(self, w):
        """Row-wise product; closure rows evaluate their residual relation."""
        return gridmod.GridFunction(self.grid, product(self.row, self.col, self.val, w.values))


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
    """Banded discretization with closure rows; n >= 64."""
    if grid.n < 64:
        raise GridError("resolvent assembly needs at least 64 nodes")
    n, h = grid.n, grid.h
    p, q = polyops.symbol_pair(0)
    pc, qc = p.coefficients(), q.coefficients()

    def stencil_rows(rows, offset_of_node, width):
        # Stencil combination sum_m c_m D^m over a `width`-node window,
        # evaluated at the given offset inside the window and scaled by
        # e^{-s} and e^{-2s} of each row. Off-center 7-node windows would
        # drop to third order for D^4, so those rows get 8 nodes instead.
        offsets = np.arange(width, dtype=float) - offset_of_node
        prow = np.zeros(width)
        qrow = np.zeros(width)
        for m in range(5):
            wm = (stencils.fd_weights(offsets, 0.0, m) / h**m if m else
                  (offsets == 0).astype(float))
            prow += pc[m] * wm
            qrow += qc[m] * wm
        return (grid.inv_x[rows, None] * prow + grid.inv_x2[rows, None] * qrow).ravel()

    # rows 0, 1: closure over nodes 0..6; rows 2 and n-3 off center in 8-node
    # windows; rows 3..n-4 centered on 7 nodes; rows n-2, n-1: the clamp
    w0, w1 = _left_closure_weights(grid)
    row = np.repeat(np.arange(n), [7, 7, 8] + [7] * (n - 6) + [8, 2, 1])
    col = np.concatenate((np.tile(np.arange(7), 2), np.arange(8),
                          (np.arange(n - 6)[:, None] + np.arange(7)).ravel(),
                          np.arange(n - 8, n), [n - 2, n - 1, n - 1]))
    val = np.concatenate(([1.0, 0.0], -w0, [0.0, 1.0], -w1, stencil_rows(2, 2, 8),
                          stencil_rows(slice(3, n - 3), 3, 7), stencil_rows(n - 3, 5, 8),
                          [1.0, 0.0, 1.0]))
    for a in (row, col, val):
        a.flags.writeable = False
    return DiscreteOperator(grid, row, col, val)


class Factorization:
    """Banded LU of (lambda I + A) with the closure rows in place."""

    def __init__(self, op, lam):
        if not 0 < lam < np.inf:
            raise SolverError("lambda must be positive and finite")
        self.op = op
        self.lam = float(lam)
        n = op.n
        row, col = op.row, op.col
        # Two-sided equilibration with exact powers of two: interior rows
        # carry factors up to e^{-2 s_min}/h^4 and the solution components
        # span the x^2 contact-line scale, either of which would otherwise
        # dominate the backward error of the factorization.
        def pow2(v):
            return 2.0 ** (-np.floor(np.log2(v)))

        w = op.val.copy()
        w[(row == col) & (row >= 2) & (row <= n - 3)] += self.lam  # not the closure rows
        row_max = np.zeros(n)
        np.maximum.at(row_max, row, np.abs(w))
        row_scale = pow2(row_max)
        w *= row_scale[row]
        col_max = np.zeros(n)
        np.maximum.at(col_max, col, np.abs(w))
        col_scale = pow2(np.where(col_max > 0, col_max, 1.0))
        w *= col_scale[col]
        ab = np.zeros((2 * KL + KU + 1, n))
        ab[KL + KU + row - col, col] = w
        lu, piv, info = _gbtrf(ab, KL, KU)
        if info != 0:
            raise SolverError(f"banded factorization failed (info={info}); "
                              "lambda outside validity or broken closure rows")
        self._lu = lu
        self._piv = piv
        self._val = w  # the scaled entries, for the refinement residual
        self._row_scale = row_scale
        self._col_scale = col_scale

    def _back_substitute(self, b):
        y, info = _gbtrs(self._lu, KL, KU, b, self._piv)
        if info != 0:
            raise SolverError(f"banded back-substitution failed (info={info})")
        return y

    def solve_values(self, rhs_interior):
        b = rhs_interior * self._row_scale
        for i in self.op.closure_rows():
            b[i] = 0.0
        y = self._back_substitute(b)
        # one step of iterative refinement in working precision
        r = b - product(self.op.row, self.op.col, self._val, y)
        return (y + self._back_substitute(r)) * self._col_scale

    def solve(self, g):
        return gridmod.GridFunction(self.op.grid, self.solve_values(g.values))


@dataclass
class ResolventSolve:
    lam: float
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
    the assembled rows); the denominator is the local row magnitude, so the
    e^{-2s}/h^4 amplification near the contact line does not masquerade as a
    defect.
    """
    au = polyops.apply_operator(u)
    res = lam * u.values + au.values - g.values
    absu = np.abs(u.values)
    den = product(op.row, op.col, np.abs(op.val), absu)
    den += lam * absu + np.abs(g.values) + 1e-300
    sl = slice(EDGE_SKIP, op.n - EDGE_SKIP)
    return float(np.max(np.abs(res[sl]) / den[sl]))


def solve(op, lam, g, factorization=None):
    """Solve (lambda + A) u = g with closure-augmented right-hand side."""
    _compatibility_probe(g)
    fac = factorization if factorization is not None else Factorization(op, lam)
    u = fac.solve(g)
    res = interior_residual(op, lam, u, g)
    rate = far_field_rate(u, lam)
    return ResolventSolve(lam=lam, solution=u, residual_norm=res, decay_rate_fit=rate)


def far_field_rate(u, lam):
    """Least-squares slope of -ln|u| against 4 (lambda x)^{1/4} on the tail.

    The far-field mode analysis predicts 1/sqrt(2). The fit band is
    FAR_BAND below s_max (keeping a buffer from the clamp);
    the far-field modes oscillate, so nodes near their zeros are dropped by
    one robust re-fit pass. Returns NaN when the tail underflows or fails
    to decay.
    """
    grid = u.grid
    mask = (grid.s >= grid.s_max - FAR_BAND[0]) & (grid.s <= grid.s_max - FAR_BAND[1])
    vals = np.abs(u.values[mask])
    if vals.size < FAR_MIN_NODES or np.any(vals < 1e-280) or np.any(vals == 0.0):
        return float("nan")
    q = vals.size // 4
    if np.mean(vals[-q:]) >= np.mean(vals[:q]):
        return float("nan")
    r = 4.0 * (lam * grid.x[mask]) ** 0.25
    y = -np.log(vals)
    slope, icpt = np.polyfit(r, y, 1)
    keep = np.abs(y - (slope * r + icpt)) < 2.0
    if keep.sum() >= FAR_MIN_NODES:
        slope = np.polyfit(r[keep], y[keep], 1)[0]
    return float(slope)
