import numpy as np
import pytest

from thinfilm import evolution
from thinfilm import grid as gridmod
from thinfilm import polyops, resolvent, stencils
from thinfilm.errors import CompatibilityError, GridError, SolverError


def manufactured(grid, lam):
    """u* = x^2 e^{-x} with analytically computed right-hand side.

    The third derivative of x^2 e^{-x} is (-6 + 6x - x^2) e^{-x}; pushing it
    through the operator gives the polynomial below.
    """
    x = grid.x
    ustar = x**2 * np.exp(-x)
    gpoly = lam * x**2 + x**5 - 10 * x**4 + 20 * x**3 + 6 * x**2 - 12 * x
    return (gridmod.GridFunction(grid, ustar),
            gridmod.GridFunction(grid, np.exp(-x) * gpoly))


def test_assemble_requires_nodes():
    with pytest.raises(GridError):
        resolvent.assemble(gridmod.LogGrid(-12, 4, 32))


def test_assembled_rows_match_independent_application(fine_grid):
    op = resolvent.assemble(fine_grid)
    w = gridmod.GridFunction(fine_grid, fine_grid.x**2 * np.exp(-fine_grid.x))
    via_rows = op.apply(w).values
    via_stencils = polyops.apply_operator(w).values
    interior = slice(8, -8)
    scale = np.max(np.abs(via_stencils))
    assert np.max(np.abs(via_rows - via_stencils)[interior]) / scale < 1e-6


def _loop_rows(grid):
    """Row-by-row operator the vectorized assemble must reproduce, flattened
    to (row, column, value) arrays."""
    n, h, s = grid.n, grid.h, grid.s
    p, q = polyops.symbol_pair(0)
    pc, qc = p.coefficients(), q.coefficients()

    def pattern(offset_of_node, width):
        offsets = np.arange(width, dtype=float) - offset_of_node
        prow = np.zeros(width)
        qrow = np.zeros(width)
        for m in range(5):
            wm = (stencils.fd_weights(offsets, 0.0, m) / h**m if m else
                  (offsets == 0).astype(float))
            prow += pc[m] * wm
            qrow += qc[m] * wm
        return prow, qrow

    rows = [None] * n
    # the closure weights are copied too, so a roundoff change to them fails
    basis = np.stack([np.exp(m * (s[:7] - grid.s_min)) for m in (1, 2, 3)], axis=1)
    w0, w1 = (basis[target] @ np.linalg.pinv(basis[2:7]) for target in (0, 1))
    rows[0] = (0, np.concatenate(([1.0, 0.0], -w0)))
    rows[1] = (0, np.concatenate(([0.0, 1.0], -w1)))
    rows[n - 2] = (n - 2, np.array([1.0, 0.0]))
    rows[n - 1] = (n - 1, np.array([1.0]))
    for i in range(2, n - 2):
        start = min(max(i - 3, 0), n - 7)
        width = 7
        if i - start != 3:
            start = 0 if i < 4 else n - 8
            width = 8
        prow, qrow = pattern(i - start, width)
        rows[i] = (start, np.exp(-s[i]) * prow + np.exp(-2 * s[i]) * qrow)
    row = np.concatenate([np.full(len(w), i) for i, (_, w) in enumerate(rows)])
    col = np.concatenate([np.arange(start, start + len(w)) for start, w in rows])
    val = np.concatenate([w for _, w in rows]).astype(float)
    return row, col, val


@pytest.mark.parametrize("n", [64, 513])
def test_vectorized_assemble_matches_row_loop(n):
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    op = resolvent.assemble(grid)
    for a, b in zip((op.row, op.col, op.val), _loop_rows(grid)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    for a in (op.row, op.col, op.val):
        with pytest.raises(ValueError):
            a[0] = 0


def _loop_band(grid, lam):
    """Row-by-row band fill the vectorized Factorization must reproduce:
    the gbtrf-ready band, the scaled entries and the two scales."""
    row, col, val = _loop_rows(grid)
    n = grid.n
    closure = {0, 1, n - 2, n - 1}

    def pow2(v):
        return 2.0 ** (-np.floor(np.log2(v)))

    row_scale = np.ones(n)
    full_rows = []
    for i in range(n):
        mine = row == i
        start, w = col[mine][0], val[mine].copy()
        if i not in closure:
            w[i - start] += lam
        row_scale[i] = pow2(np.max(np.abs(w)))
        full_rows.append((start, w * row_scale[i]))
    col_max = np.zeros(n)
    for start, w in full_rows:
        col_max[start:start + len(w)] = np.maximum(col_max[start:start + len(w)], np.abs(w))
    col_scale = pow2(np.where(col_max > 0, col_max, 1.0))
    kl, ku = resolvent.KL, resolvent.KU
    ab = np.zeros((2 * kl + ku + 1, n))
    for i, (start, w) in enumerate(full_rows):
        for k, wv in enumerate(w):
            j = start + k
            ab[kl + ku + i - j, j] = wv * col_scale[j]
    return ab, row_scale, col_scale


@pytest.mark.parametrize("n", [64, 513])
@pytest.mark.parametrize("lam", [0.1, 100.0])
def test_vectorized_band_matches_row_loop(n, lam):
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    fac = resolvent.Factorization(resolvent.assemble(grid), lam)
    ab, row_scale, col_scale = _loop_band(grid, lam)
    lu, _, info = resolvent._gbtrf(ab, resolvent.KL, resolvent.KU)
    assert info == 0
    assert np.array_equal(fac._lu, lu)
    assert np.array_equal(fac._row_scale, row_scale)
    assert np.array_equal(fac._col_scale, col_scale)


@pytest.mark.parametrize("n", [64, 513])
@pytest.mark.parametrize("lam", [0.1, 100.0])
def test_refinement_product_keeps_the_diagonal_summation_order(n, lam):
    # The banded product the refinement residual used before the operator
    # became (row, column, value) arrays: diagonal by diagonal, from the
    # lowest sub-diagonal up, so each row is summed left to right from 0.0.
    # The hashed benchmark outputs depend on this order.
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    kl, ku = resolvent.KL, resolvent.KU
    band = _loop_band(grid, lam)[0][kl:]

    def diagonal_loop(y):
        out = np.zeros(n)
        for d in range(-kl, ku + 1):
            diag = band[ku - d]
            if d >= 0:
                out[:n - d] += diag[d:] * y[d:]
            else:
                out[-d:] += diag[:n + d] * y[:n + d]
        return out

    op = resolvent.assemble(grid)
    fac = resolvent.Factorization(op, lam)
    y = np.random.default_rng(n).standard_normal(n) * 10.0 ** np.linspace(-8, 3, n)
    got = resolvent.product(op.row, op.col, fac._val, y)
    assert got.tobytes() == diagonal_loop(y).tobytes()


def test_failed_refinement_raises(fine_grid, monkeypatch):
    op = resolvent.assemble(fine_grid)
    fac = resolvent.Factorization(op, 1.0)
    _, g = manufactured(fine_grid, 1.0)
    calls = []
    gbtrs = resolvent._gbtrs

    def fail_second(*args):
        calls.append(None)
        y, info = gbtrs(*args)
        return y, (-3 if len(calls) == 2 else info)

    monkeypatch.setattr(resolvent, "_gbtrs", fail_second)
    with pytest.raises(SolverError, match="back-substitution"):
        fac.solve(g)
    assert len(calls) == 2


def test_kernel_rows_shrink_at_stencil_order():
    errs = []
    for n in (65, 129, 257):
        g = gridmod.LogGrid(-12, 4, n)
        op = resolvent.assemble(g)
        window = (g.s >= -10) & (g.s <= 2)
        res = [np.max(np.abs(op.apply(gridmod.monomial(g, j)).values[window]))
               for j in (1, 2)]
        errs.append(max(res))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.5


def test_apply_monomial_three(fine_grid):
    op = resolvent.assemble(fine_grid)
    got = op.apply(gridmod.monomial(fine_grid, 3)).values
    x = fine_grid.x
    target = 18 * x**2 + 12 * x
    interior = slice(8, -8)
    assert np.max(np.abs(got - target)[interior] / target[interior]) < 1e-6


def test_solve_zero_and_linearity(fine_grid):
    op = resolvent.assemble(fine_grid)
    zero = gridmod.zero(fine_grid)
    sol = resolvent.solve(op, 2.0, zero)
    assert np.max(np.abs(sol.solution.values)) == 0.0

    _, g = manufactured(fine_grid, 2.0)
    fac = resolvent.Factorization(op, 2.0)
    u1 = resolvent.solve(op, 2.0, g, factorization=fac).solution.values
    u3 = resolvent.solve(op, 2.0, 3.0 * g, factorization=fac).solution.values
    # linear up to the refinement step's rounding
    assert np.max(np.abs(u3 - 3.0 * u1)) <= 1e-8 * np.max(np.abs(u3))


def test_manufactured_convergence():
    lam = 1.0
    errs = []
    for n in (257, 513, 1025):
        g = gridmod.LogGrid(-12, 4, n)
        ustar, rhs = manufactured(g, lam)
        op = resolvent.assemble(g)
        sol = resolvent.solve(op, lam, rhs)
        errs.append(np.linalg.norm(sol.solution.values - ustar.values)
                    / np.linalg.norm(ustar.values))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 2.0


def test_manufactured_residual_is_small(fine_grid):
    ustar, rhs = manufactured(fine_grid, 1.0)
    op = resolvent.assemble(fine_grid)
    sol = resolvent.solve(op, 1.0, rhs)
    assert sol.residual_norm < 1e-7


def test_compatibility_probe():
    g = gridmod.LogGrid()
    op = resolvent.assemble(g)
    bad = gridmod.GridFunction(g, np.ones(g.n))
    with pytest.raises(CompatibilityError):
        resolvent.solve(op, 1.0, bad)


def test_lambda_must_be_positive(fine_grid):
    op = resolvent.assemble(fine_grid)
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(SolverError, match="lambda must be positive and finite"):
            resolvent.Factorization(op, lam)


def test_far_field_rate_on_model_function():
    g = gridmod.LogGrid(-12, 7, 1217)
    lam = 3.0
    u = gridmod.GridFunction(g, np.exp(-2 * np.sqrt(2) * (lam * g.x) ** 0.25))
    rate = resolvent.far_field_rate(u, lam)
    assert rate == pytest.approx(1 / np.sqrt(2), abs=1e-10)


def test_far_field_rate_flags_non_decay():
    g = gridmod.LogGrid(-12, 7, 1217)
    flat = gridmod.GridFunction(g, np.ones(g.n))
    assert np.isnan(resolvent.far_field_rate(flat, 1.0))
    grow = gridmod.monomial(g, 1)
    assert np.isnan(resolvent.far_field_rate(grow, 1.0))


def test_far_field_rate_of_computed_solution():
    g = gridmod.LogGrid(-12, 7, 2433)
    x = g.x
    op = resolvent.assemble(g)
    sol = resolvent.solve(op, 1.0, gridmod.GridFunction(g, x**2 * np.exp(-x)))
    assert 0.55 <= sol.decay_rate_fit <= 0.85


def test_left_edge_coefficient_relation():
    # steady-state recursion at j = 1: lam u1 + 12 u3 = g1
    lam = 1.0
    g = gridmod.LogGrid(-12, 4, 2049)
    _, rhs = manufactured(g, lam)
    op = resolvent.assemble(g)
    sol = resolvent.solve(op, lam, rhs)
    u1, _, u3 = evolution.leading_coefficients(sol.solution)
    g1 = -12.0  # leading coefficient of the manufactured right-hand side
    assert abs(lam * u1 + 12 * u3 - g1) / abs(g1) < 1e-3
