import dataclasses
import functools

import numpy as np
import pytest
from scipy import sparse

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


@pytest.mark.parametrize("other", [gridmod.LogGrid(-10.0, 6.0, 257),
                                   gridmod.LogGrid(-12.0, 4.0, 129)])
def test_solve_rejects_rhs_off_the_operator_grid(other):
    op = resolvent.assemble(gridmod.LogGrid(-12.0, 4.0, 257))
    with pytest.raises(GridError, match="right-hand side"):
        resolvent.solve(op, 1.0, manufactured(other, 1.0)[1])


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


@functools.lru_cache(maxsize=8)
def _loop_rows(grid):
    """Row-by-row operator the vectorized assemble must reproduce, flattened
    to read-only (row, column, value) arrays; built once per grid, as it does
    not depend on lambda."""
    n, h, s = grid.n, grid.h, grid.s
    p, q = polyops.symbol_pair(0)
    pc, qc = p.coefficients(), q.coefficients()

    @functools.cache  # all but the few edge rows share one (offset, width)
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
    for a in (row, col, val):
        a.flags.writeable = False
    return row, col, val


@pytest.mark.parametrize("n", [64, 513])
def test_vectorized_assemble_matches_row_loop(n):
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    op = resolvent.assemble(grid)
    for a, b in zip((op.row, op.col, op.val), _loop_rows(grid)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert np.array_equal(op.indptr, np.searchsorted(op.row, np.arange(n + 1)))
    for a in (op.row, op.col, op.val, op.indptr, stencils.window_weights(7, 3, 4)):
        with pytest.raises(ValueError):
            a[0] = 0


def _loop_band(grid, lam):
    """Row-by-row band fill the vectorized Factorization must reproduce:
    the gbtrf-ready band, the two scales and the scaled entries in CSR order."""
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
    entries = []
    for i, (start, w) in enumerate(full_rows):
        for k, wv in enumerate(w):
            j = start + k
            ab[kl + ku + i - j, j] = wv * col_scale[j]
            entries.append(ab[kl + ku + i - j, j])
    return ab, row_scale, col_scale, np.array(entries)


# criterion 7's window [-12, 9] at n = 1345 has a step h that is not a power of two
@pytest.mark.parametrize("window", [pytest.param((-12.0, 4.0, n), id=str(n))
                                    for n in (64, 513, 1025, 4097)]
                         + [pytest.param((-12.0, 9.0, 1345), id="1345-criterion7")])
@pytest.mark.parametrize("lam", [0.1, 100.0, 400.0])
def test_vectorized_band_matches_row_loop(window, lam):
    grid = gridmod.LogGrid(*window)
    fac = resolvent.Factorization(resolvent.assemble(grid), lam)
    ab, row_scale, col_scale, entries = _loop_band(grid, lam)
    lu, piv, info = resolvent._gbtrf(ab, resolvent.KL, resolvent.KU)
    assert info == 0
    assert fac._lu.tobytes() == lu.tobytes() and fac._piv.tobytes() == piv.tobytes()
    assert fac._row_scale.tobytes() == row_scale.tobytes()
    assert fac._col_scale.tobytes() == col_scale.tobytes()
    assert fac._entries.tobytes() == entries.tobytes()


def test_operator_and_its_band_template_are_read_only():
    op = resolvent.assemble(gridmod.LogGrid(-12.0, 4.0, 64))
    for field in ("grid", "row", "col", "val", "indptr"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, field, getattr(op, field))
    band, index, row_max = op.band_template
    assert op.band_template[0] is band and op.abs_val is op.abs_val  # built once
    assert op.abs_val.tobytes() == np.abs(op.val).tobytes()
    assert band.ravel()[index].tobytes() == op.val.tobytes()
    assert np.count_nonzero(band) == np.count_nonzero(op.val)
    # each row's largest |entry|, leaving out the diagonal where lambda goes
    lam_free = np.abs(op.val) * ~((op.row == op.col) & (op.row >= 2) & (op.row < op.n - 2))
    assert row_max.tobytes() == np.maximum.reduceat(lam_free, op.indptr[:-1]).tobytes()
    for a in (band, index, row_max, op.abs_val):
        with pytest.raises(ValueError):
            a[0] = 0


def test_power_of_two_scale_equals_the_power_form_bitwise():
    # np.exp2 must be exact on every exponent the scales take: one ulp below, at and
    # above each power of two from 2^-1000 to 2^1000 (log2 rounds up just below one),
    # and subnormals, the smallest of whose scales overflow to inf in both forms
    powers = 2.0 ** np.arange(-1000, 1001)
    v = np.concatenate((np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
                        [5e-324, 2.0 ** -1060 * 1.5, np.nextafter(2.0 ** -1022, 0.0)]))
    with np.errstate(over="ignore"):
        got, want = resolvent._pow2(v), 2.0 ** -np.floor(np.log2(v))
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [64, 513, 1025, 4097])
@pytest.mark.parametrize("lam", [0.1, 100.0])
def test_refinement_product_keeps_the_diagonal_summation_order(n, lam):
    # The banded product the refinement residual used before the operator
    # became (row, column, value) arrays: diagonal by diagonal, from the
    # lowest sub-diagonal up, so each row is summed left to right from 0.0.
    # The hashed benchmark outputs depend on this order, which csr_product
    # keeps only as long as scipy's csr_matvec sums that way.
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
    got = resolvent.csr_product(op.indptr, op.col, fac._entries, y)
    assert got.tobytes() == diagonal_loop(y).tobytes()


@pytest.mark.parametrize("n", [64, 513, 4097])
@pytest.mark.parametrize("lam", [0.1, 400.0])
def test_product_equals_the_scipy_matrix_product_bitwise(n, lam):
    # csr_product calls scipy's private compiled kernel (csr_matvec) without the
    # matrix object: a scipy upgrade that moves the kernel or changes its summation
    # order fails here, not only in the benchmark's hashes
    op = resolvent.assemble(gridmod.LogGrid(-12.0, 4.0, n))
    fac = resolvent.Factorization(op, lam)
    y = np.random.default_rng(n).standard_normal(n) * 10.0 ** np.linspace(-8, 3, n)
    for val in (op.val, fac._entries, op.abs_val):
        want = sparse.csr_array((val, op.col, op.indptr), shape=(n, n)) @ y
        assert resolvent.csr_product(op.indptr, op.col, val, y).tobytes() == want.tobytes()


def test_product_rejects_a_vector_or_entries_the_kernel_would_overrun(monkeypatch):
    # the kernel reads y[col] and the entries unchecked: every malformed argument is a
    # GridError before it runs
    op = resolvent.assemble(gridmod.LogGrid(-12.0, 4.0, 64))
    n = op.n
    monkeypatch.setattr(resolvent, "_csr_matvec", _never_called)
    for y in (np.ones(n - 1), np.ones(n + 1), np.ones(n, dtype=np.float32),
              np.ones(n, dtype=int), np.ones(2 * n)[::2], np.ones((n, 1)), [1.0] * n):
        with pytest.raises(GridError, match=f"float64 vector of {n} values"):
            resolvent.csr_product(op.indptr, op.col, op.val, y)
    for val in (op.val[:-1], op.val.astype(np.float32), list(op.val)):
        with pytest.raises(GridError, match=f"{op.col.size} float64 entries"):
            resolvent.csr_product(op.indptr, op.col, val, np.ones(n))


def _never_called(*args, **kwargs):
    raise AssertionError("the kernel ran on arguments that were not checked")


def test_failed_refinement_raises(fine_grid, monkeypatch):
    op = resolvent.assemble(fine_grid)
    fac = resolvent.Factorization(op, 1.0)
    _, g = manufactured(fine_grid, 1.0)
    calls = []
    gbtrs = resolvent._gbtrs

    def fail_second(*args, **kwargs):
        calls.append(None)
        y, info = gbtrs(*args, **kwargs)
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
    g3 = gridmod.GridFunction(fine_grid, 3.0 * g.values)
    u3 = resolvent.solve(op, 2.0, g3, factorization=fac).solution.values
    # linear up to the refinement step's rounding
    assert np.max(np.abs(u3 - 3.0 * u1)) <= 1e-8 * np.max(np.abs(u3))


def test_solve_rejects_a_factorization_of_another_problem():
    grid = gridmod.LogGrid(-12.0, 4.0, 513)
    op = resolvent.assemble(grid)
    _, g = manufactured(grid, 2.0)
    with pytest.raises(SolverError, match=r"lambda = 100\.0, the solve needs lambda = 2\.0"):
        resolvent.solve(op, 2.0, g, factorization=resolvent.Factorization(op, 100.0))
    other = resolvent.assemble(gridmod.LogGrid(-10.0, 6.0, grid.n))
    with pytest.raises(GridError, match="factorization is built on"):
        resolvent.solve(op, 2.0, g, factorization=resolvent.Factorization(other, 2.0))
    # another operator on the same grid is the same operator
    twin = resolvent.Factorization(resolvent.assemble(grid), 2.0)
    got = resolvent.solve(op, 2.0, g, factorization=twin).solution.values
    assert got.tobytes() == resolvent.solve(op, 2.0, g).solution.values.tobytes()


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


def test_manufactured_error_meets_the_roundoff_floor():
    # past n = 1025 rounding amplified by h^-4, the fourth-order operator's
    # conditioning, outgrows the truncation error: the error rises ~16x per halving
    lam = 0.1
    errs = []
    for n in (513, 1025, 2049, 4097):
        g = gridmod.LogGrid(-12, 4, n)
        ustar, rhs = manufactured(g, lam)
        sol = resolvent.solve(resolvent.assemble(g), lam, rhs)
        errs.append(np.linalg.norm(sol.solution.values - ustar.values)
                    / np.linalg.norm(ustar.values))
    assert int(np.argmin(errs)) == 1
    assert 3.0 <= np.log2(errs[3] / errs[2]) <= 5.0


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


def _polyfit_line(r, y):
    return np.polyfit(r, y, 1)


def _masked_rate(u, lam, line_fit):
    """(slope, keep) of the far-field fit as written with boolean band masks,
    each line fitted by line_fit; with np.polyfit's SVD least squares it is
    the reference for the closed form. keep is None where the rate is NaN."""
    grid = u.grid
    mask = (grid.s >= grid.s_max - resolvent.FAR_BAND[0]) & \
        (grid.s <= grid.s_max - resolvent.FAR_BAND[1])
    vals = np.abs(u.values[mask])
    if vals.size < resolvent.FAR_MIN_NODES or np.any(vals < 1e-280) or np.any(vals == 0.0):
        return float("nan"), None
    q = vals.size // 4
    if np.mean(vals[-q:]) >= np.mean(vals[:q]):
        return float("nan"), None
    r = 4.0 * (lam * grid.x[mask]) ** 0.25
    y = -np.log(vals)
    slope, icpt = line_fit(r, y)
    keep = np.abs(y - (slope * r + icpt)) < 2.0
    if keep.sum() >= resolvent.FAR_MIN_NODES:
        slope = line_fit(r[keep], y[keep])[0]
    return float(slope), keep


def _mean_form_rate(u, lam):
    """far_field_rate with every mean taken by .mean(), as it was written before
    the sums divided by the size replaced them: the reference for their bits."""
    def line_fit(r, y):
        r_mean, y_mean = r.mean(), y.mean()
        dr = r - r_mean
        slope = np.dot(dr, y - y_mean) / np.dot(dr, dr)
        return slope, y_mean - slope * r_mean

    grid = u.grid
    band = slice(grid.s.searchsorted(grid.s_max - resolvent.FAR_BAND[0], side="left"),
                 grid.s.searchsorted(grid.s_max - resolvent.FAR_BAND[1], side="right"))
    vals = np.abs(u.values[band])
    if vals.size < resolvent.FAR_MIN_NODES or vals.min() < 1e-280:
        return float("nan")
    q = vals.size // 4
    if vals[-q:].mean() >= vals[:q].mean():
        return float("nan")
    r = 4.0 * (lam * grid.x[band]) ** 0.25
    y = -np.log(vals)
    slope, icpt = line_fit(r, y)
    keep = np.abs(y - (slope * r + icpt)) < 2.0
    if resolvent.FAR_MIN_NODES <= np.count_nonzero(keep) < keep.size:
        slope = line_fit(r[keep], y[keep])[0]
    return float(slope)


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def test_rate_equals_its_mean_form_bitwise():
    g = gridmod.LogGrid(-12, 7, 1217)
    lam = 3.0
    clean = np.exp(-2 * np.sqrt(2) * (lam * g.x) ** 0.25)
    noisy = clean.copy()
    noisy[::7] *= np.exp(-4.0)
    for values in (clean, noisy, np.ones(g.n), g.x):
        u = gridmod.GridFunction(g, values)
        assert _same_bits(resolvent.far_field_rate(u, lam), _mean_form_rate(u, lam))


SCAN_LAMBDAS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 400.0)  # resolvent_scan's


@pytest.mark.parametrize("n", [513, 1025, 2049, 4097])  # resolvent_scan's grids
def test_closed_form_rate_matches_polyfit(n):
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    op = resolvent.assemble(grid)
    for lam in SCAN_LAMBDAS:
        sol = resolvent.solve(op, lam, manufactured(grid, lam)[1])
        want, keep = _masked_rate(sol.solution, lam, _polyfit_line)
        assert sol.decay_rate_fit == pytest.approx(want, rel=1e-14, nan_ok=True)
        assert _same_bits(sol.decay_rate_fit, _mean_form_rate(sol.solution, lam))
        if keep is not None:
            assert np.array_equal(_masked_rate(sol.solution, lam, resolvent._line_fit)[1], keep)


def test_closed_form_rate_matches_polyfit_on_a_noisy_tail():
    # a clean far-field mode with every seventh tail node pulled down by e^-4,
    # so the robust re-fit drops those nodes and fits the rest
    g = gridmod.LogGrid(-12, 7, 1217)
    lam = 3.0
    values = np.exp(-2 * np.sqrt(2) * (lam * g.x) ** 0.25)
    values[::7] *= np.exp(-4.0)
    u = gridmod.GridFunction(g, values)
    want, keep = _masked_rate(u, lam, _polyfit_line)
    assert resolvent.FAR_MIN_NODES <= keep.sum() < keep.size
    assert np.array_equal(_masked_rate(u, lam, resolvent._line_fit)[1], keep)
    assert resolvent.far_field_rate(u, lam) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(1 / np.sqrt(2), abs=1e-10)


@pytest.mark.parametrize("lam", [-1.0, 0.0, np.nan, np.inf])
def test_far_field_rate_rejects_lambda(lam):
    g = gridmod.LogGrid(-12, 7, 1217)
    u = gridmod.GridFunction(g, np.exp(-2 * np.sqrt(2) * g.x ** 0.25))
    with pytest.raises(SolverError, match="lambda must be positive and finite"):
        resolvent.far_field_rate(u, lam)


def _grid_function_residual(op, lam, u, g):
    """interior_residual as written on GridFunctions: A u from the public
    polyops.apply_operator and the row magnitudes from a scipy CSR matrix,
    the same sums in the same order."""
    au = polyops.apply_operator(u)
    res = lam * u.values + au.values - g.values
    absu = np.abs(u.values)
    den = sparse.csr_array((np.abs(op.val), op.col, op.indptr), shape=(op.n, op.n)) @ absu
    den += lam * absu + np.abs(g.values) + 1e-300
    sl = slice(polyops.EDGE_SKIP, op.n - polyops.EDGE_SKIP)
    return float(np.max(np.abs(res[sl]) / den[sl]))


@pytest.mark.parametrize("n", [513, 4097])
@pytest.mark.parametrize("lam", [0.1, 400.0])
def test_interior_residual_matches_the_grid_function_form(n, lam):
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    op = resolvent.assemble(grid)
    _, g = manufactured(grid, lam)
    sol = resolvent.solve(op, lam, g)
    want = _grid_function_residual(op, lam, sol.solution, g)
    assert np.float64(sol.residual_norm).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("field", ["u", "g"])
def test_interior_residual_rejects_fields_off_the_operator_grid(field):
    op = resolvent.assemble(gridmod.LogGrid(-12.0, 4.0, 513))
    fields = dict(zip("ug", manufactured(op.grid, 1.0)))
    fields[field] = manufactured(gridmod.LogGrid(-10.0, 4.0, 513), 1.0)["ug".index(field)]
    name = "solution u" if field == "u" else "right-hand side g"
    with pytest.raises(GridError, match=name):
        resolvent.interior_residual(op, 1.0, fields["u"], fields["g"])


def test_left_edge_coefficient_relation():
    # steady-state recursion at j = 1: lam u1 + 12 u3 = g1
    lam = 1.0
    g = gridmod.LogGrid(-12, 4, 2049)
    _, rhs = manufactured(g, lam)
    op = resolvent.assemble(g)
    sol = resolvent.solve(op, lam, rhs)
    u1, _, u3 = evolution.leading_coefficients(sol.solution.values, g)
    g1 = -12.0  # leading coefficient of the manufactured right-hand side
    assert abs(lam * u1 + 12 * u3 - g1) / abs(g1) < 1e-3


def test_failed_factorization_raises(monkeypatch):
    g = gridmod.LogGrid(-12.0, 4.0, 129)
    op = resolvent.assemble(g)
    gbtrf = resolvent._gbtrf

    def fail(*args, **kwargs):
        lu, piv, _ = gbtrf(*args, **kwargs)
        return lu, piv, 7  # a zero pivot in column 7

    monkeypatch.setattr(resolvent, "_gbtrf", fail)
    with pytest.raises(SolverError, match=r"banded factorization failed \(info=7\)"):
        resolvent.Factorization(op, 1.0)


def test_solve_accepts_data_that_decays_at_the_contact_line():
    # sqrt(x) e^{-x}: its left band is 6.1e-3 of its maximum, above the probe's
    # small-band shortcut, and the compatibility probe passes it on its decay
    g = gridmod.LogGrid(-12.0, 4.0, 1025)
    x = g.x
    rhs = gridmod.GridFunction(g, np.sqrt(x) * np.exp(-x))
    assert np.max(np.abs(rhs.values[:8])) > 1e-3 * np.max(np.abs(rhs.values))
    sol = resolvent.solve(resolvent.assemble(g), 1.0, rhs)
    assert sol.residual_norm < 1e-12  # 2.5e-14
