import dataclasses
import re

import numpy as np
import pytest

from conftest import ds_any, gaussian_bump
from thinfilm import grid as gridmod
from thinfilm import nonlinear, stencils
from thinfilm.errors import GridError


def test_loggrid_validation():
    with pytest.raises(GridError):
        gridmod.LogGrid(1.0, 0.0, 100)
    with pytest.raises(GridError):
        gridmod.LogGrid(-1.0, 1.0, 8)
    g = gridmod.LogGrid(-12, 4, 1025)
    assert g.h == pytest.approx(16 / 1024)
    assert np.allclose(np.diff(g.s), g.h)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s_min, s_max", [(-np.inf, 4.0), (-12.0, np.inf), (np.nan, 4.0),
                                          (-12.0, np.nan), (-np.inf, np.inf), (np.inf, np.inf),
                                          (-1e308, 1e308), (np.float64(-1e308), 1e308)])
def test_loggrid_rejects_non_finite_bounds(s_min, s_max):
    # LogGrid(-inf, 4, 1025) was accepted, with h = inf and NaN nodes after numpy warnings;
    # so were finite bounds whose width overflows
    with pytest.raises(GridError, match="s_min and s_max must be finite"):
        gridmod.LogGrid(s_min, s_max, 1025)


@pytest.mark.parametrize("n", [1025.0, 1025.5, "1025", None])
def test_loggrid_rejects_a_non_integer_node_count(n):
    # LogGrid(-12, 4, 1025.0) failed later, with a TypeError from np.linspace
    with pytest.raises(GridError, match="n must be an integer"):
        gridmod.LogGrid(-12.0, 4.0, n)
    assert gridmod.LogGrid(-12.0, 4.0, np.int64(1025)).s.size == 1025  # numpy integers pass


@pytest.mark.parametrize("name", ["s", "x"])
def test_coordinates_stay_class_properties(name):
    assert isinstance(gridmod.LogGrid.__dict__[name], property)


def test_cached_coordinates_match_fresh_and_are_read_only():
    g = gridmod.LogGrid(-12.0, 4.0, 513)
    s = np.linspace(g.s_min, g.s_max, g.n)
    fresh = {"s": s, "x": np.exp(s), "inv_x": np.exp(-s), "inv_x2": np.exp(-2.0 * s)}
    for name, want in fresh.items():
        got = getattr(g, name)
        assert got is getattr(gridmod.LogGrid(-12.0, 4.0, 513), name)
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 0.0


def test_grid_constants_are_computed_once_per_instance(monkeypatch):
    calls = []
    exp = gridmod.LogGrid.exp

    def counted(self, a):
        calls.append(a)
        return exp(self, a)

    monkeypatch.setattr(gridmod.LogGrid, "exp", counted)
    g = gridmod.LogGrid(-12.0, 4.0, 257)
    assert "h" not in vars(g)
    for _ in range(3):
        for name in ("h", "inv_x", "inv_x2"):
            assert getattr(g, name) is vars(g)[name]
    assert vars(g)["h"] == 16.0 / 256
    assert calls == [-1.0, -2.0]
    assert g.x is g.x  # the coordinates stay properties, read afresh through exp
    assert calls == [-1.0, -2.0, 1.0, 1.0]


def test_cached_grid_constants_match_fresh_and_stay_read_only():
    g = gridmod.LogGrid(-12.0, 9.0, 1345)
    s = np.linspace(g.s_min, g.s_max, g.n)
    assert g.h == (g.s_max - g.s_min) / (g.n - 1)
    for name, want in {"inv_x": np.exp(-s), "inv_x2": np.exp(-2.0 * s)}.items():
        got = getattr(g, name)
        assert np.array_equal(got, want)
        with pytest.raises(ValueError):
            got[0] = 0.0
    for name in ("h", "inv_x", "inv_x2"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(g, name, 1.0)


def test_cached_grid_constants_leave_equality_and_hashing_to_the_fields():
    read = gridmod.LogGrid(-12.0, 4.0, 129)
    read.h, read.inv_x, read.inv_x2
    fresh = gridmod.LogGrid(-12.0, 4.0, 129)
    assert read == fresh and hash(read) == hash(fresh)
    assert {fresh: 1}[read] == 1
    assert repr(read) == repr(fresh) == "LogGrid(s_min=-12.0, s_max=4.0, n=129)"
    assert dataclasses.astuple(read) == (-12.0, 4.0, 129)
    assert read != gridmod.LogGrid(-12.0, 4.0, 257)


@pytest.mark.parametrize("a", [-0.5, -2.0, -3.0, 1, 2, 2.5])
def test_cached_exp_weight_matches_fresh_and_is_read_only(a):
    g = gridmod.LogGrid(-12.0, 4.0, 513)
    got = g.exp(a)
    assert got is gridmod.LogGrid(-12.0, 4.0, 513).exp(a)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.exp(a * np.linspace(g.s_min, g.s_max, g.n)))
    with pytest.raises(ValueError):
        got[0] = 0.0


def test_gridfunction_immutable_and_checked(default_grid):
    w = gridmod.monomial(default_grid, 1)
    with pytest.raises(AttributeError):
        w.values = np.zeros(default_grid.n)
    with pytest.raises(ValueError):
        w.values[0] = 1.0
    with pytest.raises(GridError):
        gridmod.GridFunction(default_grid, np.full(default_grid.n, np.nan))
    # a record with no arithmetic: fields combine through .values
    with pytest.raises(TypeError):
        _ = w + w


def test_d_derivative_examples(default_grid):
    # D^j = d^j/ds^j on the log grid: e^{2s} -> 2 e^{2s} at fourth order,
    # confirmed by halving h
    errs = []
    for g in (gridmod.LogGrid(-12, 4, 513), gridmod.LogGrid(-12, 4, 1025),
              gridmod.LogGrid(-12, 4, 2049)):
        w = gridmod.monomial(g, 2).values
        d = stencils.apply_derivative(w, 1, g.h)
        errs.append(np.max(np.abs(d / w - 2.0)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.5

    # zero analytically; the bound reflects the h^{-4}-scaled weight roundoff
    g = default_grid
    const = np.full(g.n, 2.5)
    for j in range(1, 5):
        assert np.max(np.abs(stencils.apply_derivative(const, j, g.h))) < 1e-5

    assert np.max(np.abs(stencils.apply_derivative(g.s, 2, g.h))) < 1e-9

    with pytest.raises(ValueError, match="not in 1..4"):
        stencils.apply_derivative(const, 5, g.h)


def test_weighted_norm_closed_forms(default_grid):
    beta, alpha = 1.5, 0.25
    g = default_grid
    w = gridmod.monomial(g, beta)
    d = beta - alpha
    closed = np.sqrt((np.exp(2 * d * g.s_max) - np.exp(2 * d * g.s_min)) / (2 * d))
    got = gridmod.weighted_norm(w, gridmod.NormSpec(0, alpha))
    assert got == pytest.approx(closed, rel=2e-3)
    got2 = gridmod.weighted_norm(w, gridmod.NormSpec(2, alpha))
    assert got2 == pytest.approx(closed * np.sqrt(1 + beta**2 + beta**4), rel=2e-3)
    zero = gridmod.zero(g)
    assert gridmod.weighted_norm(zero, gridmod.NormSpec(3, 0.7)) == 0.0


def test_weighted_norm_monotone_in_k(default_grid):
    w = gaussian_bump(default_grid)
    norms = [gridmod.weighted_norm(w, gridmod.NormSpec(k, 0.3)) for k in range(5)]
    assert all(norms[i + 1] >= norms[i] for i in range(4))


def test_norm_triangle_and_homogeneity(default_grid, rng):
    spec = gridmod.NormSpec(2, 0.4)
    for _ in range(10):
        a = gaussian_bump(default_grid, center=rng.uniform(-8, 0),
                          width=rng.uniform(0.4, 1.5), amplitude=rng.normal())
        b = gaussian_bump(default_grid, center=rng.uniform(-8, 0),
                          width=rng.uniform(0.4, 1.5), amplitude=rng.normal())
        na, nb = gridmod.weighted_norm(a, spec), gridmod.weighted_norm(b, spec)
        nab = gridmod.weighted_norm(gridmod.GridFunction(default_grid, a.values + b.values), spec)
        assert nab <= (na + nb) * (1 + 1e-12)
        c = rng.normal()
        ca = gridmod.GridFunction(default_grid, c * a.values)
        assert gridmod.weighted_norm(ca, spec) == pytest.approx(abs(c) * na, rel=1e-12)


def test_extract_coefficients(default_grid):
    x = default_grid.x
    w = gridmod.GridFunction(default_grid, 2 * x + 5 * x**2)
    u1, u2 = gridmod.extract_coefficients(w, 2)
    assert abs(u1 - 2) < 1e-8 and abs(u2 - 5) < 1e-8

    w3 = gridmod.monomial(default_grid, 3)
    u1, u2 = gridmod.extract_coefficients(w3, 2)
    assert abs(u1) < 1e-6 and abs(u2) < 1e-6

    assert gridmod.extract_coefficients(gridmod.zero(default_grid), 3) == (0, 0, 0)

    shallow = gridmod.LogGrid(-4, 4, 256)
    with pytest.raises(GridError):
        gridmod.extract_coefficients(gridmod.monomial(shallow, 1), 1)


def test_extract_consistent_with_v_limit(default_grid):
    # u = (3x^2 + 2x) v with v -> v0 at the contact line implies u1 = 2 v0
    x = default_grid.x
    u = gridmod.GridFunction(default_grid, (3 * x * x + 2 * x) * (0.3 + 0.1 * x))
    u1 = gridmod.extract_coefficients(u, 1)[0]
    v0 = nonlinear.contact_line_shift(u.values, default_grid)
    assert u1 == pytest.approx(0.6, abs=1e-8)
    assert 2 * v0 == pytest.approx(u1, abs=1e-8)


@pytest.mark.filterwarnings("error")
def test_fits_reject_an_overflowing_input(default_grid):
    # a fitted coefficient that overflows was returned as inf or NaN after numpy warnings
    n = default_grid.n
    with pytest.raises(GridError, match="contact-line fit is not finite"):
        gridmod.fit_powers(np.full(n, 1e305), default_grid, -np.inf, gridmod.FIT_BAND, 3)
    with pytest.raises(GridError, match="contact-line fit is not finite"):
        gridmod.extract_coefficients(gridmod.GridFunction(default_grid, np.full(n, 1e300)), 3)
    # on a window as wide as [-300, 4] the weight e^{3|s|} of a fit overflows itself
    wide = gridmod.LogGrid(-300.0, 4.0, 4097)
    with pytest.raises(GridError, match="contact-line fit is not finite"):
        gridmod.fit_powers(np.ones(wide.n), wide, 7.0, 9.5, 3, a=-3.0)


def test_fit_weight_is_the_product_taken_before_the_fit(default_grid, rng):
    y = rng.standard_normal((3, default_grid.n))
    for a in (-3.0, -2.0, -1.0, 0.0):
        got = gridmod.fit_powers(y, default_grid, 3.0, 6.0, 3, a=a)
        want = gridmod.fit_powers(y * default_grid.exp(a), default_grid, 3.0, 6.0, 3)
        assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("error")
def test_composite_init_norm_rejects_an_overflowing_weight():
    # on [-160, 4] the weight e^{-4.5 s} of (sub, beta) = (2, 2.25) overflows
    g = gridmod.LogGrid(-160.0, 4.0, 1025)
    x = g.x
    with pytest.raises(GridError, match=r"initial-data norm \(N = 1, k = 3, delta = 0\.25\) "
                                        r"is not finite"):
        gridmod.composite_init_norm(x**3 * np.exp(-x), g, 1, 3, 0.25)


def test_index_sets():
    first, second = gridmod.index_sets(1, 0.25)
    assert sorted(first) == [(0.25, 0, 0), (0.25, 0, 1), (0.25, 1, 0), (1.25, 0, 0)]
    assert len(second) == 2 * len(first)
    first0, _ = gridmod.index_sets(0, 0.25)
    assert sorted(first0) == [(0.25, 0, 0)]
    first2, _ = gridmod.index_sets(2, 0.1)
    assert (1.1, 1, 0) in first2 and (0.1, 0, 2) in first2 and (1.1, 1, 1) not in first2


def test_composite_init_norm_matches_direct_assembly(default_grid):
    g = default_grid
    x, s = g.x, g.s
    w = gridmod.GridFunction(g, x**3 * np.exp(-x))
    comp = gridmod.composite_init_norm(w.values, w.grid, 1, 3, 0.25)
    u1, u2 = gridmod.extract_coefficients(w, 2)
    total = 0.0
    for sub, alpha in ((0, 0.25), (1, 1.25), (2, 2.25)):
        vals = w.values.copy()
        if sub >= 1:
            vals = vals - u1 * np.exp(s)
        if sub >= 2:
            vals = vals - u2 * np.exp(2 * s)
        total += gridmod.weighted_norm(gridmod.GridFunction(g, vals),
                                       gridmod.NormSpec(8, alpha)) ** 2
    assert comp == pytest.approx(np.sqrt(total), rel=1e-6)


def test_composite_init_norm_exact_expansion():
    # w = u1 x exactly: only the unsubtracted term contributes. The eight
    # derivatives amplify the cancellation residue by (1/h^4)^2, so the
    # check runs on a coarse grid where that floor is far below the signal.
    g = gridmod.LogGrid(-12, 4, 65)
    w = gridmod.GridFunction(g, 0.7 * gridmod.monomial(g, 1).values)
    comp = gridmod.composite_init_norm(w.values, w.grid, 1, 3, 0.25)
    base = gridmod.weighted_norm(w, gridmod.NormSpec(8, 0.25))
    assert comp == pytest.approx(base, rel=1e-7)
    assert gridmod.composite_init_norm(np.zeros(g.n), g, 1, 3, 0.25) == 0.0


@pytest.mark.parametrize("shape", [(2, 3, 65), (65, 1, 1), (64,), (2, 64), ()])
def test_composite_init_norm_takes_one_field_or_a_stack(shape):
    # a 3-D array raised numpy's "non-broadcastable output operand" ValueError
    g = gridmod.LogGrid(-12, 4, 65)
    with pytest.raises(GridError, match=r"one field of 65 values or a \(steps, 65\) stack"):
        gridmod.composite_init_norm(np.zeros(shape), g, 1, 3, 0.25)


def test_composite_init_norm_takes_one_stencil_call_per_order(default_grid, monkeypatch):
    # N = 1, k = 3: three (sub, beta) rows and 8 s-derivatives, the rows
    # differentiated as one stack: one call per derivative order; a stack of
    # stored steps takes its steps' rows as one stack, STEP_STACK steps at a time
    w = gaussian_bump(default_grid)
    shapes = []
    apply_derivative = stencils.apply_derivative

    def counted(values, m, h):
        shapes.append(np.shape(values))
        return apply_derivative(values, m, h)

    monkeypatch.setattr(stencils, "apply_derivative", counted)
    n, K = default_grid.n, gridmod.STEP_STACK
    gridmod.composite_init_norm(w.values, w.grid, 1, 3, 0.25)
    assert shapes == [(1, 3, n)] * 8
    shapes.clear()
    gridmod.composite_init_norm(np.tile(w.values, (2 * K + 1, 1)), default_grid, 1, 3, 0.25)
    assert shapes == [(K, 3, n)] * 16 + [(1, 3, n)] * 8


def test_composite_norm_dispatch_and_bounds(default_grid):
    w = gaussian_bump(default_grid)
    traj = [(0.1 * j, w) for j in range(4)]
    with pytest.raises(GridError, match="N <= 2"):
        gridmod.composite_init_norm(w.values, w.grid, 3, 3, 0.25)
    with pytest.raises(GridError, match="N <= 2"):
        gridmod.composite_sol_norm(traj, 3, 3, 0.25)
    with pytest.raises(GridError, match="N <= 2"):
        gridmod.composite_rhs_norm(traj, 3, 3, 0.25)
    uneven = [(t, w) for t in (0.0, 0.1, 0.3)]
    for norm in (gridmod.composite_sol_norm, gridmod.composite_rhs_norm):
        with pytest.raises(GridError, match="shorter than the time-difference stencil"):
            norm([(0.0, w)], 1, 3, 0.25)
        with pytest.raises(GridError, match="uniformly stored steps"):
            norm(uneven, 1, 3, 0.25)


def _parent_sol_norm(traj, N, k, delta):
    """composite_sol_norm as written before the term-list evaluator."""
    times = np.array([t for t, _ in traj])
    dt = times[1] - times[0]
    grid = traj[0][1].grid
    values = np.stack([gf.values for _, gf in traj])
    first, second = gridmod.index_sets(N, delta)
    coeffs = gridmod._fit_expansion(values, grid, 5)
    under = values / (grid.x + 1.0)[None, :]
    under_coeffs = gridmod._underline_coeffs(coeffs)
    dvalues, dunder, dcoeffs, ducoeffs = {0: values}, {0: under}, {0: coeffs}, {0: under_coeffs}
    for l in range(1, N + 2):
        dvalues[l] = gridmod._time_derivative(values, dt, l)
        dunder[l] = gridmod._time_derivative(under, dt, l)
        dcoeffs[l] = gridmod._time_derivative(coeffs, dt, l)
        ducoeffs[l] = gridmod._time_derivative(under_coeffs, dt, l)
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
            total += float(np.max(_per_row_series(dvalues[l], dcoeffs[l], grid, kn,
                                                  alpha + m + r, fl + m + r)))
    for alpha, l, m in second:
        fl = int(np.floor(alpha))
        for r in range(m + 1):
            kn = k + 4 * (N - l) - 1
            sub = max(fl + m + r - 1, 0)
            key = ("iu", l + 1, sub, alpha + m + r - 1, kn)
            if key not in seen:
                seen.add(key)
                total += float(stencils.trapezoid(_per_row_series(
                    dunder[l + 1], ducoeffs[l + 1], grid, kn, alpha + m + r - 1, sub), dt))
            kn = k + 4 * (N - l) + 3
            key = ("ih", l, fl + m + r + 1, alpha + m + r + 1, kn)
            if key not in seen:
                seen.add(key)
                total += float(stencils.trapezoid(_per_row_series(
                    dvalues[l], dcoeffs[l], grid, kn, alpha + m + r + 1, fl + m + r + 1), dt))
    return float(np.sqrt(total))


def _parent_rhs_norm(traj, N, k, delta):
    """composite_rhs_norm as written before the term-list evaluator."""
    times = np.array([t for t, _ in traj])
    dt = times[1] - times[0]
    grid = traj[0][1].grid
    values = np.stack([gf.values for _, gf in traj])
    coeffs = gridmod._fit_expansion(values, grid, 5)
    under = values / (grid.x + 1.0)[None, :]
    under_coeffs = gridmod._underline_coeffs(coeffs)
    dvalues, dunder, dcoeffs, ducoeffs = {0: values}, {0: under}, {0: coeffs}, {0: under_coeffs}
    for l in range(1, N + 1):
        dvalues[l] = gridmod._time_derivative(values, dt, l)
        dunder[l] = gridmod._time_derivative(under, dt, l)
        dcoeffs[l] = gridmod._time_derivative(coeffs, dt, l)
        ducoeffs[l] = gridmod._time_derivative(under_coeffs, dt, l)
    total = 0.0
    seen = set()
    if N >= 1:
        first_lower, _ = gridmod.index_sets(N - 1, delta)
        for alpha, l, m in first_lower:
            fl = int(np.floor(alpha))
            kn = k + 4 * (N - l) - 3
            for r in range(m + 1):
                key = ("sup", l, fl + m + r, alpha + m + r, kn)
                if key in seen:
                    continue
                seen.add(key)
                total += float(np.max(_per_row_series(dvalues[l], dcoeffs[l], grid, kn,
                                                      alpha + m + r, fl + m + r)))
    _, second = gridmod.index_sets(N, delta)
    for alpha, l, m in second:
        fl = int(np.floor(alpha))
        kn = k + 4 * (N - l) - 1
        for r in range(m + 1):
            sub = max(fl + m + r - 1, 0)
            key = ("iu", l, sub, alpha + m + r - 1, kn)
            if key in seen:
                continue
            seen.add(key)
            total += float(stencils.trapezoid(_per_row_series(
                dunder[l], ducoeffs[l], grid, kn, alpha + m + r - 1, sub), dt))
    return float(np.sqrt(total))


def _parent_init_norm(w, N, k, delta):
    """composite_init_norm as written before the term-list evaluator."""
    first, _ = gridmod.index_sets(N, delta)
    pairs = sorted({(int(np.floor(alpha)) + m + r, alpha + m + r)
                    for alpha, _l, m in first for r in range(m + 1)})
    coeffs = gridmod._fit_expansion(w.values, w.grid, 5)
    total = 0.0
    for sub, alpha in pairs:
        v = gridmod._minus_expansion(w.values, coeffs[:sub], w.grid)
        total += gridmod.weighted_norm(gridmod.GridFunction(w.grid, v),
                                       gridmod.NormSpec(k + 4 * N + 1, alpha)) ** 2
    return float(np.sqrt(total))


_COARSE = gridmod.LogGrid(-12.0, 4.0, 257)


@pytest.mark.parametrize("norm", ["init", "sol", "rhs"])
@pytest.mark.parametrize("N, k, delta, message", [
    (-1, 3, 0.25, "0 <= N <= 2"),
    (3, 3, 0.25, "0 <= N <= 2"),
    (1, -5, 0.25, "k >= 0"),
    (0, -1, 0.25, "k >= 0"),
    (1, 3, 0.7, "0 < delta < 1/2"),
    (1, 3, -0.2, "0 < delta < 1/2"),
    (1, 3, 0.0, "0 < delta < 1/2"),
    (1, 3, 0.5, "0 < delta < 1/2"),
])
def test_composite_norms_reject_unsupported_indices(norm, N, k, delta, message):
    # these indices used to give 0.0 (N = -1, k = -5) or an unbounded value
    # (delta outside (0, 1/2)) instead of an error
    x = _COARSE.x
    w = gridmod.GridFunction(_COARSE, x**3 * np.exp(-x))
    traj = [(0.1 * j, w) for j in range(4)]
    evaluate = {"init": lambda: gridmod.composite_init_norm(w.values, w.grid, N, k, delta),
                "sol": lambda: gridmod.composite_sol_norm(traj, N, k, delta),
                "rhs": lambda: gridmod.composite_rhs_norm(traj, N, k, delta)}[norm]
    with pytest.raises(GridError, match=re.escape(message)):
        evaluate()
_BASES = [lambda x: x**3 * np.exp(-x), lambda x: (0.4 * x + 0.3 * x * x + x**3) * np.exp(-x)]


@pytest.mark.parametrize("N", [0, 1, 2])
@pytest.mark.parametrize("delta", [0.1, 0.4])
@pytest.mark.parametrize("base", range(len(_BASES)))
def test_composite_norms_match_the_parent_loops(N, delta, base):
    # the term-list evaluator sums the same distinct terms in the same order
    # as the per-norm loops it replaced, so the sums agree bitwise
    x = _COARSE.x
    field = _BASES[base](x)
    traj = [(t, gridmod.GridFunction(_COARSE, np.exp(-2 * t) * field))
            for t in np.linspace(0.0, 0.2, 6)]
    assert gridmod.composite_sol_norm(traj, N, 3, delta) == _parent_sol_norm(traj, N, 3, delta)
    assert gridmod.composite_rhs_norm(traj, N, 3, delta) == _parent_rhs_norm(traj, N, 3, delta)
    # the parent squared weighted_norm's square root; the evaluator sums the
    # squares directly, so the two may differ in the last bits
    w = traj[0][1]
    assert gridmod.composite_init_norm(w.values, w.grid, N, 3, delta) == pytest.approx(
        _parent_init_norm(w, N, 3, delta), rel=1e-15, abs=0.0)


def _per_row_norm_sq(values, k, alpha, grid):
    """_norm_sq of one field as written before the derivative tower: every
    order differentiated from scratch by ds_any."""
    weight = grid.exp(-2.0 * alpha)
    total = 0.0
    for j in range(k + 1):
        dj = ds_any(values, j, grid.h)
        total += stencils.trapezoid(weight * dj * dj, grid.h)
    return max(total, 0.0)


def _per_row_series(values, coeffs, grid, kn, alpha, sub):
    """|w(t) - sum_{j<=sub} c_j(t) x^j|_{kn,alpha}^2 at every stored step, one
    step and one row at a time."""
    return np.array([_per_row_norm_sq(gridmod._minus_expansion(v, c[:sub], grid), kn, alpha, grid)
                     for v, c in zip(values, coeffs)])


@pytest.mark.parametrize("kn", [0, 4, 8, 11])
@pytest.mark.parametrize("sub", [0, 2, 5])
def test_norm_series_matches_per_step_ds_any(kn, sub):
    # each stored step and each (sub, alpha) row on its own, each order from
    # ds_any: the tower composes D^4 first, as ds_any does, and a stacked
    # stencil call equals its per-row calls, so the series agree bitwise
    x = _COARSE.x
    values = np.stack([np.exp(-2 * t) * _BASES[1](x) for t in np.linspace(0.0, 0.2, 6)])
    coeffs = gridmod._fit_expansion(values, _COARSE, 5)
    rows = [(sub, 0.75), (0, 1.25), (3, 0.25)]
    got = gridmod._norm_series(values, coeffs, _COARSE, kn, rows)
    assert got.shape == (6, 3)
    for col, (row_sub, alpha) in zip(got.T, rows):
        assert np.array_equal(col, _per_row_series(values, coeffs, _COARSE, kn, alpha, row_sub))


@pytest.mark.parametrize("N", [0, 1, 2])
@pytest.mark.parametrize("base", range(len(_BASES)))
def test_stacked_init_norm_matches_per_row_norms(N, base):
    # the (sub, beta) rows differentiated as one stack give the per-row
    # squares of ds_any bitwise, summed in sorted (sub, beta) order
    w = gridmod.GridFunction(_COARSE, _BASES[base](_COARSE.x))
    first, _ = gridmod.index_sets(N, 0.25)
    pairs = sorted({(int(np.floor(alpha)) + m + r, alpha + m + r)
                    for alpha, _l, m in first for r in range(m + 1)})
    coeffs = gridmod._fit_expansion(w.values, _COARSE, 5)
    total = 0.0
    for sub, beta in pairs:
        v = gridmod._minus_expansion(w.values, coeffs[:sub], _COARSE)
        total += _per_row_norm_sq(v, 3 + 4 * N + 1, beta, _COARSE)
    assert gridmod.composite_init_norm(w.values, w.grid, N, 3, 0.25) == float(np.sqrt(total))


def test_composite_sol_norm_matches_direct_assembly_n0(default_grid):
    # N = 0: the index sets are {(d,0,0)} and {(d,0,0), (d-1/2,0,0)}, so the
    # squared norm is sup_t |u|_{k+1,d}^2 plus the time integrals of
    # |du/dt / (x+1)|_{k-1,d-1}^2, |du/dt / (x+1)|_{k-1,d-3/2}^2,
    # |u|_{k+3,1+d}^2 and |u|_{k+3,1/2+d}^2 (no expansion subtraction)
    g = default_grid
    x = g.x
    k, delta = 3, 0.25
    times = np.linspace(0.0, 0.2, 9)
    dt = times[1] - times[0]
    base = x**3 * np.exp(-x)
    traj = [(t, gridmod.GridFunction(g, np.exp(-2 * t) * base)) for t in times]
    got = gridmod.composite_sol_norm(traj, 0, k, delta)

    rates = np.empty((9, g.n))
    vals = np.array([np.exp(-2 * t) * base for t in times])
    rates[1:-1] = (vals[2:] - vals[:-2]) / (2 * dt)
    rates[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * dt)
    rates[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * dt)

    def series(fields, kn, alpha):
        return np.array([gridmod.weighted_norm(gridmod.GridFunction(g, f),
                                               gridmod.NormSpec(kn, alpha)) ** 2
                         for f in fields])

    total = np.max(series(vals, k + 1, delta))
    under = rates / (x + 1.0)[None, :]
    for alpha in (delta - 1.0, delta - 1.5):
        total += np.trapezoid(series(under, k - 1, alpha), dx=dt)
    for alpha in (delta + 1.0, delta + 0.5):
        total += np.trapezoid(series(vals, k + 3, alpha), dx=dt)
    assert got == pytest.approx(np.sqrt(total), rel=1e-9)

    # with u1 != 0 the (1+d)-weight time-integral term subtracts u1(t) x
    base2 = (0.4 * x + x**3) * np.exp(-x)
    traj2 = [(t, gridmod.GridFunction(g, np.exp(-2 * t) * base2)) for t in times]
    got2 = gridmod.composite_sol_norm(traj2, 0, k, delta)
    vals2 = np.array([np.exp(-2 * t) * base2 for t in times])
    rates2 = np.empty_like(vals2)
    rates2[1:-1] = (vals2[2:] - vals2[:-2]) / (2 * dt)
    rates2[0] = (-3 * vals2[0] + 4 * vals2[1] - vals2[2]) / (2 * dt)
    rates2[-1] = (3 * vals2[-1] - 4 * vals2[-2] + vals2[-3]) / (2 * dt)
    u1 = 0.4 * np.exp(-2 * times)  # (0.4 x + x^3) e^{-x} has u1 = 0.4
    sub2 = vals2 - u1[:, None] * x[None, :]
    total2 = np.max(series(vals2, k + 1, delta))
    under2 = rates2 / (x + 1.0)[None, :]
    for alpha in (delta - 1.0, delta - 1.5):
        total2 += np.trapezoid(series(under2, k - 1, alpha), dx=dt)
    total2 += np.trapezoid(series(sub2, k + 3, delta + 1.0), dx=dt)
    total2 += np.trapezoid(series(vals2, k + 3, delta + 0.5), dx=dt)
    assert got2 == pytest.approx(np.sqrt(total2), rel=1e-6)


def test_composite_sol_and_rhs_norms_scale(default_grid):
    g = default_grid
    x = g.x
    base = x**3 * np.exp(-x)
    traj = [(t, gridmod.GridFunction(g, np.exp(-2 * t) * base))
            for t in np.linspace(0, 0.2, 9)]
    ns = gridmod.composite_sol_norm(traj, 1, 3, 0.25)
    nr = gridmod.composite_rhs_norm(traj, 1, 3, 0.25)
    assert ns > 0 and nr > 0
    traj2 = [(t, gridmod.GridFunction(g, 2 * np.exp(-2 * t) * base))
             for t in np.linspace(0, 0.2, 9)]
    assert gridmod.composite_sol_norm(traj2, 1, 3, 0.25) == pytest.approx(2 * ns, rel=1e-9)
    assert gridmod.composite_rhs_norm(traj2, 1, 3, 0.25) == pytest.approx(2 * nr, rel=1e-9)


def test_normspec_validation():
    with pytest.raises(GridError):
        gridmod.NormSpec(-1, 0.0)
    with pytest.raises(GridError):
        gridmod.NormSpec(2, 0.0, sub=-1)
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(GridError, match="alpha must be finite"):
            gridmod.NormSpec(2, alpha)
    for sub in (4, 5):  # extract_coefficients fits at most 3 expansion terms
        with pytest.raises(GridError, match="sub must lie in 0..3"):
            gridmod.NormSpec(2, 0.5, sub=sub)
