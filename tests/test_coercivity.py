import numpy as np
import pytest

from conftest import gaussian_bump, shifted_pair
from thinfilm import coercivity, elliptic, polyops, stencils
from thinfilm import grid as gridmod
from thinfilm.errors import SupportError

SQ11_3 = np.sqrt(11.0 / 3.0)
MARGIN_SCAN = 4001  # normalized_margin: linear scan points on mu = xi^2 in [0, 4],
MARGIN_MU_MAX = 400.0  # then MARGIN_SCAN // 2 geometric ones up to this mu


def symbol(p, alpha, xi):
    """Re prod(i xi + alpha - root), a real polynomial in xi^2."""
    e2, e4 = coercivity._sym(p, alpha)
    mu = np.asarray(xi, dtype=float) ** 2
    out = mu * mu - e2 * mu + e4
    return out if out.ndim else float(out)


def normalized_margin(p, alpha):
    """min over xi of Re P(i xi + alpha) / sum_{j<=2} (xi^2 + alpha^2)^j.

    This is the constant that bounds the quadratic form against the full
    two-derivative norm: in Fourier variables of e^{-alpha s} u the j-th
    derivative term carries (xi^2 + alpha^2)^j, while the bare symbol margin
    only controls the j = 0 part. Dense scan in mu = xi^2.
    """
    e2, e4 = coercivity._sym(p, alpha)
    mu = np.concatenate([np.linspace(0.0, 4.0, MARGIN_SCAN),
                         np.geomspace(4.0, MARGIN_MU_MAX, MARGIN_SCAN // 2)])
    shifted = mu + alpha * alpha
    ratio = (mu * mu - e2 * mu + e4) / (1.0 + shifted + shifted * shifted)
    return float(min(ratio.min(), 1.0))


def quadratic_form_check(p, alpha, w):
    """Discrete ((w, P(D) w)_alpha, |w|_{2,alpha}^2) for a compactly supported w."""
    elliptic._require_compact_support(w)
    grid = w.grid
    weight = grid.exp(-2.0 * alpha)
    pw, = polyops._symbol_values(w.values, grid.h, p)
    lhs = stencils.trapezoid(weight * w.values * pw, grid.h)
    rhs = gridmod.weighted_norm(w, gridmod.NormSpec(2, alpha)) ** 2
    return float(lhs), float(rhs)


def test_symbol_quadratic_part_at_weight_one():
    # the x^{-2}-part symbol at weight 1 is xi^2 + xi^4
    _, q = polyops.symbol_pair(0)
    xi = np.linspace(-5, 5, 101)
    assert np.allclose(symbol(q, 1.0, xi), xi**2 + xi**4, atol=1e-12)


def test_symbol_special_values():
    quad = polyops.PolynomialOperator((0, 0, 0, 0))
    xi = np.linspace(-3, 3, 61)
    assert np.allclose(symbol(quad, 0.0, xi), xi**4, atol=1e-13)
    p, _ = polyops.symbol_pair(0)
    assert symbol(p, 0.5, 0.0) == pytest.approx(3.0 / 16.0)


def test_symbol_matches_complex_product(rng):
    for _ in range(1000):
        roots = tuple(sorted(rng.normal(size=4) * 2))
        poly = polyops.PolynomialOperator(roots)
        alpha = rng.normal()
        xi = rng.normal() * 3
        direct = np.prod([1j * xi + alpha - r for r in roots]).real
        got = symbol(poly, alpha, xi)
        assert got == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_range_closed_form_reproduces_known_windows():
    p, q = polyops.symbol_pair(0)
    p1, q1 = polyops.symbol_pair(1)
    (lo, hi), = coercivity.range_closed_form(p)
    assert lo == pytest.approx(0.75 - SQ11_3 / 4, abs=1e-12)
    assert hi == pytest.approx(1.0, abs=1e-12)
    assert coercivity.range_closed_form(q) == []
    (lo, hi), = coercivity.range_closed_form(p1)
    assert lo == pytest.approx(1 - 1 / np.sqrt(3), abs=1e-12)
    assert hi == pytest.approx(1 + 1 / np.sqrt(3), abs=1e-12)
    (lo, hi), = coercivity.range_closed_form(q1)
    assert (lo, hi) == pytest.approx((1.0, 2.0), abs=1e-12)


def test_composite_ranges():
    (lo, hi), = coercivity.composite_range(1)
    assert (lo, hi) == pytest.approx((0.0, 1.0), abs=1e-12)
    (lo, hi), = coercivity.composite_range(2)
    assert lo == pytest.approx(1 - np.sqrt(5.0 / 6.0), abs=1e-12)
    assert hi == pytest.approx(1.5, abs=1e-12)
    assert coercivity.composite_range(0) == []


def test_numeric_range_contains_closed_form():
    # the closed-form criterion is sufficient; the scan must confirm
    # positivity throughout and may extend further where the root-mean
    # band is not the binding constraint
    for k in range(4):
        for poly in shifted_pair(k):
            closed = coercivity.range_closed_form(poly)
            if not closed:
                continue
            lo = min(iv[0] for iv in closed) - 1.0
            hi = max(iv[1] for iv in closed) + 1.0
            numeric = coercivity.range_numeric(poly, lo, hi, n_scan=800)
            for c_lo, c_hi in closed:
                assert any(n_lo <= c_lo + 1e-6 and c_hi - 1e-6 <= n_hi
                           for n_lo, n_hi in numeric)
            for alpha in np.linspace(c_lo + 1e-3, c_hi - 1e-3, 50):
                assert coercivity.symbol_margin(poly, alpha) > 0


def test_numeric_range_sharp_at_root_gap_edges():
    # where the off-root condition binds, the scan endpoint is exact
    _, q1 = polyops.symbol_pair(1)
    (lo, hi), = coercivity.range_numeric(q1, 0.0, 3.0, n_scan=1000)
    assert lo == pytest.approx(1.0, abs=1e-6)
    assert hi == pytest.approx(2.0, abs=1e-6)
    quad = polyops.PolynomialOperator((0, 0, 0, 0))
    intervals = coercivity.range_numeric(quad, -1.0, 1.0, n_scan=500)
    assert intervals == []  # margin is 0 at xi = 0 for every weight


def _index_walk_range(p, alpha_lo, alpha_hi, n_scan):
    # reference: the positive runs found by walking the scan index by index
    alphas = np.linspace(alpha_lo, alpha_hi, n_scan)
    margins = np.array([coercivity.symbol_margin(p, a) for a in alphas])
    intervals, i = [], 0
    while i < n_scan:
        if not margins[i] > 0.0:
            i += 1
            continue
        j = i
        while j + 1 < n_scan and margins[j + 1] > 0.0:
            j += 1
        lo = alphas[i] if i == 0 else coercivity._bisect_zero(
            p, alphas[i - 1], alphas[i], margins[i - 1])
        hi = alphas[j] if j == n_scan - 1 else coercivity._bisect_zero(
            p, alphas[j + 1], alphas[j], margins[j + 1])
        intervals.append((min(lo, hi), max(lo, hi)))
        i = j + 1
    return intervals


@pytest.mark.parametrize("margin", [
    lambda a: np.sin(3.0 * a),  # several runs, one touching each end of the scan
    lambda a: -np.sin(3.0 * a),
    lambda a: np.sin(40.0 * a),  # runs a few scan points long
    lambda a: 1.0,  # one run over the whole scan
], ids=["sin", "-sin", "fast-sin", "positive"])
@pytest.mark.parametrize("alpha_lo, alpha_hi, n_scan", [(-5.0, 5.0, 2000), (5.0, -5.0, 300)])
def test_range_numeric_runs_match_the_index_walk(monkeypatch, margin, alpha_lo, alpha_hi,
                                                 n_scan):
    monkeypatch.setattr(coercivity, "symbol_margin", lambda p, a: float(margin(a)))
    p, _ = polyops.symbol_pair(0)
    want = _index_walk_range(p, alpha_lo, alpha_hi, n_scan)
    assert coercivity.range_numeric(p, alpha_lo, alpha_hi, n_scan) == want
    assert want  # every case has a positive run


def test_range_scan_requires_resolution():
    p, _ = polyops.symbol_pair(0)
    with pytest.raises(ValueError):
        coercivity.range_numeric(p, 0.0, 1.0, n_scan=10)


def test_scale_symmetry(rng):
    for _ in range(20):
        roots = tuple(sorted(rng.normal(size=4)))
        c = rng.normal() * 2
        base = polyops.PolynomialOperator(roots)
        shifted = polyops.PolynomialOperator(tuple(r + c for r in roots))  # roots moved by c
        for (lo1, hi1), (lo2, hi2) in zip(coercivity.range_closed_form(base),
                                          coercivity.range_closed_form(shifted)):
            assert lo2 == pytest.approx(lo1 + c, abs=1e-10)
            assert hi2 == pytest.approx(hi1 + c, abs=1e-10)


def test_quadratic_form_positivity(default_grid):
    p1, _ = polyops.symbol_pair(1)
    alpha = 0.75
    w = gaussian_bump(default_grid, center=-3.0, width=0.7)
    lhs, rhs = quadratic_form_check(p1, alpha, w)
    margin = normalized_margin(p1, alpha)
    assert margin > 0
    assert lhs >= 0.95 * margin * rhs

    zero = gridmod.zero(default_grid)
    assert quadratic_form_check(p1, alpha, zero) == (0.0, 0.0)


def test_quadratic_form_weight_one_identity(default_grid):
    # at weight 1 the quadratic-part form equals the shifted-derivative energies
    _, q = polyops.symbol_pair(0)
    w = gaussian_bump(default_grid, center=-4.0, width=0.6)
    lhs, _ = quadratic_form_check(q, 1.0, w)
    d1 = gridmod.shifted_derivative(w, 1.0)
    d2 = gridmod.shifted_derivative(d1, 1.0)
    target = (gridmod.weighted_norm(d1, gridmod.NormSpec(0, 1.0)) ** 2
              + gridmod.weighted_norm(d2, gridmod.NormSpec(0, 1.0)) ** 2)
    assert lhs == pytest.approx(target, rel=1e-6)


def test_quadratic_form_interior_windows(default_grid, rng):
    # positivity with 5% slack for weights 0.05 inside the numeric window
    for poly in polyops.symbol_pair(1):
        numeric = coercivity.range_numeric(poly, -1.0, 3.0, n_scan=400)
        lo, hi = numeric[0]
        for alpha in (lo + 0.05, hi - 0.05, 0.5 * (lo + hi)):
            margin = normalized_margin(poly, alpha)
            for _ in range(3):
                w = gaussian_bump(default_grid, center=rng.uniform(-7, -1),
                                  width=rng.uniform(0.4, 1.2))
                lhs, rhs = quadratic_form_check(poly, alpha, w)
                assert lhs >= 0.95 * margin * rhs


def test_quadratic_form_rejects_boundary_support(default_grid):
    p, _ = polyops.symbol_pair(0)
    w = gridmod.monomial(default_grid, 1)
    with pytest.raises(SupportError):
        quadratic_form_check(p, 0.5, w)


def test_report_fields():
    # the root mean and spread the coercivity report prints, and the sign of
    # the symbol margin on either side of the window
    p, _ = polyops.symbol_pair(0)
    assert p.mean() == pytest.approx(0.75)
    assert p.sigma() == pytest.approx(np.sqrt(11.0 / 16.0))
    assert coercivity.symbol_margin(p, 0.5) > 0
    assert coercivity.symbol_margin(p, 1.5) < 0
