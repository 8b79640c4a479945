"""The cached contact-line fit against the three lstsq fitters it replaced."""

import numpy as np
import pytest

from thinfilm import evolution, nonlinear
from thinfilm import grid as gridmod
from thinfilm.errors import GridError


def _old_fit_expansion(values, grid, order, fit_band):
    mask = grid.s <= grid.s_min + fit_band
    sb = grid.s[mask]
    a = np.stack([np.exp((j - 1) * sb) for j in range(1, order + 1)], axis=1)
    b = np.exp(-sb) * values[mask]
    scale = np.max(np.abs(a), axis=0)
    coef, _, _, _ = np.linalg.lstsq(a / scale, b, rcond=None)
    return coef / scale


def _old_leading_coefficients(u):
    grid = u.grid
    s = grid.s

    def band_fit(values, lead, lo, hi):
        mask = (s >= grid.s_min + lo) & (s <= grid.s_min + hi)
        z = values[mask] * np.exp(-lead * s[mask])
        xb = np.exp(s[mask])
        a = np.stack([np.ones(mask.sum()), xb, xb * xb], axis=1)
        coef, _, _, _ = np.linalg.lstsq(a, z, rcond=None)
        return coef[0]

    u1 = _old_fit_expansion(u.values, grid, 3, 2.0)[0]
    tu = gridmod.shifted_derivative(u, 1.0)
    u2 = band_fit(tu.values, 2.0, 3.0, 6.0)
    cu = gridmod.shifted_derivative(tu, 2.0)
    u3 = band_fit(cu.values, 3.0, 7.0, 9.5) / 2.0
    return u1, u2, u3


def _old_contact_line_shift(u, band=2.0):
    grid = u.grid
    v = nonlinear.to_v(u).values
    mask = grid.s <= grid.s_min + band
    xb = grid.x[mask]
    a = np.stack([np.ones_like(xb), xb, xb * xb], axis=1)
    coef, _, _, _ = np.linalg.lstsq(a, v[mask], rcond=None)
    return coef[0]


def _known_field():
    # the field of test_evolution.test_leading_coefficients_known_field
    g = gridmod.LogGrid(-12.0, 9.0, 1345)
    x = g.x
    return gridmod.GridFunction(g, (0.13 * x + 0.66 * x * x + 0.018 * x**3) * np.exp(-x))


def _v_limit_field():
    # the field of test_grid.test_extract_consistent_with_v_limit
    g = gridmod.LogGrid()
    x = g.x
    return gridmod.GridFunction(g, (3 * x * x + 2 * x) * (0.3 + 0.1 * x))


FIELDS = [_known_field, _v_limit_field]


@pytest.mark.parametrize("field", FIELDS)
def test_fits_match_the_replaced_lstsq_fitters(field):
    # On these fields u2, u3 and c2.. are set by roundoff (two correct solvers
    # differ by up to 7e-7 in u3), so only u1 is compared here; the next test
    # compares the others on a field where they are determined.
    u = field()
    want3 = _old_fit_expansion(u.values, u.grid, 3, gridmod.FIT_BAND)[0]
    want5 = _old_fit_expansion(u.values, u.grid, 5, gridmod.FIT_BAND)[0]
    got5 = gridmod._fit_expansion(u.values, u.grid, 5)[0]
    assert gridmod.extract_coefficients(u, 1)[0] == pytest.approx(want3, rel=1e-12, abs=0.0)
    assert got5 == pytest.approx(want5, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(evolution.leading_coefficients(u),
                               _old_leading_coefficients(u), rtol=1e-12, atol=0.0)
    assert nonlinear.contact_line_shift(u) == pytest.approx(_old_contact_line_shift(u),
                                                            rel=1e-12, abs=0.0)


def test_expansion_fit_matches_where_the_weight_decides():
    # x / (1 + x/x0) has all its powers of comparable size on the band, so
    # every coefficient of a truncated fit depends on the e^{-2s} weight:
    # an unweighted fit moves u1..u3 by 2e-3 to 8e-2.
    g = gridmod.LogGrid()
    y = g.x / (1.0 + g.x / 1e-4)
    u = gridmod.GridFunction(g, y)
    want3 = _old_fit_expansion(y, g, 3, gridmod.FIT_BAND)
    np.testing.assert_allclose(gridmod.extract_coefficients(u, 3), want3, rtol=1e-12, atol=0.0)
    want5 = _old_fit_expansion(y, g, 5, gridmod.FIT_BAND)[:3]
    got5 = gridmod._fit_expansion(y, g, 5)[:3]
    np.testing.assert_allclose(got5, want5, rtol=1e-12, atol=0.0)


def test_stacked_fit_equals_the_per_row_fit():
    g = gridmod.LogGrid()
    x = g.x
    stack = np.stack([(0.1 * i * x + 0.5 * x * x - 0.2 * x**3) * np.exp(-x)
                      for i in range(1, 6)])
    got = gridmod._fit_expansion(stack, g, 5)
    for row, coeffs in zip(stack, got):
        assert np.array_equal(gridmod._fit_expansion(row, g, 5), coeffs)


def test_cached_projector_is_read_only():
    g = gridmod.LogGrid()
    sl, L = gridmod._fit_matrix(g.s_min, g.s_max, g.n, -np.inf, gridmod.FIT_BAND, 3)
    assert L.shape == (3, sl.stop - sl.start)
    with pytest.raises(ValueError):
        L[0, 0] = 1.0


def test_underdetermined_fits_raise():
    # two nodes in the left band of this grid; lstsq returned its minimum-norm
    # answer for three unknowns without an error. The u1 band (width 2) is the
    # narrowest of leading_coefficients' three, so its fit is the one that fails.
    coarse = gridmod.LogGrid(-12.0, 4.0, 16)
    with pytest.raises(GridError, match="too coarse"):
        nonlinear.contact_line_shift(gridmod.monomial(coarse, 1))
    with pytest.raises(GridError, match="too coarse"):
        evolution.leading_coefficients(gridmod.monomial(coarse, 1))
