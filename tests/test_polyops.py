import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import shifted_pair
from thinfilm import grid as gridmod
from thinfilm import polyops, resolvent
from thinfilm.errors import GridError


def test_canonical_root_multisets():
    p, q = polyops.symbol_pair(0)
    assert p.roots == (0.0, 0.0, 1.0, 2.0)
    assert q.roots == (0.0, 1.0, 1.0, 2.0)
    p1, q1 = polyops.symbol_pair(1)
    assert p1.roots == (0.0, 0.0, 2.0, 2.0)
    assert q1.roots == (0.0, 1.0, 2.0, 3.0)
    p2, q2 = polyops.symbol_pair(2)
    assert p2.roots == (0.0, 0.0, 2.0, 3.0)
    assert q2.roots == (0.0, 1.0, 3.0, 4.0)


def test_eval_poly_values():
    p, q = polyops.symbol_pair(0)
    assert polyops.eval_poly(p, 0.0) == 0.0
    assert polyops.eval_poly(q, 1.0) == 0.0
    assert polyops.eval_poly(p, 3.0) == pytest.approx(18.0)  # 9 * 2 * 1
    assert polyops.eval_poly(q, 3.0) == pytest.approx(12.0)  # 3 * 4 * 1


def test_expanded_form_matches_roots(rng):
    for _ in range(50):
        roots = tuple(sorted(rng.normal(size=4) * 3))
        poly = polyops.PolynomialOperator(roots)
        coeffs = poly.coefficients()
        for zeta in rng.normal(size=5) * 4:
            direct = polyops.eval_poly(poly, zeta)
            expanded = sum(c * zeta**m for m, c in enumerate(coeffs))
            assert expanded == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_shifted_pair():
    assert shifted_pair(0) == polyops.symbol_pair(0)
    p1, _ = shifted_pair(1)
    assert p1.roots == (-1.0, 0.0, 0.0, 1.0)
    _, q2 = shifted_pair(2)
    assert q2.roots == (-1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        shifted_pair(-1)


def test_monomial_action():
    for j in (0, 1, 2):
        assert polyops.monomial_action(j) == (0.0, 0.0)
    assert polyops.monomial_action(3) == (18.0, 12.0)
    p, q = polyops.symbol_pair(0)
    for j in range(9):
        a, b = polyops.monomial_action(j)
        assert a == polyops.eval_poly(p, j)
        assert b == polyops.eval_poly(q, j)


def test_apply_operator_on_monomial(fine_grid):
    # operator on x^3 equals 18 x^2 + 12 x
    w = gridmod.monomial(fine_grid, 3)
    target = 18 * np.exp(2 * fine_grid.s) + 12 * np.exp(fine_grid.s)
    got = polyops.apply_operator(w).values
    interior = slice(8, -8)
    rel = np.max(np.abs(got[interior] - target[interior]) / target[interior])
    assert rel < 1e-6


def test_apply_operator_kernel_order():
    errs = []
    for n in (129, 257, 513):
        g = gridmod.LogGrid(-12, 4, n)
        window = (g.s >= -10) & (g.s <= 2)
        res = [np.max(np.abs(polyops.apply_operator(gridmod.monomial(g, j)).values[window]))
               for j in (1, 2)]
        errs.append(max(res))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.5


def _commuted_operator(values, grid, level):
    """e^{-s} P(D) w + e^{-2s} Q(D) w of the values of w for the pair (P, Q) of
    symbol_pair(level): the operator commuted ``level`` times."""
    pw, qw = polyops._symbol_values(values, grid.h, *polyops.symbol_pair(level))
    return grid.inv_x * pw + grid.inv_x2 * qw


def commutation_residual(variant, w):
    """Interior max-norm of the commutation defect of the discrete operators.

    variant "tilde": (D-1) A - A~ (D-1) applied to w.
    variant "check": (D-2) A~ - A^ (D-2) applied to w.
    Exact analytically; the discrete residual is pure stencil truncation.
    """
    if variant not in ("tilde", "check"):
        raise ValueError("variant must be 'tilde' or 'check'")
    n = w.grid.n
    if n < 4 * resolvent.EDGE_SKIP:
        raise GridError("grid too coarse for the commutation stencil")
    level = 0 if variant == "tilde" else 1
    a = 1.0 if variant == "tilde" else 2.0
    h = w.grid.h
    lhs = gridmod._shifted(_commuted_operator(w.values, w.grid, level), a, h)
    rhs = _commuted_operator(gridmod._shifted(w.values, a, h), w.grid, level + 1)
    interior = slice(resolvent.EDGE_SKIP, n - resolvent.EDGE_SKIP)
    return float(np.max(np.abs(lhs[interior] - rhs[interior])))


def test_commutation_residual(default_grid):
    zero = gridmod.zero(default_grid)
    assert commutation_residual("tilde", zero) == 0.0

    # x^2 is annihilated by both sides analytically; the residual is
    # truncation noise amplified by the e^{-2s} weights near the left edge
    w2 = gridmod.monomial(default_grid, 2)
    assert commutation_residual("tilde", w2) < 1e-3

    errs = []
    for n in (257, 513, 1025):
        g = gridmod.LogGrid(-12, 4, n)
        w = gridmod.monomial(g, 3)
        errs.append(commutation_residual("tilde", w))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.0

    errs = []
    for n in (257, 513, 1025):
        g = gridmod.LogGrid(-12, 4, n)
        w = gridmod.GridFunction(g, np.exp(2.5 * g.s))
        errs.append(commutation_residual("check", w))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) > 3.0

    with pytest.raises(ValueError):
        commutation_residual("hat", zero)


def _zero_vector(J):
    return polyops.CoefficientVector(J, np.zeros(J), np.zeros(J))


def test_coefficient_vector_validation():
    cv = _zero_vector(5)
    assert cv.u.shape == cv.f.shape == (5,)
    with pytest.raises(ValueError):
        polyops.CoefficientVector(3, np.zeros(2), np.zeros(3))
    # a scalar forcing must not broadcast to (2.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="length J"):
        polyops.CoefficientVector(3, np.zeros(3), 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("field", ["u", "f"])
def test_coefficient_vector_rejects_non_finite(field, bad):
    entries = {"u": np.zeros(3), "f": np.zeros(3)}
    entries[field][1] = bad
    with pytest.raises(ValueError, match="finite"):
        polyops.CoefficientVector(3, **entries)


def test_integrate_kernel_coefficients_constant():
    for j in (1, 2):
        u0 = np.zeros(6)
        u0[j - 1] = 1.0
        traj = polyops.integrate_coefficients(polyops.CoefficientVector(6, u0, np.zeros(6)),
                                              1e-3, 1.0)
        assert np.max(np.abs(traj.u - u0[None, :])) < 1e-14


def test_integrate_e3_trajectory():
    # u3 = 1 feeds u2 at rate -p(3) = -18 and u1 at rate -q(3) = -12
    u0 = np.zeros(4)
    u0[2] = 1.0
    traj = polyops.integrate_coefficients(polyops.CoefficientVector(4, u0, np.zeros(4)),
                                          1e-3, 2.0)
    t = traj.times
    assert np.max(np.abs(traj.u[:, 0] - (-12 * t))) < 1e-10
    assert np.max(np.abs(traj.u[:, 1] - (-18 * t))) < 1e-10
    assert np.max(np.abs(traj.u[:, 2] - 1.0)) < 1e-14
    assert np.max(np.abs(traj.u[:, 3])) == 0.0


def test_integrate_polynomial_exactness():
    # closed-form trajectory for u0 = e4 is a polynomial of degree <= 2 in t
    u0 = np.zeros(4)
    u0[3] = 1.0
    traj = polyops.integrate_coefficients(polyops.CoefficientVector(4, u0, np.zeros(4)),
                                          1e-2, 1.0)
    t = traj.times
    assert np.max(np.abs(traj.u[:, 2] - (-96 * t))) < 1e-12
    assert np.max(np.abs(traj.u[:, 1] - (864 * t**2 - 72 * t))) < 1e-11
    assert np.max(np.abs(traj.u[:, 0] - 576 * t**2)) < 1e-11


def test_integrate_matches_matrix_exponential(rng):
    J = 8
    m = polyops.coefficient_matrix(J)
    # strictly upper triangular, hence nilpotent: solutions grow polynomially
    assert np.allclose(np.tril(m), 0.0)
    for _ in range(5):
        u0 = rng.normal(size=J) * 1e-2
        traj = polyops.integrate_coefficients(polyops.CoefficientVector(J, u0, np.zeros(J)),
                                              1e-3, 1.0)
        exact = expm(-m * 1.0) @ u0
        assert np.max(np.abs(traj.u[-1] - exact)) < 1e-10 * max(1, np.max(np.abs(exact)))


def test_integrate_matches_exact_rational_recursion(rng):
    # the same Taylor recursion in exact arithmetic, with M built from the
    # integer roots of p and q rather than from coefficient_matrix
    J = 8
    p, q = polyops.symbol_pair(0)

    def symbol(poly, j):
        return Fraction(int(np.prod([j - int(r) for r in poly.roots])))

    m = [[Fraction(0)] * J for _ in range(J)]
    for j in range(1, J + 1):
        if j + 1 <= J:
            m[j - 1][j] = symbol(p, j + 1)
        if j + 2 <= J:
            m[j - 1][j + 1] = symbol(q, j + 2)

    def minus_m(v):
        return [-sum(m[i][l] * v[l] for l in range(J)) for i in range(J)]

    u0 = [int(v) for v in rng.integers(-5, 6, size=J)]
    f = [int(v) for v in rng.integers(-5, 6, size=J)]
    c = [[Fraction(v) for v in u0], [fi + mi for fi, mi in zip(f, minus_m(u0))]]
    for k in range(2, J + 1):
        c.append([v / k for v in minus_m(c[-1])])
    assert all(v == 0 for v in minus_m(c[-1]))  # M^J = 0: the series terminates

    traj = polyops.integrate_coefficients(polyops.CoefficientVector(J, u0, f), 0.5, 2.0)
    assert np.array_equal(traj.times, [0.0, 0.5, 1.0, 1.5, 2.0])
    for t in (Fraction(1, 2), Fraction(1), Fraction(2)):
        exact = [sum(t**k * c[k][i] for k in range(J + 1)) for i in range(J)]
        got = traj.u[int(2 * t)]
        err = max(abs(Fraction(float(g)) - e) for g, e in zip(got, exact))
        assert err <= Fraction(1, 10**13) * max(abs(e) for e in exact)


def test_no_blowup_random_small_data(rng):
    J, T = 8, 1.0
    m = polyops.coefficient_matrix(J)
    # independent bound: max column-sum norm of the exact propagator on [0, T]
    bound = max(np.max(np.abs(expm(-m * t)).sum(axis=1)) for t in np.linspace(0, T, 21))
    for _ in range(100):
        u0 = rng.normal(size=J) * 1e-3
        traj = polyops.integrate_coefficients(polyops.CoefficientVector(J, u0, np.zeros(J)),
                                              1e-3, T)
        assert np.max(np.abs(traj.u)) <= 1.01 * bound * np.max(np.abs(u0))


def test_integrate_with_forcing():
    # f = e1 drives only u1 since x is in the kernel
    f = np.zeros(3)
    f[0] = 2.0
    traj = polyops.integrate_coefficients(polyops.CoefficientVector(3, np.zeros(3), f),
                                          1e-3, 1.0)
    assert np.max(np.abs(traj.u[:, 0] - 2 * traj.times)) < 1e-12
    assert np.max(np.abs(traj.u[:, 1:])) < 1e-14


def test_integrate_samples_land_on_T():
    traj = polyops.integrate_coefficients(_zero_vector(2), 0.3, 1.0)
    assert traj.times[-1] == 1.0 and len(traj.times) == 4  # round(1 / 0.3) = 3 steps
    traj = polyops.integrate_coefficients(_zero_vector(2), 5.0, 1.0)
    assert np.array_equal(traj.times, [0.0, 1.0])  # at least one step


def test_integrate_rejects_bad_input():
    with pytest.raises(ValueError):
        polyops.integrate_coefficients(
            polyops.CoefficientVector(2, np.array([np.inf, 0.0]), np.zeros(2)), 1e-3, 1.0)
    with pytest.raises(ValueError):
        polyops.integrate_coefficients(_zero_vector(2), -1.0, 1.0)


@pytest.mark.parametrize("dt, T", [(0.0, 1.0), (np.nan, 1.0), (np.inf, 1.0),
                                   (1e-3, 0.0), (1e-3, -1.0), (1e-3, np.nan), (1e-3, np.inf),
                                   (5e-324, 1.0), (1.0, 1e100)])
def test_integrate_rejects_bad_times(dt, T):
    # the last two rows are valid times that ask for more than MAX_INTERVALS samples
    valid = 0 < dt < np.inf and 0 < T < np.inf
    message = "T / dt must be at most" if valid else "positive and finite"
    with pytest.raises(ValueError, match=message):
        polyops.integrate_coefficients(_zero_vector(2), dt, T)


def test_integrate_rejects_non_finite_result():
    # finite data whose trajectory overflows: t^8 = 1e800 at t = 1e100, and u = 1e300
    # at J = 40, which overflows from the second Taylor term on. The trajectory is
    # computed under grid._finite, so no numpy warning comes before the typed error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for J, u0, dt, T in [(8, 1.0, 1e100, 1e100), (40, 1e300, 1.0, 1e5)]:
            with pytest.raises(ValueError, match="^non-finite coefficients$"):
                polyops.integrate_coefficients(
                    polyops.CoefficientVector(J, np.full(J, u0), np.zeros(J)), dt, T)


def test_operator_inputs_outside_their_range_raise():
    with pytest.raises(ValueError, match="exactly 4 roots"):
        polyops.PolynomialOperator((0.0, 1.0, 2.0))
    with pytest.raises(ValueError, match="commutations must be 0, 1 or 2"):
        polyops.symbol_pair(3)
    coarse = gridmod.LogGrid(-12.0, 4.0, 16)
    with pytest.raises(GridError, match="too coarse for the commutation stencil"):
        commutation_residual("tilde", gridmod.monomial(coarse, 1))
