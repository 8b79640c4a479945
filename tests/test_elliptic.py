import numpy as np
import pytest

from conftest import gaussian_bump
from thinfilm import elliptic, evolution, polyops, resolvent, stencils
from thinfilm import grid as gridmod
from thinfilm.errors import DecayProbeError, SupportError


def sharp_hardy_constant(gamma, variant):
    """Best possible constant for compactly supported data.

    |(D-a) g|^2_b = |d/ds ghat|^2 + (b-a)^2 |ghat|^2 with ghat = e^{-bs} g,
    so the optimal factor is (b-a)^2 at the variant's weight b.
    """
    a, offset, _ = elliptic._HARDY[variant]
    return float((gamma + offset - a) ** 2)


def polynomial_elliptic_check(p, w, rho, k=0):
    """(|w|_{k+4,rho}, |P(D) w|_{k,rho}) for equivalence-ratio logging.

    w must be supported in the interior and pass the o(x^rho) probe at the
    left edge.
    """
    if elliptic.decay_exponent(w.values, w.grid) <= rho:
        raise DecayProbeError(f"w is not o(x^{rho}) at the contact line")
    elliptic._require_compact_support(w)
    lhs = gridmod.weighted_norm(w, gridmod.NormSpec(k + 4, rho))
    pw, = polyops._symbol_values(w.values, w.grid.h, p)
    rhs = gridmod.weighted_norm(gridmod.GridFunction(w.grid, pw), gridmod.NormSpec(k, rho))
    return float(lhs), float(rhs)


def test_apply_B_monomials(fine_grid):
    x = fine_grid.x
    interior = slice(8, -8)
    # B x^j = (j-2) x^{j+1} + j x^j
    for j in range(1, 7):
        got = elliptic.apply_B(gridmod.monomial(fine_grid, j)).values
        target = (j - 2.0) * x ** (j + 1) + j * x**j
        scale = np.abs(target) + np.abs(x**j)
        assert np.max(np.abs(got - target)[interior] / scale[interior]) < 1e-6


def test_apply_B_kernel(fine_grid):
    x = fine_grid.x
    w = gridmod.GridFunction(fine_grid, (x + 1.0) ** 2)
    got = elliptic.apply_B(w).values
    assert np.max(np.abs(got[8:-8]) / (x[8:-8] + 1.0) ** 2) < 1e-6


def test_apply_B_inverse_closed_forms(fine_grid):
    x = fine_grid.x
    interior = slice(8, -8)
    f = gridmod.GridFunction(fine_grid, x**4 + 3 * x**3)
    got = elliptic.apply_B_inverse(f).values
    assert np.max(np.abs(got - x**3)[interior] / x[interior] ** 3) < 1e-6

    f2 = gridmod.GridFunction(fine_grid, 2 * x * x)
    got2 = elliptic.apply_B_inverse(f2).values
    assert np.max(np.abs(got2 - x * x)[interior] / x[interior] ** 2) < 1e-6

    zero = gridmod.zero(fine_grid)
    assert np.max(np.abs(elliptic.apply_B_inverse(zero).values)) == 0.0


def test_apply_B_round_trip(fine_grid):
    x = fine_grid.x
    interior = slice(10, -10)
    f = gridmod.GridFunction(fine_grid, x**4 + 3 * x**3)
    back = elliptic.apply_B(elliptic.apply_B_inverse(f)).values
    assert np.max(np.abs(back - f.values)[interior] / f.values[interior]) < 1e-6
    # decaying data: the inverse grows like (x+1)^2 towards the far field, so
    # the truncation of that background caps the absolute accuracy out there;
    # measure where the data itself lives
    left = fine_grid.s <= 1.0
    for f_vals in (x**1.5 * np.exp(-x), x**2 * np.exp(-x)):
        f = gridmod.GridFunction(fine_grid, f_vals)
        back = elliptic.apply_B(elliptic.apply_B_inverse(f)).values
        scale = np.max(np.abs(f_vals))
        assert np.max(np.abs(back - f_vals)[left][10:]) / scale < 1e-6


def test_apply_B_inverse_decay_probe():
    g = gridmod.LogGrid()
    const = gridmod.GridFunction(g, np.ones(g.n))
    with pytest.raises(DecayProbeError):
        elliptic.apply_B_inverse(const)


def test_estinvB_constant_stable_under_refinement():
    gamma = 1.3
    cs = []
    for n in (1025, 2049):
        g = gridmod.LogGrid(-12, 4, n)
        x = g.x
        f = gridmod.GridFunction(g, x**2 * np.exp(-x))
        ginv = elliptic.apply_B_inverse(f)
        num = (gridmod.weighted_norm(ginv, gridmod.NormSpec(1, gamma))
               + gridmod.weighted_norm(ginv, gridmod.NormSpec(1, gamma - 1)))
        den = gridmod.weighted_norm(f, gridmod.NormSpec(0, gamma))
        cs.append(num / den)
    assert abs(cs[1] - cs[0]) / cs[0] < 0.05


def test_apply_S_monomial_identity(fine_grid):
    x = fine_grid.x
    g = gridmod.GridFunction(fine_grid, 18 * x * x + 12 * x)
    got = elliptic.apply_S(g).values
    interior = slice(10, -10)
    assert np.max(np.abs(got - x**3)[interior] / x[interior] ** 3) < 1e-5
    assert np.max(np.abs(elliptic.apply_S(gridmod.zero(fine_grid)).values)) == 0.0


def test_apply_S_round_trip(fine_grid):
    x = fine_grid.x
    g = gridmod.GridFunction(fine_grid, x**2 * np.exp(-x))
    sg = elliptic.apply_S(g)
    back = polyops.apply_operator(sg).values
    interior = slice(10, -10)
    scale = np.max(np.abs(g.values))
    assert np.max(np.abs(back - g.values)[interior]) / scale < 1e-4


def test_apply_S_flatness(fine_grid):
    x = fine_grid.x
    g = gridmod.GridFunction(fine_grid, x * np.exp(-x))
    sg = elliptic.apply_S(g)
    u1, u2 = gridmod.extract_coefficients(sg, 2)
    assert abs(u1) < 1e-6 and abs(u2) < 1e-6


def test_hardy_examples(default_grid):
    g = gaussian_bump(default_grid, center=-4.0, width=0.5)
    lhs, rhs, const = elliptic.hardy_check(g, 0.3, 1)
    assert const == pytest.approx(0.49)
    assert lhs >= const * rhs
    z = gridmod.zero(default_grid)
    lhs, rhs, const = elliptic.hardy_check(z, 0.3, 2)
    assert (lhs, rhs) == (0.0, 0.0) and const == pytest.approx(4.84)
    with pytest.raises(ValueError):
        elliptic.hardy_check(z, 0.3, 4)
    with pytest.raises(SupportError):
        elliptic.hardy_check(gridmod.monomial(default_grid, 1), 0.3, 1)


@pytest.mark.parametrize("variant", [1, 2, 3])
def test_hardy_check_equals_its_two_trapezoid_form_bitwise(variant):
    # hardy_check takes both squares from one grid._norm_sq call on the stacked pair
    # (shifted, g); each keeps the bits of its own trapezoid of weight * f * f
    a, offset, const = elliptic._HARDY[variant]
    for n in (257, 1025, 4097):
        grid = gridmod.LogGrid(-12.0, 4.0, n)
        for width in (0.5, 2.0):
            g = gaussian_bump(grid, center=-4.0, width=width)
            shifted = gridmod._shifted(g.values, a, grid.h)
            for gamma in (0.3, 1.7, 3.1):
                weight = grid.exp(-2.0 * (gamma + offset))
                want = (float(stencils.trapezoid(weight * shifted * shifted, grid.h)),
                        float(stencils.trapezoid(weight * g.values * g.values, grid.h)),
                        float(const(gamma)))
                got = elliptic.hardy_check(g, gamma, variant)
                assert np.array(got).tobytes() == np.array(want).tobytes()


def test_hardy_sharp_constants_never_violated(default_grid, rng):
    # best-possible constants (b - a)^2 at the variant weight b: zero
    # violations for any compactly supported data
    for _ in range(100):
        g = gaussian_bump(default_grid, center=rng.uniform(-9, 0),
                          width=rng.uniform(0.2, 2.0),
                          amplitude=rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
        for variant in (1, 2, 3):
            for gamma in (0.3, 0.8, 1.2):
                lhs, rhs, _ = elliptic.hardy_check(g, gamma, variant)
                sharp = sharp_hardy_constant(gamma, variant)
                assert lhs >= sharp * rhs * (1 - 1e-10)


def test_hardy_stated_constants_fail_for_wide_data(default_grid):
    # the constants stated with the elliptic estimates are shifted by one
    # power of x against the sharp ones and are violated by wide bumps;
    # kept as a regression anchor for the acceptance analysis
    g = gaussian_bump(default_grid, center=-4.0, width=2.0)
    lhs, rhs, const = elliptic.hardy_check(g, 0.3, 2)
    assert lhs < const * rhs
    sharp = sharp_hardy_constant(0.3, 2)
    assert lhs >= sharp * rhs


def test_polynomial_elliptic_check(default_grid):
    p1, _ = polyops.symbol_pair(1)
    ratios = []
    for n in (1025, 2049):
        g = gridmod.LogGrid(-12, 4, n)
        w = gaussian_bump(g, center=-3.0, width=0.8)
        lhs, rhs = polynomial_elliptic_check(p1, w, 0.5, 0)
        assert lhs > 0 and rhs > 0
        ratios.append(lhs / rhs)
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.05

    z = gridmod.zero(default_grid)
    assert polynomial_elliptic_check(p1, z, 0.5, 0) == (0.0, 0.0)


def test_polynomial_elliptic_probe_failure(default_grid):
    p1, _ = polyops.symbol_pair(1)
    # grows like x^{0.3} at the contact line: fails the o(x^{0.5}) probe
    w = gridmod.GridFunction(default_grid, np.exp(0.3 * default_grid.s))
    with pytest.raises(DecayProbeError):
        polynomial_elliptic_check(p1, w, 0.5, 0)
    # decaying at the contact line but touching the far boundary
    w2 = gridmod.monomial(default_grid, 1)
    with pytest.raises(SupportError):
        polynomial_elliptic_check(p1, w2, 0.5, 0)


def test_decay_exponent_is_infinite_on_fewer_than_four_nonzero_band_nodes():
    g = gridmod.LogGrid(-12.0, 4.0, 129)
    band = np.flatnonzero(g.s <= g.s_min + elliptic.TAIL_BAND)
    assert band.size >= 4
    v = np.zeros(g.n)
    v[band[:3]] = 1.0  # above the zero floor, but too few points for a line fit
    assert elliptic.decay_exponent(v, g) == np.inf


def test_cumulative_from_zero_rejects_a_growing_integrand(default_grid):
    # e^{-s/2} = x^{-1/2} blows up at the contact line: the tail closure has no integral
    with pytest.raises(DecayProbeError, match="does not decay"):
        elliptic.cumulative_from_zero(np.exp(-default_grid.s / 2), default_grid)


def _mask_form_decay_exponent(values, grid):
    """decay_exponent with its band taken by a boolean mask over every node, as it
    was written before the band became a node slice: the reference for its bits."""
    mask = grid.s <= grid.s_min + elliptic.TAIL_BAND
    mag = np.abs(values[mask])
    if np.max(mag) <= elliptic._TAIL_FLOOR:
        return np.inf
    ok = mag > 0
    if ok.sum() < 4:
        return np.inf
    return float(np.polyfit(grid.s[mask][ok], np.log(mag[ok]), 1)[0])


def _mask_form_tail_closure(integrand, grid):
    """_tail_closure in the same mask form."""
    mask = grid.s <= grid.s_min + elliptic.TAIL_BAND
    v = integrand[mask]
    if np.max(np.abs(v)) <= elliptic._TAIL_FLOOR:
        return 0.0
    gamma = _mask_form_decay_exponent(integrand, grid)
    d = grid.s[mask] - grid.s_min
    base = np.exp(gamma * d)
    a = np.stack([base, d * base, np.exp((gamma + 1) * d), np.exp((gamma + 2) * d)], axis=1)
    coef = np.linalg.lstsq(a, v, rcond=None)[0]
    return float(coef[0] / gamma - coef[1] / gamma**2
                 + coef[2] / (gamma + 1) + coef[3] / (gamma + 2))


# h = 1/8 and 1/128 put a node on every band edge; h = 16/999 puts none there
@pytest.mark.parametrize("n", [129, 1000, 2049])
def test_tail_band_slice_equals_its_mask_form_bitwise(monkeypatch, n):
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    s, x = grid.s, grid.x
    nodes = np.arange(n)
    # every band the lab reads, as grid.node_slice gives it: the left fit band and the
    # u2 and u3 fit bands (the slices _fit_matrix caches), the tail band, the far band
    fit_bands = [(-np.inf, gridmod.FIT_BAND), evolution.U2_BAND, evolution.U3_BAND]
    bands = [(gridmod._fit_matrix(grid.s_min, grid.s_max, n, lo, hi)[0],
              grid.s_min + lo, grid.s_min + hi) for lo, hi in fit_bands]
    bands += [(gridmod.node_slice(s, lo, hi), lo, hi) for lo, hi in
              [(-np.inf, grid.s_min + elliptic.TAIL_BAND),
               (grid.s_max - resolvent.FAR_BAND[0], grid.s_max - resolvent.FAR_BAND[1])]]
    on_edges = 0
    for sl, lo, hi in bands:
        assert np.array_equal(nodes[sl], np.flatnonzero((s >= lo) & (s <= hi)))
        edge = np.flatnonzero((s == lo) | (s == hi))
        assert np.isin(edge, nodes[sl]).all()  # a node on an edge is inside the band
        on_edges += edge.size
    assert on_edges == (0 if n == 1000 else 8)  # each of the 8 finite edges, when h divides it
    integrands = []
    closure = elliptic._tail_closure

    def spy(integrand, g):
        integrands.append(integrand.copy())
        return closure(integrand, g)

    monkeypatch.setattr(elliptic, "_tail_closure", spy)
    fields = [gridmod.GridFunction(grid, v) for v in
              (x**4 + 3 * x**3, 2 * x * x, x**1.5 * np.exp(-x), x**2 * np.exp(-x),
               18 * x * x + 12 * x, x * np.exp(-x))]
    for f in fields:
        elliptic.apply_B_inverse(f)
        elliptic.apply_S(f)
    assert len(integrands) == 5 * len(fields)
    for v in [f.values for f in fields] + integrands:
        got, want = elliptic.decay_exponent(v, grid), _mask_form_decay_exponent(v, grid)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    for v in integrands:
        got, want = closure(v, grid), _mask_form_tail_closure(v, grid)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
