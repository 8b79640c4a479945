import numpy as np
import pytest

from thinfilm import grid as gridmod
from thinfilm import nonlinear, stencils, validation
from thinfilm.errors import GuardError, PicardError


def wave_shaped(grid, eps, taper=True):
    x = grid.x
    values = eps * (3 * x * x + 2 * x)
    if taper:
        values = values * np.exp(-x)
    return gridmod.GridFunction(grid, values)


def test_to_v(default_grid):
    x = default_grid.x
    u = gridmod.GridFunction(default_grid, 3 * x * x + 2 * x)
    assert np.allclose(nonlinear.to_v(u).values, 1.0)
    assert np.max(np.abs(nonlinear.to_v(gridmod.zero(default_grid)).values)) == 0.0
    u = gridmod.monomial(default_grid, 1)
    v = nonlinear.to_v(u).values
    assert np.allclose(v, 1.0 / (3 * x + 2), rtol=1e-12)
    assert nonlinear.contact_line_shift(u) == pytest.approx(0.5, abs=1e-6)


def test_lipschitz_guard(default_grid):
    zero = gridmod.zero(default_grid)
    rep = nonlinear.lipschitz_guard(zero)
    assert rep.ok and rep.sup_vx == 0.0

    x = default_grid.x
    v = gridmod.GridFunction(default_grid, 0.1 * x)
    rep = nonlinear.lipschitz_guard(v)
    assert rep.ok and rep.sup_vx == pytest.approx(0.1, rel=1e-6)

    v = gridmod.GridFunction(default_grid, 0.6 * x)
    assert not nonlinear.lipschitz_guard(v).ok


def test_nonlinearity_fixed_points(fine_grid):
    assert np.max(np.abs(nonlinear.eval_nonlinearity(gridmod.zero(fine_grid)).values)) == 0.0
    # contact-line shifts of the wave (v constant) are exact fixed points
    shift = wave_shaped(fine_grid, 1e-3, taper=False)
    out = nonlinear.eval_nonlinearity(shift).values
    assert np.max(np.abs(out)) < 1e-12


def _eleven_pass_nonlinearity(u):
    """N(u) as written before D(w m) and dx(w t) were shared: 11 stencil passes."""
    grid = u.grid

    def dx(values):
        return grid.inv_x * stencils.apply_derivative(values, 1, grid.h)

    def dx2(values):
        d1 = stencils.apply_derivative(values, 1, grid.h)
        d2 = stencils.apply_derivative(values, 2, grid.h)
        return grid.inv_x2 * (d2 - d1)

    x = grid.x
    vx = dx(nonlinear.to_v(u).values)
    mob = 3.0 * x * x + 2.0 * x
    mob1 = 6.0 * x + 2.0
    w = vx * (1.0 / (1.0 + vx))
    z = vx * w
    lin = dx2(z * mob) + dx(z * mob1) + 6.0 * z
    t = dx(w * mob)
    quad = dx(w * t) + w * dx2(w * mob) + w * dx(w * mob1) - w * dx(w * t)
    return dx((x**3 + x * x) * (lin + quad))


@pytest.mark.parametrize("eps", [1e-4, 1e-3, 1e-2])  # 1e-3: the criterion-9 initial field
def test_nonlinearity_matches_eleven_pass_form(default_grid, monkeypatch, eps):
    u = wave_shaped(default_grid, eps)
    want = _eleven_pass_nonlinearity(u)
    passes = []
    apply_derivative = stencils.apply_derivative

    def counted(values, m, h):
        passes.append(m)
        return apply_derivative(values, m, h)

    monkeypatch.setattr(stencils, "apply_derivative", counted)
    got = nonlinear.eval_nonlinearity(u).values
    assert np.array_equal(got, want)
    assert len(passes) == 9


def test_nonlinearity_guard(fine_grid):
    with pytest.raises(GuardError):
        nonlinear.eval_nonlinearity(wave_shaped(fine_grid, 1.0))


def test_nonlinearity_quadratic_smallness(fine_grid):
    w = wave_shaped(fine_grid, 1.0)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        nn = nonlinear.eval_nonlinearity(gridmod.GridFunction(fine_grid, eps * w.values))
        ratios.append(gridmod.weighted_norm(nn, gridmod.NormSpec(0, 0.0)) / eps**2)
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.10


def test_run_nonlinear_zero_fixed_point(default_grid):
    state = nonlinear.run_nonlinear(gridmod.zero(default_grid), 1e-2, 1.0)
    assert max(np.max(np.abs(u.values)) for _, u in state.steps) <= 1e-12
    assert all(c == 1 for c in state.picard_counts)


def test_run_nonlinear_guard_failure(default_grid):
    with pytest.raises(GuardError):
        nonlinear.run_nonlinear(wave_shaped(default_grid, 1.0), 1e-2, 0.1)


def test_run_nonlinear_picard_stall(default_grid):
    # eps = 0.1 passes the Lipschitz guard, but the Picard map contracts too
    # slowly to converge within picard_max iterations; the message names the
    # budget, the last increment and the last measured rate
    with pytest.raises(PicardError, match=r"stalled at step 1: picard_max = 25 iterations "
                       r"used, last increment \d\.\d{3}e-\d\d, last measured rate 0\.\d{3}$"):
        nonlinear.run_nonlinear(wave_shaped(default_grid, 0.1), 1e-2, 0.05)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_run_nonlinear_is_first_order_in_dt(eps):
    g = gridmod.LogGrid(-12.0, 4.0, 513)
    finals = [nonlinear.run_nonlinear(wave_shaped(g, eps), dt, 1.0, store_every=10**6)
              .final().values for dt in (4e-2, 2e-2, 1e-2)]
    coarse, fine = (np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:]))
    assert 0.9 <= np.log2(coarse / fine) <= 1.1


def _smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def test_run_nonlinear_shift_family(default_grid):
    # cutoff wave shift: the contact-line drift is driven by the cutoff
    # region alone (parabolic coupling is instant but local in amplitude),
    # so it shrinks as the cutoff recedes; the uncut shift is an exact
    # fixed point (test_nonlinearity_fixed_points)
    g = default_grid
    x = g.x
    drifts = {}
    for s0 in (1.0, 3.0):
        chi = _smoothstep((s0 + 1.5 - g.s) / 1.5)
        u0 = gridmod.GridFunction(g, 1e-3 * (3 * x * x + 2 * x) * chi)
        state = nonlinear.run_nonlinear(u0, 1e-2, 1.0, store_every=100)
        near_contact = x <= 0.1
        drifts[s0] = np.max(np.abs(state.final().values - u0.values)[near_contact])
    assert drifts[3.0] < 0.5 * drifts[1.0]
    assert drifts[1.0] < 0.05 * np.max(np.abs(u0.values))


def test_run_nonlinear_decay_trend(rng):
    # random small perturbations of the default tapered wave-shift family;
    # pure kernel-ray content would persist on the truncated domain, so the
    # draws modulate the decaying family rather than injecting raw x rays
    g = gridmod.LogGrid(-12, 4, 513)
    x = g.x
    below_half = 0
    for _ in range(10):
        a, b = rng.uniform(-0.5, 0.5, 2)
        mod = 1.0 + a * x / (1 + x) + b * x * np.exp(-x)
        raw = (3 * x * x + 2 * x) * np.exp(-x) * mod
        u0 = gridmod.GridFunction(g, raw)
        norm0 = gridmod.composite_init_norm(u0, 1, 3, 0.25)
        u0 = gridmod.GridFunction(g, raw * (1e-3 / norm0))
        state = nonlinear.run_nonlinear(u0, 2e-2, 5.0, store_every=125)
        track = state.init_norm_track
        assert track[-1] < track[0]
        if track[-1] < 0.5 * track[0]:
            below_half += 1
    assert below_half >= 8


def test_reconstruct_traveling_wave(default_grid):
    t = 0.5
    y = np.linspace(2.0, 8.0, 200)
    film = nonlinear.reconstruct(gridmod.zero(default_grid), t, y)
    exact = validation.traveling_wave(t, y)
    assert np.max(np.abs(film.h - exact)) < 1e-6
    assert film.contact_line == pytest.approx(6 * t, abs=1e-10)
    below = np.linspace(0.0, 2.9, 30)
    film2 = nonlinear.reconstruct(gridmod.zero(default_grid), t, below)
    assert np.allclose(film2.h, 0.0)


def test_reconstruct_contact_line_shift(default_grid):
    u = wave_shaped(default_grid, 0.01)  # u1 = 0.02
    film = nonlinear.reconstruct(u, 0.0, np.linspace(0.0, 1.0, 20))
    assert film.contact_line == pytest.approx(0.01, abs=1e-6)


def test_reconstruct_near_contact_expansion(default_grid):
    u = wave_shaped(default_grid, 0.01)
    probe = nonlinear.reconstruct(u, 0.0, np.linspace(0.0, 1.0, 20))
    u1, u2 = probe.coefficients
    y0 = probe.contact_line
    yq = y0 + np.linspace(1e-4, 1e-2, 50)
    film = nonlinear.reconstruct(u, 0.0, yq)
    denom = 1 + 0.5 * u2 - 0.75 * u1
    X = (yq - 0.5 * u1) / denom
    approx = X**2 + (1 + 2 * u2 - 4 * u1) / denom * X**3
    assert np.max(np.abs(film.h - approx) / approx) < 1e-3


def test_reconstruct_invariants(default_grid):
    u = wave_shaped(default_grid, 1e-3)
    t = 0.3
    y = np.linspace(6 * t - 0.5, 6 * t + 5.0, 400)
    film = nonlinear.reconstruct(u, t, y)
    assert np.all(film.h >= 0.0)
    assert np.all(np.diff(film.y) > 0)
    at_y0 = nonlinear.reconstruct(u, t, np.array([film.contact_line])).h[0]
    assert at_y0 <= 1e-10
    # zero contact angle: cubic fit of h on [Y0, Y0 + 1e-2]
    yq = film.contact_line + np.linspace(0.0, 1e-2, 60)
    hq = nonlinear.reconstruct(u, t, yq).h
    dy = yq - film.contact_line
    a = np.stack([np.ones_like(dy), dy, dy * dy, dy**3], axis=1)
    coef, _, _, _ = np.linalg.lstsq(a, hq, rcond=None)
    assert abs(coef[1]) < 1e-6

