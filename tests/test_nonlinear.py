import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline

from thinfilm import grid as gridmod
from thinfilm import nonlinear, stencils, validation
from thinfilm.errors import GridError, GuardError, PicardError


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
    assert nonlinear.contact_line_shift(u.values, default_grid) == pytest.approx(0.5, abs=1e-6)
    for cached in nonlinear._mobility(default_grid):
        with pytest.raises(ValueError):
            cached[0] = 0.0


def test_lipschitz_guard(default_grid):
    def vx(v):
        return nonlinear._dx(v, default_grid)

    assert nonlinear.lipschitz_guard(vx(np.zeros(default_grid.n)), "on v") == 0.0

    x = default_grid.x
    assert nonlinear.lipschitz_guard(vx(0.1 * x), "on v") == pytest.approx(0.1, rel=1e-6)

    with pytest.raises(GuardError, match=r"sup \|v_x\| = 0\.6000 is not below 0\.5"):
        nonlinear.lipschitz_guard(vx(0.6 * x), "on v")


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
    rows = []  # differentiated rows per stencil call
    apply_derivative = stencils.apply_derivative

    def counted(values, m, h, out=None):
        rows.append(np.size(values) // u.grid.n)
        return apply_derivative(values, m, h, out=out)

    monkeypatch.setattr(stencils, "apply_derivative", counted)
    got = nonlinear.eval_nonlinearity(u).values
    assert np.array_equal(got, want)
    # the stacked form: 9 differentiated rows in 5 calls
    assert (sum(rows), len(rows)) == (9, 5)


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


def test_nonlinearity_is_fourth_order_under_grid_refinement():
    # N(u) of u = 1e-2 (3x^2 + 2x) x e^{-x} on four grids, each halving h: the
    # coarser grid's nodes are every other node of the finer one. Away from both
    # edges (-8 < s < 2) the differences fall like h^4 (measured orders 3.98, 3.99)
    fields = []
    for n in (257, 513, 1025, 2049):
        grid = gridmod.LogGrid(-12.0, 4.0, n)
        x = grid.x
        u = gridmod.GridFunction(grid, 1e-2 * (3 * x * x + 2 * x) * x * np.exp(-x))
        fields.append((grid, nonlinear.eval_nonlinearity(u).values))
    diffs = []
    for (coarse, nc), (_, nf) in zip(fields, fields[1:]):
        inner = (coarse.s > -8.0) & (coarse.s < 2.0)
        diffs.append(np.max(np.abs(nc - nf[::2])[inner]))
    orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
    assert np.all((3.5 <= orders) & (orders <= 4.5)), (diffs, orders)


def test_run_nonlinear_zero_fixed_point(default_grid):
    state = nonlinear.run_nonlinear(gridmod.zero(default_grid), 1e-2, 1.0)
    assert max(np.max(np.abs(u.values)) for _, u in state.steps) <= 1e-12
    assert all(c == 1 for c in state.picard_counts)


def test_run_nonlinear_guard_failure(default_grid):
    with pytest.raises(GuardError):
        nonlinear.run_nonlinear(wave_shaped(default_grid, 1.0), 1e-2, 0.1)


@pytest.mark.parametrize("where", ["on the initial data", "at step 7", "in N(u)",
                                   "in the reconstruction"])
def test_guard_messages_say_where_the_guard_tripped(default_grid, where):
    u = wave_shaped(default_grid, 1.0)
    call = {"on the initial data": lambda: nonlinear.run_nonlinear(u, 1e-2, 0.1),
            "at step 7": lambda: nonlinear.NonlinearModel().guard(u, 7),
            "in N(u)": lambda: nonlinear.eval_nonlinearity(u),
            "in the reconstruction": lambda: nonlinear.reconstruct(u, 0.0, np.zeros(3))}[where]
    with pytest.raises(GuardError) as exc:
        call()
    assert re.fullmatch(rf"Lipschitz guard tripped {re.escape(where)}.*: "
                        r"sup \|v_x\| = \d+\.\d{4} is not below 0\.5", str(exc.value))


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
        norm0 = gridmod.composite_init_norm(raw, g, 1, 3, 0.25)
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


@pytest.mark.filterwarnings("error")
def test_contact_line_shift_rejects_an_overflowing_input(default_grid):
    # Y0 came back as inf or NaN after numpy warnings
    with pytest.raises(GridError, match="contact-line fit is not finite"):
        nonlinear.contact_line_shift(np.full((2, default_grid.n), 1e300), default_grid)


def test_reconstruct_contact_line_shift(default_grid):
    u = wave_shaped(default_grid, 0.01)  # u1 = 0.02
    film = nonlinear.reconstruct(u, 0.0, np.linspace(0.0, 1.0, 20))
    assert film.contact_line == pytest.approx(0.01, abs=1e-6)


def test_reconstruct_near_contact_expansion(default_grid):
    u = wave_shaped(default_grid, 0.01)
    u1, u2 = gridmod.extract_coefficients(u, 2)
    y0 = nonlinear.reconstruct(u, 0.0, np.linspace(0.0, 1.0, 20)).contact_line
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


def _wave_shift_film(eps, t, y):
    """The exact film of u = eps (3x^2 + 2x) e^{-x}, so v = eps e^{-x}: Newton
    on y = x + 6t + eps e^{-x} for x, then h = x^3 + x^2."""
    x = y - 6.0 * t
    for _ in range(60):
        x = x - (x + 6.0 * t + eps * np.exp(-x) - y) / (1.0 - eps * np.exp(-x))
    return x**3 + x * x


@pytest.mark.parametrize("eps", [1e-3, 0.1, 0.3])
def test_reconstruct_matches_the_closed_form_film(eps):
    t = 0.5
    y = np.linspace(6 * t + eps + 1e-3, 6 * t + 40.0, 1500)  # from just past Y0 = 6t + v(0)
    exact = _wave_shift_film(eps, t, y)
    errs = {}
    for n in (513, 1025, 2049):
        grid = gridmod.LogGrid(-12.0, 4.0, n)
        u = gridmod.GridFunction(grid, eps * (3 * grid.x**2 + 2 * grid.x) * np.exp(-grid.x))
        for upsample in (1, 8, 16):
            h = nonlinear.reconstruct(u, t, y, upsample=upsample).h
            errs[n, upsample] = np.max(np.abs(h - exact)) / np.max(exact)
    assert max(errs.values()) <= 1e-11
    if eps == 0.3:  # at smaller eps the error is at roundoff on every grid
        for upsample in (1, 8, 16):
            e = [errs[n, upsample] for n in (513, 1025, 2049)]
            assert e[0] >= 8 * e[1] and e[1] >= 8 * e[2]


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_reconstruct_rejects_a_non_finite_time(default_grid, t):
    with pytest.raises(GridError, match="time t must be finite"):
        nonlinear.reconstruct(gridmod.zero(default_grid), t, np.linspace(0.0, 5.0, 11))


def test_reconstruct_rejects_a_folded_height_map(default_grid, monkeypatch):
    # with the guard lifted, v = -1.5 x e^{-x} has 1 + v_x < 0 near the contact line
    monkeypatch.setattr(nonlinear, "LIPSCHITZ_THRESHOLD", np.inf)
    x = default_grid.x
    u = gridmod.GridFunction(default_grid, -1.5 * x * np.exp(-x) * (3 * x * x + 2 * x))
    with pytest.raises(GuardError, match="non-monotone height map"):
        nonlinear.reconstruct(u, 0.0, np.linspace(0.0, 5.0, 11))


def _full_sample_heights(u, t, y, upsample):
    """Film heights from scipy's CubicHermiteSpline over every fine sample, v's
    with the D^1 stencil slopes and h's with the exact ones: the reference
    reconstruct's windowed interpolant must match."""
    grid = u.grid
    s = np.linspace(grid.s_min, grid.s_max, upsample * (grid.n - 1) + 1)
    x = np.exp(s)
    v = nonlinear.to_v(u).values
    v_of_s = CubicHermiteSpline(grid.s, v, stencils.apply_derivative(v, 1, grid.h))
    film = CubicHermiteSpline(x + 6.0 * t + v_of_s(s), x**3 + x * x,
                              (3 * x**3 + 2 * x * x) / (x + v_of_s(s, 1)), extrapolate=False)
    return np.nan_to_num(film(np.asarray(y, dtype=float)), nan=0.0)


_Y_KINDS = ("oracle", "unsorted", "straddling", "one point", "empty", "with nan")


@st.composite
def _time_and_points(draw, kind):
    """(t, y): a row of the criterion-10 oracle at t0 = 2.5, or y of one kind
    about the film at a drawn t."""
    if kind == "oracle":
        dt_s, dy_s = draw(st.sampled_from(((0.2, 0.8), (0.1, 0.4), (0.05, 0.2))))
        t = round(2.5 + dt_s * draw(st.integers(-2, 2)), 10)
        return t, np.arange(6 * 2.5 + 1.2, 6 * 2.5 + 8.0 + 0.5 * dy_s, dy_s)
    t = draw(st.floats(0.0, 3.0))

    def points(lo, hi, min_size=1, max_size=40):
        values = draw(st.lists(st.floats(lo, hi), min_size=min_size, max_size=max_size))
        return 6 * t + np.array(values)

    if kind == "unsorted":
        return t, points(0.0, 20.0)
    if kind == "straddling":
        # below y_param[0] ~ 6t + 6e-6 and past y_param[-1] ~ 6t + e^4, some between
        return t, np.concatenate((points(-3.0, 0.0), points(0.0, 60.0, 0, 5),
                                  points(55.0, 100.0)))
    if kind == "one point":
        return t, points(-1.0, 60.0, 1, 1)
    if kind == "empty":
        return t, np.array([])
    nan_at = draw(st.one_of(st.just([True] * 8), st.lists(st.booleans(), min_size=8, max_size=8)))
    return t, np.where(nan_at, np.nan, points(-1.0, 30.0, 8, 8))


@pytest.mark.parametrize("kind", _Y_KINDS)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_windowed_reconstruct_matches_full_samples(default_grid, kind, data):
    t, y = data.draw(_time_and_points(kind), label="t, y")
    upsample = data.draw(st.sampled_from((1, 8, 16)), label="upsample")
    # the criterion-9 initial field, so the fine samples are not the bare wave's
    x = default_grid.x
    u = gridmod.GridFunction(default_grid, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    got = nonlinear.reconstruct(u, t, y, upsample=upsample).h
    want = _full_sample_heights(u, t, y, upsample)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("upsample", [0, -2, 2.5])
def test_reconstruct_rejects_bad_upsample(default_grid, upsample):
    with pytest.raises(GridError, match="upsample must be an integer >= 1"):
        nonlinear.reconstruct(gridmod.zero(default_grid), 0.0, np.zeros(3), upsample=upsample)


def test_refined_samples_are_searched_not_assumed():
    # on this grid the refined sample k lies in interval k // 3 only up to
    # rounding: 74 samples that equal a node in exact arithmetic fall just below it
    grid = gridmod.LogGrid(-12.0, np.pi, 257)
    x, i, d = nonlinear._refined(grid, 3)
    s = np.linspace(grid.s_min, grid.s_max, 3 * (grid.n - 1) + 1)
    assert x.tobytes() == np.exp(s).tobytes()
    assert np.all(grid.s[i] <= s) and np.all((s < grid.s[i + 1]) | (i == grid.n - 2))
    assert np.count_nonzero(i != np.minimum(np.arange(s.size) // 3, grid.n - 2)) == 74
    assert d.tobytes() == (s - grid.s[i]).tobytes()
    for table in (x, i, d):
        with pytest.raises(ValueError):
            table[0] = 0
