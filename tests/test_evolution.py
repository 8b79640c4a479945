import numpy as np
import pytest

from thinfilm import evolution, nonlinear, resolvent, stencils
from thinfilm import grid as gridmod
from thinfilm.errors import GridError, PicardError

KERNEL_GRID = gridmod.LogGrid(-12.0, 9.0, 1345)


@pytest.fixture(scope="module")
def kernel_op():
    return resolvent.assemble(KERNEL_GRID)


def test_average_rhs_exactness(default_grid):
    w = gridmod.monomial(default_grid, 1)

    const = evolution.average_rhs(lambda t: w, 3, 0.1)
    assert np.allclose(const.values, w.values)

    linear = evolution.average_rhs(lambda t: t * w, 3, 0.1)
    assert np.allclose(linear.values, 0.25 * w.values, rtol=1e-14)

    zero = evolution.average_rhs(lambda t: gridmod.zero(default_grid), 1, 0.1)
    assert np.max(np.abs(zero.values)) == 0.0


def test_step_preserves_kernel(kernel_op):
    interior = KERNEL_GRID.s <= KERNEL_GRID.s_max - 1.5
    for j in (1, 2):
        u0 = gridmod.monomial(KERNEL_GRID, j)
        u1 = evolution.step(kernel_op, u0, None, 1e-2)
        dev = np.max(np.abs((u1.values - u0.values)[interior]))
        assert dev / np.max(np.abs(u0.values[interior])) < 1e-8


def test_step_dissipates_decaying_data(kernel_op):
    x = KERNEL_GRID.x
    u0 = gridmod.GridFunction(KERNEL_GRID, x**3 * np.exp(-x))
    u1 = evolution.step(kernel_op, u0, None, 1e-2)
    e0, _ = evolution.tilde_energies(u0, 0.25, 2)
    e1, _ = evolution.tilde_energies(u1, 0.25, 2)
    assert e1 < e0


def test_run_zero_is_zero(kernel_op):
    state = evolution.run(kernel_op, gridmod.zero(KERNEL_GRID), None, 1e-2, 0.1)
    assert all(np.max(np.abs(u.values)) == 0.0 for _, u in state.steps)


def test_run_energy_monotone(kernel_op):
    x = KERNEL_GRID.x
    u0 = gridmod.GridFunction(KERNEL_GRID, x**3 * np.exp(-x))
    state = evolution.run(kernel_op, u0, None, 1e-2, 2.0)
    assert state.flags == []
    e = [entry["tilde_sq"] for entry in state.energy_log]
    assert all(e[i + 1] <= e[i] * (1 + 1e-10) for i in range(len(e) - 1))
    assert e[-1] < 0.5 * e[0]


def test_run_richardson_first_order(kernel_op):
    x = KERNEL_GRID.x
    u0 = gridmod.GridFunction(KERNEL_GRID, x**3 * np.exp(-x))
    finals = [evolution.run(kernel_op, u0, None, dt, 0.4).final().values
              for dt in (4e-2, 2e-2, 1e-2)]
    d1 = np.max(np.abs(finals[0] - finals[1]))
    d2 = np.max(np.abs(finals[1] - finals[2]))
    assert 1.7 <= d1 / d2 <= 2.3


def test_run_coefficient_relation(kernel_op):
    # step-wise form of the j = 1 recursion: (u1_j - u1_{j-1})/dt = -12 u3_j
    x = KERNEL_GRID.x
    u0 = gridmod.GridFunction(KERNEL_GRID, x**3 * np.exp(-x))
    state = evolution.run(kernel_op, u0, None, 1e-2, 1.0)
    u1 = state.coefficient_tracks[:, 0]
    u3 = state.coefficient_tracks[:, 2]
    rate = np.diff(u1) / np.diff(state.times)
    resid = rate + 12 * u3[1:]
    assert np.max(np.abs(resid)) <= 1e-2 * np.max(np.abs(rate))


def test_run_kernel_plus_perturbation(kernel_op):
    x = KERNEL_GRID.x
    pert = gridmod.GridFunction(KERNEL_GRID, 1e-2 * x**2 * np.exp(-x))
    u0 = gridmod.monomial(KERNEL_GRID, 1) + pert
    state = evolution.run(kernel_op, u0, None, 1e-2, 2.0, store_every=20)
    u1 = state.coefficient_tracks[:, 0]
    # the perturbation feeds u1 through the recursion until its u3 dies out;
    # the track settles towards a constant
    assert abs(u1[-1] - u1[-2]) < 0.1 * abs(u1[1] - u1[0])
    assert np.max(np.abs(u1 - u1[0])) < 1e-2
    # superposition: the run splits into the kernel ray (with its clamp
    # layer) plus the pure perturbation run, whose energy decays
    kernel_state = evolution.run(kernel_op, gridmod.monomial(KERNEL_GRID, 1),
                                 None, 1e-2, 2.0, store_every=20)
    pert_state = evolution.run(kernel_op, pert, None, 1e-2, 2.0, store_every=20)
    combined = kernel_state.final().values + pert_state.final().values
    assert np.max(np.abs(state.final().values - combined)) < 1e-8 * np.max(np.abs(combined))
    e = [entry["tilde_sq"] for entry in pert_state.energy_log]
    assert e[-1] < e[0]
    assert pert_state.flags == []


def test_run_with_forcing_bounded(kernel_op):
    x = KERNEL_GRID.x
    w = x**2 * np.exp(-x)

    def f(t):
        return gridmod.GridFunction(KERNEL_GRID, np.exp(-t) * w)

    state = evolution.run(kernel_op, gridmod.zero(KERNEL_GRID), f, 1e-2, 1.0)
    e_final = state.energy_log[-1]["tilde_sq"]
    f_energy, _ = evolution.tilde_energies(f(0.0), 0.25, 2)
    ratio = e_final / f_energy
    assert np.isfinite(ratio) and ratio < 10.0


def test_leading_coefficients_known_field():
    g = KERNEL_GRID
    x = g.x
    u = gridmod.GridFunction(g, (0.13 * x + 0.66 * x * x + 0.018 * x**3) * np.exp(-x))
    u1, u2, u3 = evolution.leading_coefficients(u)
    # e^{-x} mixes the monomials: u2 = 0.66 - 0.13, u3 = 0.018 - 0.66 + 0.065
    assert u1 == pytest.approx(0.13, abs=1e-10)
    assert u2 == pytest.approx(0.53, abs=1e-4)
    assert u3 == pytest.approx(-0.577, abs=2e-3)


def _per_call_tilde_energies(u, alpha, k):
    """tilde_energies as written before the (D-1)u and weight caches."""
    grid = u.grid
    tu = gridmod.shifted_derivative(u, 1.0).values
    weight = np.exp(-2.0 * alpha * grid.s)
    e0 = stencils.trapezoid(weight * tu * tu, grid.h)
    dk = gridmod.ds_any(tu, k, grid.h)
    ek = stencils.trapezoid(weight * dk * dk, grid.h)
    return float(e0), float(ek)


def _per_call_leading_coefficients(u):
    """leading_coefficients as written before the (D-1)u and weight caches."""
    grid = u.grid
    u1 = gridmod.extract_coefficients(u, 1)[0]
    tu = gridmod.shifted_derivative(u, 1.0)
    u2 = gridmod.fit_powers(tu.values * np.exp(-2.0 * grid.s), grid, 3.0, 6.0, 3)[0]
    cu = gridmod.shifted_derivative(tu, 2.0)
    u3 = gridmod.fit_powers(cu.values * np.exp(-3.0 * grid.s), grid, 7.0, 9.5, 3)[0] / 2.0
    return float(u1), float(u2), float(u3)


@pytest.mark.parametrize("nonlinear_run", [False, True])
def test_stored_step_monitors_match_per_call_forms(default_grid, monkeypatch, nonlinear_run):
    shifts = []
    shifted_derivative = gridmod.shifted_derivative

    def counted(w, a):
        shifts.append(a)
        return shifted_derivative(w, a)

    monkeypatch.setattr(gridmod, "shifted_derivative", counted)
    x = default_grid.x
    u0 = gridmod.GridFunction(default_grid, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    if nonlinear_run:
        state = nonlinear.run_nonlinear(u0, 1e-2, 0.05, alpha=0.75, k=3, store_every=2)
    else:
        state = evolution.run(resolvent.assemble(default_grid), u0, None, 1e-2, 0.05,
                              alpha=0.75, k=3, store_every=2)
    stored = len(state.steps)
    assert stored == 4
    # one (D-1)u per monitored field: every step (linear) or every stored step
    # (nonlinear); (D-2)(D-1)u only for the stored steps' coefficients
    assert shifts.count(1.0) == (6 if not nonlinear_run else stored)
    assert shifts.count(2.0) == stored
    monkeypatch.undo()
    for (_, u), entry, coeffs in zip(state.steps, state.energy_log, state.coefficient_tracks):
        assert (entry["tilde_sq"], entry["tilde_dk_sq"]) == _per_call_tilde_energies(u, 0.75, 3)
        assert tuple(coeffs) == _per_call_leading_coefficients(u)
        assert evolution.tilde_energies(u, 0.75, 3) == _per_call_tilde_energies(u, 0.75, 3)
        assert evolution.leading_coefficients(u) == _per_call_leading_coefficients(u)


SMALL_GRID = gridmod.LogGrid(-12.0, 4.0, 257)


def _run_linear(dt, T, store_every):
    return evolution.run(resolvent.assemble(SMALL_GRID), gridmod.zero(SMALL_GRID), None,
                         dt, T, store_every=store_every)


def _run_nonlinear(dt, T, store_every):
    return nonlinear.run_nonlinear(gridmod.zero(SMALL_GRID), dt, T, store_every=store_every)


@pytest.mark.parametrize("driver", [_run_linear, _run_nonlinear])
@pytest.mark.parametrize("dt, T, store_every, message", [
    (1e-2, 0.015, 1, "integer number of steps"),
    (1e-7, 0.2, 1, "too many steps"),
    (1e-2, 0.05, 0, "store_every"),
    (0.0, 0.05, 1, "dt must be positive"),
    (-0.01, 0.05, 1, "dt must be positive"),
    (1e-2, 0.0, 1, "T must be positive"),
    (1e-2, -0.01, 1, "T must be positive"),
    (np.nan, 0.05, 1, "dt must be positive and finite"),
    (1e-2, np.nan, 1, "T must be positive and finite"),
    (1e-2, np.inf, 1, "T must be positive and finite"),
    (5e-324, 1.0, 1, "too many steps"),
    (1.0, 1e-12, 1, "integer number of steps"),
])
def test_run_rejects_bad_step_requests(driver, dt, T, store_every, message):
    with pytest.raises(GridError, match=message):
        driver(dt, T, store_every)


def test_picard_with_zero_nonlinearity_is_the_linear_step(default_grid):
    class Linear(nonlinear.NonlinearModel):
        def N(self, u):
            return gridmod.zero(u.grid)

    x = default_grid.x
    w = 1e-3 * x**2 * np.exp(-x)
    u0 = gridmod.GridFunction(default_grid, w)

    def f(t):
        return gridmod.GridFunction(default_grid, np.exp(-t) * w)

    op = resolvent.assemble(default_grid)
    lin = evolution.run(op, u0, f, 1e-2, 0.1, store_every=5)
    pic = evolution.run(op, u0, f, 1e-2, 0.1, store_every=5, nonlinear=Linear())
    assert all(np.array_equal(a.values, b.values) for (_, a), (_, b) in zip(lin.steps, pic.steps))
    assert np.array_equal(lin.coefficient_tracks, pic.coefficient_tracks)
    # step 1 has no rate yet: its second pass reproduces the first exactly and
    # measures rate 0, so every later step stops after its one solve
    assert pic.picard_counts == [2] + [1] * 9
    assert len(pic.lipschitz_track) == len(pic.contact_line_track) == len(pic.steps) == 3


def test_step_rejects_nan_dt():
    with pytest.raises(GridError, match="dt must be positive"):
        evolution.step(resolvent.assemble(SMALL_GRID), gridmod.zero(SMALL_GRID), None, np.nan)


def _absolute_increment_picard(op, u_prev, u_older, f_avg, dt, fac, model, j, rate):
    """The Picard loop with the old rule: from u_prev until the increment is
    below picard_tol, with no extrapolated start and no rate estimate."""
    iterate = u_prev
    for count in range(1, model.picard_max + 1):
        g = model.N(iterate)
        if f_avg is not None:
            g = f_avg + g
        u_next = evolution.step(op, u_prev, g, dt, factorization=fac)
        delta = float(np.max(np.abs(u_next.values - iterate.values)))
        iterate = u_next
        if delta < model.picard_tol:
            return iterate, count, None
    raise PicardError(f"Picard stalled at step {j}")


@pytest.fixture(scope="module")
def small_wave_run():
    """One second of the criterion-9 wave (eps = 1e-3) on a 513-node grid."""
    g = gridmod.LogGrid(-12.0, 4.0, 513)
    x = g.x
    u0 = gridmod.GridFunction(g, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    return u0, nonlinear.run_nonlinear(u0, 1e-2, 1.0, store_every=50)


def test_picard_stop_rule_matches_the_absolute_increment_rule(small_wave_run, monkeypatch):
    u0, new = small_wave_run
    monkeypatch.setattr(evolution, "_picard_step", _absolute_increment_picard)
    old = nonlinear.run_nonlinear(u0, 1e-2, 1.0, store_every=50)
    want = old.final().values
    assert np.max(np.abs(new.final().values - want)) <= 1e-6 * np.max(np.abs(want))
    assert sum(new.picard_counts) <= 0.6 * sum(old.picard_counts)


def test_picard_rates_are_recorded_per_step(small_wave_run):
    _, state = small_wave_run
    assert len(state.picard_rates) == len(state.picard_counts) == 100
    # step 1 starts without a rate and measures one; small data contracts
    assert all(r is not None and r < 1.0 for r in state.picard_rates)
