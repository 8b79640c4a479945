import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ds_any
from thinfilm import evolution, nonlinear, resolvent, stencils
from thinfilm import grid as gridmod
from thinfilm.errors import EnergyError, GridError, GuardError, PicardError, SolverError

KERNEL_GRID = gridmod.LogGrid(-12.0, 9.0, 1345)


@pytest.fixture(scope="module")
def kernel_op():
    return resolvent.assemble(KERNEL_GRID)


def test_average_rhs_exactness(default_grid):
    w = gridmod.monomial(default_grid, 1)

    const = evolution.average_rhs(lambda t: w, 3, 0.1, default_grid)
    assert np.allclose(const.values, w.values)

    linear = evolution.average_rhs(lambda t: gridmod.GridFunction(default_grid, t * w.values),
                                   3, 0.1, default_grid)
    assert np.allclose(linear.values, 0.25 * w.values, rtol=1e-14)

    zero = evolution.average_rhs(lambda t: gridmod.zero(default_grid), 1, 0.1, default_grid)
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
    e0, _ = evolution.tilde_energies(u0.values, KERNEL_GRID, 0.25, 2)
    e1, _ = evolution.tilde_energies(u1.values, KERNEL_GRID, 0.25, 2)
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
    u0 = gridmod.GridFunction(KERNEL_GRID, gridmod.monomial(KERNEL_GRID, 1).values + pert.values)
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
    f_energy, _ = evolution.tilde_energies(f(0.0).values, KERNEL_GRID, 0.25, 2)
    ratio = e_final / f_energy
    assert np.isfinite(ratio) and ratio < 10.0


@functools.lru_cache(maxsize=8)
def _manufactured_run(n, dt):
    """(state, exact final values) of the forced run whose exact solution is
    u(t) = e^{-t} w, w = x^2 e^{-x}, on [-12, 4] up to T = 1: u_t + A u = f with
    f = e^{-t} (A w - w), A w = (x^5 - 10x^4 + 20x^3 + 6x^2 - 12x) e^{-x} (the
    closed form of criterion 5). f vanishes at the contact line, and the exact
    tracks at T = 1 are u1 = 0, u2 = e^{-1} and u3 = -e^{-1}."""
    g = gridmod.LogGrid(-12.0, 4.0, n)
    x = g.x
    w = x**2 * np.exp(-x)
    aw = (x**5 - 10 * x**4 + 20 * x**3 + 6 * x**2 - 12 * x) * np.exp(-x)
    state = evolution.run(resolvent.assemble(g), gridmod.GridFunction(g, w),
                          lambda t: gridmod.GridFunction(g, np.exp(-t) * (aw - w)), dt, 1.0)
    return state, np.exp(-1.0) * w


def test_manufactured_forced_run_is_first_order_in_dt():
    # at n = 257 the max errors are 9.16e-3, 4.61e-3, 2.31e-3 and 1.16e-3, orders
    # 0.991, 0.995 and 0.997, the same to 3 digits under the default, Haswell and
    # Prescott kernels
    errs = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        state, exact = _manufactured_run(257, dt)
        errs.append(np.max(np.abs(state.final().values - exact)))
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all((orders > 0.95) & (orders < 1.05)), orders
    assert errs[0] < 1.2e-2


def test_manufactured_forced_run_tracks_are_fourth_order_in_h():
    # Richardson in dt (2 u(dt/2) - u(dt), dt = 1e-2) leaves the dt^2 floor, a max
    # error of 1.7e-6 to 2.8e-6 at every n; the tracks then show h. Measured
    # |u2(1) - e^-1| = 4.0e-4, 2.06e-5, 3.06e-6 to 3.08e-6 and |u3(1) + e^-1| = 4.73e-3,
    # 2.86e-4, 9.70e-6 to 9.76e-6 at n = 257, 513 and 1025 (orders 4.3 and 4.05 from
    # 257 to 513; at 1025 both sit on the dt^2 floor), |u1(1)| at most 5.5e-6
    errs = []
    for n in (257, 513, 1025):
        (coarse, exact), (fine, _) = _manufactured_run(n, 1e-2), _manufactured_run(n, 5e-3)
        richardson = 2.0 * fine.final().values - coarse.final().values
        assert np.max(np.abs(richardson - exact)) < 1e-5
        u1, u2, u3 = 2.0 * fine.coefficient_tracks[-1] - coarse.coefficient_tracks[-1]
        assert abs(u1) < 2e-5
        errs.append((abs(u2 - np.exp(-1.0)), abs(u3 + np.exp(-1.0))))
    errs = np.array(errs)
    assert np.all(np.log2(errs[0] / errs[1]) > 3.5), errs
    assert errs[2, 0] < 1e-5 and errs[2, 1] < 3e-5, errs


def test_leading_coefficients_known_field():
    g = KERNEL_GRID
    x = g.x
    u = gridmod.GridFunction(g, (0.13 * x + 0.66 * x * x + 0.018 * x**3) * np.exp(-x))
    u1, u2, u3 = evolution.leading_coefficients(u.values, g)
    # e^{-x} mixes the monomials: u2 = 0.66 - 0.13, u3 = 0.018 - 0.66 + 0.065
    assert u1 == pytest.approx(0.13, abs=1e-10)
    assert u2 == pytest.approx(0.53, abs=1e-4)
    assert u3 == pytest.approx(-0.577, abs=2e-3)


def _per_call_tilde_energies(u, alpha, k):
    """tilde_energies as written before the weight cache and the derivative tower."""
    grid = u.grid
    tu = gridmod._shifted(u.values, 1.0, grid.h)
    weight = np.exp(-2.0 * alpha * grid.s)
    e0 = stencils.trapezoid(weight * tu * tu, grid.h)
    dk = ds_any(tu, k, grid.h)
    ek = stencils.trapezoid(weight * dk * dk, grid.h)
    return float(e0), float(ek)


def _per_call_leading_coefficients(u):
    """leading_coefficients as written before the (D-1)u and weight caches."""
    grid = u.grid
    u1 = gridmod.extract_coefficients(u, 1)[0]
    tu = gridmod._shifted(u.values, 1.0, grid.h)
    u2 = gridmod.fit_powers(tu * np.exp(-2.0 * grid.s), grid, 3.0, 6.0)[0]
    cu = gridmod._shifted(tu, 2.0, grid.h)
    u3 = gridmod.fit_powers(cu * np.exp(-3.0 * grid.s), grid, 7.0, 9.5)[0] / 2.0
    return float(u1), float(u2), float(u3)


@pytest.mark.parametrize("nonlinear_run", [False, True])
def test_stored_step_monitors_match_per_call_forms(default_grid, monkeypatch, nonlinear_run):
    shifts = []  # (a, stack height) of each (D - a) taken
    shifted = gridmod._shifted

    def counted(values, a, h):
        shifts.append((a, len(values)))
        return shifted(values, a, h)

    monkeypatch.setattr(gridmod, "_shifted", counted)
    calls = []  # (name, stack height)
    for module, name in ((evolution, "tilde_energies"), (evolution, "leading_coefficients"),
                         (gridmod, "composite_init_norm"), (nonlinear, "contact_line_shift")):
        def counted_record(values, *args, _name=name, _original=getattr(module, name)):
            calls.append((_name, len(values)))
            return _original(values, *args)
        monkeypatch.setattr(module, name, counted_record)
    x = default_grid.x
    u0 = gridmod.GridFunction(default_grid, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    if nonlinear_run:
        state = nonlinear.run_nonlinear(u0, 1e-2, 0.05, store_every=2)
    else:
        state = evolution.run(resolvent.assemble(default_grid), u0, None, 1e-2, 0.05,
                              alpha=0.75, k=3, store_every=2)
    stored = len(state.steps)
    assert stored == 4
    # the stored steps are recorded in two stacks: t = 0 on its own, before the
    # first solve, then the other three. (D-1)u is not shared between monitors: a
    # linear run takes it once per stack for the energy pair and once for the
    # coefficients, a nonlinear run once (coefficients); (D-2)(D-1)u once per
    # stack, for the coefficients. The energy flags take (D-1)u of their stack of
    # u0 and its 5 steps inside tilde_energies (at k = 0).
    stacks = [1, 3]
    records = ["leading_coefficients"] + (
        ["composite_init_norm", "contact_line_shift"] if nonlinear_run
        else ["tilde_energies"])
    want = [(name, h) for h in stacks for name in records]
    want += [] if nonlinear_run else [("tilde_energies", 6)]
    assert sorted(calls) == sorted(want)
    want_shifts = [(a, h) for h in stacks for a in (1.0, 2.0)]
    want_shifts += [] if nonlinear_run else [(1.0, 1), (1.0, 3), (1.0, 6)]
    assert sorted(shifts) == sorted(want_shifts)
    monkeypatch.undo()
    assert len(state.energy_log) == (0 if nonlinear_run else stored)
    for (_, u), entry in zip(state.steps, state.energy_log):
        assert (entry["tilde_sq"], entry["tilde_dk_sq"]) == _per_call_tilde_energies(u, 0.75, 3)
        assert tuple(evolution.tilde_energies(u.values, u.grid, 0.75, 3).tolist()) == \
            _per_call_tilde_energies(u, 0.75, 3)
    for (_, u), coeffs in zip(state.steps, state.coefficient_tracks):
        assert tuple(coeffs) == _per_call_leading_coefficients(u)
        assert tuple(evolution.leading_coefficients(u.values, u.grid).tolist()) == \
            _per_call_leading_coefficients(u)


SMALL_GRID = gridmod.LogGrid(-12.0, 4.0, 257)
K = evolution.ENERGY_BATCH


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.sampled_from((64, 257, 1025)), height=st.integers(1, 2 * K + 1),
       alpha=st.sampled_from((0.25, 0.75, -0.5, 1.5)), seed=st.integers(0, 2**32 - 1))
def test_energy_stacks_equal_per_row_energies(n, height, alpha, seed):
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-8.0, 3.0, (height, 1))
    stack = scales * rng.standard_normal((height, n)) * np.exp(-grid.x)
    pairs = evolution.tilde_energies(stack, grid, alpha, 0)  # the energy check's call
    assert pairs.shape == (height, 2)
    assert np.array_equal(pairs[:, 0], pairs[:, 1])  # at k = 0 both are |(D-1)u|_a^2
    for row, e in zip(stack, pairs[:, 0]):
        # the one-field form and the stored-step pair's |(D-1)u|_a^2, bitwise
        assert e == evolution.tilde_energies(row, grid, alpha, 0)[0]
        assert e == evolution.tilde_energies(row, grid, alpha, 3)[0]


STACK = gridmod.STEP_STACK


@settings(max_examples=40, derandomize=True, deadline=None)
@given(n=st.sampled_from((64, 257, 1025)), height=st.integers(1, 2 * STACK + 1),
       alpha=st.sampled_from((0.25, 0.75, -0.5)), k=st.integers(0, 5),
       norm=st.sampled_from(((0, 1, 0.25), (1, 3, 0.25), (1, 1, 0.1))),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_records_equal_per_field_records(n, height, alpha, k, norm, seed):
    grid = gridmod.LogGrid(-12.0, 4.0, n)
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-8.0, 0.0, (height, 1))
    x = grid.x
    stack = scales * (1.0 + 0.1 * rng.standard_normal((height, n))) * x * np.exp(-x)
    t = 1e-2 * np.arange(height)
    coeffs = evolution.leading_coefficients(stack, grid)
    energies = evolution.tilde_energies(stack, grid, alpha, k)
    init_norms, y0 = nonlinear.NonlinearModel(*norm).records(t, stack, grid)
    assert coeffs.shape == (height, 3) and energies.shape == (height, 2)
    assert init_norms.shape == y0.shape == (height,)
    for i, row in enumerate(stack):
        assert tuple(coeffs[i]) == tuple(evolution.leading_coefficients(row, grid).tolist())
        assert tuple(energies[i]) == tuple(evolution.tilde_energies(row, grid, alpha, k).tolist())
        assert init_norms[i] == gridmod.composite_init_norm(row, grid, *norm)
        assert y0[i] == 6.0 * t[i] + nonlinear.contact_line_shift(row, grid)


def _per_step_records(state, alpha, k, model):
    """The stored-step records of a run, taken by a loop over its stored steps."""
    records = []
    for t, u in state.steps:
        v, grid = u.values, u.grid
        row = [tuple(evolution.leading_coefficients(v, grid).tolist())]
        if model is None:
            row.append(tuple(evolution.tilde_energies(v, grid, alpha, k).tolist()))
        else:
            row += [gridmod.composite_init_norm(v, grid, model.norm_N, model.norm_k,
                                                model.delta),
                    6.0 * t + nonlinear.contact_line_shift(v, grid)]
        records.append(row)
    return records


@pytest.mark.parametrize("nonlinear_run", [False, True])
@pytest.mark.parametrize("stored", [STACK - 1, STACK, STACK + 1, STACK + 2, 2 * STACK + 1])
def test_record_stacks_equal_a_per_step_loop(nonlinear_run, stored):
    x = SMALL_GRID.x
    u0 = gridmod.GridFunction(SMALL_GRID, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    T = (stored - 1) * 1e-2
    model = nonlinear.NonlinearModel() if nonlinear_run else None
    state = evolution.run(resolvent.assemble(SMALL_GRID), u0, None, 1e-2, T, alpha=0.75,
                          k=3, nonlinear=model)
    assert len(state.steps) == stored and state.coefficient_tracks.shape == (stored, 3)
    got = [[tuple(c)] for c in state.coefficient_tracks]
    if nonlinear_run:
        assert state.energy_log == []
        for row, norm, y0 in zip(got, state.init_norm_track, state.contact_line_track):
            row += [norm, y0]
    else:
        for row, entry in zip(got, state.energy_log):
            row.append((entry["tilde_sq"], entry["tilde_dk_sq"]))
    assert got == _per_step_records(state, 0.75, 3, model)
    assert state.flags == ([] if nonlinear_run else _per_step_flags(state, 0.75))


@pytest.mark.parametrize("nonlinear_run", [False, True])
def test_start_is_the_t0_state_of_a_run(nonlinear_run):
    x = SMALL_GRID.x
    u0 = gridmod.GridFunction(SMALL_GRID, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    model = nonlinear.NonlinearModel() if nonlinear_run else None
    started = evolution.start(u0, 0.75, 3, model)
    state = evolution.run(resolvent.assemble(SMALL_GRID), u0, None, 1e-2, 0.05, alpha=0.75,
                          k=3, nonlinear=model)
    assert started.steps == state.steps[:1] == [(0.0, u0)]
    assert started.coefficient_tracks.shape == (1, 3)
    assert np.array_equal(started.coefficient_tracks, state.coefficient_tracks[:1])
    for track in ("energy_log", "lipschitz_track", "init_norm_track", "contact_line_track"):
        assert getattr(started, track) == getattr(state, track)[:1]
    assert len(started.energy_log) == (0 if nonlinear_run else 1)
    assert len(started.lipschitz_track) == (1 if nonlinear_run else 0)


@pytest.mark.parametrize("n_steps, store_every, want", [
    (1, 1, [0, 1]), (5, 1, [0, 1, 2, 3, 4, 5]), (5, 2, [0, 2, 4, 5]), (6, 3, [0, 3, 6]),
    (7, 10, [0, 7]), (3, evolution.MAX_STEPS, [0, 3]),
])
def test_runs_store_the_steps_the_stored_step_rule_names(n_steps, store_every, want):
    assert [j for j in range(n_steps + 1) if evolution.is_stored(j, n_steps, store_every)] == want
    for driver in (_run_linear, _run_nonlinear):
        state = driver(1e-2, n_steps * 1e-2, store_every)
        assert [round(t / 1e-2) for t in state.times] == want


@pytest.mark.parametrize("case", ["guard", "energies", "unresolved"])
def test_a_t0_failure_comes_before_the_factorization(monkeypatch, case):
    def no_factorization(*args):
        raise AssertionError("a factorization was built before the t = 0 start")

    monkeypatch.setattr(resolvent.Factorization, "__init__", no_factorization)
    x = SMALL_GRID.x
    if case == "guard":  # sup |v_x| = 1 on the initial data
        u0 = gridmod.GridFunction(SMALL_GRID, (3 * x * x + 2 * x) * np.exp(-x))
        with pytest.raises(GuardError, match="on the initial data"):
            nonlinear.run_nonlinear(u0, 1e-2, 0.05)
    elif case == "energies":  # e^{-2 alpha s} overflows at s = -12
        with pytest.raises(EnergyError, match=r"not finite at alpha = 40\.0, k = 2"):
            evolution.run(resolvent.assemble(SMALL_GRID), gridmod.monomial(SMALL_GRID, 2),
                          None, 1e-2, 0.05, alpha=40.0)
    else:
        grid = gridmod.LogGrid(-5.0, 4.0, 257)
        with pytest.raises(GridError, match="does not resolve x << 1"):
            evolution.run(resolvent.assemble(grid), gridmod.zero(grid), None, 1e-2, 0.05)


@pytest.mark.parametrize("nonlinear_run", [False, True])
def test_unresolved_grid_fails_before_the_first_solve(monkeypatch, nonlinear_run):
    # s_min = -5 does not resolve the contact line: the t = 0 records raise before
    # any step is solved, not after the run
    grid = gridmod.LogGrid(-5.0, 4.0, 1025)
    solves = []
    solve_values = resolvent.Factorization.solve_values

    def counted(self, rhs, guess=None):
        solves.append(1)
        return solve_values(self, rhs, guess)

    monkeypatch.setattr(resolvent.Factorization, "solve_values", counted)
    with pytest.raises(GridError, match="does not resolve x << 1"):
        if nonlinear_run:
            nonlinear.run_nonlinear(gridmod.zero(grid), 1e-2, 0.1)
        else:
            evolution.run(resolvent.assemble(grid), gridmod.zero(grid), None, 1e-2, 0.1)
    assert solves == []


def _per_step_flags(state, alpha):
    """The energy flags of a linear run, taken by a loop over its steps (all stored)."""
    flags, prev = [], None
    for j, (_, u) in enumerate(state.steps):
        e = _per_call_tilde_energies(u, alpha, 0)[0]
        if prev is not None and e > prev * (1.0 + evolution.ENERGY_SLACK) + 1e-300:
            flags.append(f"energy increase at step {j}: {prev:.6e} -> {e:.6e}")
        prev = e
    return flags


@pytest.mark.parametrize("n_steps", [K + 1, 2 * K, 2 * K + 5, 3 * K + 1])
def test_energy_rises_at_stack_edges_flag_as_per_step(monkeypatch, n_steps):
    # the steps are scaled copies of one field, so |(D-1)u|^2 falls at every
    # step but K-1, K, K+1 and the last: on both sides of the first stack's edge
    x = SMALL_GRID.x
    base = x * x * np.exp(-x)
    rises = {K - 1, K, K + 1, n_steps}
    scales = np.cumprod([1.5 if j in rises else 0.9 for j in range(1, n_steps + 1)])
    fields = iter(scales)
    monkeypatch.setattr(evolution, "step", lambda *args, factorization:
                        gridmod.GridFunction(SMALL_GRID, next(fields) * base))
    state = evolution.run(resolvent.assemble(SMALL_GRID), gridmod.GridFunction(SMALL_GRID, base),
                          None, 1e-2, n_steps * 1e-2, alpha=0.75)
    assert len(state.steps) == n_steps + 1
    assert state.flags == _per_step_flags(state, 0.75)
    assert [int(f.split()[4][:-1]) for f in state.flags] == sorted(rises)


def test_energy_is_checked_once_per_stack_and_not_with_forcing(kernel_op, monkeypatch):
    heights = []  # of the energy checks, the calls at k = 0
    tilde_energies = evolution.tilde_energies

    def counted(values, grid, alpha, k):
        if k == 0:
            heights.append(len(values))
        return tilde_energies(values, grid, alpha, k)

    monkeypatch.setattr(evolution, "tilde_energies", counted)
    u0 = gridmod.monomial(KERNEL_GRID, 2)
    n_steps = 2 * K + 3
    evolution.run(kernel_op, u0, None, 1e-2, n_steps * 1e-2, store_every=n_steps)
    # u0 and K steps, then the last checked step and K (then 3) new ones
    assert heights == [K + 1, K + 1, 4]
    heights.clear()
    state = evolution.run(kernel_op, u0, lambda t: u0, 1e-2, n_steps * 1e-2,
                          store_every=n_steps)
    # only a run without forcing reads the energies, for its flags
    assert heights == [] and state.flags == []


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
    (1e-2, 0.05, 2.5, "store_every must be an integer"),  # stored only t = 0 and t = T
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


@pytest.mark.parametrize("kwargs, message", [
    ({"k": -1}, "k must be an integer >= 0"),  # recorded tilde_dk_sq == tilde_sq
    ({"k": 1.5}, "k must be an integer >= 0"),  # a TypeError deep in the derivative tower
    ({"alpha": np.nan}, "alpha must be finite"),  # NaN energies that never flag
    ({"alpha": np.inf}, "alpha must be finite"),
], ids=["k-negative", "k-fraction", "alpha-nan", "alpha-inf"])
def test_run_rejects_bad_energy_weights(kwargs, message):
    with pytest.raises(GridError, match=message):
        evolution.run(resolvent.assemble(SMALL_GRID), gridmod.zero(SMALL_GRID), None,
                      1e-2, 0.05, **kwargs)


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_run_rejects_energies_that_overflow_before_the_first_step(monkeypatch, forced):
    # e^{-2 alpha s} at alpha = 40 overflows at s = -12: the energies were NaN, every
    # comparison of them false, and the run flagged nothing
    g = gridmod.LogGrid(-12.0, 4.0, 129)
    op = resolvent.assemble(g)
    x = g.x
    u0 = gridmod.GridFunction(g, x**3 * np.exp(-x))

    def no_solve(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(resolvent.Factorization, "solve_values", no_solve)
    f = (lambda t: gridmod.zero(g)) if forced else None
    with pytest.raises(GridError, match=r"not finite at alpha = 40\.0, k = 2"):
        evolution.run(op, u0, f, 1e-2, 2e-2, alpha=40.0, k=2)
    with pytest.raises(GridError, match=r"not finite at alpha = 40\.0, k = 3"):
        evolution.tilde_energies(u0.values, g, 40.0, 3)
    e = evolution.tilde_energies(u0.values, g, 0.25, 3)  # a finite pair is passed on
    assert tuple(e.tolist()) == _per_call_tilde_energies(u0, 0.25, 3)


@pytest.mark.filterwarnings("error")
def test_records_reject_an_overflowing_input():
    # u1..u3 and the energies came back as NaN or inf after numpy warnings
    g = gridmod.LogGrid(-12.0, 4.0, 129)
    x = g.x
    with pytest.raises(GridError, match="contact-line fit is not finite"):
        evolution.leading_coefficients(np.full((2, g.n), 1e300), g)
    with pytest.raises(GridError, match=r"not finite at alpha = 0\.25, k = 3"):
        evolution.tilde_energies(np.full((2, g.n), 1e300), g, 0.25, 3)
    # on [-300, 4] the u3 band's weight e^{-3s} overflows
    wide = gridmod.LogGrid(-300.0, 4.0, 4097)
    xw = wide.x
    with pytest.raises(GridError, match="contact-line fit is not finite"):
        evolution.leading_coefficients(xw**3 * np.exp(-xw), wide)
    assert np.isfinite(evolution.leading_coefficients(x**3 * np.exp(-x), g)).all()


@pytest.mark.filterwarnings("error")
def test_run_on_a_window_whose_tables_overflow_fails_before_the_first_step(monkeypatch):
    # on [-300, 4] a linear run exited normally with u3 = NaN at every stored step
    g = gridmod.LogGrid(-300.0, 4.0, 4097)
    op = resolvent.assemble(g)
    x = g.x

    def no_solve(*args):
        raise AssertionError("a step was taken")

    monkeypatch.setattr(resolvent.Factorization, "solve_values", no_solve)
    with pytest.raises(GridError, match="contact-line fit is not finite"):
        evolution.run(op, gridmod.GridFunction(g, x**3 * np.exp(-x)), None, 1e-2, 2e-2)


def test_picard_with_zero_nonlinearity_is_the_linear_step(default_grid):
    class Linear(nonlinear.NonlinearModel):
        def N(self, values, grid):
            return np.zeros(grid.n)

    x = default_grid.x
    w = 1e-3 * x**2 * np.exp(-x)
    u0 = gridmod.GridFunction(default_grid, w)

    def f(t):
        return gridmod.GridFunction(default_grid, np.exp(-t) * w)

    op = resolvent.assemble(default_grid)
    lin = evolution.run(op, u0, f, 1e-2, 0.1, store_every=5)
    pic = evolution.run(op, u0, f, 1e-2, 0.1, store_every=5, nonlinear=Linear())
    assert np.array_equal(lin.steps[0][1].values, pic.steps[0][1].values)
    assert np.array_equal(lin.coefficient_tracks[0], pic.coefficient_tracks[0])
    # a Picard iterate after step 1's first corrects its guess in one back-substitution,
    # where a linear step refines a fresh one: the states part by rounding. Measured
    # at t = 0.01 ... 0.1: 9e-11 to 3.3e-9 of max |u| under the default and Haswell
    # OpenBLAS kernels, up to 2.2e-8 under Prescott
    for (_, a), (_, b) in zip(lin.steps[1:], pic.steps[1:]):
        assert np.max(np.abs(b.values - a.values)) <= 1e-7 * np.max(np.abs(a.values))
    # step 1 has no rate yet: its second pass corrects the first to rounding and
    # measures a rate near 0, so every later step stops after its one solve
    assert pic.picard_counts == [2] + [1] * 9
    assert len(pic.lipschitz_track) == len(pic.contact_line_track) == len(pic.steps) == 3


@pytest.mark.parametrize("other", [gridmod.LogGrid(-10.0, 6.0, 257),
                                   gridmod.LogGrid(-12.0, 4.0, 129)])
@pytest.mark.parametrize("field", ["u0", "forcing"])
def test_run_rejects_fields_off_the_operator_grid(other, field):
    # a field from another domain with the same n, or with another n
    op = resolvent.assemble(SMALL_GRID)
    u0 = gridmod.monomial(other if field == "u0" else SMALL_GRID, 2)
    forcing = gridmod.monomial(other if field == "forcing" else SMALL_GRID, 2)
    with pytest.raises(GridError, match=field):
        evolution.run(op, u0, lambda t: forcing, 0.1, 0.2)


_OFF_GRID_CALLS = {
    "u_prev": lambda op, on, off: evolution.step(op, off, None, 0.1),
    "f_avg": lambda op, on, off: evolution.step(op, on, off, 0.1),
    "right-hand side": lambda op, on, off: resolvent.solve(op, 10.0, off),
}


@pytest.mark.parametrize("name", list(_OFF_GRID_CALLS))
def test_public_entries_reject_fields_off_the_operator_grid(name):
    # same n on another domain: the values fit, so only the grid check stops the call
    op = resolvent.assemble(SMALL_GRID)
    on = gridmod.monomial(SMALL_GRID, 2)
    off = gridmod.monomial(gridmod.LogGrid(-10.0, 6.0, SMALL_GRID.n), 2)
    with pytest.raises(GridError, match=name):
        _OFF_GRID_CALLS[name](op, on, off)


def test_step_rejects_nan_dt():
    with pytest.raises(GridError, match="dt must be positive"):
        evolution.step(resolvent.assemble(SMALL_GRID), gridmod.zero(SMALL_GRID), None, np.nan)


def test_step_rejects_a_factorization_of_another_problem():
    op = resolvent.assemble(SMALL_GRID)
    u = gridmod.monomial(SMALL_GRID, 2)
    with pytest.raises(SolverError, match=r"lambda = 50\.0, the solve needs lambda = 100\.0"):
        evolution.step(op, u, None, 1e-2, factorization=resolvent.Factorization(op, 50.0))
    other = resolvent.assemble(gridmod.LogGrid(-10.0, 6.0, SMALL_GRID.n))
    with pytest.raises(GridError, match="factorization is built on"):
        evolution.step(op, u, None, 1e-2, factorization=resolvent.Factorization(other, 100.0))


def _absolute_increment_picard(op, u_prev, u_older, f_avg, dt, fac, model, j, rate):
    """The Picard loop with the old rule: from u_prev until the increment is
    below picard_tol, with no extrapolated start and no rate estimate."""
    iterate = u_prev
    for count in range(1, model.picard_max + 1):
        g = gridmod.GridFunction(op.grid, model.N(iterate.values, op.grid))
        if f_avg is not None:
            g = gridmod.GridFunction(op.grid, f_avg.values + g.values)
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


def test_picard_takes_one_back_substitution_per_iterate(small_wave_run, monkeypatch):
    # each iterate corrects its guess in one back-substitution; the first iterates of
    # steps 1 and 2 hold u0, which need not satisfy the closure rows, and take two
    u0, _ = small_wave_run
    calls = 0
    back_substitute = resolvent.Factorization._back_substitute

    def counted(self, b, overwrite_b=0):
        nonlocal calls
        calls += 1
        return back_substitute(self, b, overwrite_b)

    monkeypatch.setattr(resolvent.Factorization, "_back_substitute", counted)
    state = nonlinear.run_nonlinear(u0, 1e-2, 1.0, store_every=50)
    assert calls == sum(state.picard_counts) + 2


def test_warm_picard_solves_track_the_refined_solves(monkeypatch):
    # the E1 input (eps = 1e-3, dt = 1e-2, T = 5) on 513 nodes, with each iterate's
    # guess and with every solve a refined one from scratch (guess dropped). Measured
    # at amplitudes 0.9, 1 and 1.1 under the default, Haswell and Prescott OpenBLAS
    # kernels: the same Picard counts, stored states within 1.4e-10 of max |u|
    g = gridmod.LogGrid(-12.0, 4.0, 513)
    x = g.x
    u0 = gridmod.GridFunction(g, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    warm = nonlinear.run_nonlinear(u0, 1e-2, 5.0, store_every=5)
    solve_values = resolvent.Factorization.solve_values
    monkeypatch.setattr(resolvent.Factorization, "solve_values",
                        lambda self, rhs, guess=None: solve_values(self, rhs))
    cold = nonlinear.run_nonlinear(u0, 1e-2, 5.0, store_every=5)
    assert warm.picard_counts == cold.picard_counts
    assert len(warm.steps) == len(cold.steps) == 101
    for (_, a), (_, b) in zip(warm.steps, cold.steps):
        assert np.max(np.abs(a.values - b.values)) <= 1e-9 * np.max(np.abs(b.values))


def _vx(u):
    """v_x of v = u / (3x^2 + 2x): the x-derivative of the values nonlinear._v gives."""
    return nonlinear._dx(nonlinear._v(u.values, u.grid), u.grid)


def _public_call_run(op, u0, f, dt, T):
    """The nonlinear time loop of evolution.run, every field a GridFunction: each
    iterate from eval_nonlinearity and evolution.step, each step's guard from
    lipschitz_guard of v_x, v = u / (3x^2 + 2x), with run's extrapolant, stop rule and guess
    rule: an iterate built from solve outputs alone (every one but the first of steps 1 and 2)
    is the guess of step's solve, its right-hand side formed as step forms it. Every step is
    stored; returns (states, picard counts, picard rates, sup |v_x| per state)."""
    grid, model = op.grid, nonlinear.NonlinearModel()
    fac = resolvent.Factorization(op, 1.0 / dt)
    u, u_older, rate = u0, None, None
    states, counts, rates = [u0], [], []
    track = [nonlinear.lipschitz_guard(_vx(u0), "on v")]
    for j in range(1, evolution.step_count(dt, T) + 1):
        f_avg = None if f is None else evolution.average_rhs(f, j, dt, grid)
        iterate = u if u_older is None else gridmod.GridFunction(
            grid, 2.0 * u.values - u_older.values)
        last = None
        for count in range(1, model.picard_max + 1):
            g = nonlinear.eval_nonlinearity(iterate)
            if f_avg is not None:
                g = gridmod.GridFunction(grid, f_avg.values + g.values)
            if count == 1 and j <= 2:
                u_next = evolution.step(op, u, g, dt, factorization=fac)
            else:
                u_next = gridmod.GridFunction(grid, fac.solve_values(
                    (1.0 / dt) * u.values + g.values, iterate.values))
            delta = float(np.max(np.abs(u_next.values - iterate.values)))
            iterate = u_next
            if last:
                rate = delta / last
            last = delta
            if delta < model.picard_tol or (
                    rate is not None and rate < 1.0
                    and rate / (1.0 - rate) * delta <= model.picard_tol):
                break
        else:
            raise PicardError(f"Picard stalled at step {j}")
        u_older, u = u, iterate
        states.append(u)
        counts.append(count)
        rates.append(rate)
        track.append(nonlinear.lipschitz_guard(_vx(u), "on v"))
    return states, counts, rates, track


@pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
def test_nonlinear_loop_matches_the_public_calls(forced):
    # the E1 input (eps = 1e-3) on 513 nodes; the loop on value arrays gives the
    # states, iteration counts, rates and guard margins of the GridFunction calls
    g = gridmod.LogGrid(-12.0, 4.0, 513)
    x = g.x
    u0 = gridmod.GridFunction(g, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    w = 1e-3 * x * x * np.exp(-x)
    f = (lambda t: gridmod.GridFunction(g, np.cos(t) * w)) if forced else None
    op = resolvent.assemble(g)
    state = evolution.run(op, u0, f, 1e-2, 0.5, nonlinear=nonlinear.NonlinearModel())
    states, counts, rates, track = _public_call_run(op, u0, f, 1e-2, 0.5)
    assert len(state.steps) == len(states) == 51
    assert all(np.array_equal(a.values, b.values) for (_, a), b in zip(state.steps, states))
    assert state.picard_counts == counts
    assert state.picard_rates == rates
    assert state.lipschitz_track == track


class _WatchedModel(nonlinear.NonlinearModel):
    """The nonlinear model, but N(u) is ``bad(values, grid)`` during step ``at``;
    ``done`` is the last step the guard passed."""

    def __init__(self, at, bad):
        super().__init__()
        self.at, self.bad, self.done = at, bad, None

    def N(self, values, grid):
        if self.done == self.at - 1:
            return self.bad(values, grid)
        return super().N(values, grid)

    def guard(self, u, j):
        sup = super().guard(u, j)
        self.done = j
        return sup


def test_a_non_finite_nonlinearity_fails_at_its_step(default_grid):
    model = _WatchedModel(3, lambda values, grid: np.full(grid.n, np.nan))
    u0 = gridmod.GridFunction(default_grid, 1e-3 * gridmod.monomial(default_grid, 2).values
                              * np.exp(-default_grid.x))
    with pytest.raises(GridError, match="grid function values must be finite"):
        evolution.run(resolvent.assemble(default_grid), u0, None, 1e-2, 0.1, nonlinear=model)
    assert model.done == 2  # step 3 raised on its first iterate; step 4 never ran


def test_a_guard_trip_mid_run_names_its_step(default_grid):
    # during step 3 N(u) is a strong forcing that does not depend on u: the
    # iteration converges, and the state it reaches fails the guard
    x = default_grid.x
    kick = 1e3 * (3 * x * x + 2 * x) * x * np.exp(-x)
    model = _WatchedModel(3, lambda values, grid: kick.copy())
    u0 = gridmod.GridFunction(default_grid, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    with pytest.raises(GuardError, match=r"Lipschitz guard tripped at step 3: "):
        evolution.run(resolvent.assemble(default_grid), u0, None, 1e-2, 0.1, nonlinear=model)
    assert model.done == 2


def test_nonlinear_run_builds_one_grid_function_per_solve(small_wave_run, monkeypatch):
    # the Picard loop runs on value arrays: the solve outputs are its only GridFunctions
    u0, _ = small_wave_run
    built = 0
    init = gridmod.GridFunction.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(gridmod.GridFunction, "__init__", counted)
    state = nonlinear.run_nonlinear(u0, 1e-2, 1.0, store_every=50)
    assert built == sum(state.picard_counts)
