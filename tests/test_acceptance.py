"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 is asserted exactly as stated and is expected to fail: the
constants written with the weighted Hardy chain are shifted by one power of
x against the best possible ones, and wide test functions violate them (see
the companion sharp-constant test in test_elliptic.py and the decisions
ledger). The xfail marker is strict, so an unexpected pass would fail the
suite and flag the analysis for review.
"""

import time

import numpy as np
import pytest

from conftest import gaussian_bump
from thinfilm import coercivity, elliptic, evolution, nonlinear, polyops, resolvent, validation
from thinfilm import grid as gridmod

SQ11_3 = np.sqrt(11.0 / 3.0)


def _report(num, ok, budget, elapsed, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {status} ({elapsed:.2f}s / {budget:.0f}s budget) - {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def stability_run():
    """Criterion 9 experiment, shared with the end-to-end oracle."""
    grid = gridmod.LogGrid()
    x = grid.x
    u0 = gridmod.GridFunction(grid, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    start = time.perf_counter()
    state = nonlinear.run_nonlinear(u0, 1e-2, 5.0, store_every=5)
    return state, time.perf_counter() - start


def test_criterion_1_coercivity_closed_forms():
    start = time.perf_counter()
    p, _ = polyops.symbol_pair(0)
    p1, q1 = polyops.symbol_pair(1)
    expected = {
        "p": (p, (0.75 - SQ11_3 / 4.0, 1.0)),
        "p~": (p1, (1 - 1 / np.sqrt(3), 1 + 1 / np.sqrt(3))),
        "q~": (q1, (1.0, 2.0)),
    }
    ok = True
    worst = 0.0
    for poly, (lo, hi) in expected.values():
        (got_lo, got_hi), = coercivity.range_closed_form(poly)
        worst = max(worst, abs(got_lo - lo), abs(got_hi - hi))
    ok &= worst <= 1e-9
    (lo, hi), = coercivity.composite_range(1)
    worst = max(worst, abs(lo - 0.0), abs(hi - 1.0))
    (lo, hi), = coercivity.composite_range(2)
    worst = max(worst, abs(lo - (1 - np.sqrt(5.0 / 6.0))), abs(hi - 1.5))
    ok &= worst <= 1e-9
    # numeric scan: the closed-form window is sufficient, so it must sit
    # inside a scanned positivity window (1e-3 endpoint slack) with a
    # positive margin throughout
    for poly, (lo, hi) in expected.values():
        numeric = coercivity.range_numeric(poly, lo - 1.0, hi + 1.0, n_scan=2000)
        ok &= any(n_lo <= lo + 1e-3 and hi - 1e-3 <= n_hi for n_lo, n_hi in numeric)
        ok &= all(coercivity.symbol_margin(poly, a) > 0
                  for a in np.linspace(lo + 1e-3, hi - 1e-3, 200))
    _report(1, ok, 1.0, time.perf_counter() - start,
            f"closed-form endpoint error {worst:.2e}, numeric scan confirms the windows")


def test_criterion_2_operator_algebra():
    start = time.perf_counter()
    ok = polyops.monomial_action(3) == (18.0, 12.0)
    grid = gridmod.LogGrid(-12, 4, 2049)
    w = gridmod.monomial(grid, 3)
    target = 18 * np.exp(2 * grid.s) + 12 * np.exp(grid.s)
    got = polyops.apply_operator(w).values
    interior = slice(8, -8)
    rel = np.max(np.abs(got[interior] - target[interior]) / target[interior])
    ok &= rel <= 1e-6
    errs = []
    # above n ~ 1025 the kernel residual reaches the rounding floor
    # (truncation ~ h^8 relative to the e^{-s}/h^4 noise amplification)
    for n in (129, 257, 513):
        g = gridmod.LogGrid(-12, 4, n)
        window = (g.s >= -10) & (g.s <= 2)
        errs.append(max(
            np.max(np.abs(polyops.apply_operator(gridmod.monomial(g, j)).values[window]))
            for j in (1, 2)))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok &= min(orders) >= 3.5
    _report(2, ok, 5.0, time.perf_counter() - start,
            f"A x^3 rel err {rel:.2e}, kernel refinement orders {orders[0]:.2f}/{orders[1]:.2f}")


def test_criterion_3_elliptic_inverses():
    start = time.perf_counter()
    grid = gridmod.LogGrid(-12, 4, 2049)
    x = grid.x
    interior = slice(10, -10)
    worst_ladder = 0.0
    for j in range(1, 7):
        got = elliptic.apply_B(gridmod.monomial(grid, j)).values
        target = (j - 2.0) * x ** (j + 1) + j * x**j
        scale = np.abs(target) + x**j
        worst_ladder = max(worst_ladder,
                           np.max(np.abs(got - target)[interior] / scale[interior]))
    f = gridmod.GridFunction(grid, x**4 + 3 * x**3)
    back = elliptic.apply_B(elliptic.apply_B_inverse(f)).values
    round_b = np.max(np.abs(back - f.values)[interior] / np.abs(f.values)[interior])
    g = gridmod.GridFunction(grid, x**2 * np.exp(-x))
    back_s = polyops.apply_operator(elliptic.apply_S(g)).values
    round_s = np.max(np.abs(back_s - g.values)[interior]) / np.max(np.abs(g.values))
    ok = worst_ladder <= 1e-6 and round_b <= 1e-6 and round_s <= 1e-4
    _report(3, ok, 10.0, time.perf_counter() - start,
            f"ladder {worst_ladder:.2e}, B round trip {round_b:.2e}, S round trip {round_s:.2e}")


@pytest.mark.xfail(strict=True, reason="stated Hardy constants are shifted by one power "
                   "of x against the sharp ones and fail for wide bumps (decisions ledger)")
def test_criterion_4_hardy_suite():
    start = time.perf_counter()
    grid = gridmod.LogGrid()
    rng = np.random.default_rng(4)
    violations = 0
    checked = 0
    for _ in range(100):
        g = gaussian_bump(grid, center=rng.uniform(-9, 0), width=rng.uniform(0.2, 2.0),
                          amplitude=rng.choice([-1, 1]) * rng.uniform(0.5, 2.0))
        for variant in (1, 2, 3):
            for gamma in (0.3, 0.8, 1.2):
                lhs, rhs, const = elliptic.hardy_check(g, gamma, variant)
                checked += 1
                if lhs < const * rhs * (1 - 1e-10):
                    violations += 1
    _report(4, violations == 0, 10.0, time.perf_counter() - start,
            f"{violations}/{checked} violations of the stated constants "
            "(sharp constants hold: see test_elliptic.py)")


def test_criterion_5_resolvent_manufactured():
    start = time.perf_counter()
    lam = 1.0

    def manufactured(grid):
        x = grid.x
        gpoly = lam * x**2 + x**5 - 10 * x**4 + 20 * x**3 + 6 * x**2 - 12 * x
        return x**2 * np.exp(-x), gridmod.GridFunction(grid, np.exp(-x) * gpoly)

    errs = []
    for n in (257, 513, 1025, 4096):
        g = gridmod.LogGrid(-12, 4, n)
        ustar, rhs = manufactured(g)
        sol = resolvent.solve(resolvent.assemble(g), lam, rhs)
        errs.append(np.linalg.norm(sol.solution.values - ustar) / np.linalg.norm(ustar))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    ok = min(orders) >= 2.0 and errs[3] <= 1e-5

    g = gridmod.LogGrid(-12, 7, 2433)
    sol = resolvent.solve(resolvent.assemble(g), lam,
                          gridmod.GridFunction(g, g.x**2 * np.exp(-g.x)))
    ok &= 0.55 <= sol.decay_rate_fit <= 0.85
    _report(5, ok, 30.0, time.perf_counter() - start,
            f"orders {orders[0]:.2f}/{orders[1]:.2f}, rel L2 at n=4096 {errs[3]:.2e}, "
            f"tail slope {sol.decay_rate_fit:.3f}")


def test_criterion_6_linear_evolution():
    start = time.perf_counter()
    grid = gridmod.LogGrid(-12, 9, 1345)
    x = grid.x
    op = resolvent.assemble(grid)
    u0 = gridmod.GridFunction(grid, x**3 * np.exp(-x))
    state = evolution.run(op, u0, None, 1e-2, 2.0, alpha=0.25, k=2)
    e = [entry["tilde_sq"] for entry in state.energy_log]
    monotone = (not state.flags) and all(
        e[i + 1] <= e[i] * (1 + 1e-10) for i in range(len(e) - 1))
    interior = grid.s <= grid.s_max - 1.5
    kernel_dev = 0.0
    for j in (1, 2):
        w0 = gridmod.monomial(grid, j)
        w1 = evolution.step(op, w0, None, 1e-2)
        kernel_dev = max(kernel_dev,
                         np.max(np.abs((w1.values - w0.values)[interior]))
                         / np.max(np.abs(w0.values[interior])))
    ok = monotone and kernel_dev <= 1e-8
    _report(6, ok, 60.0, time.perf_counter() - start,
            f"200 steps monotone within 1e-10 ({len(state.flags)} flags), "
            f"kernel deviation {kernel_dev:.2e}")


def test_criterion_7_coefficient_ode():
    start = time.perf_counter()
    u0 = np.zeros(4)
    u0[2] = 1.0
    traj = polyops.integrate_coefficients(polyops.CoefficientVector(4, u0, np.zeros(4)),
                                          1e-3, 2.0)
    t = traj.times
    e3_err = max(np.max(np.abs(traj.u[:, 0] + 12 * t)),
                 np.max(np.abs(traj.u[:, 1] + 18 * t)))
    grid = gridmod.LogGrid(-12, 9, 1345)
    x = grid.x
    op = resolvent.assemble(grid)
    state = evolution.run(op, gridmod.GridFunction(grid, x**3 * np.exp(-x)),
                          None, 1e-2, 1.0)
    u1 = state.coefficient_tracks[:, 0]
    u3 = state.coefficient_tracks[:, 2]
    rate = np.diff(u1) / np.diff(state.times)
    rel = np.max(np.abs(rate + 12 * u3[1:])) / np.max(np.abs(rate))
    ok = e3_err <= 1e-10 and rel <= 1e-2
    _report(7, ok, 10.0, time.perf_counter() - start,
            f"e3 trajectory error {e3_err:.2e}, track relation {rel:.2e} relative")


def test_criterion_8_nonlinearity():
    start = time.perf_counter()
    grid = gridmod.LogGrid(-12, 4, 2049)
    x = grid.x
    n_zero = np.max(np.abs(nonlinear.eval_nonlinearity(gridmod.zero(grid)).values))
    shift = gridmod.GridFunction(grid, 1e-3 * (3 * x * x + 2 * x))
    n_shift = np.max(np.abs(nonlinear.eval_nonlinearity(shift).values))
    w = (3 * x * x + 2 * x) * np.exp(-x)
    ratios = []
    for eps in (1e-2, 1e-3, 1e-4):
        nn = nonlinear.eval_nonlinearity(gridmod.GridFunction(grid, eps * w))
        ratios.append(gridmod.weighted_norm(nn, gridmod.NormSpec(0, 0.0)) / eps**2)
    spread = (max(ratios) - min(ratios)) / min(ratios)
    ok = n_zero == 0.0 and n_shift <= 1e-10 and spread <= 0.10
    _report(8, ok, 10.0, time.perf_counter() - start,
            f"N(0) = {n_zero:.1e}, N(shift) = {n_shift:.1e}, quadratic ratio spread "
            f"{100 * spread:.2f}%")


def test_criterion_9_nonlinear_stability(stability_run):
    state, run_time = stability_run
    start = time.perf_counter()
    track = state.init_norm_track
    decayed = track[-1] < track[0] and track[-1] < 0.5 * track[0]

    grid = gridmod.LogGrid()
    fixed = nonlinear.run_nonlinear(gridmod.zero(grid), 1e-2, 1.0)
    fixed_dev = max(np.max(np.abs(u.values)) for _, u in fixed.steps)

    t = state.times
    u1 = state.coefficient_tracks[:, 0]
    y0 = np.array(state.contact_line_track)
    ident = np.max(np.abs(y0 - 6.0 * t - 0.5 * u1))
    ok = decayed and fixed_dev <= 1e-12 and ident <= 1e-6
    elapsed = run_time + (time.perf_counter() - start)
    _report(9, ok, 300.0, elapsed,
            f"init-norm ratio {track[-1] / track[0]:.3f}, fixed-point deviation "
            f"{fixed_dev:.1e}, contact-line identity {ident:.1e}")


def test_criterion_10_end_to_end_oracle(stability_run):
    state, _ = stability_run
    start = time.perf_counter()
    stored = {round(t, 10): u for t, u in state.steps}

    def h_rec(tt, yy):
        tt = np.atleast_2d(np.asarray(tt, dtype=float))
        yy = np.atleast_2d(np.asarray(yy, dtype=float))
        out = np.empty_like(yy)
        for i in range(tt.shape[0]):
            t = round(float(tt[i, 0]), 10)
            out[i] = nonlinear.reconstruct(stored[t], t, yy[i], upsample=16).h
        return out

    t0 = 2.5
    maxima = []
    for dt_s, dy_s in ((0.2, 0.8), (0.1, 0.4), (0.05, 0.2)):
        rep = validation.tfe_residual(h_rec, (t0 - 2 * dt_s, t0 + 2 * dt_s),
                                      (6 * t0 + 1.2, 6 * t0 + 8.0), dt_s, dy_s)
        maxima.append(rep.max_residual)
    rec_orders = [np.log2(maxima[i] / maxima[i + 1]) for i in range(2)]

    def orders_of(fn, t_span, y_span, dt, dy):
        vals = [validation.tfe_residual(fn, t_span, y_span, dt / 2**i, dy / 2**i).max_residual
                for i in range(3)]
        return [np.log2(vals[i] / vals[i + 1]) for i in range(2)]

    tw_orders = orders_of(validation.traveling_wave, (0.0, 0.8), (1.0, 6.0), 0.05, 0.1)
    sh_orders = orders_of(validation.smyth_hill, (0.0, 0.8), (-0.6, 0.6), 0.02, 0.02)
    eq = validation.tfe_residual(validation.equilibrium, (0.0, 0.8), (0.5, 4.0), 0.05, 0.1)
    ok = (min(rec_orders) >= 1.8 and min(tw_orders) >= 1.8
          and min(sh_orders) >= 1.8 and eq.max_residual < 1e-6)
    _report(10, ok, 60.0, time.perf_counter() - start,
            f"reconstruction orders {rec_orders[0]:.2f}/{rec_orders[1]:.2f}, wave "
            f"{min(tw_orders):.2f}, droplet {min(sh_orders):.2f}, "
            f"stationary residual {eq.max_residual:.1e}")
