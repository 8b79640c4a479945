"""Implicit-Euler evolution, linear or with an inner Picard iteration.

Each step solves (u - u_prev)/dt + A u = f_avg + N(u) through the banded
resolvent factorization with lambda = 1/dt; the factorization is built once
per run. The linear problem is N = 0 with a single solve per step; a
nonlinear model iterates the same solve to a fixed point. The iteration
starts from the extrapolant 2u^n - u^(n-1) (Ascher, Ruuth & Wetton 1995,
SIAM J. Numer. Anal. 32:797) and stops when its increment, or the error
estimate theta/(1 - theta) times it with the contraction rate theta carried
over from step to step (Hairer & Wanner, Solving ODEs II, IV.8), is below
PICARD_TOL; on small data that is one solve per step. The iteration runs on
value arrays (the model's N takes and returns values) with the operands and
order of the GridFunction calls, so its iterates equal theirs bitwise, and it
builds one GridFunction per solve, which checks the solve output is finite.
The linear step stays evolution.step. Every run records the expansion
coefficients of its stored steps, and a linear run the energy pair
|(D-1)u|_{a}^2, |D^k (D-1)u|_{a}^2; without forcing it also flags each step at
which |(D-1)u|_{a}^2 rises. Each piece of this bookkeeping has one implementation:
start (the t = 0 work), is_stored (the stored steps), tilde_energies (the energies,
checked and logged) and the records, taken on stacks (ENERGY_BATCH steps per energy
check, grid.STEP_STACK = 8 stored steps per record) with one stencil call per
derivative order per stack; each row of a stack equals its one-field call bitwise.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from . import resolvent, stencils
from .errors import EnergyError, GridError, PicardError

ENERGY_SLACK = 1e-10
ENERGY_BATCH = 32  # steps per energy check of a linear run: one stencil call per stack
MAX_STEPS = 10**6  # step cap of one run; as store_every, it stores t = 0 and t = T only
U2_BAND = (3.0, 6.0)  # leading_coefficients: u2 and u3 fit bands, as offsets from s_min
U3_BAND = (7.0, 9.5)


@dataclass
class EvolutionState:
    """Trajectory with coefficient tracks and, for a linear run, the energy log."""

    steps: list                 # (t, GridFunction), including t = 0
    energy_log: list = field(default_factory=list)  # dicts: tilde_sq, tilde_dk_sq
    coefficient_tracks: np.ndarray = field(default_factory=list)  # (len(steps), 3): u1..u3
    flags: list = field(default_factory=list)
    picard_counts: list = field(default_factory=list)
    picard_rates: list = field(default_factory=list)  # contraction rate used; None: unknown
    lipschitz_track: list = field(default_factory=list)
    contact_line_track: list = field(default_factory=list)
    init_norm_track: list = field(default_factory=list)

    @property
    def times(self):
        return np.array([t for t, _ in self.steps])

    def final(self):
        return self.steps[-1][1]


def leading_coefficients(values, grid):
    """Expansion coefficients (u1, u2, u3) of evolving fields and solve outputs, of one
    field's values or of each row of a (steps, n) stack: shape (..., 3).

    u1 comes from the left-band fit (grid.extract_coefficients). u2 and u3 are read off the
    shifted fields (D-1)u = u2 x^2 + 2 u3 x^3 + ... and
    (D-2)(D-1)u = 2 u3 x^3 + 6 u4 x^4 + ..., which annihilate the lower
    expansion terms analytically; their fit bands sit where x is large
    enough that stencil truncation (proportional to the full field) does
    not swamp the x^2 and x^3 signals. A stack takes one stencil call per
    shift, and each row equals its one-field call bitwise. GridError unless every
    coefficient is finite (grid.fit_powers).
    """
    u1 = gridmod._fit_expansion(values, grid)[..., 0]
    tu = gridmod._shifted(values, 1.0, grid.h)
    u2 = gridmod.fit_powers(tu, grid, *U2_BAND, a=-2.0)[..., 0]
    cu = gridmod._shifted(tu, 2.0, grid.h)
    u3 = gridmod.fit_powers(cu, grid, *U3_BAND, a=-3.0)[..., 0] / 2.0
    return np.stack((u1, u2, u3), axis=-1)


def average_rhs(f, j, dt, grid):
    """Three-point Simpson average of f over [(j-1) dt, j dt].

    f is a callable t -> GridFunction (None means zero and is handled by
    callers); GridError unless each sample lies on grid. Exact for
    right-hand sides linear in t.
    """
    t0 = (j - 1) * dt
    a, m, b = f(t0), f(t0 + dt / 2), f(t0 + dt)
    for w in (a, m, b):
        gridmod.require_grid(w, grid, "the forcing f")
    return gridmod.GridFunction(grid, (a.values + 4.0 * m.values + b.values) / 6.0)


def tilde_energies(values, grid, alpha, k):
    """(|(D-1)u|_a^2, |D^k (D-1)u|_a^2) by trapezoid quadrature, of one field's values
    or of each row of a (steps, n) stack: shape (..., 2). The stored steps' pairs and
    the one energy function: a linear run checks column 0 at k = 0, where the last
    entry of the derivative tower (one stencil call per order) is (D-1)u itself and
    one quadrature gives both columns. Each row equals its one-field call bitwise.
    EnergyError naming alpha and k unless every energy is finite (grid._finite): NaN
    energies would make every comparison false, so no step could be flagged."""
    def energies():
        tu = gridmod._shifted(values, 1.0, grid.h)
        *_, dk = gridmod._ds_tower(tu, k, grid.h)
        weight = grid.exp(-2.0 * alpha)
        e0 = gridmod._norm_sq(tu, 0, weight, grid)
        return np.stack([e0, e0 if dk is tu else gridmod._norm_sq(dk, 0, weight, grid)],
                        axis=-1)

    return gridmod._finite(energies, f"the energies |(D-1)u|_a^2 and |D^k (D-1)u|_a^2 are "
                                     f"not finite at alpha = {alpha!r}, k = {k!r} on this grid",
                           EnergyError)


def step(op, u_prev, f_avg, dt, factorization=None):
    """One backward-Euler step; f_avg may be None for the homogeneous problem.
    GridError unless u_prev and f_avg lie on op.grid; a given factorization
    must be one of (1/dt + A) on op.grid (``resolvent.factorization_for``)."""
    if not 0 < dt < np.inf:
        raise GridError("dt must be positive and finite")
    gridmod.require_grid(u_prev, op.grid, "u_prev")
    lam = 1.0 / dt
    fac = resolvent.factorization_for(op, lam, factorization)
    rhs = lam * u_prev.values
    if f_avg is not None:
        gridmod.require_grid(f_avg, op.grid, "f_avg")
        rhs = rhs + f_avg.values
    return gridmod.GridFunction(op.grid, fac.solve_values(rhs))


def _picard_step(op, u_prev, u_older, f_avg, dt, fac, model, j, rate):
    """Iterate u = step(u_prev, f_avg + N(u)) to a fixed point; (u, solves, rate).

    The iteration runs on value arrays: the extrapolant 2 u_prev - u_older
    (u_prev when u_older is None), model.N(values, grid), the right-hand side
    lambda u_prev + (f_avg + N(u)) with lambda u_prev taken once per step, each
    sum with the operands and grouping of ``step``, so an iterate equals the
    step of the GridFunction calls bitwise. The one GridFunction of an
    iteration is its solve output, which checks that the iterate is finite.
    The iteration measures the contraction rate delta_k / delta_(k-1) of its
    max-norm increments; until it has two increments it uses ``rate``, the
    last rate measured (None: none yet). It stops when delta < model.picard_tol,
    or when rate < 1 and the error estimate rate / (1 - rate) * delta is at
    most model.picard_tol. A rate >= 1 only disables the estimate. Running out
    of the model.picard_max budget raises PicardError, which reports the last
    increment and rate: the iteration may still be contracting, only too
    slowly for the budget.
    """
    grid = op.grid
    base = (1.0 / dt) * u_prev.values
    iterate = u_prev.values if u_older is None else 2.0 * u_prev.values - u_older.values
    last = None
    for count in range(1, model.picard_max + 1):
        rhs = model.N(iterate, grid)
        if f_avg is not None:
            np.add(f_avg.values, rhs, out=rhs)
        rhs += base
        u_next = gridmod.GridFunction(grid, fac.solve_values(rhs))
        increment = u_next.values - iterate
        delta = float(np.abs(increment, out=increment).max())
        iterate = u_next.values
        if last:
            rate = delta / last
        last = delta
        if delta < model.picard_tol or (
                rate is not None and rate < 1.0
                and rate / (1.0 - rate) * delta <= model.picard_tol):
            return u_next, count, rate
    raise PicardError(f"Picard stalled at step {j}: picard_max = {model.picard_max} "
                      f"iterations used, last increment {delta:.3e}, last measured rate "
                      + ("none" if rate is None else f"{rate:.3f}"))


def step_count(dt, T):
    """Number of steps of size dt that end on T; GridError unless it is 1..MAX_STEPS."""
    if not 0 < dt < np.inf:
        raise GridError("dt must be positive and finite")
    if not 0 < T < np.inf:
        raise GridError("T must be positive and finite")
    if T > (MAX_STEPS + 0.5) * dt:  # a product: T / dt overflows for a subnormal dt
        raise GridError("too many steps")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise GridError("T must be an integer number of steps")
    return n_steps


def is_stored(j, n_steps, store_every):
    """Whether a run of n_steps steps stores step j: the one stored-step rule, t = 0,
    every store_every-th step and the last."""
    return j % store_every == 0 or j == n_steps


def _record(state, stored, grid, alpha, k, nonlinear):
    """Append to state the records of the stored (t, u) pairs ``stored``, taken as one stack."""
    values = np.array([u.values for _, u in stored])
    state.coefficient_tracks.append(leading_coefficients(values, grid))
    if nonlinear is None:
        state.energy_log += [{"tilde_sq": e0, "tilde_dk_sq": ek} for e0, ek
                             in tilde_energies(values, grid, alpha, k).tolist()]
    else:
        init_norm, y0 = nonlinear.records([t for t, _ in stored], values, grid)
        state.init_norm_track += init_norm.tolist()
        state.contact_line_track += y0.tolist()


def start(u0, alpha=0.25, k=2, nonlinear=None):
    """The t = 0 work of ``run``, before it factorizes: the EvolutionState of t = 0. GridError
    unless k is an integer >= 0 and alpha finite, a nonlinear run's guard on u0 (GuardError)
    and the t = 0 records (GridError unless finite, EnergyError for a linear run's energies)."""
    if not isinstance(k, numbers.Integral) or k < 0:
        raise GridError(f"k must be an integer >= 0, got {k!r}")
    if not np.isfinite(alpha):
        raise GridError(f"alpha must be finite, got {alpha!r}")
    state = EvolutionState(steps=[(0.0, u0)])
    if nonlinear is not None:
        state.lipschitz_track.append(nonlinear.guard(u0, 0))
    _record(state, state.steps, u0.grid, alpha, k, nonlinear)
    return state


def run(op, u0, f, dt, T, alpha=0.25, k=2, store_every=1, nonlinear=None):
    """Implicit-Euler trajectory with energy and coefficient bookkeeping.

    GridError unless u0 and every sample of f lie on op.grid and store_every is an
    integer >= 1. ``start`` takes the t = 0 work before the factorization. The loop
    stores (t, u) at the steps ``is_stored`` names, with sup |v_x| for a nonlinear
    run; the other stored steps are recorded after the last step, on stacks of
    grid.STEP_STACK, one stencil call per derivative order per stack, and equal
    per-step records bitwise.

    Linear (nonlinear = None): one solve per step. With f = None the energy
    |(D-1)u|_a^2 must not increase beyond a 1e-10 relative slack per step;
    violations are recorded as flags and the run continues (boundary truncation
    can pollute energies near rounding). Every ENERGY_BATCH steps and at the last,
    column 0 of one tilde_energies call at k = 0 takes the energies of the unchecked
    steps, with the last checked one (u0 at first) on top, so the flags are those of
    a per-step check. With forcing no energy is taken between stored steps. The
    energy log (linear runs only) holds |(D-1)u|_a^2 and |D^k (D-1)u|_a^2 of the
    stored steps.

    Nonlinear: each step iterates the solve on ``nonlinear.N``, then
    ``nonlinear.guard(u, j)`` raises or returns sup |v_x|; stored steps also
    record it and ``nonlinear.records(t, values, grid)`` (initial-data norm, Y0).
    """
    n_steps = step_count(dt, T)
    if not isinstance(store_every, numbers.Integral) or store_every < 1:
        raise GridError(f"store_every must be an integer >= 1, got {store_every!r}")
    gridmod.require_grid(u0, op.grid, "u0")
    state = start(u0, alpha, k, nonlinear)
    fac = resolvent.Factorization(op, 1.0 / dt)

    # linear with f = None: the last checked step's values, then those not yet checked
    energy_rows = [u0.values] if nonlinear is None and f is None else None

    def check_energies(j):
        """Flag each rise of |(D-1)u|_a^2 over the step before it, up to step j."""
        e = tilde_energies(np.array(energy_rows), op.grid, alpha, 0)[:, 0]
        first = j - len(energy_rows) + 2  # the step of e[1]
        for i in np.flatnonzero(e[1:] > e[:-1] * (1.0 + ENERGY_SLACK) + 1e-300):
            state.flags.append(f"energy increase at step {first + i}: "
                               f"{e[i]:.6e} -> {e[i + 1]:.6e}")
        del energy_rows[:-1]

    u, u_older, rate = u0, None, None
    for j in range(1, n_steps + 1):
        f_avg = None if f is None else average_rhs(f, j, dt, op.grid)
        if nonlinear is None:
            u = step(op, u, f_avg, dt, factorization=fac)
            if energy_rows is not None:
                energy_rows.append(u.values)
                if len(energy_rows) > ENERGY_BATCH or j == n_steps:
                    check_energies(j)
        else:
            u_next, count, rate = _picard_step(op, u, u_older, f_avg, dt, fac, nonlinear,
                                               j, rate)
            u_older, u = u, u_next
            state.picard_counts.append(count)
            state.picard_rates.append(rate)
            sup_vx = nonlinear.guard(u, j)
        if is_stored(j, n_steps, store_every):
            state.steps.append((j * dt, u))
            if nonlinear is not None:
                state.lipschitz_track.append(sup_vx)
    for i in range(1, len(state.steps), gridmod.STEP_STACK):
        _record(state, state.steps[i:i + gridmod.STEP_STACK], op.grid, alpha, k, nonlinear)
    state.coefficient_tracks = np.concatenate(state.coefficient_tracks)
    return state
