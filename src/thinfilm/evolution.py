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
The linear step stays evolution.step. Every run records the
expansion-coefficient tracks at stored steps. The energy log is recorded for
linear runs only: such a run records the commuted energy |(D-1)u|_{a}^2 with
its k-th D-derivative |D^k (D-1)u|_{a}^2 at stored steps. Without forcing it
also flags every step at which |(D-1)u|_{a}^2 rises, taking the energies of
ENERGY_BATCH steps at a time as one stack. The stored steps' records are
taken on stacks too: t = 0 on its own before the first step, the other stored
steps after the last, grid.STEP_STACK (K = 8) at a time, with one stencil
call per derivative order per stack. The record functions (leading_coefficients,
tilde_energies, ...) take one field's values or a stack, and each row of a
stack equals its one-field call bitwise.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from . import resolvent, stencils
from .errors import GridError, PicardError

ENERGY_SLACK = 1e-10
ENERGY_BATCH = 32  # steps per energy check of a linear run: one stencil call per stack
MAX_STEPS = 10**6  # step cap of one run; as store_every, it stores t = 0 and t = T only
U2_BAND = (3.0, 6.0)  # leading_coefficients: u2 and u3 fit bands, as offsets from s_min
U3_BAND = (7.0, 9.5)


@dataclass
class EvolutionState:
    """Trajectory with coefficient tracks and, for a linear run, the energy log."""

    steps: list                 # (t, GridFunction), including t = 0
    energy_log: list            # dicts: tilde_sq, tilde_dk_sq; empty for a nonlinear run
    coefficient_tracks: np.ndarray  # (len(steps), 3): u1, u2, u3
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
    """Expansion coefficients (u1, u2, u3) tuned for evolving fields, of one field's
    values or of each row of a (steps, n) stack: shape (..., 3).

    u1 comes from the standard left-band fit. u2 and u3 are read off the
    shifted fields (D-1)u = u2 x^2 + 2 u3 x^3 + ... and
    (D-2)(D-1)u = 2 u3 x^3 + 6 u4 x^4 + ..., which annihilate the lower
    expansion terms analytically; their fit bands sit where x is large
    enough that stencil truncation (proportional to the full field) does
    not swamp the x^2 and x^3 signals. A stack takes one stencil call per
    shift, and each row equals its one-field call bitwise.
    """
    u1 = gridmod._fit_expansion(values, grid, 3)[..., 0]
    tu = gridmod._shifted(values, 1.0, grid.h)
    u2 = gridmod.fit_powers(tu * grid.exp(-2.0), grid, *U2_BAND, 3)[..., 0]
    cu = gridmod._shifted(tu, 2.0, grid.h)
    u3 = gridmod.fit_powers(cu * grid.exp(-3.0), grid, *U3_BAND, 3)[..., 0] / 2.0
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


def tilde_energy(values, grid, alpha):
    """|(D-1)u|_a^2 of one field's values, or of each row of a (..., n) stack: the
    energy a linear run checks, one stack of steps per call. A stacked call equals
    its per-row calls bitwise."""
    return gridmod._norm_sq(gridmod._shifted(values, 1.0, grid.h), 0,
                            grid.exp(-2.0 * alpha), grid)


def tilde_energies(values, grid, alpha, k):
    """(|(D-1)u|_a^2, |D^k (D-1)u|_a^2) by trapezoid quadrature, of one field's values
    or of each row of a (steps, n) stack: shape (..., 2), the stored steps' pairs.
    D^k (D-1)u is the last entry of the derivative tower, one stencil call per order
    per stack; each row equals its one-field call bitwise."""
    tu = gridmod._shifted(values, 1.0, grid.h)
    *_, dk = gridmod._ds_tower(tu, k, grid.h)
    weight = grid.exp(-2.0 * alpha)
    return np.stack([gridmod._norm_sq(d, 0, weight, grid) for d in (tu, dk)], axis=-1)


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
        delta = float(np.max(np.abs(increment, out=increment)))
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


def run(op, u0, f, dt, T, alpha=0.25, k=2, store_every=1, nonlinear=None):
    """Implicit-Euler trajectory with energy and coefficient bookkeeping.

    Stored steps (t = 0, every store_every-th step and t = T) record the
    expansion coefficients. GridError unless u0 and every sample of f lie on
    op.grid, store_every is an integer >= 1, k an integer >= 0 and alpha finite.
    The time loop stores only (t, u), with sup |v_x| for a nonlinear run; the
    records are taken on (K, n) stacks of stored steps, K = grid.STEP_STACK,
    one stencil call per derivative order per stack, and equal per-step records
    bitwise. t = 0 is recorded on its own before the first solve, so a record
    that cannot be taken (a grid that does not resolve x << 1) fails before any
    step; the other stored steps are recorded after the last step.

    Linear (nonlinear = None): one solve per step. With f = None the energy
    |(D-1)u|_a^2 must not increase beyond a 1e-10 relative slack per step;
    violations are recorded as flags and the run continues (boundary
    truncation can pollute energies near rounding). The run checks it on
    stacks: every ENERGY_BATCH steps and at the last, one tilde_energy call
    takes the energies of the unchecked steps, with the last checked step
    (u0 at first) on top, so the flags are those of a per-step check. With
    forcing no energy is taken between stored steps. Stored steps record
    |(D-1)u|_a^2 with |D^k (D-1)u|_a^2 in the energy log, which alpha and k
    set; the energy log is recorded for linear runs only.

    Nonlinear: each step iterates the solve on ``nonlinear.N``, then
    ``nonlinear.guard(u, j)`` raises or returns sup |v_x|; stored steps also
    record it and, one stack per call, ``nonlinear.records(t, values, grid)``
    (initial-data norm, Y0).
    """
    n_steps = step_count(dt, T)
    if not isinstance(store_every, numbers.Integral) or store_every < 1:
        raise GridError(f"store_every must be an integer >= 1, got {store_every!r}")
    if not isinstance(k, numbers.Integral) or k < 0:
        raise GridError(f"k must be an integer >= 0, got {k!r}")
    if not np.isfinite(alpha):
        raise GridError(f"alpha must be finite, got {alpha!r}")
    gridmod.require_grid(u0, op.grid, "u0")
    fac = resolvent.Factorization(op, 1.0 / dt)
    state = EvolutionState(steps=[], energy_log=[], coefficient_tracks=[])

    def store(t, u):
        state.steps.append((t, u))
        if nonlinear is not None:
            state.lipschitz_track.append(sup_vx)

    def record(stored):
        """Append the records of the stored steps ``stored``, taken as one stack."""
        values = np.array([u.values for _, u in stored])
        state.coefficient_tracks.append(leading_coefficients(values, op.grid))
        if nonlinear is None:
            state.energy_log += [{"tilde_sq": e0, "tilde_dk_sq": ek} for e0, ek
                                 in tilde_energies(values, op.grid, alpha, k).tolist()]
        else:
            init_norm, y0 = nonlinear.records([t for t, _ in stored], values, op.grid)
            state.init_norm_track += init_norm.tolist()
            state.contact_line_track += y0.tolist()

    # linear with f = None: the last checked step's values, then those not yet checked
    energy_rows = [u0.values] if nonlinear is None and f is None else None

    def check_energies(j):
        """Flag each rise of |(D-1)u|_a^2 over the step before it, up to step j."""
        e = tilde_energy(np.array(energy_rows), op.grid, alpha)
        first = j - len(energy_rows) + 2  # the step of e[1]
        for i in np.flatnonzero(e[1:] > e[:-1] * (1.0 + ENERGY_SLACK) + 1e-300):
            state.flags.append(f"energy increase at step {first + i}: "
                               f"{e[i]:.6e} -> {e[i + 1]:.6e}")
        del energy_rows[:-1]

    u, u_older, rate = u0, None, None
    sup_vx = None if nonlinear is None else nonlinear.guard(u0, 0)
    store(0.0, u0)
    record(state.steps)  # t = 0 on its own: a record's error comes before the first solve
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
        if j % store_every == 0 or j == n_steps:
            store(j * dt, u)
    for i in range(1, len(state.steps), gridmod.STEP_STACK):
        record(state.steps[i:i + gridmod.STEP_STACK])
    state.coefficient_tracks = np.concatenate(state.coefficient_tracks)
    return state
