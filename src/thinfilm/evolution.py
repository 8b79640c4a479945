"""Implicit-Euler evolution, linear or with an inner Picard iteration.

Each step solves (u - u_prev)/dt + A u = f_avg + N(u) through the banded
resolvent factorization with lambda = 1/dt; the factorization is built once
per run. The linear problem is N = 0 with a single solve per step; a
nonlinear model iterates the same solve to a fixed point. The iteration
starts from the extrapolant 2u^n - u^(n-1) (Ascher, Ruuth & Wetton 1995,
SIAM J. Numer. Anal. 32:797) and stops when its increment, or the error
estimate theta/(1 - theta) times it with the contraction rate theta carried
over from step to step (Hairer & Wanner, Solving ODEs II, IV.8), is below
picard_tol; on small data that is one solve per step. The run monitors
the commuted energy |(D-1)u|_{a}^2 (and its k-th D-derivative) and records
expansion-coefficient tracks.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import grid as gridmod
from . import resolvent, stencils
from .errors import GridError, PicardError

ENERGY_SLACK = 1e-10
MAX_STEPS = 10**6  # step cap of one run; as store_every, it stores t = 0 and t = T only
U2_BAND = (3.0, 6.0)  # leading_coefficients: u2 and u3 fit bands, as offsets from s_min
U3_BAND = (7.0, 9.5)


@dataclass
class EvolutionState:
    """Trajectory with per-step energy log and coefficient tracks."""

    steps: list                 # (t, GridFunction), including t = 0
    energy_log: list            # dicts: tilde_sq, tilde_dk_sq
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


@functools.lru_cache(maxsize=4)
def _d_minus_1(u):
    """(D-1)u of the last few fields, keyed by identity (a GridFunction is
    immutable), so the energy and coefficient monitors of a stored step share it."""
    return gridmod.shifted_derivative(u, 1.0)


def leading_coefficients(u):
    """Expansion coefficients (u1, u2, u3) tuned for evolving fields.

    u1 comes from the standard left-band fit. u2 and u3 are read off the
    shifted fields (D-1)u = u2 x^2 + 2 u3 x^3 + ... and
    (D-2)(D-1)u = 2 u3 x^3 + 6 u4 x^4 + ..., which annihilate the lower
    expansion terms analytically; their fit bands sit where x is large
    enough that stencil truncation (proportional to the full field) does
    not swamp the x^2 and x^3 signals.
    """
    grid = u.grid
    u1 = gridmod.extract_coefficients(u, 1)[0]
    tu = _d_minus_1(u)
    u2 = gridmod.fit_powers(tu.values * grid.exp(-2.0), grid, *U2_BAND, 3)[0]
    cu = gridmod.shifted_derivative(tu, 2.0)
    u3 = gridmod.fit_powers(cu.values * grid.exp(-3.0), grid, *U3_BAND, 3)[0] / 2.0
    return float(u1), float(u2), float(u3)


def average_rhs(f, j, dt):
    """Three-point Simpson average of f over [(j-1) dt, j dt].

    f is a callable t -> GridFunction (None means zero and is handled by
    callers). Exact for right-hand sides linear in t.
    """
    t0 = (j - 1) * dt
    a, m, b = f(t0), f(t0 + dt / 2), f(t0 + dt)
    return gridmod.GridFunction(a.grid, (a.values + 4.0 * m.values + b.values) / 6.0)


def tilde_energies(u, alpha, k):
    """(|(D-1)u|_a^2, |D^k (D-1)u|_a^2) by trapezoid quadrature."""
    grid = u.grid
    tu = _d_minus_1(u).values
    weight = grid.exp(-2.0 * alpha)
    e0 = stencils.trapezoid(weight * tu * tu, grid.h)
    dk = gridmod.ds_any(tu, k, grid.h)
    ek = stencils.trapezoid(weight * dk * dk, grid.h)
    return float(e0), float(ek)


def step(op, u_prev, f_avg, dt, factorization=None):
    """One backward-Euler step; f_avg may be None for the homogeneous problem."""
    if not 0 < dt < np.inf:
        raise GridError("dt must be positive and finite")
    lam = 1.0 / dt
    fac = factorization if factorization is not None else resolvent.Factorization(op, lam)
    rhs = lam * u_prev.values
    if f_avg is not None:
        rhs = rhs + f_avg.values
    return fac.solve(gridmod.GridFunction(op.grid, rhs))


def _picard_step(op, u_prev, u_older, f_avg, dt, fac, model, j, rate):
    """Iterate u = step(u_prev, f_avg + N(u)) to a fixed point; (u, solves, rate).

    The iteration starts from the extrapolant 2 u_prev - u_older (from u_prev
    when u_older is None) and measures the contraction rate
    delta_k / delta_(k-1) of its max-norm increments; until it has two
    increments it uses ``rate``, the last rate measured (None: none yet). It
    stops when delta < picard_tol, or when rate < 1 and the error estimate
    rate / (1 - rate) * delta is at most picard_tol. A rate >= 1 only
    disables the estimate. Running out of the picard_max budget raises
    PicardError, which reports the last increment and rate: the iteration
    may still be contracting, only too slowly for the budget.
    """
    iterate = u_prev if u_older is None else 2.0 * u_prev - u_older
    last = None
    for count in range(1, model.picard_max + 1):
        g = model.N(iterate)
        if f_avg is not None:
            g = f_avg + g
        u_next = step(op, u_prev, g, dt, factorization=fac)
        delta = float(np.max(np.abs(u_next.values - iterate.values)))
        iterate = u_next
        if last:
            rate = delta / last
        last = delta
        if delta < model.picard_tol or (
                rate is not None and rate < 1.0
                and rate / (1.0 - rate) * delta <= model.picard_tol):
            return iterate, count, rate
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

    Linear (nonlinear = None): one solve per step. With f = None the monitored
    energy must not increase beyond a 1e-10 relative slack per step;
    violations are recorded as flags and the run continues (boundary
    truncation can pollute energies near rounding).

    Nonlinear: each step iterates the solve on ``nonlinear.N``, then
    ``nonlinear.guard(u, j)`` raises or returns sup |v_x|; stored steps also
    record it and ``nonlinear.records(t, u)`` (initial-data norm, Y0).
    """
    n_steps = step_count(dt, T)
    if store_every < 1:
        raise GridError("store_every must be at least 1")
    fac = resolvent.Factorization(op, 1.0 / dt)
    state = EvolutionState(steps=[], energy_log=[], coefficient_tracks=[])

    def log_entry(u):
        e0, ek = tilde_energies(u, alpha, k)
        return {"tilde_sq": e0, "tilde_dk_sq": ek}

    def store(t, u, entry):
        state.steps.append((t, u))
        state.energy_log.append(entry)
        state.coefficient_tracks.append(leading_coefficients(u))
        if nonlinear is not None:
            init_norm, y0 = nonlinear.records(t, u)
            state.lipschitz_track.append(sup_vx)
            state.init_norm_track.append(init_norm)
            state.contact_line_track.append(y0)

    u, u_older, rate = u0, None, None
    sup_vx = None if nonlinear is None else nonlinear.guard(u0, 0)
    entry = log_entry(u0)
    store(0.0, u0, entry)
    for j in range(1, n_steps + 1):
        f_avg = None if f is None else average_rhs(f, j, dt)
        if nonlinear is None:
            u = step(op, u, f_avg, dt, factorization=fac)
            prev_e0, entry = entry["tilde_sq"], log_entry(u)
            if f is None and entry["tilde_sq"] > prev_e0 * (1.0 + ENERGY_SLACK) + 1e-300:
                state.flags.append(f"energy increase at step {j}: "
                                   f"{prev_e0:.6e} -> {entry['tilde_sq']:.6e}")
        else:
            u_next, count, rate = _picard_step(op, u, u_older, f_avg, dt, fac, nonlinear,
                                               j, rate)
            u_older, u = u, u_next
            state.picard_counts.append(count)
            state.picard_rates.append(rate)
            sup_vx = nonlinear.guard(u, j)
        if j % store_every == 0 or j == n_steps:
            store(j * dt, u, entry if nonlinear is None else log_entry(u))
    state.coefficient_tracks = np.array(state.coefficient_tracks)
    return state
