"""The three benchmark workloads: inputs from a seed, the timed call, the checks.

Each workload has

* ``setup()``: one-time work before the timed part (grids, inputs, the first
  assembly and factorization, one warm-up call). ``run.py`` repeats it and
  reports the median as ``setup_s``.
* ``timed()``: the workload's timed part. It calls only public functions of
  ``thinfilm`` and returns the raw outputs.
* ``check(out)``: the correctness gate for one timed call. It returns
  ``(failures, arrays, info)``: one message per failed operation, the output
  arrays that are hashed and compared with the stored reference, and figures
  to print. A timed call holds ``ops`` operations.

Seed 0 gives the acceptance-suite inputs exactly. Other seeds scale the
initial data or right-hand side by one factor from ``AMPLITUDES``. Every
check holds across that range, and the amount of work barely moves with it:
Picard iterations on ``nonlinear_wave`` vary by about 1%.
"""

import contextlib
import io
import json
import os

import numpy as np

from thinfilm import cli, config, elliptic, evolution, nonlinear, polyops, resolvent, \
    validation
from thinfilm import grid as gridmod

AMPLITUDES = (0.9, 0.95, 1.0, 1.05, 1.1)


def amplitude(seed):
    """Input scale factor for a seed; seed 0 is the unscaled acceptance input."""
    if seed == 0:
        return 1.0
    return float(AMPLITUDES[np.random.default_rng(seed).integers(len(AMPLITUDES))])


class Workload:
    """What the three workloads share: the seed's amplitude and the reference."""

    name = ""
    work_unit = ""
    ops = 1
    drift_tol = 0.0
    # The reference of a linear workload is stored for amplitude 1 and scaled;
    # a nonlinear one stores a reference for every amplitude.
    linear = True

    def __init__(self, seed, workdir):
        self.amp = amplitude(seed)
        self.workdir = workdir

    def reference_prefix(self):
        """Key prefix of this input's arrays in ``reference.npz``."""
        return f"{self.name}/a{1.0 if self.linear else self.amp:.2f}/"

    def reference(self, store):
        """This seed's reference arrays out of the stored ``.npz``."""
        prefix = self.reference_prefix()
        scale = self.amp if self.linear else 1.0
        return {key[len(prefix):]: scale * store[key] for key in store.files
                if key.startswith(prefix) and key != prefix + "sha256"}

    def reduce(self, arrays):
        """The part of each output array the reference keeps."""
        return arrays


class NonlinearWave(Workload):
    """ROADMAP E1: the criterion-9 run and the criterion-10 reconstruction oracle.

    Stencils, N(u) and Picard dominate; the factorization is built once and
    used for about 1,100 solves.
    """

    name = "nonlinear_wave"
    work_unit = "implicit-Euler steps"
    # Picard stops at an absolute increment of 1e-10 on fields of size ~1e-3,
    # so a change to the stopping rule alone moves outputs by ~1e-7.
    drift_tol = 1e-6
    linear = False
    dt, T, store_every = 1e-2, 5.0, 5
    t_oracle = 2.5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.steps = int(round(self.T / self.dt))

    def setup(self):
        grid = gridmod.LogGrid()
        x = grid.x
        self.u0 = gridmod.GridFunction(grid, self.amp * 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
        # a one-step run pays assembly, the first factorization and any lazy
        # set-up of N(u) and the monitors
        nonlinear.run_nonlinear(self.u0, self.dt, self.dt)

    def timed(self):
        state = nonlinear.run_nonlinear(self.u0, self.dt, self.T, store_every=self.store_every)
        stored = {round(t, 10): u for t, u in state.steps}
        films = []

        def h_rec(tt, yy):
            tt = np.atleast_2d(np.asarray(tt, dtype=float))
            yy = np.atleast_2d(np.asarray(yy, dtype=float))
            out = np.empty_like(yy)
            for i in range(tt.shape[0]):
                t = round(float(tt[i, 0]), 10)
                out[i] = nonlinear.reconstruct(stored[t], t, yy[i], upsample=16).h
            films.append(out.copy())
            return out

        t0 = self.t_oracle
        maxima = []
        for dt_s, dy_s in ((0.2, 0.8), (0.1, 0.4), (0.05, 0.2)):
            rep = validation.tfe_residual(h_rec, (t0 - 2 * dt_s, t0 + 2 * dt_s),
                                          (6 * t0 + 1.2, 6 * t0 + 8.0), dt_s, dy_s)
            maxima.append(rep.max_residual)
        return state, maxima, films

    def check(self, out):
        state, maxima, films = out
        failures = []
        track = state.init_norm_track
        ratio = track[-1] / track[0]
        ident = float(np.max(np.abs(np.array(state.contact_line_track) - 6.0 * state.times
                                    - 0.5 * state.coefficient_tracks[:, 0])))
        orders = [float(np.log2(maxima[i] / maxima[i + 1])) for i in range(2)]
        if not ratio < 0.5:
            failures.append(f"init-norm ratio {ratio:.3f} not below 0.5")
        if not ident <= 1e-6:
            failures.append(f"contact-line identity {ident:.1e} above 1e-6")
        if not min(orders) >= 1.8:
            failures.append(f"reconstruction orders {orders} below 1.8")
        arrays = {"final": state.final().values}
        arrays.update({f"film{i}": f for i, f in enumerate(films)})
        info = {"init_norm_ratio": ratio, "contact_line_identity": ident,
                "reconstruction_orders": orders,
                "picard_iters": int(sum(state.picard_counts))}
        return failures, arrays, info


class LinearSweep(Workload):
    """ROADMAP E2 and E3: ``thinfilm sweep`` over three dt values at T = 2.

    The monitors run at every step and N(u) never does; the CLI and config
    layers are on this path. ``THINFILM_WORKERS`` stays unset: the pool uses
    threads and the work is mostly Python.
    """

    name = "linear_sweep"
    work_unit = "implicit-Euler steps"
    # a linear problem: outputs scale with the amplitude up to rounding
    drift_tol = 1e-6
    dts = (1e-2, 5e-3, 2.5e-3)
    T = 2.0

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.steps = sum(int(round(self.T / dt)) for dt in self.dts)
        self.config_path = os.path.join(workdir, "sweep.ini")
        self.argv = ["sweep", "--param", "dt", "--values", ",".join(f"{dt:g}" for dt in self.dts),
                     "--config", self.config_path]
        self._states = None

    def setup(self):
        grid = gridmod.LogGrid(-12.0, 4.0, 1025)
        x = grid.x
        u0_path = os.path.join(self.workdir, "u0.csv")
        # x3_decay scaled by the seed's amplitude; repr keeps every digit, so
        # seed 0 reads back the catalog profile bit for bit
        with open(u0_path, "w") as fh:
            fh.write("s,u\n")
            for s, u in zip(grid.s.tolist(), (self.amp * x**3 * np.exp(-x)).tolist()):
                fh.write(f"{s!r},{u!r}\n")
        with open(self.config_path, "w") as fh:
            fh.write(f"[grid]\ns_min = -12\ns_max = 4\nn = {grid.n}\n"
                     f"[solver]\ndt = {self.dts[0]:g}\nT = {self.T:g}\nstore_every = 1\n"
                     f"[output]\ndir = {self.workdir}\nu0 = x3_decay\nu0_csv = {u0_path}\n")
        cfg = config.load(self.config_path)
        self.u0 = config.initial_profile(cfg, grid)
        self.op = resolvent.assemble(grid)
        evolution.run(self.op, self.u0, None, self.dts[0], self.dts[0])

    def timed(self):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self.argv)
        with open(os.path.join(self.workdir, "sweep_summary.json")) as fh:
            return code, json.load(fh)["results"]

    def final_states(self):
        """The three final states of the sweep, computed by the same calls.

        The CLI returns only its summary, so the states are computed once per
        process, outside the timed part. ``check`` ties each timed call to
        them: its final-state differences must match exactly.
        """
        if self._states is None:
            finals = [evolution.run(self.op, self.u0, None, dt, self.T).final().values
                      for dt in self.dts]
            diffs = [float(np.max(np.abs(finals[i] - finals[i + 1])))
                     for i in range(len(finals) - 1)]
            self._states = finals, diffs
        return self._states

    def check(self, out):
        code, summary = out
        finals, diffs = self.final_states()
        failures = []
        orders = summary["richardson_orders"]
        if code != 0:
            failures.append(f"sweep exited with {code}")
        elif not all(0.9 <= o <= 1.1 for o in orders):
            failures.append(f"Richardson orders {orders} outside [0.9, 1.1]")
        elif summary["final_state_diffs"] != diffs:
            failures.append("sweep differences do not match the recomputed final states")
        arrays = {f"final{i}": f for i, f in enumerate(finals)}
        return failures, arrays, {"richardson_orders": orders}


class ResolventScan(Workload):
    """Manufactured resolvent solves (criterion 5) over grid refinement and a lambda scan.

    One assembly per grid and a fresh factorization per (n, lambda) pair, so
    the factorization build dominates; each grid also gets one ``apply_S``.
    """

    name = "resolvent_scan"
    work_unit = "resolvent solves"
    # the finest grid sits on a rounding floor of a few 1e-6 (criterion 2),
    # so a change in rounding order alone can move its solutions that far
    drift_tol = 1e-5
    grids = (513, 1025, 2049, 4097)
    lambdas = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 400.0)
    ops = len(grids) * (len(lambdas) + 1)  # the solves and one apply_S per grid

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.steps = len(self.grids) * len(self.lambdas)

    def setup(self):
        self.cases = []
        for n in self.grids:
            grid = gridmod.LogGrid(-12.0, 4.0, n)
            x = grid.x
            exact = self.amp * x**2 * np.exp(-x)
            base = self.amp * np.exp(-x) * (x**5 - 10 * x**4 + 20 * x**3 + 6 * x**2 - 12 * x)
            rhs = [gridmod.GridFunction(grid, lam * exact + base) for lam in self.lambdas]
            self.cases.append((grid, exact, rhs, gridmod.GridFunction(grid, exact)))
        grid, _, rhs, _ = self.cases[0]
        lam = self.lambdas[0]
        op = resolvent.assemble(grid)
        resolvent.solve(op, lam, rhs[0], factorization=resolvent.Factorization(op, lam))

    def timed(self):
        out = []
        for grid, _, rhs, g_s in self.cases:
            op = resolvent.assemble(grid)
            sols = [resolvent.solve(op, lam, g, factorization=resolvent.Factorization(op, lam))
                    .solution for lam, g in zip(self.lambdas, rhs)]
            out.append((sols, elliptic.apply_S(g_s)))
        return out

    def check(self, out):
        failures = []
        arrays = {}
        errs = np.empty((len(self.grids), len(self.lambdas)))
        round_trip = []
        for gi, ((grid, exact, _, g_s), (sols, sg)) in enumerate(zip(self.cases, out)):
            for li, sol in enumerate(sols):
                errs[gi, li] = np.linalg.norm(sol.values - exact) / np.linalg.norm(exact)
                arrays[f"n{grid.n}_l{li}"] = sol.values
            arrays[f"n{grid.n}_S"] = sg.values
            # A S g = g away from the edges, as in the apply_S round-trip test;
            # stencil truncation (n=513) and rounding amplified by h^-4
            # (n=4097) put this at 1e-4 to 3e-4, so the bound is 1e-3
            back = polyops.apply_operator(sg).values
            rt = float(np.max(np.abs(back - g_s.values)[10:-10]) / np.max(np.abs(g_s.values)))
            round_trip.append(rt)
            if not rt < 1e-3:
                failures.append(f"apply_S round trip {rt:.1e} at n={grid.n} not below 1e-3")
        # criterion-5 bounds: at least second order between the two coarsest
        # grids, relative L2 error at most 1e-5 everywhere
        for li, lam in enumerate(self.lambdas):
            order = float(np.log2(errs[0, li] / errs[1, li]))
            if not order >= 2.0:
                failures.append(f"order {order:.2f} below 2 at lambda={lam:g}")
        for gi, li in zip(*np.nonzero(~(errs <= 1e-5))):
            failures.append(f"relative L2 error {errs[gi, li]:.1e} above 1e-5 "
                            f"at n={self.grids[gi]}, lambda={self.lambdas[li]:g}")
        info = {"worst_rel_error_per_grid": dict(zip(map(str, self.grids),
                                                     errs.max(axis=1).tolist())),
                "apply_S_round_trip": round_trip}
        return failures, arrays, info

    def reduce(self, arrays):
        # the coarsest grid's nodes, which every finer grid keeps
        coarse = self.grids[0] - 1
        return {k: v[::(v.size - 1) // coarse] for k, v in arrays.items()}


WORKLOADS = {w.name: w for w in (NonlinearWave, LinearSweep, ResolventScan)}
