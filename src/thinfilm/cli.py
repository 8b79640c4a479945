"""Batch experiment driver.

Subcommands: coercivity, norms, resolvent, linear-evolve, nonlinear-evolve,
validate, sweep. Every artifact embeds the resolved configuration and its
content hash; outputs are bit-identical for identical config.
Exit codes: 0 success, 1 malformed config, flag, input file or output path,
2 validation failure, 3 numerical-guard failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import coercivity, config, evolution, nonlinear, polyops, resolvent, validation
from . import grid as gridmod
from .errors import ConfigError, EnergyError, GridError, GuardError, PicardError, ThinFilmError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_GUARD = 3


def _interval_text(intervals):
    if not intervals:
        return "empty"
    return " u ".join(f"({lo:.9f}, {hi:.9f})" for lo, hi in intervals)


def _write_json(path, payload, cfg=None):
    if cfg is not None:
        payload = {"config": cfg.resolved(), "config_sha256": cfg.content_hash(),
                   "results": payload}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header_cols, rows, cfg):
    with open(path, "w") as fh:
        for key, val in cfg.resolved().items():
            fh.write(f"# config {key} = {val}\n")
        fh.write(f"# config_sha256 = {cfg.content_hash()}\n")
        fh.write(",".join(header_cols) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _make_out_dir(path, key):
    """Create the output directory path, after a command's checks and t = 0 work and
    before its run; ConfigError keyed key."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(key, f"cannot create directory {path!r}: {exc.strerror or exc}") from exc
    return path


def _snapshots(cfg, state):
    """The stored (t, u) nearest the output.snapshots times, each step once."""
    times = state.times
    picks = dict.fromkeys(int(np.argmin(np.abs(times - t))) for t in cfg["output"]["snapshots"])
    return [state.steps[i] for i in picks]


def cmd_coercivity(args):
    names = ["p0", "q0", "p1", "q1", "p2", "q2"]
    pairs = [polyops.symbol_pair(c) for c in (0, 1, 2)]
    polys = [p for pair in pairs for p in pair]
    rows = []
    for name, poly in zip(names, polys):
        closed = coercivity.range_closed_form(poly)
        lo = min((iv[0] for iv in closed), default=0.0) - 1.0
        hi = max((iv[1] for iv in closed), default=1.0) + 1.0
        lo = max(lo, min(poly.roots) - 1.0)
        numeric = coercivity.range_numeric(poly, lo, hi, n_scan=2000)
        disc = 0.0
        if closed and len(closed) == len(numeric):
            disc = max(max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                       for a, b in zip(closed, numeric))
        elif closed or numeric:
            disc = float("nan")
        rows.append((name, poly.mean(), poly.sigma(), closed, numeric, disc))
    widths = "{:<5} {:>8} {:>9}  {:<36} {:<36} {:>12}"
    print(widths.format("name", "mean", "sigma", "closed-form", "numeric scan", "max diff"))
    for name, m, s, closed, numeric, disc in rows:
        print(widths.format(name, f"{m:.4f}", f"{s:.5f}",
                            _interval_text(closed), _interval_text(numeric),
                            f"{disc:.2e}"))
    comp_names = {0: "A0 (operator)", 1: "A1 (once commuted)", 2: "A2 (twice commuted)"}
    for c in (0, 1, 2):
        print(f"{comp_names[c]:<22} joint weight window: "
              f"{_interval_text(coercivity.composite_range(c))}")
    return EXIT_OK


def _load_cfg_and_grid(args):
    cfg = config.load(args.config) if args.config else config.ExperimentConfig()
    g = cfg["grid"]
    return cfg, gridmod.LogGrid(g["s_min"], g["s_max"], g["n"])


def _check_steps(cfg, dts, key):
    """ConfigError unless each dt ends on solver.T in 1..MAX_STEPS steps; keyed key or solver.T."""
    T = cfg["solver"]["T"]
    for dt in dts:
        try:
            evolution.step_count(dt, T)
        except GridError as exc:
            raise ConfigError("solver.T" if str(exc).startswith("T ") else key,
                              f"{exc} (dt={dt!r}, solver.T={T!r})") from exc


def _check_snapshots(cfg):
    """ConfigError keyed output.snapshots unless every snapshot time lies in [0, solver.T]
    and its nearest step is stored (evolution.is_stored)."""
    s = cfg["solver"]
    T, dt, every = s["T"], s["dt"], s["store_every"]
    outside = [t for t in cfg["output"]["snapshots"] if not 0.0 <= t <= T]
    if outside:
        raise ConfigError("output.snapshots",
                          f"times {outside} lie outside the run [0, solver.T={T!r}]")
    n_steps = evolution.step_count(dt, T)
    unstored = [t for t in cfg["output"]["snapshots"]
                if not evolution.is_stored(round(t / dt), n_steps, every)]
    if unstored:
        raise ConfigError("output.snapshots",
                          f"times {unstored} are not on stored steps "
                          f"(solver.dt={dt!r}, solver.store_every={every!r})")


def _start(u0, **run_args):
    """evolution.start, before a command makes its output directory; t = 0 energies that
    are not finite (EnergyError) are a ConfigError keyed norms.alpha."""
    try:
        evolution.start(u0, **run_args)
    except EnergyError as exc:
        raise ConfigError("norms.alpha", str(exc)) from exc


def cmd_norms(args):
    w = config.read_field(args.csv, "--csv")
    out = {}
    for spec_text in args.spec:
        try:
            k_s, a_s, sub_s = spec_text.split(":")
            spec = gridmod.NormSpec(int(k_s), float(a_s), int(sub_s))
            out[spec_text] = gridmod.weighted_norm(w, spec)
        except (ValueError, ThinFilmError) as exc:
            raise ConfigError("--spec", f"bad norm spec {spec_text!r}: {exc}") from exc
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_resolvent(args):
    cfg, grid = _load_cfg_and_grid(args)
    if not 0 < args.lam < np.inf:
        raise ConfigError("--lambda", f"not a positive finite number: {args.lam!r}")
    rhs = config.read_field(args.g, "--g", grid)
    # before the output directory: the right-hand side's compatibility (the probe
    # resolvent.solve runs), and the report's fit bands, checked on a zero field
    # (GridError when one of them is too coarse on this grid)
    resolvent.require_compatible(rhs)
    evolution.leading_coefficients(np.zeros(grid.n), grid)
    out_dir = _make_out_dir(args.out or cfg["output"]["dir"],
                            "--out" if args.out else "output.dir")
    sol = resolvent.solve(resolvent.assemble(grid), args.lam, rhs)
    coeffs = evolution.leading_coefficients(sol.solution.values, grid)  # GridError unless finite
    _write_csv(os.path.join(out_dir, "resolvent_solution.csv"), ["s", "u"],
               list(zip(grid.s.tolist(), sol.solution.values.tolist())), cfg)
    _write_json(os.path.join(out_dir, "resolvent_report.json"), {
        "lambda": args.lam,
        "interior_residual": sol.residual_norm,
        "decay_rate_fit": None if np.isnan(sol.decay_rate_fit) else sol.decay_rate_fit,
        "coefficients": coeffs.tolist(),
    }, cfg)
    print(f"resolvent solve done: residual {sol.residual_norm:.3e}")
    return EXIT_OK


def cmd_linear_evolve(args):
    cfg, grid = _load_cfg_and_grid(args)
    _check_steps(cfg, [cfg["solver"]["dt"]], "solver.dt")
    _check_snapshots(cfg)
    u0 = config.initial_profile(cfg, grid)
    alpha, k = cfg["norms"]["alpha"], cfg["norms"]["k"]
    _start(u0, alpha=alpha, k=k)
    out_dir = _make_out_dir(cfg["output"]["dir"], "output.dir")
    s = cfg["solver"]
    state = evolution.run(resolvent.assemble(grid), u0, None, s["dt"], s["T"],
                          alpha=alpha, k=k, store_every=s["store_every"])
    rows = [(t, e["tilde_sq"], e["tilde_dk_sq"], *c) for (t, _), e, c
            in zip(state.steps, state.energy_log, state.coefficient_tracks)]
    _write_csv(os.path.join(out_dir, "linear_trajectory.csv"),
               ["t", "tilde_sq", "tilde_dk_sq", "u1", "u2", "u3"], rows, cfg)
    for t, u in _snapshots(cfg, state):
        _write_csv(os.path.join(out_dir, f"snapshot_t{t:g}.csv"), ["s", "u"],
                   list(zip(grid.s.tolist(), u.values.tolist())), cfg)
    if state.flags:
        print(f"completed with {len(state.flags)} energy flags", file=sys.stderr)
    print(f"linear evolution done: {len(state.steps)} stored steps")
    return EXIT_OK


def cmd_nonlinear_evolve(args):
    cfg, grid = _load_cfg_and_grid(args)
    _check_steps(cfg, [cfg["solver"]["dt"]], "solver.dt")
    _check_snapshots(cfg)
    u0 = config.initial_profile(cfg, grid)
    s, nm = cfg["solver"], cfg["norms"]
    model = nonlinear.NonlinearModel(nm["N"], nm["k"], nm["delta"])
    _start(u0, nonlinear=model)
    out_dir = _make_out_dir(cfg["output"]["dir"], "output.dir")
    state = evolution.run(resolvent.assemble(grid), u0, None, s["dt"], s["T"],
                          store_every=s["store_every"], nonlinear=model)
    counts = [0] + state.picard_counts  # of each step, read at the step of a stored time
    rows = [(t, norm, c[0], c[1], sup, y0, counts[round(t / s["dt"])])
            for (t, _), norm, c, sup, y0 in zip(state.steps, state.init_norm_track,
                                                state.coefficient_tracks,
                                                state.lipschitz_track, state.contact_line_track)]
    _write_csv(os.path.join(out_dir, "nonlinear_trajectory.csv"),
               ["t", "init_norm", "u1", "u2", "sup_vx", "Y0", "picard_iterations"],
               rows, cfg)
    for t, u in _snapshots(cfg, state):
        film = nonlinear.reconstruct(u, t, np.linspace(6 * t - 0.5, 6 * t + 4.0, 600))
        _write_csv(os.path.join(out_dir, f"film_t{t:g}.csv"), ["y", "h"],
                   list(zip(film.y.tolist(), film.h.tolist())), cfg)
    rates = [r for r in state.picard_rates if r is not None]
    print(f"nonlinear evolution done: {len(state.steps)} stored steps, "
          f"max Picard count {max(state.picard_counts)}, "
          f"max Picard rate {f'{max(rates):.2e}' if rates else 'n/a'}")
    return EXIT_OK


def cmd_validate(args):
    if args.out:
        _make_out_dir(os.path.dirname(args.out) or os.curdir, "--out")
        if os.path.isdir(args.out):
            raise ConfigError("--out", f"{args.out!r} is a directory, not a file")
    checks = {}

    def residual_orders(h, t_span, y_span, base_dt, base_dy):
        reports = [validation.tfe_residual(h, t_span, y_span, base_dt / r, base_dy / r)
                   for r in (1, 2, 4)]
        orders = [float(np.log2(reports[i].max_residual / reports[i + 1].max_residual))
                  for i in range(2)]
        return orders

    tw_orders = residual_orders(validation.traveling_wave, (0.0, 0.8), (1.0, 6.0), 0.05, 0.1)
    checks["traveling_wave_order"] = {"orders": tw_orders,
                                      "pass": all(o >= 1.8 for o in tw_orders)}
    eq_reports = [validation.tfe_residual(validation.equilibrium, (0.0, 0.8), (0.5, 4.0),
                                          0.05 / r, 0.1 / r) for r in (1, 2)]
    # the profile is exactly stationary, so the residual is pure rounding
    checks["equilibrium_residual"] = {
        "max": [r.max_residual for r in eq_reports],
        "pass": all(r.max_residual < 1e-6 for r in eq_reports)}
    sh_orders = residual_orders(validation.smyth_hill, (0.0, 0.8), (-0.6, 0.6), 0.02, 0.02)
    checks["smyth_hill_order"] = {"orders": sh_orders,
                                  "pass": all(o >= 1.8 for o in sh_orders)}
    x = np.linspace(0.0, 3.0, 301)
    err = validation.tw_ode_check(6.0, 1.0, x)
    checks["wave_profile_ode"] = {"max_error": err, "pass": err < 1e-7}

    ok = all(c["pass"] for c in checks.values())
    payload = {"checks": checks, "pass": ok}
    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_sweep(args):
    cfg, grid = _load_cfg_and_grid(args)
    if args.param != "dt":
        raise ConfigError("--param", f"only dt sweeps are supported, got {args.param!r}")
    try:
        values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise ConfigError("--values", f"not comma-separated numbers: {args.values!r}") from exc
    if not all(np.isfinite(v) and v > 0 for v in values):
        raise ConfigError("--values", f"not positive time steps: {args.values!r}")
    if len(values) < 3:
        raise ConfigError("--values", "need at least three values for a Richardson summary")
    _check_steps(cfg, values, "--values")
    T, alpha, k = cfg["solver"]["T"], cfg["norms"]["alpha"], cfg["norms"]["k"]
    u0 = config.initial_profile(cfg, grid)
    _start(u0, alpha=alpha, k=k)
    out_dir = _make_out_dir(cfg["output"]["dir"], "output.dir")
    op = resolvent.assemble(grid)
    # only the final state is read: store t = 0 and t = T, check the energy every step
    states = [evolution.run(op, u0, None, dt, T, alpha=alpha, k=k,
                            store_every=evolution.MAX_STEPS)
              for dt in values]
    for dt, state in zip(values, states):
        if state.flags:
            print(f"completed with {len(state.flags)} energy flags at dt={dt:g}",
                  file=sys.stderr)
    finals = [state.final().values for state in states]
    diffs = [float(np.max(np.abs(finals[i] - finals[i + 1])))
             for i in range(len(finals) - 1)]
    # null where the finals coincide: strict JSON has no NaN or infinity
    orders = [float(np.log2(diffs[i] / diffs[i + 1])) if diffs[i] > 0 and diffs[i + 1] > 0
              else None for i in range(len(diffs) - 1)]
    payload = {"param": "dt", "values": values, "final_state_diffs": diffs,
               "richardson_orders": orders}
    _write_json(os.path.join(out_dir, "sweep_summary.json"), payload, cfg)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="thinfilm",
                                     description="Receding-wave stability laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("coercivity", help="weight windows of the quartic symbols")

    p = sub.add_parser("norms", help="weighted norms of a sampled function")
    p.add_argument("--csv", required=True, help="CSV with columns s,value")
    p.add_argument("--spec", action="append", required=True,
                   help="norm request k:alpha:sub (repeatable)")

    p = sub.add_parser("resolvent", help="single resolvent solve")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--g", required=True, help="CSV right-hand side (columns s,value)")
    p.add_argument("--config", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("linear-evolve", help="implicit-Euler linear evolution")
    p.add_argument("--config", default=None)

    p = sub.add_parser("nonlinear-evolve", help="semi-implicit nonlinear evolution")
    p.add_argument("--config", default=None)

    p = sub.add_parser("validate", help="physical-equation residual oracles")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="parameter sweep with Richardson summary")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--config", default=None)
    return parser


_COMMANDS = {
    "coercivity": cmd_coercivity,
    "norms": cmd_norms,
    "resolvent": cmd_resolvent,
    "linear-evolve": cmd_linear_evolve,
    "nonlinear-evolve": cmd_nonlinear_evolve,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GuardError, PicardError) as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ThinFilmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
