import itertools
import json
import os

import numpy as np
import pytest

from thinfilm import cli, config, evolution, nonlinear, resolvent
from thinfilm import grid as gridmod
from thinfilm.errors import ConfigError


def write_config(path, text):
    path.write_text(text)
    return str(path)


def test_coercivity_table(capsys):
    assert cli.main(["coercivity"]) == 0
    out = capsys.readouterr().out
    assert "p0" in out and "q1" in out
    assert "(0.000000000, 1.000000000)" in out          # once-commuted joint window
    assert "(0.087129071, 1.500000000)" in out          # twice-commuted joint window
    assert "empty" in out                               # uncommuted operator


def test_norms_command(tmp_path, capsys):
    g = gridmod.LogGrid(-12, 4, 257)
    w = np.exp(1.5 * g.s)
    csv = tmp_path / "field.csv"
    csv.write_text("s,value\n" + "\n".join(f"{s},{v}" for s, v in zip(g.s, w)))
    assert cli.main(["norms", "--csv", str(csv), "--spec", "0:0.25:0"]) == 0
    got = json.loads(capsys.readouterr().out)
    d = 1.25
    closed = np.sqrt((np.exp(2 * d * 4) - np.exp(2 * d * -12)) / (2 * d))
    assert got["0:0.25:0"] == pytest.approx(closed, rel=1e-2)

    # expansion subtraction: the fitted x-ray removes 2x entirely
    csv2 = tmp_path / "ray.csv"
    csv2.write_text("s,value\n" + "\n".join(f"{s},{2 * np.exp(s)}" for s in g.s))
    assert cli.main(["norms", "--csv", str(csv2), "--spec", "0:0.25:0",
                     "--spec", "0:0.25:1"]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["0:0.25:1"] < 1e-6 * got["0:0.25:0"]

    assert cli.main(["norms", "--csv", str(csv2), "--spec", "a:b:c"]) == 1


def test_resolvent_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.ini", "[grid]\nn = 513\n")
    g = gridmod.LogGrid(-12, 4, 513)
    x = g.x
    rhs = x**2 * np.exp(-x)
    csv = tmp_path / "g.csv"
    csv.write_text("s,value\n" + "\n".join(f"{s},{v}" for s, v in zip(g.s, rhs)))
    out_dir = tmp_path / "out"
    assert cli.main(["resolvent", "--lambda", "1.0", "--g", str(csv),
                     "--config", cfg, "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "resolvent_report.json").read_text())
    assert report["results"]["interior_residual"] < 1e-4
    assert report["config"]["grid.n"] == 513
    assert "config_sha256" in report
    sol = np.loadtxt(out_dir / "resolvent_solution.csv", delimiter=",", skiprows=1 + len(report["config"]) + 1)
    assert sol.shape == (513, 2)


def test_linear_evolve_and_determinism(tmp_path):
    cfg = write_config(tmp_path / "exp.ini", f"""
[grid]
n = 257
[solver]
dt = 1e-2
T = 0.1
[output]
dir = {tmp_path / 'run'}
u0 = x3_decay
""")
    assert cli.main(["linear-evolve", "--config", cfg]) == 0
    traj = (tmp_path / "run" / "linear_trajectory.csv").read_bytes()
    assert cli.main(["linear-evolve", "--config", cfg]) == 0
    assert (tmp_path / "run" / "linear_trajectory.csv").read_bytes() == traj
    text = traj.decode()
    assert "# config solver.dt = 0.01" in text
    assert "# config_sha256 =" in text


def test_nonlinear_evolve_command(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.ini", f"""
[grid]
n = 257
[solver]
dt = 1e-2
T = 0.05
[nonlinear]
eps = 1e-4
[output]
dir = {tmp_path / 'run'}
u0 = wave_shift
snapshots = 0.05
""")
    assert cli.main(["nonlinear-evolve", "--config", cfg]) == 0
    assert "max Picard rate " in capsys.readouterr().out
    assert (tmp_path / "run" / "nonlinear_trajectory.csv").exists()
    films = [p for p in os.listdir(tmp_path / "run") if p.startswith("film_")]
    assert films


def test_nonlinear_evolve_zero_eps(tmp_path):
    cfg = write_config(tmp_path / "exp.ini", f"""
[grid]
n = 257
[solver]
dt = 1e-2
T = 0.03
[nonlinear]
eps = 0
[output]
dir = {tmp_path / 'run'}
u0 = wave_shift
""")
    assert cli.main(["nonlinear-evolve", "--config", cfg]) == 0
    lines = [ln for ln in (tmp_path / "run" / "nonlinear_trajectory.csv")
             .read_text().splitlines() if not ln.startswith("#")]
    data = np.loadtxt(lines[1:], delimiter=",")
    assert np.allclose(data[:, 1], 0.0)


def test_guard_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path / "exp.ini", f"""
[grid]
n = 257
[solver]
dt = 1e-2
T = 0.03
[nonlinear]
eps = 1.0
[output]
dir = {tmp_path / 'run'}
u0 = wave_shift
""")
    assert cli.main(["nonlinear-evolve", "--config", cfg]) == 3


def test_picard_stall_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path / "exp.ini", f"""
[grid]
n = 257
[solver]
dt = 1e-2
T = 0.03
[nonlinear]
eps = 0.1
[output]
dir = {tmp_path / 'run'}
u0 = wave_shift
""")
    assert cli.main(["nonlinear-evolve", "--config", cfg]) == 3
    assert "Picard stalled at step 1" in capsys.readouterr().err


def test_malformed_config_messages(tmp_path, capsys):
    bad = write_config(tmp_path / "bad.ini", "[grid]\nn = twelve\n")
    assert cli.main(["linear-evolve", "--config", bad]) == 1
    assert "grid.n" in capsys.readouterr().err

    bad2 = write_config(tmp_path / "bad2.ini", "[grid]\nspacing = 3\n")
    assert cli.main(["linear-evolve", "--config", bad2]) == 1
    assert "grid.spacing" in capsys.readouterr().err

    bad3 = write_config(tmp_path / "bad3.ini", "[solver]\ndt = -1\n")
    assert cli.main(["linear-evolve", "--config", bad3]) == 1
    assert "solver.dt" in capsys.readouterr().err

    # every [grid] command fits near the contact line, which needs s_min <= -6
    bad4 = write_config(tmp_path / "bad4.ini", "[grid]\ns_min = -3\nn = 129\n")
    assert cli.main(["linear-evolve", "--config", bad4]) == 1
    assert "grid.s_min" in capsys.readouterr().err
    assert config.ExperimentConfig({"grid": {"s_min": gridmod.RESOLVED_S_MIN}})

    # 1.5 steps: the config is malformed, so this is exit 1 before any run starts
    bad5 = write_config(tmp_path / "bad5.ini", "[solver]\ndt = 0.01\nT = 0.015\n")
    assert cli.main(["linear-evolve", "--config", bad5]) == 1
    assert "error: config key 'solver.T'" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("n = 257\n", "bad.ini"),                      # no section header: the file is named
    ("[grid]\nn = 257\nn = 129\n", "grid.n"),      # repeated key
    ("[grid]\nn = 257\n[grid]\n", "grid"),         # repeated section
    ("[solver]\ndt = nan\n", "solver.dt"),          # non-finite numbers
    ("[solver]\nT = inf\n", "solver.T"),
    ("[nonlinear]\npicard_tol = nan\n", "nonlinear.picard_tol"),
    ("[output]\nsnapshots = 1.0, nan\n", "output.snapshots"),
])
def test_unparsable_config_is_a_config_error(tmp_path, capsys, text, key):
    path = write_config(tmp_path / "bad.ini", text)
    with pytest.raises(ConfigError) as exc:
        config.load(path)
    assert exc.value.key.endswith(key)
    assert cli.main(["linear-evolve", "--config", path]) == 1
    assert capsys.readouterr().err.startswith("error: config key")


@pytest.mark.parametrize("text, key", [
    ("[solver]\nlambdas = 1.0\n", "solver.lambdas"),
    ("[run]\nseed = 0\n", "run"),  # the [run] section is gone altogether
])
def test_removed_config_keys_are_rejected(tmp_path, capsys, text, key):
    path = write_config(tmp_path / "old.ini", text)
    with pytest.raises(ConfigError) as exc:
        config.load(path)
    assert exc.value.key == key
    assert cli.main(["linear-evolve", "--config", path]) == 1
    assert f"'{key}'" in capsys.readouterr().err


_FIELD_GRID = gridmod.LogGrid(-12.0, 4.0, 65)
_NONUNIFORM = _FIELD_GRID.s + 0.1 * _FIELD_GRID.h * (np.arange(65) == 5)
_BAD_FIELDS = {  # CSV text, or None for a missing file
    "missing file": None,
    "no data rows": "s,value\n",
    "unparsable cell": "s,value\n" + "".join(f"{s!r},abc\n" for s in _FIELD_GRID.s),
    "single column": "s\n" + "".join(f"{s!r}\n" for s in _FIELD_GRID.s),
    "fewer than 16 rows": "s,value\n" + "".join(f"{s!r},0.0\n" for s in np.linspace(-12, 4, 8)),
    "non-uniform s": "s,value\n" + "".join(f"{s!r},0.0\n" for s in _NONUNIFORM),
    "s off the grid": "s,value\n" + "".join(f"{s!r},0.0\n" for s in np.linspace(-12, 4, 129)),
    "non-finite value": "s,value\n" + "".join(f"{s!r},nan\n" for s in _FIELD_GRID.s),
}


# norms builds its grid from the s column, so no grid is there to miss
@pytest.mark.parametrize("source, case", [
    (source, case) for source in ("--csv", "--g", "output.u0_csv") for case in _BAD_FIELDS
    if (source, case) != ("--csv", "s off the grid")])
def test_bad_input_csv_is_a_config_error(tmp_path, capsys, recwarn, source, case):
    csv, out_dir = tmp_path / "field.csv", tmp_path / "out"
    if _BAD_FIELDS[case] is not None:
        csv.write_text(_BAD_FIELDS[case])
    cfg = write_config(tmp_path / "exp.ini", f"[grid]\nn = 65\n[output]\ndir = {out_dir}\n"
                       + (f"u0_csv = {csv}\n" if source == "output.u0_csv" else ""))
    argv = {"--csv": ["norms", "--csv", str(csv), "--spec", "0:0.25:0"],
            "--g": ["resolvent", "--lambda", "1.0", "--g", str(csv), "--config", cfg,
                    "--out", str(out_dir)],
            "output.u0_csv": ["linear-evolve", "--config", cfg]}[source]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: config key '{source}'" in err
    assert "Traceback" not in err
    assert not recwarn.list  # numpy's loadtxt only warns on a file with no data rows
    assert not out_dir.exists()


def test_u0_csv_round_trip_is_bitwise(tmp_path):
    # x3_decay written with repr floats, as the benchmark writes it, reads back exactly
    grid = gridmod.LogGrid(-12.0, 4.0, 1025)
    x = grid.x
    path = tmp_path / "u0.csv"
    path.write_text("s,u\n" + "".join(f"{s!r},{u!r}\n" for s, u in
                                        zip(grid.s.tolist(), (x**3 * np.exp(-x)).tolist())))
    got = config.initial_profile(config.ExperimentConfig({"output": {"u0_csv": str(path)}}), grid)
    want = config.initial_profile(config.ExperimentConfig(), grid)
    assert got.values.tobytes() == want.values.tobytes()


def _data_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]


def test_trajectory_csv_off_cadence_matches_api(tmp_path):
    # T = 0.07 with store_every = 2 stores steps 0, 2, 4, 6 and the final step 7
    cfg_path = write_config(tmp_path / "exp.ini", f"""
[grid]
n = 257
[solver]
dt = 1e-2
T = 0.07
store_every = 2
[output]
dir = {tmp_path / 'run'}
u0 = wave_shift
""")
    cfg = config.load(cfg_path)
    grid = gridmod.LogGrid(-12.0, 4.0, 257)
    u0 = config.initial_profile(cfg, grid)
    nm = cfg["norms"]
    times = [0.0, 0.02, 0.04, 0.06, 0.07]

    assert cli.main(["linear-evolve", "--config", cfg_path]) == 0
    state = evolution.run(resolvent.assemble(grid), u0, None, 1e-2, 0.07,
                          alpha=nm["alpha"], k=nm["k"], store_every=2)
    want = [[t, e["tilde_sq"], e["tilde_dk_sq"], *c]
            for t, e, c in zip(state.times, state.energy_log, state.coefficient_tracks)]
    assert _data_rows(tmp_path / "run" / "linear_trajectory.csv") == want
    assert state.times.tolist() == pytest.approx(times, abs=1e-12)

    assert cli.main(["nonlinear-evolve", "--config", cfg_path]) == 0
    state = nonlinear.run_nonlinear(u0, 1e-2, 0.07, alpha=nm["alpha"], norm_N=nm["N"],
                                    norm_k=nm["k"], delta=nm["delta"], store_every=2)
    steps = [int(round(t / 1e-2)) for t in state.times]
    assert steps == [0, 2, 4, 6, 7]
    want = [[t, norm, c[0], c[1], sup, y0, 0 if j == 0 else state.picard_counts[j - 1]]
            for t, norm, c, sup, y0, j in zip(
                state.times, state.init_norm_track, state.coefficient_tracks,
                state.lipschitz_track, state.contact_line_track, steps)]
    assert _data_rows(tmp_path / "run" / "nonlinear_trajectory.csv") == want


def test_validate_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["validate", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["checks"]["traveling_wave_order"]["pass"]


def _sweep_config(tmp_path, u0="x3_decay", T=None):
    return write_config(tmp_path / "exp.ini", f"""
[grid]
n = 257
[solver]
T = {0.08 if T is None else T}
[output]
dir = {tmp_path / 'run'}
u0 = {u0}
""")


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_sweep_command(tmp_path, capsys, monkeypatch):
    cfg_path = _sweep_config(tmp_path)
    fits = []
    leading_coefficients = evolution.leading_coefficients

    def counted(u):
        fits.append(u)
        return leading_coefficients(u)

    monkeypatch.setattr(evolution, "leading_coefficients", counted)
    assert cli.main(["sweep", "--param", "dt", "--values", "2e-2,1e-2,5e-3",
                     "--config", cfg_path]) == 0
    assert len(fits) == 6  # t = 0 and t = T of each of the three runs
    monkeypatch.undo()
    results = _strict_json(tmp_path / "run" / "sweep_summary.json")["results"]
    orders = results["richardson_orders"]
    assert len(orders) == 1
    assert 0.7 <= orders[0] <= 1.3  # backward Euler is first order

    # the summary is the one every stored step would give, bit for bit
    cfg = config.load(cfg_path)
    grid = gridmod.LogGrid(-12.0, 4.0, 257)
    u0, op = config.initial_profile(cfg, grid), resolvent.assemble(grid)
    finals = [evolution.run(op, u0, None, dt, 0.08, store_every=1).final().values
              for dt in (2e-2, 1e-2, 5e-3)]
    diffs = [float(np.max(np.abs(a - b))) for a, b in zip(finals, finals[1:])]
    assert results["final_state_diffs"] == diffs
    assert orders == [float(np.log2(diffs[0] / diffs[1]))]
    assert "energy flags" not in capsys.readouterr().err


def test_sweep_summary_is_strict_json_when_finals_coincide(tmp_path, capsys):
    assert cli.main(["sweep", "--param", "dt", "--values", "2e-2,1e-2,5e-3",
                     "--config", _sweep_config(tmp_path, u0="zero")]) == 0
    results = _strict_json(tmp_path / "run" / "sweep_summary.json")["results"]
    assert results["final_state_diffs"] == [0.0, 0.0]
    assert results["richardson_orders"] == [None]
    assert json.loads(capsys.readouterr().out)["richardson_orders"] == [None]


def test_sweep_reports_energy_flags(tmp_path, capsys, monkeypatch):
    energies = itertools.count(1.0)  # rises at every step
    monkeypatch.setattr(evolution, "tilde_energies", lambda u, alpha, k: (next(energies), 0.0))
    assert cli.main(["sweep", "--param", "dt", "--values", "2e-2,1e-2,4e-2",
                     "--config", _sweep_config(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["completed with 4 energy flags at dt=0.02",
                   "completed with 8 energy flags at dt=0.01",
                   "completed with 2 energy flags at dt=0.04"]


@pytest.mark.parametrize("values, T, message", [  # T None: the default 0.08
    ("2e-2,abc,5e-3", None, "--values must be comma-separated numbers"),
    ("2e-2,,5e-3", None, "--values must be comma-separated numbers"),
    ("2e-2,nan,5e-3", None, "--values must be positive time steps"),
    ("2e-2,0,5e-3", None, "--values must be positive time steps"),
    ("1e-2,5e-3,5e-324", None, "config key '--values': too many steps"),
    ("2e-2,1e-2,3e-2", None, "config key 'solver.T': T must be an integer number of steps"),
])
def test_sweep_rejects_bad_input(tmp_path, capsys, values, T, message):
    assert cli.main(["sweep", "--param", "dt", "--values", values,
                     "--config", _sweep_config(tmp_path, T=T)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_sweep_checks_steps_of_its_values_not_solver_dt(tmp_path, capsys):
    # T = 0.075 is 7.5 steps of the default solver.dt, which a sweep never runs,
    # and 3, 5 and 15 steps of the swept values
    assert cli.main(["sweep", "--param", "dt", "--values", "2.5e-2,1.5e-2,5e-3",
                     "--config", _sweep_config(tmp_path, T=0.075)]) == 0
    assert (tmp_path / "run" / "sweep_summary.json").exists()
    assert "error" not in capsys.readouterr().err


def test_config_defaults_and_validation():
    cfg = config.ExperimentConfig()
    assert cfg["grid"]["n"] == 1025
    assert cfg.content_hash() == config.ExperimentConfig().content_hash()
    with pytest.raises(ConfigError):
        config.ExperimentConfig({"norms": {"delta": 0.7}})
    with pytest.raises(ConfigError):
        config.ExperimentConfig({"output": {"u0": "mystery"}})
