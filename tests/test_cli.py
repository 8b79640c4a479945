import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thinfilm import cli, config, evolution, nonlinear, resolvent, validation
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

    # a right-hand side that does not vanish at the contact line: a validation failure
    csv.write_text("s,value\n" + "".join(f"{s!r},1.0\n" for s in g.s.tolist()))
    assert cli.main(["resolvent", "--lambda", "1.0", "--g", str(csv), "--config", cfg,
                     "--out", str(out_dir)]) == 2
    assert "does not vanish at the contact line" in capsys.readouterr().err


@pytest.mark.parametrize("n", [1025, 2049])
def test_resolvent_reports_the_tracked_coefficients(tmp_path, n):
    # the manufactured g of u = x^2 e^{-x} (c1, c2, c3 = 0, 1, -1) at lambda = 1, as in CI;
    # the left-band fit reported c3 = -1.017 and -0.660
    cfg = write_config(tmp_path / "exp.ini", f"[grid]\nn = {n}\n")
    g = gridmod.LogGrid(-12, 4, n)
    x = g.x
    rhs = (x**5 - 10 * x**4 + 20 * x**3 + 6 * x**2 - 12 * x) * np.exp(-x) + x**2 * np.exp(-x)
    csv = tmp_path / "g.csv"
    csv.write_text("s,value\n" + "".join(f"{s!r},{v!r}\n" for s, v in zip(g.s.tolist(),
                                                                          rhs.tolist())))
    out_dir = tmp_path / "out"
    assert cli.main(["resolvent", "--lambda", "1", "--g", str(csv), "--config", cfg,
                     "--out", str(out_dir)]) == 0
    c1, c2, c3 = json.loads((out_dir / "resolvent_report.json").read_text())["results"][
        "coefficients"]
    assert c3 == pytest.approx(-1.0, abs=1e-3)
    sol = resolvent.solve(resolvent.assemble(g), 1.0, gridmod.GridFunction(g, rhs)).solution
    assert c1 == gridmod.extract_coefficients(sol, 1)[0]
    assert [c1, c2, c3] == evolution.leading_coefficients(sol.values, g).tolist()


def test_resolvent_on_a_window_too_short_for_a_fit_band_makes_no_output_directory(
        tmp_path, capsys):
    # on [-12, -5] the u3 band of leading_coefficients, s_min + 7..9.5, holds one node;
    # the command exited 2 naming the contact line and left an empty directory
    cfg = write_config(tmp_path / "exp.ini", "[grid]\ns_min = -12\ns_max = -5\nn = 129\n"
                                             f"[output]\ndir = {tmp_path / 'run'}\n")
    g = gridmod.LogGrid(-12, -5, 129)
    x = g.x
    rhs = (x**5 - 10 * x**4 + 20 * x**3 + 7 * x**2 - 12 * x) * np.exp(-x)
    csv = tmp_path / "g.csv"
    csv.write_text("s,value\n" + "".join(f"{s!r},{v!r}\n" for s, v in zip(g.s.tolist(),
                                                                          rhs.tolist())))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["resolvent", "--lambda", "1", "--g", str(csv), "--config", cfg]) == 2
    assert capsys.readouterr().err == ("error: fit band too coarse at -5 <= s <= -2.5 "
                                       "(1 of the 8 nodes a fit needs)\n")
    assert not (tmp_path / "run").exists()


def test_resolvent_with_an_incompatible_rhs_makes_no_output_directory(tmp_path, capsys,
                                                                      monkeypatch):
    # all ones on [-12, 4] does not vanish at the contact line: exit 2 before the
    # output directory is made and before the operator is assembled
    cfg = write_config(tmp_path / "exp.ini", "[grid]\nn = 129\n")
    csv = tmp_path / "g.csv"
    csv.write_text("s,value\n" + "".join(f"{s!r},1.0\n"
                                         for s in gridmod.LogGrid(-12.0, 4.0, 129).s.tolist()))
    monkeypatch.setattr(resolvent, "assemble", _never_called)
    assert cli.main(["resolvent", "--lambda", "1", "--g", str(csv), "--config", cfg,
                     "--out", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == ("error: right-hand side does not vanish at the "
                                       "contact line\n")
    assert not (tmp_path / "res").exists()


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
snapshots = 0.05, 0.1
""")
    assert cli.main(["linear-evolve", "--config", cfg]) == 0
    traj = (tmp_path / "run" / "linear_trajectory.csv").read_bytes()
    for t in ("0.05", "0.1"):
        snap = _data_rows(tmp_path / "run" / f"snapshot_t{t}.csv")
        assert [row[0] for row in snap] == gridmod.LogGrid(-12.0, 4.0, 257).s.tolist()
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
    # values that parse but fail validation
    ("[grid]\ns_min = 5\n", "grid.s_min"),
    ("[grid]\nn = 63\n", "grid.n"),
    ("[solver]\nstore_every = 0\n", "solver.store_every"),
    ("[norms]\nN = 3\n", "norms.N"),
    ("[norms]\nk = -1\n", "norms.k"),
    ("[nonlinear]\neps = -1e-3\n", "nonlinear.eps"),
])
def test_unparsable_config_is_a_config_error(tmp_path, capsys, text, key):
    path = write_config(tmp_path / "bad.ini", text)
    with pytest.raises(ConfigError) as exc:
        config.load(path)
    assert exc.value.key.endswith(key)
    assert cli.main(["linear-evolve", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key") and f"{key}'" in err


def test_n2_norms_are_a_config_error(tmp_path, capsys):
    # the N = 2 norms subtract the expansion up to x^5; the lab fits it only up to x^3
    path = write_config(tmp_path / "n2.ini",
                        f"[norms]\nN = 2\n[output]\ndir = {tmp_path / 'run'}\n")
    with pytest.raises(ConfigError, match=r"only up to x\^3") as exc:
        config.load(path)
    assert exc.value.key == "norms.N"
    assert cli.main(["nonlinear-evolve", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'norms.N': ") and "x^3" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text, key", [
    ("[solver]\nlambdas = 1.0\n", "solver.lambdas"),
    ("[run]\nseed = 0\n", "run"),  # the [run] section is gone altogether
    # the guard threshold, the Picard budget and the wave-shift taper are constants
    ("[nonlinear]\npicard_max = 5\n", "nonlinear.picard_max"),
    ("[nonlinear]\nlipschitz_threshold = 0.4\n", "nonlinear.lipschitz_threshold"),
    ("[nonlinear]\ntaper = none\n", "nonlinear.taper"),
])
def test_removed_config_keys_are_rejected(tmp_path, capsys, text, key):
    path = write_config(tmp_path / "old.ini", text)
    with pytest.raises(ConfigError) as exc:
        config.load(path)
    assert exc.value.key == key
    assert cli.main(["linear-evolve", "--config", path]) == 1
    assert f"'{key}'" in capsys.readouterr().err


_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,9}", fullmatch=True)
_LETTERS = st.from_regex(r"[a-z]{1,6}", fullmatch=True)  # no int; a float only if not finite
_UNPARSABLE = {int: st.sampled_from(["1.5", "1e3", "", "0x10"]) | _LETTERS,
               float: st.sampled_from(["", "1.0.0", "1,5", "--1"]) | _LETTERS,
               "floats": st.sampled_from(["1.0, 1.0.0", "2,--1"]) | _LETTERS}
# (section, key, values that parse but are rejected, the key the error names)
_OUT_OF_RANGE = [
    ("grid", "n", st.integers(-10, gridmod.SOLVER_MIN_NODES - 1), "grid.n"),
    ("grid", "s_min", st.floats(gridmod.RESOLVED_S_MIN, 1e6, exclude_min=True), "grid.s_min"),
    ("grid", "s_min", st.floats(-1e6, gridmod.S_MIN_LIMIT, exclude_max=True), "grid.s_min"),
    ("grid", "s_max", st.floats(-1e6, gridmod.DEFAULT_S_MIN), "grid.s_min"),
    ("grid", "s_max", st.floats(gridmod.S_MAX_LIMIT, 1e6, exclude_min=True), "grid.s_max"),
    ("solver", "dt", st.floats(-1e6, 0.0), "solver.dt"),
    ("solver", "T", st.floats(-1e6, 0.0), "solver.T"),
    ("solver", "store_every", st.integers(-10, 0), "solver.store_every"),
    ("norms", "N", st.integers(-10, 10).filter(lambda v: v not in (0, 1)), "norms.N"),
    ("norms", "k", st.integers(-10, -1), "norms.k"),
    ("norms", "delta", st.floats(-1.0, 0.0) | st.floats(0.5, 10.0), "norms.delta"),
    ("nonlinear", "eps", st.floats(-1.0, 0.0, exclude_max=True), "nonlinear.eps"),
    ("output", "u0", _NAME.filter(lambda v: v not in config._U0_PROFILES), "output.u0"),
]
_KEYS = [(sec, key) for sec, keys in config._SCHEMA.items() for key in keys]


@st.composite
def _malformed_ini(draw, out_dir, path):
    """(sections, the key its ConfigError names): a small valid run plus one defect."""
    kind = draw(st.sampled_from(["unknown section", "unknown key", "unparsable value",
                                 "out-of-range value", "duplicate key", "line without ="]))
    sections = {"grid": ["n = 129"], "solver": ["dt = 1e-2", "T = 2e-2"],
                "output": [f"dir = {out_dir}"]}
    if kind == "unknown section":
        name = draw(_NAME.filter(lambda v: v not in config._SCHEMA))
        sections[name] = draw(st.sampled_from([[], ["n = 129"]]))
        return sections, name
    if kind == "line without =":
        sec = draw(st.sampled_from(sorted(sections)))
        line = draw(st.from_regex(r"[a-z][a-z0-9_ .]{0,12}", fullmatch=True))
        sections[sec].insert(draw(st.integers(0, len(sections[sec]))), line)
        return sections, path
    if kind == "unknown key":
        sec = draw(st.sampled_from(sorted(config._SCHEMA)))
        key = draw(_NAME.filter(lambda v: v not in config._SCHEMA[sec]))
        line, want = f"{key} = 1", f"{sec}.{key}"
    elif kind == "unparsable value":
        sec, key = draw(st.sampled_from([k for k in _KEYS if config._SCHEMA[k[0]][k[1]][0] in
                                         _UNPARSABLE]))
        raw = draw(_UNPARSABLE[config._SCHEMA[sec][key][0]])
        line, want = f"{key} = {raw}", f"{sec}.{key}"
    elif kind == "out-of-range value":
        sec, key, values, want = draw(st.sampled_from(_OUT_OF_RANGE))
        line = f"{key} = {draw(values)}"
    else:  # duplicate key: configparser rejects the second copy before reading values
        sec, key = draw(st.sampled_from(_KEYS))
        line, want = f"{key} = 1", f"{sec}.{key}"
    # the defect is the only line of its key, apart from its own duplicate
    lines = [ln for ln in sections.get(sec, []) if not ln.startswith(f"{key} =")]
    if kind == "duplicate key":
        lines.append(line)
    lines.insert(draw(st.integers(0, len(lines))), line)
    sections[sec] = lines
    return sections, want


@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_malformed_config_is_a_config_error_without_traceback(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("malformed")
    path = str(root / "bad.ini")
    sections, want = data.draw(_malformed_ini(root / "out", path), label="sections, key")
    text = "".join(f"[{sec}]\n" + "".join(f"{ln}\n" for ln in lines)
                   for sec, lines in sections.items())
    with open(path, "w") as fh:
        fh.write(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = cli.main(["linear-evolve", "--config", path])
    err = err.getvalue()
    assert status == 1, err
    assert err.startswith(f"error: config key '{want}'"), err
    assert "Traceback" not in err
    assert not (root / "out").exists()  # no run started


@pytest.mark.parametrize("sec, key, values, want", _OUT_OF_RANGE,
                         ids=[f"{sec}.{key}-{i}" for i, (sec, key, _, _) in
                              enumerate(_OUT_OF_RANGE)])
@settings(max_examples=5, derandomize=True, deadline=None)
@given(data=st.data())
def test_every_out_of_range_value_is_a_config_error(tmp_path_factory, sec, key, values, want,
                                                    data):
    # each row of the table, which the mixed draws above reach only by chance
    root = tmp_path_factory.mktemp("range")
    sections = {"grid": {"n": "129"}, "solver": {"dt": "1e-2", "T": "2e-2"},
                "output": {"dir": str(root / "out")}}
    sections.setdefault(sec, {})[key] = str(data.draw(values, label=f"{sec}.{key}"))
    path = write_config(root / "bad.ini", "".join(
        f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
        for s, entries in sections.items()))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        assert cli.main(["linear-evolve", "--config", path]) == 1
    assert err.getvalue().startswith(f"error: config key '{want}'"), err.getvalue()
    assert not (root / "out").exists()


_FIELD_GRID = gridmod.LogGrid(-12.0, 4.0, 65)
_FIELD_S = _FIELD_GRID.s.tolist()  # python floats: the repr of a numpy float is not a number
_NONUNIFORM = (_FIELD_GRID.s + 0.1 * _FIELD_GRID.h * (np.arange(65) == 5)).tolist()
_BAD_FIELDS = {  # CSV text (None: a missing file), the error read without and with a grid
    "missing file": (None, "cannot read", "cannot read"),
    "no data rows": ("s,value\n", "no data rows", "no data rows"),
    "unparsable cell": ("s,value\n" + "".join(f"{s!r},abc\n" for s in _FIELD_S),
                        "cannot read", "cannot read"),
    "single column": ("s\n" + "".join(f"{s!r}\n" for s in _FIELD_S),
                      "two columns", "two columns"),
    "fewer than 16 rows": ("s,value\n" + "".join(f"{s!r},0.0\n" for s in
                                                 np.linspace(-12, 4, 8).tolist()),
                           "at least 16 nodes", "do not match"),
    "non-uniform s": ("s,value\n" + "".join(f"{s!r},0.0\n" for s in _NONUNIFORM),
                      "not uniform", "do not match"),
    "s off the grid": ("s,value\n" + "".join(f"{s!r},0.0\n" for s in
                                             np.linspace(-12, 4, 129).tolist()),
                       None, "do not match"),
    "non-finite value": ("s,value\n" + "".join(f"{s!r},nan\n" for s in _FIELD_S),
                         "finite", "finite"),
    "infinite s": ("s,value\n" + "".join(f"{s!r},0.0\n" for s in [-np.inf] + _FIELD_S[1:]),
                   "s_min and s_max must be finite", "do not match"),
}


# norms builds its grid from the s column, so no grid is there to miss
@pytest.mark.parametrize("source, case", [
    (source, case) for source in ("--csv", "--g", "output.u0_csv") for case in _BAD_FIELDS
    if (source, case) != ("--csv", "s off the grid")])
def test_bad_input_csv_is_a_config_error(tmp_path, capsys, recwarn, source, case):
    csv, out_dir = tmp_path / "field.csv", tmp_path / "out"
    text, no_grid_error, grid_error = _BAD_FIELDS[case]
    if text is not None:
        csv.write_text(text)
    cfg = write_config(tmp_path / "exp.ini", f"[grid]\nn = 65\n[output]\ndir = {out_dir}\n"
                       + (f"u0_csv = {csv}\n" if source == "output.u0_csv" else ""))
    argv = {"--csv": ["norms", "--csv", str(csv), "--spec", "0:0.25:0"],
            "--g": ["resolvent", "--lambda", "1.0", "--g", str(csv), "--config", cfg,
                    "--out", str(out_dir)],
            "output.u0_csv": ["linear-evolve", "--config", cfg]}[source]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"error: config key '{source}'" in err
    assert (no_grid_error if source == "--csv" else grid_error) in err
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
    state = nonlinear.run_nonlinear(u0, 1e-2, 0.07, norm_N=nm["N"], norm_k=nm["k"],
                                    delta=nm["delta"], store_every=2)
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


def _never_called(*args, **kwargs):
    raise AssertionError("the computation ran before the output path was checked")


@pytest.mark.parametrize("argv, patched, key", [
    (["linear-evolve", "--config", "{cfg}"], (evolution, "run"), "output.dir"),
    (["nonlinear-evolve", "--config", "{cfg}"], (nonlinear, "run_nonlinear"), "output.dir"),
    (["sweep", "--param", "dt", "--values", "1e-2,5e-3,2.5e-3", "--config", "{cfg}"],
     (evolution, "run"), "output.dir"),
    (["resolvent", "--lambda", "1", "--g", "{csv}", "--config", "{cfg}"], (resolvent, "solve"),
     "output.dir"),
    (["resolvent", "--lambda", "1", "--g", "{csv}", "--config", "{cfg}", "--out", "{blocker}/run"],
     (resolvent, "solve"), "--out"),
    (["validate", "--out", "{blocker}/r.json"], (validation, "tfe_residual"), "--out"),
], ids=["linear-evolve", "nonlinear-evolve", "sweep", "resolvent", "resolvent-out", "validate"])
def test_unwritable_output_path_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                      argv, patched, key):
    # a regular file: no directory can be made under it. Before, the run went to
    # its end and died in os.makedirs (or open) with a traceback
    blocker = tmp_path / "file"
    blocker.write_text("")
    csv = tmp_path / "g.csv"
    csv.write_text("s,value\n" + "".join(f"{s!r},0.0\n"
                                         for s in gridmod.LogGrid(-12.0, 4.0, 129).s.tolist()))
    cfg = write_config(tmp_path / "exp.ini", f"[grid]\nn = 129\n[solver]\nT = 2e-2\n"
                                             f"[output]\ndir = {blocker / 'run'}\n")
    monkeypatch.setattr(*patched, _never_called)
    assert cli.main([a.format(cfg=cfg, csv=csv, blocker=blocker) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{key}': cannot create directory ")
    assert err.count("\n") == 1


def test_validate_out_that_is_a_directory_fails_before_the_run(tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.setattr(validation, "tfe_residual", _never_called)
    assert cli.main(["validate", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key '--out': ") and err.count("\n") == 1
    assert "is a directory" in err


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
    fits = []  # stack heights of the coefficient fits
    leading_coefficients = evolution.leading_coefficients

    def counted(values, grid):
        fits.append(len(values))
        return leading_coefficients(values, grid)

    monkeypatch.setattr(evolution, "leading_coefficients", counted)
    assert cli.main(["sweep", "--param", "dt", "--values", "2e-2,1e-2,5e-3",
                     "--config", cfg_path]) == 0
    # t = 0 in the start before the output directory, then t = 0 and t = T of each run
    assert fits == [1] * 7
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
    energies = itertools.count(1.0)  # rises at every step, one stack of steps per call
    monkeypatch.setattr(evolution, "tilde_energies", lambda values, grid, alpha, k:
                        np.array([[next(energies)] * 2 for _ in values]))
    assert cli.main(["sweep", "--param", "dt", "--values", "2e-2,1e-2,4e-2",
                     "--config", _sweep_config(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["completed with 4 energy flags at dt=0.02",
                   "completed with 8 energy flags at dt=0.01",
                   "completed with 2 energy flags at dt=0.04"]


@pytest.mark.parametrize("command", ["linear-evolve", "sweep"])
def test_linear_commands_reject_an_overflowing_energy_weight(tmp_path, capsys, command):
    # [norms] alpha = 40 at n = 129: the t = 0 energies overflow. Both commands wrote
    # NaN energies (or flagged nothing) and exited 0 after numpy warnings
    cfg = write_config(tmp_path / "exp.ini", f"""
[grid]
n = 129
[solver]
dt = 1e-2
T = 2e-2
[norms]
alpha = 40
[output]
dir = {tmp_path / 'run'}
""")
    argv = [command, "--config", cfg]
    if command == "sweep":
        argv += ["--param", "dt", "--values", "1e-2,5e-3,2.5e-3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'norms.alpha': ")
    assert "alpha = 40.0, k = 3" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["linear-evolve", "nonlinear-evolve", "sweep"])
@pytest.mark.parametrize("line, key", [("s_max = 800", "grid.s_max"),
                                       ("s_min = -800", "grid.s_min")])
def test_commands_reject_a_window_whose_tables_overflow(tmp_path, capsys, command, line, key):
    # both windows exited 2 after numpy overflow warnings
    cfg = write_config(tmp_path / "exp.ini", f"""
[grid]
{line}
n = 4097
[solver]
dt = 1e-2
T = 2e-2
[output]
dir = {tmp_path / 'run'}
""")
    argv = [command, "--config", cfg]
    if command == "sweep":
        argv += ["--param", "dt", "--values", "1e-2,5e-3,2.5e-3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: config key '{key}': ")
    assert not (tmp_path / "run").exists()


_COARSE_WINDOW = "[grid]\ns_min = -140\ns_max = 140\nn = 64\n"  # h = 4.4: one fit-band node


@pytest.mark.parametrize("command, sections, u0, code, message", [
    # the 305 s-derivatives of the initial-data norm at k = 300 overflow on [-12, 4]
    ("nonlinear-evolve", "[grid]\nn = 257\n[norms]\nk = 300\n", "x3_decay", 2,
     "error: the initial-data norm (N = 1, k = 300, delta = 0.25) is not finite on this grid"),
    ("linear-evolve", _COARSE_WINDOW, "x3_decay", 2,
     "error: fit band too coarse near the contact line"),
    ("sweep", _COARSE_WINDOW, "x3_decay", 2, "error: fit band too coarse near the contact line"),
    ("nonlinear-evolve", "[grid]\nn = 257\n[nonlinear]\neps = 1.0\n", "wave_shift", 3,
     "numerical guard: Lipschitz guard tripped on the initial data: sup |v_x| = 1.0000 "
     "is not below 0.5"),
], ids=["init-norm-overflow", "linear-coarse-fit", "sweep-coarse-fit", "initial-guard"])
def test_a_t0_failure_makes_no_output_directory(tmp_path, capsys, monkeypatch, command,
                                               sections, u0, code, message):
    # each exited the same way after making an empty output directory: the t = 0
    # start (evolution.start) now runs before it, and before any factorization
    cfg = write_config(tmp_path / "exp.ini", sections + f"""[solver]
dt = 1e-2
T = 2e-2
[output]
dir = {tmp_path / 'run'}
u0 = {u0}
""")

    def no_factorization(*args):
        raise AssertionError("a factorization was built before the t = 0 start")

    monkeypatch.setattr(resolvent.Factorization, "__init__", no_factorization)
    argv = [command, "--config", cfg]
    if command == "sweep":
        argv += ["--param", "dt", "--values", "1e-2,5e-3,2.5e-3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == code
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("grid_lines", [f"s_min = {gridmod.S_MIN_LIMIT!r}",
                                        f"s_max = {gridmod.S_MAX_LIMIT!r}"])
@pytest.mark.parametrize("u0", sorted(config._U0_PROFILES))
def test_linear_evolve_at_the_window_limits_writes_finite_records(tmp_path, grid_lines, u0):
    cfg = write_config(tmp_path / "exp.ini", f"""
[grid]
{grid_lines}
n = 4097
[solver]
dt = 1e-2
T = 2e-2
[output]
dir = {tmp_path / 'run'}
u0 = {u0}
""")
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error")
        assert cli.main(["linear-evolve", "--config", cfg]) == 0
    rows = np.array(_data_rows(tmp_path / "run" / "linear_trajectory.csv"))
    assert rows.shape == (3, 6) and np.isfinite(rows).all()


def test_sweep_checks_energy_at_the_configured_weight(tmp_path, monkeypatch):
    cfg = _sweep_config(tmp_path)
    with open(cfg, "a") as fh:
        fh.write("[norms]\nalpha = 0.75\n")
    weights = set()  # (alpha, k): k = 0 for the flags' checks, norms.k for the records
    tilde_energies = evolution.tilde_energies

    def recorded(values, grid, alpha, k):
        weights.add((alpha, k))
        return tilde_energies(values, grid, alpha, k)

    monkeypatch.setattr(evolution, "tilde_energies", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--param", "dt", "--values", "2e-2,1e-2,4e-2",
                         "--config", cfg]) == 0
    # the energy flags were checked at 0.25 whatever the config said
    assert weights == {(0.75, 0), (0.75, 3)}


@pytest.mark.parametrize("values, T, message", [  # T None: the default 0.08
    ("2e-2,abc,5e-3", None, "config key '--values': not comma-separated numbers"),
    ("2e-2,,5e-3", None, "config key '--values': not comma-separated numbers"),
    ("2e-2,nan,5e-3", None, "config key '--values': not positive time steps"),
    ("2e-2,0,5e-3", None, "config key '--values': not positive time steps"),
    ("1e-2,5e-3,5e-324", None, "config key '--values': too many steps"),
    ("2e-2,1e-2,3e-2", None, "config key 'solver.T': T must be an integer number of steps"),
])
def test_sweep_rejects_bad_input(tmp_path, capsys, values, T, message):
    assert cli.main(["sweep", "--param", "dt", "--values", values,
                     "--config", _sweep_config(tmp_path, T=T)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, key", [
    (["sweep", "--param", "eps", "--values", "1e-2,5e-3,2.5e-3"], "--param"),
    (["sweep", "--param", "dt", "--values", "1e-2,5e-3"], "--values"),
    (["norms", "--spec", "a:b:c"], "--spec"),
    (["norms", "--spec", "0:nan:0"], "--spec"),  # printed NaN and exited 0
    (["norms", "--spec", "0:inf:0"], "--spec"),
    # lambda is checked before --g is read, so this field's grid is never compared
    (["resolvent", "--lambda", "-1"], "--lambda"),  # exited 2 with no key named
    (["resolvent", "--lambda", "0"], "--lambda"),
    (["resolvent", "--lambda", "nan"], "--lambda"),
    (["resolvent", "--lambda", "inf"], "--lambda"),
], ids=["--param", "--values", "--spec", "--spec-nan", "--spec-inf", "--lambda-neg",
        "--lambda-zero", "--lambda-nan", "--lambda-inf"])
def test_flag_errors_are_config_errors(tmp_path, capsys, argv, key):
    # main is the only place that prints an error
    csv = tmp_path / "field.csv"
    csv.write_text("s,value\n" + "".join(f"{s!r},0.0\n" for s in _FIELD_GRID.s.tolist()))
    cfg = ["--config", _sweep_config(tmp_path)]
    extra = {"norms": ["--csv", str(csv)], "resolvent": ["--g", str(csv)] + cfg}
    assert cli.main(argv + extra.get(argv[0], cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config key '{key}': ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("s_min, spec", [
    (-12.0, "300:0.25:0"),  # printed NaN after RuntimeWarnings and exited 0
    (-12.0, "0:400:0"),
    (-5.0, "0:0.25:1"),  # the fit's unresolved-grid error exited 2 with no key named
], ids=["overflow-k", "overflow-alpha", "unresolved-fit"])
def test_norm_errors_are_keyed_to_spec(tmp_path, capsys, s_min, spec):
    s = np.linspace(s_min, 4.0, 257)
    x = np.exp(s)
    csv = tmp_path / "field.csv"
    csv.write_text("s,value\n" + "".join(f"{a!r},{b!r}\n"
                                         for a, b in zip(s.tolist(), (x * np.exp(-x)).tolist())))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["norms", "--csv", str(csv), "--spec", spec]) == 1
    assert caught == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: config key '--spec': bad norm spec '{spec}': ")
    assert err.count("\n") == 1


def test_sweep_checks_steps_of_its_values_not_solver_dt(tmp_path, capsys):
    # T = 0.075 is 7.5 steps of the default solver.dt, which a sweep never runs,
    # and 3, 5 and 15 steps of the swept values
    assert cli.main(["sweep", "--param", "dt", "--values", "2.5e-2,1.5e-2,5e-3",
                     "--config", _sweep_config(tmp_path, T=0.075)]) == 0
    assert (tmp_path / "run" / "sweep_summary.json").exists()
    assert "error" not in capsys.readouterr().err


_IMPORT_SET_SCRIPT = """
import json
import sys
import warnings
import numpy as np
from thinfilm import cli, nonlinear
from thinfilm import grid as gridmod
status = cli.main(["sweep", "--param", "dt", "--values", "1e-2,5e-3,2.5e-3",
                   "--config", sys.argv[1]])
after_sweep = "scipy.interpolate" in sys.modules
nl_status = cli.main(["nonlinear-evolve", "--config", sys.argv[2]])
after_evolve = "scipy.interpolate" in sys.modules
g = gridmod.LogGrid(-12.0, 4.0, 129)
u = gridmod.GridFunction(g, 1e-3 * (3 * g.x * g.x + 2 * g.x) * np.exp(-g.x))
film = nonlinear.reconstruct(u, 0.0, np.linspace(0.0, 5.0, 11))
print(json.dumps({"status": [status, nl_status], "after_sweep": after_sweep,
                  "after_evolve": after_evolve,
                  "after_film": "scipy.interpolate" in sys.modules,
                  "finite": bool(np.all(np.isfinite(film.h)))}))
"""


def test_no_command_loads_scipy_interpolate(tmp_path):
    # a fresh interpreter: the test modules themselves import scipy.interpolate
    cfg = write_config(tmp_path / "exp.ini", f"[grid]\nn = 129\n[solver]\nT = 1e-2\n"
                                             f"[output]\ndir = {tmp_path / 'run'}\n")
    nl_cfg = write_config(tmp_path / "nl.ini", f"[grid]\nn = 129\n[solver]\ndt = 1e-2\n"
                                               f"T = 2e-2\n[output]\ndir = {tmp_path / 'nl'}\n"
                                               f"u0 = wave_shift\nsnapshots = 0.02\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", _IMPORT_SET_SCRIPT, cfg, nl_cfg], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got == {"status": [0, 0], "after_sweep": False, "after_evolve": False,
                   "after_film": False, "finite": True}
    assert (tmp_path / "run" / "sweep_summary.json").exists()
    assert (tmp_path / "nl" / "film_t0.02.csv").exists()


@pytest.mark.parametrize("command, snapshots", [
    ("nonlinear-evolve", "-5, 0.02, 100"),  # wrote film_t0 and film_t0.02 twice, exit 0
    ("nonlinear-evolve", "-1e-9"),
    ("linear-evolve", "7"),  # wrote snapshot_t0.02, exit 0
    ("linear-evolve", "0, 0.020000001"),
])
def test_snapshot_times_outside_the_run_are_config_errors(tmp_path, capsys, command, snapshots):
    cfg = write_config(tmp_path / "exp.ini", f"[grid]\nn = 129\n[solver]\ndt = 1e-2\n"
                                             f"T = 2e-2\n[output]\ndir = {tmp_path / 'run'}\n"
                                             f"u0 = wave_shift\nsnapshots = {snapshots}\n")
    assert cli.main([command, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'output.snapshots': ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def _snapshot_config(tmp_path, snapshots, store_every=1):
    return write_config(tmp_path / "exp.ini", f"[grid]\nn = 129\n[solver]\ndt = 1e-2\n"
                                              f"T = 5e-2\nstore_every = {store_every}\n"
                                              f"[output]\ndir = {tmp_path / 'run'}\n"
                                              f"u0 = wave_shift\nsnapshots = {snapshots}\n")


@pytest.mark.parametrize("command", ["nonlinear-evolve", "linear-evolve"])
@pytest.mark.parametrize("snapshots", ["0.02, 0.03", "0.05, 0.04", "0.015"])
def test_snapshot_times_off_the_stored_steps_are_config_errors(tmp_path, capsys, command,
                                                               snapshots):
    # steps 0 and 5 are stored; 0.02, 0.03 wrote film_t0 and film_t0.05, exit 0
    assert cli.main([command, "--config", _snapshot_config(tmp_path, snapshots, 5)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config key 'output.snapshots': ") and err.count("\n") == 1
    assert "store_every=5" in err
    assert not (tmp_path / "run").exists()


def test_snapshots_near_stored_steps_are_written(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["nonlinear-evolve", "--config",
                         _snapshot_config(tmp_path, "0, 0.049", 5)]) == 0
    assert sorted(os.listdir(tmp_path / "run")) == ["film_t0.05.csv", "film_t0.csv",
                                                    "nonlinear_trajectory.csv"]


def test_each_snapshot_step_is_reconstructed_once(tmp_path, monkeypatch):
    films = []
    reconstruct = nonlinear.reconstruct

    def counted(u, t, y):
        films.append(t)
        return reconstruct(u, t, y)

    monkeypatch.setattr(nonlinear, "reconstruct", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["nonlinear-evolve", "--config",
                         _snapshot_config(tmp_path, "0.011, 0.012, 0.03, 0.009")]) == 0
    assert films == [0.01, 0.03]  # 0.011, 0.012 and 0.009 all pick step 1: one film
    assert sorted(os.listdir(tmp_path / "run")) == ["film_t0.01.csv", "film_t0.03.csv",
                                                    "nonlinear_trajectory.csv"]


@pytest.mark.parametrize("name, want", [  # want(s, x), x = e^s; eps defaults to 1e-3
    ("x3_decay", lambda s, x: x**3 * np.exp(-x)),
    ("kernel_x", lambda s, x: np.exp(s)),
    ("kernel_x2", lambda s, x: np.exp(2.0 * s)),
    ("wave_shift", lambda s, x: 1e-3 * (3 * x * x + 2 * x) * np.exp(-x)),
    ("zero", lambda s, x: np.zeros_like(s)),
])
def test_u0_profiles(name, want):
    grid = gridmod.LogGrid(-12.0, 4.0, 65)
    u0 = config.initial_profile(config.ExperimentConfig({"output": {"u0": name}}), grid)
    assert u0.grid == grid
    assert u0.values.tobytes() == want(grid.s, np.exp(grid.s)).tobytes()


def test_config_defaults_and_validation():
    cfg = config.ExperimentConfig()
    assert cfg["grid"]["n"] == 1025
    assert cfg.content_hash() == config.ExperimentConfig().content_hash()
    with pytest.raises(ConfigError):
        config.ExperimentConfig({"norms": {"delta": 0.7}})
    with pytest.raises(ConfigError):
        config.ExperimentConfig({"output": {"u0": "mystery"}})


def test_config_load_rejects_a_missing_file():
    with pytest.raises(ConfigError, match="cannot read configuration file") as exc:
        config.load("/nonexistent.ini")
    assert exc.value.key == "/nonexistent.ini"
