"""Benchmark of the thin-film lab: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload nonlinear_wave --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; the package is imported from ``src``
there. A run sets the workload up several times, then repeats its timed part
until ``--seconds`` have passed, checks the outputs of every repetition and
prints every metric by name and unit. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the machine-speed probe of ``speed.py`` runs throughout,
and ``wall_s``, ``work_per_s`` and ``setup_s`` are scaled to its reference
speed; the raw times are printed as well.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
untraced calls alternate with calls traced by the spans of ``spans.py``; the
metrics are the per-layer ones, and the spans are written to
``perfbench/out``. A ``--trace 0`` run never installs the spans.

Exit codes: 0 when every check passes, 1 when one fails, 2 when the package
is not there.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# The workloads are single-threaded Python; extra BLAS threads on a two-core
# machine could only add scheduler noise. Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# linear_sweep is defined with the sweep's default of one worker
os.environ.pop("THINFILM_WORKERS", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.npz"
SETUP_REPEATS = 5
# thinfilm.cli imports every module the workloads use except these two
PACKAGE_MODULES = ("thinfilm", "thinfilm.cli", "thinfilm.elliptic", "thinfilm.validation")


def import_package():
    """Import thinfilm from this checkout's ``src``; returns the seconds it took."""
    if not (SRC / "thinfilm" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'thinfilm'}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    for name in PACKAGE_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info():
    """Configuration and thread count of each OpenBLAS that numpy and scipy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in os.path.basename(line.split()[-1]).lower()})
    info = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        info[os.path.basename(path)] = "no OpenBLAS entry points"
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{prefix}_get_config{suffix}"):
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}")
                    get_config.restype = ctypes.c_char_p
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    get_threads.restype = ctypes.c_int
                    info[os.path.basename(path)] = {"config": get_config().decode(),
                                                    "threads": get_threads()}
    return info


def machine_info(loadavg):
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": loadavg,
        "git_commit": git_commit(),
    }


def digest(arrays):
    h = hashlib.sha256()
    for key in sorted(arrays):
        h.update(key.encode())
        h.update(arrays[key].astype("<f8").tobytes())
    return h.hexdigest()


def max_rel_drift(got, ref):
    """Largest max|got - ref| / max|ref| over the arrays of the reference."""
    import numpy as np

    worst = 0.0
    for key, want in ref.items():
        scale = float(np.max(np.abs(want))) or 1.0
        worst = max(worst, float(np.max(np.abs(got[key] - want))) / scale)
    return worst


class Gate:
    """Correctness gate: the outputs of every timed call are checked and counted."""

    def __init__(self, workload):
        import numpy as np

        self.workload = workload
        self.attempted = self.failed = 0
        self.failures = []
        self.info = self.sha256 = self.drift = None
        with np.load(REFERENCE, allow_pickle=False) as store:
            self.reference = workload.reference(store)
            self.reference_sha256 = (str(store[workload.reference_prefix() + "sha256"])
                                     if workload.amp == 1.0 else None)

    def check(self, out):
        failures, arrays, self.info = self.workload.check(out)
        self.sha256 = digest(arrays)
        reduced = self.workload.reduce(arrays)
        if set(reduced) != set(self.reference):
            failures.append("outputs do not match the arrays of the reference")
        else:
            self.drift = max_rel_drift(reduced, self.reference)
            if not self.drift <= self.workload.drift_tol:
                failures.append(f"drift {self.drift:.2e} from the reference above "
                                f"{self.workload.drift_tol:g}")
        self._count(failures)

    def error(self, exc):
        """A timed call raised: every operation in it counts as failed."""
        self._count([f"{type(exc).__name__}: {exc}"] * self.workload.ops)

    def _count(self, failures):
        self.attempted += self.workload.ops
        self.failed += min(len(failures), self.workload.ops)
        self.failures.extend(failures)

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "failures": sorted(set(self.failures)), "sha256": self.sha256,
                "sha256_equals_reference": (None if self.reference_sha256 is None
                                            else self.sha256 == self.reference_sha256),
                "max_rel_drift": self.drift, "drift_tol": self.workload.drift_tol,
                "checks": self.info}


def timed_loop(calls, seconds, gate, setup, speed):
    """Run ``setup`` and then each of ``calls`` in turn until ``seconds`` have passed.

    Returns the (raw, scaled) wall times of ``speed.elapsed`` for each call
    that did not raise, one list per entry of ``calls``. Set-ups are spread
    over the run as the timed calls are, because the machine's speed drifts
    over seconds. ``setup`` and the checks after each
    call are outside the timed intervals.
    """
    from thinfilm.errors import ThinFilmError

    walls = [[] for _ in calls]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while not rounds or time.perf_counter() < deadline:
        rounds += 1
        setup()
        for call, times in zip(calls, walls):
            mark = speed.mark()
            try:
                out = call()
            except ThinFilmError as exc:
                gate.error(exc)
                continue
            times.append(speed.elapsed(mark))
            gate.check(out)
    return walls


def metric(value, unit):
    return {"value": value, "unit": unit}


def spread(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def end_to_end_metrics(workload, walls, setups, gate):
    """Medians over the run of the scaled times."""
    wall = statistics.median(s for _, s in walls)
    return {
        "wall_s": metric(wall, "s"),
        "work_per_s": metric(workload.steps / wall, "1/s"),
        "setup_s": metric(statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_frac": metric((gate.attempted - gate.failed) / gate.attempted, "fraction"),
    }


def traced_call(tracer, workload, ranges):
    """The timed part with the spans installed for just this call."""

    def call():
        tracer.install()
        try:
            out, first, last = tracer.run(workload.timed)
        finally:
            tracer.uninstall()
        ranges.append((first, last))
        return out

    return call


def per_layer_metrics(tracer, ranges, walls, traced_walls, import_s, gate, steps):
    """Counts from the first traced repetition; self times are medians over all."""
    from spans import LAYERS

    runs = [tracer.summary(first, last) for first, last in ranges]
    calls = {name: count for name, (count, _, _) in runs[0].items()}
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = metric(calls[name], "count")
        out[f"{name}.self_s"] = metric(statistics.median(r[name][1] for r in runs), "s")
    applies = calls["stencils.apply_derivative"]
    # each application reads and writes n doubles; a computed figure
    out["stencils.apply_derivative.mb_computed"] = metric(
        16 * runs[0]["stencils.apply_derivative"][2] / 1e6, "MB")
    out["stencils.weights_per_apply"] = metric(
        calls["stencils.fd_weights"] / applies if applies else 0.0, "ratio")
    picard = gate.info.get("picard_iters", 0)
    out["nonlinear.picard_iters"] = metric(picard, "count")
    out["nonlinear.picard_per_step"] = metric(picard / steps if picard else 0.0, "ratio")
    builds = calls["resolvent.factor_build"]
    out["resolvent.solves_per_build"] = metric(
        calls["resolvent.factor_solve"] / builds if builds else 0.0, "ratio")
    out["import_s"] = metric(import_s, "s")
    # traced and untraced calls alternate, so each pair saw the same machine
    out["trace_overhead_frac"] = metric(
        statistics.median(t / u for t, u in zip(traced_walls, walls)) - 1.0, "fraction")
    repeat = all({k: v[0] for k, v in r.items()} == calls for r in runs)
    return out, runs, repeat


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")


def print_shares(runs, walls):
    """Self-time share of each layer, and of the time outside every traced call."""
    total = statistics.median(walls)
    print("self-time share of a traced call (median over calls):")
    medians = {name: statistics.median(r[name][1] for r in runs) for name in runs[0]}
    for name, value in sorted(medians.items(), key=lambda kv: -kv[1]):
        if value > 0:
            print(f"  {name:<42} {100 * value / total:6.2f} %")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    # nothing has loaded numpy or scipy yet, so import_s includes them
    import_s = import_package()
    from spans import Tracer
    from speed import SpeedProbe
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    info = machine_info(loadavg)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        setups = []
        # spans and probes would time each other, so a traced run has no probe
        with SpeedProbe(enabled=not args.trace) as speed:

            def setup():
                mark = speed.mark()
                workload.setup()
                setups.append(speed.elapsed(mark))

            for _ in range(SETUP_REPEATS - 1):
                setup()
            gate = Gate(workload)
            if args.trace:
                # untraced and traced calls alternate; the spans are in place
                # only during the traced ones
                tracer, ranges = Tracer(), []
                walls, traced_walls = timed_loop(
                    [workload.timed, traced_call(tracer, workload, ranges)], args.seconds, gate,
                    setup, speed)
            else:
                (walls,) = timed_loop([workload.timed], args.seconds, gate, setup, speed)
    result = gate.summary()
    if not walls or args.trace and not traced_walls:
        print(f"error: every timed call raised: {result['failures']}", file=sys.stderr)
        return 1
    metrics = end_to_end_metrics(workload, walls, setups, gate)

    print(f"workload {workload.name}, seed {args.seed}, input amplitude {workload.amp:g}, "
          f"{workload.steps} {workload.work_unit} per repetition")
    print("machine " + json.dumps(info, sort_keys=True))
    print("speed probe: " + speed.summary())
    for label, values in (("raw wall_s, untraced", walls), ("raw setup_s", setups)):
        med, q1, q3 = spread([r for r, _ in values])
        print(f"{label}: median {med:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
              f"{len(values)} samples")
    print("correctness " + json.dumps(result, sort_keys=True))
    print_metrics("end-to-end metrics" + (" (raw times; peak RSS includes the spans)"
                                          if args.trace else " (times at the reference speed)"),
                  metrics)
    if args.trace:
        traced_walls = [r for r, _ in traced_walls]
        walls = [r for r, _ in walls]
        med, q1, q3 = spread(traced_walls)
        print(f"wall_s, traced: median {med:.4f} s, quartiles {q1:.4f} / {q3:.4f} s, "
              f"{len(traced_walls)} samples")
        layers, runs, repeat = per_layer_metrics(tracer, ranges, walls, traced_walls,
                                                 import_s, gate, workload.steps)
        print_metrics("per-layer metrics", layers)
        print_shares(runs, traced_walls)
        if not repeat:
            print("note: call counts differ between traced repetitions")
        path = OUT / f"spans_{workload.name}_seed{args.seed}.json"
        tracer.dump(path)
        print(f"spans written to {path.relative_to(ROOT)}")
        metrics = layers
    correct = not result["failures"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
