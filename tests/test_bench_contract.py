"""Every name the benchmark traces must exist in the package.

perfbench/spans.py wraps the functions, methods and properties listed in its
TRACED table by name; a rename in the package would otherwise surface only
in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, attr, _ in spans.TRACED:
        module = importlib.import_module(f"thinfilm.{mod_name}")
        if "." in attr:
            cls_name, member = attr.split(".")
            cls = getattr(module, cls_name, None)
            found = cls is not None and member in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert not missing, f"traced names missing from thinfilm: {missing}"


def test_spans_see_the_runs():
    # the record functions and the guard are the names the spans trace, and a
    # run calls them: each records calls on a short nonlinear and a linear run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, _, _ in spans.TRACED:
        importlib.import_module(f"thinfilm.{mod_name}")
    from thinfilm import evolution, nonlinear, resolvent
    from thinfilm import grid as gridmod

    grid = gridmod.LogGrid(-12.0, 4.0, 129)
    x = grid.x
    u0 = gridmod.GridFunction(grid, 1e-3 * (3 * x * x + 2 * x) * np.exp(-x))
    tracer = spans.Tracer()
    tracer.install()
    try:
        _, first, last = tracer.run(lambda: (
            nonlinear.run_nonlinear(u0, 1e-2, 0.05),
            evolution.run(resolvent.assemble(grid), u0, None, 1e-2, 0.05)))
    finally:
        tracer.uninstall()
    calls = {name: count for name, (count, _, _) in tracer.summary(first, last).items()}
    for name in ("evolution.leading_coefficients", "evolution.tilde_energies",
                 "grid.composite_init_norm", "nonlinear.contact_line_shift",
                 "nonlinear.lipschitz_guard"):
        assert calls[name] > 0, f"{name} records no calls"
