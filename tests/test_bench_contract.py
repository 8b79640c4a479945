"""Every name the benchmark traces must exist in the package.

perfbench/spans.py wraps the functions, methods and properties listed in its
TRACED table by name; a rename in the package would otherwise surface only
in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

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
