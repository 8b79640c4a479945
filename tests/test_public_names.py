"""Every public name of the package has a caller outside the tests.

An AST scan over the package, the benchmark scripts and the acceptance suite
counts the names that code uses: the ids of ``ast.Name`` loads and the attrs
of ``ast.Attribute`` nodes, plus the functions that ``perfbench/spans.py``
traces by name. Docstrings and comments do not count. A module-level public
name (a function, a class or an assigned constant) that none of them uses is
a test oracle that belongs in its test module, unless ``KEPT`` names why it
stays. A public method or property of a package class counts when an
``ast.Attribute`` load outside its own ``def`` reads its name, or the spans
trace it as ``Class.member``.
"""

import ast
import collections
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "thinfilm").glob("*.py"))
SCANNED = (PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])

# unreferenced public names that stay, each with its reason
KEPT = {
    "grid.composite_sol_norm": "ROADMAP item 3",
    "grid.composite_rhs_norm": "ROADMAP item 3",
}

# the package modules that each of these imports
IMPORT_EDGES = {
    "coercivity": {"polyops"},
    "elliptic": {"errors", "grid", "stencils"},
    "polyops": {"grid", "stencils"},
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _traced():
    """The traced attributes: module-level names and ``Class.member`` names."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {attr for _, attr, _ in spans.TRACED}


def _used_names():
    used = {attr for attr in _traced() if "." not in attr}
    for path in SCANNED:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_names(path):
    for node in _tree(path).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _attribute_loads(node):
    return collections.Counter(n.attr for n in ast.walk(node)
                               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def _public_methods(path):
    """(Class.member, its def) of each public method or property of a module-level class."""
    for cls in _tree(path).body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_")):
                    yield f"{cls.name}.{node.name}", node


def _package_imports(path):
    """The package modules that one module imports, from ``from . import m`` and
    ``from .m import name``."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names()
    unreferenced = {f"{path.stem}.{name}" for path in PACKAGE for name in _public_names(path)
                    if name not in used}
    assert unreferenced == set(KEPT), (
        f"unreferenced public names {sorted(unreferenced)}, KEPT {sorted(KEPT)}")


def test_every_public_method_has_a_caller_outside_the_tests():
    loads = sum((_attribute_loads(_tree(path)) for path in SCANNED), collections.Counter())
    traced = _traced()
    # a read inside the method's own def (a recursion) is no caller
    unreferenced = {f"{path.stem}.{name}" for path in PACKAGE
                    for name, node in _public_methods(path)
                    if name not in traced
                    and loads[node.name] == _attribute_loads(node)[node.name]}
    assert unreferenced == set(), f"unreferenced public methods {sorted(unreferenced)}"


def test_package_import_edges():
    modules = {path.stem: path for path in PACKAGE}
    got = {name: _package_imports(modules[name]) for name in IMPORT_EDGES}
    assert got == IMPORT_EDGES
