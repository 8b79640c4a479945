"""Every public name, method, record field and defaulted parameter of the
package has a reader outside the tests.

An AST scan over the package, the benchmark scripts and the acceptance suite
counts the names that code uses: the ids of ``ast.Name`` loads and the attrs
of ``ast.Attribute`` nodes, plus the functions that ``perfbench/spans.py``
traces by name. Docstrings and comments do not count. A module-level public
name (a function, a class or an assigned constant) that none of them uses is
a test oracle that belongs in its test module, unless ``KEPT`` names why it
stays. A public method or property of a package class counts when an
``ast.Attribute`` load outside its own ``def`` reads its name, or the spans
trace it as ``Class.member``; a load on a name that its file binds by
``import``, or on an attribute of one (``np.zeros``, ``np.linalg.norm``),
reads a module, not a method. A field of a package ``@dataclass`` counts when
such a load outside the record's ``__post_init__`` reads it. A defaulted
parameter of a package ``def`` counts when a call of that name passes it, by
position or by keyword; a constructor's call is its class name. The package
imports of every module are pinned, so a new edge shows in review.
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

# the package modules that each package module imports
IMPORT_EDGES = {
    "cli": {"coercivity", "config", "errors", "evolution", "grid", "nonlinear", "polyops",
            "resolvent", "validation"},
    "coercivity": {"polyops"},
    "config": {"errors", "grid"},
    "elliptic": {"errors", "grid", "stencils"},
    "errors": set(),
    "evolution": {"errors", "grid", "resolvent"},
    "grid": {"errors", "stencils"},
    "nonlinear": {"errors", "evolution", "grid", "resolvent", "stencils"},
    "polyops": {"grid", "stencils"},
    "resolvent": {"elliptic", "errors", "grid", "polyops", "stencils"},
    "stencils": {"errors"},
    "validation": set(),
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


def _imported(tree):
    """The names that a file binds by ``import`` and ``from ... import``."""
    return {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _attribute_loads(node, imported):
    """The attrs of the ``ast.Attribute`` loads under node, but for those on a name in
    ``imported`` or an attribute of one: ``np.zeros`` and ``np.linalg.norm`` read
    numpy, not a method."""
    return collections.Counter(
        n.attr for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        and not (isinstance(_root(n), ast.Name) and _root(n).id in imported))


def _scanned_loads():
    loads = collections.Counter()
    for path in SCANNED:
        tree = _tree(path)
        loads += _attribute_loads(tree, _imported(tree))
    return loads


def _classes(path):
    """(module-level class, the names its file imports) of one package module."""
    tree = _tree(path)
    imported = _imported(tree)
    return [(node, imported) for node in tree.body if isinstance(node, ast.ClassDef)]


def _public_methods(path):
    """(Class.member, its def, the file's imports) of each public method or property of a
    module-level class."""
    for cls, imported in _classes(path):
        for node in cls.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not node.name.startswith("_")):
                yield f"{cls.name}.{node.name}", node, imported


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def _dataclass_fields(path):
    """(Class.field, the class's ``__post_init__`` defs, the field's name, the file's
    imports) of each field of a module-level ``@dataclass``."""
    for cls, imported in _classes(path):
        if any(_is_dataclass(d) for d in cls.decorator_list):
            checks = [node for node in cls.body
                      if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield f"{cls.name}.{node.target.id}", checks, node.target.id, imported


def _defaulted_parameters(path):
    """(the name its calls use, param, its position in a call or None) of each
    defaulted parameter of a ``def`` in one package module; a method's position
    leaves out ``self``, and ``__init__`` is called by its class name."""
    tree = _tree(path)
    owner = {child: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for child in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(node)
        called = cls.name if cls is not None and node.name == "__init__" else node.name
        skip = 0 if cls is None else 1
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for i in range(first, len(positional)):
            yield called, positional[i].arg, i - skip
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield called, arg.arg, None


def _passed():
    """(called name, what a scanned call passes): each position and keyword, ``"*"``
    for a ``*args`` (any position) and ``"**"`` for a ``**kwargs`` (any keyword)."""
    passed = set()
    for path in SCANNED:
        for call in ast.walk(_tree(path)):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name):
                name = call.func.id
            elif isinstance(call.func, ast.Attribute):
                name = call.func.attr
            else:
                continue
            passed.update((name, "*" if isinstance(arg, ast.Starred) else i)
                          for i, arg in enumerate(call.args))
            passed.update((name, kw.arg or "**") for kw in call.keywords)
    return passed


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names()
    unreferenced = {f"{path.stem}.{name}" for path in PACKAGE for name in _public_names(path)
                    if name not in used}
    assert unreferenced == set(KEPT), (
        f"unreferenced public names {sorted(unreferenced)}, KEPT {sorted(KEPT)}")


def test_every_public_method_has_a_caller_outside_the_tests():
    loads = _scanned_loads()
    traced = _traced()
    # a read inside the method's own def (a recursion) is no caller
    unreferenced = {f"{path.stem}.{name}" for path in PACKAGE
                    for name, node, imported in _public_methods(path)
                    if name not in traced
                    and loads[node.name] == _attribute_loads(node, imported)[node.name]}
    assert unreferenced == set(), f"unreferenced public methods {sorted(unreferenced)}"


def test_every_record_field_has_a_reader_outside_the_tests():
    loads = _scanned_loads()
    # a read inside the record's own checks (its __post_init__) is no reader
    unread = {f"{path.stem}.{name}" for path in PACKAGE
              for name, checks, field, imported in _dataclass_fields(path)
              if loads[field] == sum((_attribute_loads(node, imported)[field]
                                      for node in checks), 0)}
    assert unread == set(), f"record fields no code outside the tests reads {sorted(unread)}"


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    passed = _passed()
    unset = set()
    for path in PACKAGE:
        for called, param, position in _defaulted_parameters(path):
            ways = [param, "**"] + ([] if position is None else [position, "*"])
            if not any((called, way) in passed for way in ways):
                unset.add(f"{path.stem}.{called}.{param}")
    assert unset == set(), f"defaulted parameters no code outside the tests passes {sorted(unset)}"


def _package_imports(path):
    """The package modules that one module imports, from ``from . import m`` and
    ``from .m import name``."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else (a.name for a in node.names))
    return found


def test_package_import_edges():
    modules = {path.stem: path for path in PACKAGE if path.stem != "__init__"}
    assert set(IMPORT_EDGES) == set(modules)
    got = {name: _package_imports(path) for name, path in modules.items()}
    assert got == IMPORT_EDGES
