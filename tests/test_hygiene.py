"""Static checks on the package's names: every exported name resolves, no
module keeps an import that its code never uses, and every top-level
definition and every method serves a command, the acceptance suite or the
benchmark."""

import ast
import importlib
import pathlib

import pytest

import tminimax

PACKAGE = pathlib.Path(tminimax.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
REPO = pathlib.Path(__file__).resolve().parent.parent


def _tree(name):
    return ast.parse((PACKAGE / f"{name}.py").read_text())


def _imported(tree):
    """The names bound by the module-level imports of a module (not
    ``__future__``), each with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _referenced(tree):
    """Every name the module's code reads, in code or in a quoted
    annotation, and every name its ``__all__`` exports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "ArmId"
                names.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                             if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"tminimax.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"tminimax.{name}.__all__ names undefined {missing}"


def test_package_imports_resolve():
    missing = [n for n in _imported(ast.parse((PACKAGE / "__init__.py").read_text()))
               if not hasattr(tminimax, n)]
    assert not missing, f"tminimax does not define {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_module_imports(name):
    tree = _tree(name)
    used = _referenced(tree)
    unused = {n: line for n, line in _imported(tree).items() if n not in used}
    assert not unused, f"tminimax/{name}.py imports names it never uses: {unused}"


def _reads(node):
    """``_referenced`` plus the attributes read and the names imported, so
    ``core.observe`` and ``from .core import observe`` both read
    ``observe``."""
    names = _referenced(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.asname or n.name.rpartition(".")[2])
    return names


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(module, qualified name) -> the names its code reads, for every
    top-level function, class and assignment of the package except dunders,
    and for every method and property of a top-level class except dunders,
    as ``Class.method``.  A class reads what its body and its dunder
    methods read; each other method is a definition of its own."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                methods = [n for n in node.body if isinstance(n, ast.FunctionDef)
                           and not _dunder(n.name)]
                for method in methods:
                    defs[path.stem, f"{node.name}.{method.name}"] = _reads(method)
                body = [n for n in node.body if n not in methods]
                names = {node.name: set().union(*map(_reads, [*node.decorator_list,
                                                              *node.bases, *body]))}
            elif isinstance(node, ast.FunctionDef):
                names = {node.name: _reads(node)}
            elif isinstance(node, ast.Assign):
                names = {t.id: _reads(node) for t in node.targets if isinstance(t, ast.Name)}
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = {node.target.id: _reads(node)}
            else:
                continue
            for name, reads in names.items():
                if not _dunder(name):
                    defs[path.stem, name] = reads
    return defs


def test_the_walk_yields_methods():
    defs = _definitions()
    assert ("core", "PotentialOutcomeSchedule.matrix") in defs
    assert "_adopt" in defs["core", "PotentialOutcomeSchedule"]  # read by __init__


def test_every_definition_is_reachable_from_a_root():
    # roots: the command line, the acceptance suite and the benchmark (its
    # span table names functions in strings); names match across modules,
    # and a method is reached when reachable code reads its bare name
    defs = _definitions()
    by_name = {}
    for (_, d), refs in defs.items():
        by_name.setdefault(d.rpartition(".")[2], []).append(refs)
    todo = ["main"]
    for path in [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").glob("*.py"))]:
        todo.extend(_reads(ast.parse(path.read_text())))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for refs in by_name.get(name, ()):
                todo.extend(refs)
    unreached = sorted(f"{m}.{d}" for m, d in defs if d.rpartition(".")[2] not in reached)
    assert not unreached, f"only unit tests use {unreached}"
