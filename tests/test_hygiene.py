"""Static checks on the package's names: every exported name resolves, no
module keeps an import that its code never uses, and every top-level
definition serves a command, the acceptance suite or the benchmark."""

import ast
import importlib
import pathlib

import pytest

import tminimax

PACKAGE = pathlib.Path(tminimax.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
REPO = pathlib.Path(__file__).resolve().parent.parent

# The paper's two-pool variance formula: only unit tests read it today, and
# ROADMAP item 8 (exact risk for any schedule) decides whether it becomes a
# wrapper of that risk or goes.
UNREACHED_ON_PURPOSE = {"true_variances", "variance_components", "VarianceComponents"}


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


def _definitions():
    """(module, name) -> the names its code reads, for every top-level
    function, class and assignment of the package except dunders."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    defs[path.stem, name] = _reads(node)
    return defs


def test_every_definition_is_reachable_from_a_root():
    # roots: the command line, the acceptance suite and the benchmark (its
    # span table names functions in strings); names match across modules
    defs = _definitions()
    todo = ["main"]
    for path in [REPO / "tests" / "test_acceptance.py", *sorted((REPO / "perfbench").glob("*.py"))]:
        todo.extend(_reads(ast.parse(path.read_text())))
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for (_, d), refs in defs.items() if d == name for n in refs)
    unreached = sorted(f"{m}.{d}" for m, d in defs
                       if d not in reached and d not in UNREACHED_ON_PURPOSE)
    assert not unreached, f"only unit tests use {unreached}"
    assert UNREACHED_ON_PURPOSE <= {d for _, d in defs}
