"""Static checks on the package's names: every exported name resolves, and
no module keeps an import that its code never uses."""

import ast
import importlib
import pathlib

import pytest

import tminimax

PACKAGE = pathlib.Path(tminimax.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


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
