"""The declared dependencies match what the code imports.

Every absolute import in ``src/repro`` names the standard library,
``repro`` itself, or a distribution ``pyproject.toml`` declares (a core
dependency or an extra). A distribution declared only as an extra is
optional, so it may be imported only inside a function: importing the
module that uses it must work without it.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest depends on tomli there
    import tomli as tomllib

ROOT = Path(__file__).resolve().parents[2]
SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))


def _names(requirements: list[str]) -> set[str]:
    """Import names of requirement strings (``scipy>=1`` -> ``scipy``)."""
    names = (re.split(r"[\s<>=!~\[;(]", r, maxsplit=1)[0] for r in requirements)
    return {name.lower().replace("-", "_") for name in names}


def _declared() -> tuple[set[str], set[str]]:
    """``(core, extras only)`` import names declared in ``pyproject.toml``."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    core = _names(project.get("dependencies", []))
    groups = project.get("optional-dependencies", {}).values()
    extras = set().union(*(_names(group) for group in groups))
    return core, extras - core


def _imports(path: Path):
    """``(top-level package, inside a function, line)`` of every absolute
    import in ``path``."""
    found = []

    def visit(node: ast.AST, in_function: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.append((alias.name.split(".")[0], in_function, node.lineno))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.module.split(".")[0], in_function, node.lineno))
        nested = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        for child in ast.iter_child_nodes(node):
            visit(child, nested)

    visit(ast.parse(path.read_text(), str(path)), False)
    return found


def test_every_import_is_declared():
    core, extras = _declared()
    known = set(sys.stdlib_module_names) | {"repro"} | core | extras
    undeclared = [
        f"{path.relative_to(ROOT)}:{line}: {package}"
        for path in SOURCES
        for package, _, line in _imports(path)
        if package not in known
    ]
    assert undeclared == []


def test_optional_dependencies_are_imported_inside_functions():
    _, extras = _declared()
    assert extras, "pyproject.toml declares no extra-only dependency"
    at_module_level = [
        f"{path.relative_to(ROOT)}:{line}: {package}"
        for path in SOURCES
        for package, in_function, line in _imports(path)
        if package in extras and not in_function
    ]
    assert at_module_level == []


def test_the_checks_see_function_level_imports():
    # setcover.fractional imports scipy inside the function that needs it
    imports = _imports(ROOT / "src" / "repro" / "setcover" / "fractional.py")
    assert ("scipy", True) in {(package, inside) for package, inside, _ in imports}
