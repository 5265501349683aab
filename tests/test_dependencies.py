"""The runtime dependencies that pyproject.toml declares are exactly the
packages outside the standard library that the modules under src/privlens
import, at module level or inside a function."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # the standard library has it from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_names(package: Path) -> set[str]:
    """The top-level name of every absolute import in the package's modules."""
    names = set()
    for module in package.rglob("*.py"):
        for node in ast.walk(ast.parse(module.read_text("utf-8"), str(module))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_runtime_dependencies_are_the_imported_packages():
    imported = imported_names(ROOT / "src" / "privlens") - set(sys.stdlib_module_names)
    project = tomllib.loads((ROOT / "pyproject.toml").read_text("utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", spec).group().lower()
                for spec in project["dependencies"]}
    assert imported - {"privlens"} == declared
