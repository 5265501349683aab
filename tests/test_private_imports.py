"""No module under src/privlens imports an `_`-prefixed name from another
privlens module: what one module shares with the others is public."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privlens"


def private_imports(package: Path) -> list[str]:
    """`module: name` for each `_`-prefixed name, other than a dunder such as
    `__version__`, imported from a privlens module."""
    found = []
    for module in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(module.read_text("utf-8"), str(module))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or (node.module or "").split(".")[0] == "privlens"):
                found += [f"{module.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_private_name_is_imported_across_modules():
    assert private_imports(PACKAGE) == []


def test_the_scan_sees_a_private_import(tmp_path):
    (tmp_path / "a.py").write_text("from .b import _hidden, shown\nfrom privlens.c import _x\n")
    assert private_imports(tmp_path) == ["a.py: _hidden", "a.py: _x"]
