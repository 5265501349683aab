"""No module under src/privlens writes a file except through `data_io.publish`,
which writes a temporary file and renames it over the old one: a plain
write killed midway leaves a truncated file in place of the last good one."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privlens"
ALLOWED = ("data_io.py", "publish")  # module and function that may write


def _write_call(call: ast.Call) -> str | None:
    """What `call` does to a file, or None: an `open` in a write, append,
    create or update mode, a `write_text` or `write_bytes`, or an `os.replace`
    / `Path.replace` (one argument; `str.replace` takes two) or rename."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return name
    if name in ("replace", "rename"):
        on_os = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"
        if on_os or (len(call.args) == 1 and not call.keywords):
            return name
    if name == "open":
        # the mode is open(path, mode) or Path.open(mode)
        position = 1 if isinstance(func, ast.Name) else 0
        modes = call.args[position:position + 1] + [k.value for k in call.keywords
                                                    if k.arg == "mode"]
        if any(isinstance(m, ast.Constant) and isinstance(m.value, str)
               and set(m.value) & set("wax+") for m in modes):
            return "open for writing"
    return None


def writes_outside_publish(package: Path) -> list[str]:
    """`module:line: what (in function)` for each file write outside `publish`."""
    found = []

    def visit(node, module: str, function: str | None):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and function is None else function)
            if isinstance(child, ast.Call) and (what := _write_call(child)) is not None \
                    and (module, inner) != ALLOWED:
                found.append(f"{module}:{child.lineno}: {what} (in {inner})")
            visit(child, module, inner)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text("utf-8"), str(path)), path.name, None)
    return found


def test_every_file_is_written_by_publish():
    assert writes_outside_publish(PACKAGE) == []


def test_the_scan_sees_each_kind_of_write(tmp_path):
    (tmp_path / "cli.py").write_text(
        "import csv, dataclasses, os\n"
        "def _write_trace(path, trace):\n"
        "    with open(path, 'w', encoding='utf-8', newline='') as fh:\n"
        "        csv.writer(fh).writerows(trace)\n"
        "def other(path, tmp):\n"
        "    path.write_text('x'); path.write_bytes(b'x'); open(path, mode='ab')\n"
        "    os.replace(tmp, path); tmp.replace(path); path.open('r+')\n"
        "    open(path); open(path, 'rb'); 'a-b'.replace('-', '+')\n"
        "    dataclasses.replace(path, seed=1)\n")
    (tmp_path / "data_io.py").write_text(
        "import os\n"
        "def publish(path, write):\n"
        "    with open(path + '.tmp', 'w') as fh:\n"
        "        write(fh)\n"
        "    os.replace(path + '.tmp', path)\n")
    assert writes_outside_publish(tmp_path) == [
        "cli.py:3: open for writing (in _write_trace)",
        "cli.py:6: write_text (in other)", "cli.py:6: write_bytes (in other)",
        "cli.py:6: open for writing (in other)",
        "cli.py:7: replace (in other)", "cli.py:7: replace (in other)",
        "cli.py:7: open for writing (in other)",
    ]
