"""No module under src/privlens writes a file except through `data_io.publish`,
which writes a temporary file and renames it over the old one: a plain
write killed midway leaves a truncated file in place of the last good one."""

import ast
from fnmatch import fnmatch
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


# The writers, and where a call to one may stand: a module and a pattern of
# the dotted scope around the call. Every other output leaves through
# `cli._commit`, directly or in a lambda it is handed as an output.
WRITERS = {"publish", "write_json", "write_csv", "write_manifest", "write_privacy_store",
           "save_model"}
WRITER_PLACES = (("data_io.py", "write_*"), ("data_io.py", "StoreCache.save"),
                 ("classifiers.py", "save_model"), ("extractors.py", "_write_segment"),
                 ("cli.py", "_commit"), ("cli.py", "*<lambda>"))


def writer_calls_out_of_place(package: Path) -> list[str]:
    """`module:line: writer (in scope)` for each call to one of `WRITERS`
    outside `WRITER_PLACES`."""
    found = []

    def visit(node, module: str, scope: tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Lambda):
                inner = (*scope, "<lambda>")
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                enclosing = [".".join(scope[:k]) for k in range(1, len(scope) + 1)]
                if name in WRITERS and not any(
                        module == m and any(fnmatch(s, pattern) for s in enclosing)
                        for m, pattern in WRITER_PLACES):
                    found.append(f"{module}:{child.lineno}: {name} "
                                 f"(in {'.'.join(scope) or 'the module'})")
            visit(child, module, inner)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text("utf-8"), str(path)), path.name, ())
    return found


def test_outputs_are_written_only_at_the_commit_point():
    assert writer_calls_out_of_place(PACKAGE) == []


def test_the_rule_sees_each_writer_out_of_place(tmp_path):
    (tmp_path / "cli.py").write_text(
        "from . import analysis\n"
        "def _commit(cfg, outputs):\n"
        "    write_manifest(cfg.out_dir / 'm.csv', cfg.manifest)\n"
        "    for name, write in outputs.items(): write(cfg.out_dir / name)\n"
        "def cmd_train(cfg, model):\n"
        "    _commit(cfg, {'model.json': lambda path: save_model(model, path)})\n"
        "    analysis.write_json(cfg.out_dir / 'log.json', {})\n"
        "    def later(path):\n"
        "        write_csv(path, [], [])\n"
        "publish('x', print)\n")
    (tmp_path / "data_io.py").write_text(
        "def write_csv(path, header, rows):\n"
        "    publish(path, lambda fh: fh.write(''))\n"
        "class StoreCache:\n"
        "    def save(self):\n"
        "        publish(self.root, lambda fh: None, binary=True)\n"
        "    def load(self, path):\n"
        "        publish(path, lambda fh: None)\n"
        "def load_manifest(path):\n"
        "    write_manifest(path, None)\n")
    (tmp_path / "classifiers.py").write_text(
        "def save_model(model, path):\n"
        "    write_json(path, {})\n"
        "def train(model, path):\n"
        "    save_model(model, path)\n")
    (tmp_path / "extractors.py").write_text(
        "def _write_segment(cache_dir, answers):\n"
        "    publish(cache_dir / 'a.json', lambda fh: fh.write(''))\n"
        "def run_extraction(ids, out_path):\n"
        "    store = None\n"
        "    (lambda path: write_privacy_store(path, store))(out_path)\n")
    assert writer_calls_out_of_place(tmp_path) == [
        "classifiers.py:4: save_model (in train)",
        "cli.py:7: write_json (in cmd_train)",
        "cli.py:9: write_csv (in cmd_train.later)",
        "cli.py:10: publish (in the module)",
        "data_io.py:7: publish (in StoreCache.load)",
        "data_io.py:9: write_manifest (in load_manifest)",
        "extractors.py:5: write_privacy_store (in run_extraction.<lambda>)",
    ]
