"""`data_io.read_table` is the one loop over CSV rows under src/privlens, and
the one owner of the image-id rule: only it and the header-row helper call
`csv.reader`, and only it holds the "empty image_id" message or constructs
`DuplicateId`. A second loop, or a loader with its own id check, drifts from
it: the line numbers and the order of a row's checks would differ. It returns
the id-keyed table, so no loader iterates its result to build a table of its
own, and every call passes the loader's cell parser.

The cyclic garbage collector is paused in one place, `data_io._collector_paused`,
which leaves it as it found it; a bare `gc.disable` elsewhere could leave it
off for the rest of a run.

The stores are parsed in bulk in one place: only `data_io._parse_bulk` calls
`np.loadtxt`, and only `data_io._bulk`, the bulk path of every declared store
kind, calls `_parse_bulk`. A table with a bulk path of its own beside the
declared kinds would drift from their row scan and its rules."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privlens"
# what each rule finds -> the (module, function) pairs allowed to do it
ALLOWED = {
    "csv.reader": {("data_io.py", "read_table"), ("data_io.py", "_header_row")},
    "empty image_id": {("data_io.py", "read_table")},
    "DuplicateId": {("data_io.py", "read_table")},
    "loop over read_table": set(),
    "read_table without parse": set(),
    "gc.disable or gc.enable": {("data_io.py", "_collector_paused")},
    "np.loadtxt": {("data_io.py", "_parse_bulk")},
    "_parse_bulk": {("data_io.py", "_bulk")},
}


def _called(node) -> tuple[str | None, str | None]:
    """(name, owner) of the function `node` calls, (None, None) if it is no call."""
    if not isinstance(node, ast.Call):
        return None, None
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr, getattr(func.value, "id", None)
    return getattr(func, "id", None), None


def _found(node) -> str | None:
    """Which rule `node` falls under, or None: a call of `csv.reader` or
    `csv.DictReader`, a string holding "empty image_id", a call that
    constructs `DuplicateId`, a `for` or comprehension over a call of
    `read_table`, or a call of `read_table` with no parse function (third
    argument or `parse=`), a call of `gc.disable` or `gc.enable`, or a call
    of `np.loadtxt` or `_parse_bulk`."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return "empty image_id" if "empty image_id" in node.value else None
    if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
        return "loop over read_table" if _called(node.iter)[0] == "read_table" else None
    name, owner = _called(node)
    if owner == "csv" and name in ("reader", "DictReader"):
        return "csv.reader"
    if owner == "gc" and name in ("disable", "enable"):
        return "gc.disable or gc.enable"
    if owner in ("np", "numpy") and name == "loadtxt":
        return "np.loadtxt"
    if name == "_parse_bulk":
        return "_parse_bulk"
    if name == "read_table" and len(node.args) < 3 and all(k.arg != "parse"
                                                             for k in node.keywords):
        return "read_table without parse"
    return "DuplicateId" if name == "DuplicateId" else None


def breaches(package: Path) -> list[str]:
    """`module:line: rule (in function)` for each breach under `package`."""
    found = []

    def visit(node, module: str, function: str | None):
        for child in ast.iter_child_nodes(node):
            inner = (child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and function is None else function)
            if (rule := _found(child)) is not None and (module, inner) not in ALLOWED[rule]:
                line = getattr(child, "lineno", None) or child.iter.lineno  # a comprehension
                found.append(f"{module}:{line}: {rule} (in {inner})")
            visit(child, module, inner)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text("utf-8"), str(path)), path.name, None)
    return found


def test_read_table_is_the_one_row_loop_and_owns_the_id_rule():
    assert breaches(PACKAGE) == []


def test_the_scan_sees_each_kind_of_breach(tmp_path):
    (tmp_path / "data_io.py").write_text(
        "import csv\n"
        "from .errors import DuplicateId, ParseError\n"
        "def _header_row(fh):\n"
        "    return next(csv.reader(fh), [])\n"
        "def read_table(fh, header, parse):\n"
        "    for row in csv.reader(fh):\n"
        "        if not row[0]:\n"
        "            raise ParseError('empty image_id')\n"
        "        raise DuplicateId(row[0])\n"
        "def load_manifest(fh, rows):\n"
        "    table = read_table(fh, ['image_id'], lambda line, image_id, row: row)\n"
        "    for image_id in table:\n"
        "        if not image_id:\n"
        "            raise ParseError('empty image_id')\n"
        "        if image_id in rows:\n"
        "            raise DuplicateId(image_id)\n"
        "def load_image_refs(fh):\n"
        "    refs = {}\n"
        "    for line, image_id, row in read_table(fh, ['image_id', 'uri'], None):\n"
        "        refs[image_id] = row[1]\n"
        "    return refs, read_table(fh, [], parse=str)\n")
    (tmp_path / "extractors.py").write_text(
        "import csv\n"
        "from . import data_io, errors\n"
        "def load_detections(fh):\n"
        "    for k, row in enumerate(csv.DictReader(fh)):\n"
        "        if row['image_id'] in ('', 'x'):\n"
        "            raise errors.DuplicateId(row['image_id'])\n"
        "    reader = None  # a name, not a call\n"
        "    rows = {image_id: row for _, image_id, row\n"
        "            in data_io.read_table(fh, ['image_id'], keyed=False)}\n"
        "    return csv.writer(fh), 'image_id', rows\n")
    assert breaches(tmp_path) == [
        "data_io.py:14: empty image_id (in load_manifest)",
        "data_io.py:16: DuplicateId (in load_manifest)",
        "data_io.py:19: loop over read_table (in load_image_refs)",
        "extractors.py:4: csv.reader (in load_detections)",
        "extractors.py:6: DuplicateId (in load_detections)",
        "extractors.py:9: loop over read_table (in load_detections)",
        "extractors.py:9: read_table without parse (in load_detections)",
    ]


def test_the_scan_sees_the_collector_switched_outside_its_pause(tmp_path):
    (tmp_path / "data_io.py").write_text(
        "import gc\n"
        "def _collector_paused():\n"
        "    enabled = gc.isenabled()\n"
        "    gc.disable()\n"
        "    if enabled:\n"
        "        gc.enable()\n"
        "def load_annotations(path):\n"
        "    gc.disable()\n"
        "    return gc.isenabled(), gc.collect()\n")
    (tmp_path / "cli.py").write_text(
        "import gc\n"
        "def main():\n"
        "    gc.enable()\n")
    assert breaches(tmp_path) == [
        "cli.py:3: gc.disable or gc.enable (in main)",
        "data_io.py:8: gc.disable or gc.enable (in load_annotations)",
    ]


def test_the_scan_sees_a_bulk_parse_beside_the_declared_kinds(tmp_path):
    (tmp_path / "data_io.py").write_text(
        "import numpy as np\n"
        "def _parse_bulk(fh):\n"
        "    return np.loadtxt(fh)\n"
        "def _bulk(kind, path):\n"
        "    return _parse_bulk(path)\n"
        "def _bulk_votes(path):\n"
        "    return _parse_bulk(path)\n")
    (tmp_path / "extractors.py").write_text(
        "import numpy\n"
        "def load_scenes(path):\n"
        "    return numpy.loadtxt(path, delimiter=',')\n")
    assert breaches(tmp_path) == [
        "data_io.py:7: _parse_bulk (in _bulk_votes)",
        "extractors.py:3: np.loadtxt (in load_scenes)",
    ]
