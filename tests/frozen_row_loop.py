"""Frozen reference copy of the earlier row loop: `read_table` as a generator
of ``(line, image_id, row)`` that keeps its own set of seen ids, which each
loader then drove in a loop to build its table. It is kept to check the
table-returning `privlens.data_io.read_table` against. The function is the
earlier code verbatim; the helpers it calls (`_open_csv`, `_header_row`,
`bad_input`) are the package's, which it shares unchanged. Do not change it
to follow the package.
"""

from __future__ import annotations

import csv

from privlens.data_io import _header_row, _open_csv, bad_input
from privlens.errors import DuplicateId, ParseError


def read_table(path, header: list[str], keyed: bool = True, header_line: int = 1):
    """(line, image_id, row) of each non-blank data row of the UTF-8 CSV file
    at `path`, whose line `header_line` must be `header` (a deep store's
    #source_tag line comes first) and whose every row must have as many
    fields. The image id is the first cell, stripped: it must not be empty,
    nor, in a table `keyed` by image, repeat. Lines are physical lines, so a
    row whose quoted field spans lines is placed at its last. A breach, an
    undecodable byte or malformed CSV raises ParseError at its line, a
    repeated id DuplicateId. The row's cells are yielded unstripped."""
    width, seen = len(header), set()
    with _open_csv(path) as fh:
        for _ in range(header_line - 1):
            fh.readline()
        cells, start = _header_row(fh, path, header_line)
        if cells != header:
            raise ParseError("expected header " + ",".join(header), path=path, line=header_line)
        reader = csv.reader(fh)
        try:
            for row in reader:
                if row:
                    line = start + reader.line_num
                    if len(row) != width:
                        raise ParseError(f"expected {width} fields, got {len(row)}",
                                         path=path, line=line)
                    image_id = row[0].strip()
                    if not image_id:
                        raise ParseError("empty image_id", path=path, line=line)
                    if keyed:
                        if image_id in seen:
                            raise DuplicateId(image_id, path=path, line=line)
                        seen.add(image_id)
                    yield line, image_id, row
        except (UnicodeDecodeError, csv.Error) as exc:
            raise bad_input(exc, path, start + reader.line_num) from exc
