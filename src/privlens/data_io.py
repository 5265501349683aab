"""CSV loaders for manifests, feature stores, annotations; design-matrix assembly.

File formats (all UTF-8 CSV with a mandatory header):

  manifest.csv          image_id,label,split
                        label in {private,public,""}; split in {train,val,test,""}
  privacy_features.csv  image_id,adult,racy,medical,spoofed,violent,
                        people_prob,people_count,outdoor_prob
                        sensitivity cells: level tokens, decimals in [0,1], or empty;
                        people_count an integer in [0, MAX_PEOPLE_COUNT]
  deep_features.csv     first line "#source_tag=<tag>,dim=<D>", then
                        image_id,v0,...,v{D-1}
  annotations.csv       image_id,assessor_id,vote

The manifest, each feature store and the per-image vote counts become one
id-keyed float64 matrix (`FeatureStore`), joined to the manifest by position
where a store lists the manifest's ids in its order. Such a store holds the
manifest's id list from its load on (`aligned`), so each id is held once;
the id → row map is built only when a lookup by id needs it. `write_manifest`
and `write_privacy_store` write the first two back, and `publish` writes
every file whole.

The manifest, the privacy store and the deep stores are kinds of table
declared as data (`STORE_KINDS`) and read by one loader, `_parse`: in bulk
where the file allows it, else row by row, the reference and the one error
reporter. A `StoreCache` keeps each parsed store in one file, keyed by its
kind and the sha256 of the file's bytes, so a later load of the same content
skips the parse. The votes are parsed in bulk by a loop of their own, and
equal runs of votes share one tuple. Every row scan is `read_table`, which
checks the image id, reports each fault at its path:line and returns the
id-keyed table of what the loader's cell parser made of each row. A UTF-8
byte-order mark at the start of a file is skipped.
"""

from __future__ import annotations

import csv
import enum
import gc
import itertools
import json
import logging
import os
import random
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateId,
    MissingFeatures,
    MissingLabel,
    ParseError,
    UnknownLabel,
    UnknownVote,
)
from .features import (
    PRIVACY_FEATURE_NAMES,
    SENSITIVITY_CLASSES,
    FeatureGroup,
    FeatureSpec,
    Likelihood,
    PrivacyLabel,
    assemble_features,
    encode_likelihood,
)

log = logging.getLogger(__name__)


class Split(enum.Enum):
    TRAIN = "train"
    VAL = "val"
    TEST = "test"


class FiveClassVote(enum.Enum):
    CLEARLY_PRIVATE = "CLEARLY_PRIVATE"
    PRIVATE = "PRIVATE"
    UNDECIDABLE = "UNDECIDABLE"
    PUBLIC = "PUBLIC"
    CLEARLY_PUBLIC = "CLEARLY_PUBLIC"


@dataclass(frozen=True, slots=True)
class AnnotationRecord:
    image_id: str
    votes: tuple[FiveClassVote, ...]

    def __post_init__(self):
        if not self.votes:
            raise ValueError("votes must be non-empty")


@dataclass(frozen=True, eq=False)
class FeatureStore:
    """One id-keyed table: a float64 matrix with one row per image, in file order.

    The manifest (see `manifest_store`) and the feature stores are all of this
    kind. The privacy store holds the eight features in canonical order, each
    sensitivity level encoded as ``level / 4``, and a ``missing`` mask that is
    True where a sensitivity cell was empty (its value then reads 0.0).
    """

    ids: list[str]
    values: np.ndarray
    missing: np.ndarray | None = None

    @cached_property
    def index(self) -> dict[str, int]:  # image_id -> row, built on first use
        return {image_id: i for i, image_id in enumerate(self.ids)}

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, image_ids: list[str]) -> np.ndarray:
        """The row of each id, -1 where none; the store's own id list maps by position."""
        if not image_ids or image_ids == self.ids:
            return np.arange(len(image_ids), dtype=np.intp)
        get = self.index.get
        return np.fromiter((get(i, -1) for i in image_ids), dtype=np.intp, count=len(image_ids))


def aligned(store: FeatureStore, ids: list[str] | None) -> FeatureStore:
    """`store`, holding the list `ids` in place of its own when it lists
    those ids in their order (one list compare in C), so each id is held once."""
    return replace(store, ids=ids) if ids is not None and store.ids == ids else store


# Columns of the privacy store, named as in PRIVACY_FEATURE_NAMES.
SENSITIVITY = slice(0, len(SENSITIVITY_CLASSES))
PEOPLE_PROB, PEOPLE_COUNT, OUTDOOR_PROB = map(PRIVACY_FEATURE_NAMES.index,
                                              ("people_prob", "people_count", "outdoor_prob"))


def privacy_store(rows: dict[str, tuple]) -> FeatureStore:
    """A privacy store from per-image cells in canonical order: five
    ``Likelihood | None``, then people_prob, people_count, outdoor_prob."""
    cells = list(rows.values())
    values = np.array([[*map(encode_likelihood, r[SENSITIVITY]), *r[PEOPLE_PROB:]] for r in cells],
                      dtype=np.float64)
    missing = np.array([[lvl is None for lvl in r[SENSITIVITY]] for r in cells], dtype=bool)
    return FeatureStore(list(rows), values.reshape(-1, len(PRIVACY_FEATURE_NAMES)),
                        missing.reshape(-1, len(SENSITIVITY_CLASSES)))


# Columns of the manifest store, and the tokens each column codes by position.
LABEL, SPLIT = 0, 1
_LABELS = (PrivacyLabel.PUBLIC.value, PrivacyLabel.PRIVATE.value)
_SPLITS = tuple(s.value for s in Split)


class _Codes(dict):
    """cell -> its code for the bulk converters and the row scan alike, NaN
    for an empty cell. Any other cell is coded by `read`, the row scan's own
    reading, whose ValueError leaves a bulk parse to the row scan."""

    def __init__(self, codes: dict[str, float], read: Callable[[str], float]):
        super().__init__(codes)
        self.read = read

    def __missing__(self, cell: str) -> float:
        return self.read(cell)


def _tokens(tokens: tuple[str, ...]) -> _Codes:
    """The codes of `tokens`, each its position; the row scan reads a cell
    stripped and in lower case."""
    codes = {"": np.nan, **{token: float(i) for i, token in enumerate(tokens)}}

    def read(cell: str) -> float:
        if (code := codes.get(cell.strip().lower())) is None:
            raise ValueError(f"unknown token {cell!r}")
        return code
    return _Codes(codes, read)


_LABEL_CODES, _SPLIT_CODES = _tokens(_LABELS), _tokens(_SPLITS)


def manifest_store(rows: dict[str, tuple[str, str]]) -> FeatureStore:
    """A manifest from per-image ``(label, split)`` tokens as the file spells
    them in lower case, "" for an empty cell. The columns are the label (1.0
    private, 0.0 public) and the split's position in `Split`, with
    ``missing`` True where a cell was empty (its value then reads 0.0)."""
    return _manifest(list(rows), np.array([[_LABEL_CODES[label], _SPLIT_CODES[split]] for
                                           label, split in rows.values()]).reshape(-1, 2))


def _manifest(ids: list[str], codes: np.ndarray) -> FeatureStore:
    """The manifest of `ids` from their (n, 2) codes, NaN where a cell was
    empty, held column by column: the order its cache entries record."""
    codes = np.asfortranarray(codes)
    missing = np.isnan(codes)
    return FeatureStore(ids, np.where(missing, 0.0, codes), missing)


# Columns of the vote store: each image's private, public and undecidable votes.
N_PRIVATE, N_PUBLIC, N_UNDECIDABLE = 0, 1, 2
_VOTE_COLUMNS = {
    FiveClassVote.CLEARLY_PRIVATE: N_PRIVATE, FiveClassVote.PRIVATE: N_PRIVATE,
    FiveClassVote.UNDECIDABLE: N_UNDECIDABLE,
    FiveClassVote.PUBLIC: N_PUBLIC, FiveClassVote.CLEARLY_PUBLIC: N_PUBLIC,
}
# Each member's column by the member's id: hashing a member runs Enum.__hash__ in Python.
_ID_COLUMNS = {id(vote): column for vote, column in _VOTE_COLUMNS.items()}


def vote_store(annotations: dict[str, AnnotationRecord]) -> FeatureStore:
    """The votes as counts, one row per annotated image in file order, in the
    columns N_PRIVATE, N_PUBLIC and N_UNDECIDABLE. The "clearly" variants count
    toward their side; undecidable votes count toward the assessor total but
    toward neither side.

    Each distinct tuple of votes is counted once (the bulk parse shares one
    tuple among equal runs). Each vote's column is looked up by the vote's
    id, with no Python call per vote, into one byte per vote, and one
    `np.bincount` over ``row * 3 + column`` counts them all; each per-vote
    array is dropped as soon as it is used.
    """
    votes = [record.votes for record in annotations.values()]
    _, first, inverse = np.unique(np.fromiter(map(id, votes), dtype=np.intp, count=len(votes)),
                                  return_index=True, return_inverse=True)
    votes = [votes[i] for i in first.tolist()]  # each tuple once; all are alive, so ids differ
    cells = np.repeat(np.arange(0, 3 * len(votes), 3),
                      np.fromiter(map(len, votes), dtype=np.intp, count=len(votes)))
    columns = map(_ID_COLUMNS.__getitem__, map(id, itertools.chain.from_iterable(votes)))
    cells += np.fromiter(columns, dtype=np.uint8, count=len(cells))
    counts = np.bincount(cells, minlength=3 * len(votes))
    del cells
    return FeatureStore(list(annotations), counts.astype(np.float64).reshape(-1, 3)[inverse])


@dataclass
class Dataset:
    """Immutable-after-construction join of id-keyed stores: manifest, features, votes."""

    manifest: FeatureStore
    privacy_features: FeatureStore = field(default_factory=lambda: privacy_store({}))
    deep_features: dict[str, FeatureStore] = field(default_factory=dict)
    annotations: FeatureStore = field(default_factory=lambda: vote_store({}))
    splits_assigned: bool = False  # the manifest's splits were drawn, not read

    def __post_init__(self):
        stores = {"privacy_features": self.privacy_features, "annotations": self.annotations,
                  **{f"deep store {tag!r}": s for tag, s in self.deep_features.items()}}
        for name, store in stores.items():
            if store.ids and store.ids != self.manifest.ids:  # a compare in C, no id map
                for row in np.flatnonzero(self.manifest.rows(store.ids) < 0).tolist():
                    log.warning("%s id %r not in manifest; ignored in matrices",
                                name, store.ids[row])

    @cached_property
    def labeled_privacy_features(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, missing, private) of the labeled images that have privacy
        features, in manifest order; built once per dataset and read-only."""
        store, manifest = self.privacy_features, self.manifest
        rows = store.rows(manifest.ids)
        keep = (rows >= 0) & ~manifest.missing[:, LABEL]
        rows = rows[keep]
        shared = store.values[rows], store.missing[rows], manifest.values[keep, LABEL] == 1.0
        for a in shared:
            a.setflags(write=False)  # every analysis of this dataset reads the same arrays
        return shared


def _open_csv(path):
    try:
        return open(path, "r", encoding="utf-8-sig", newline="")  # skips a byte-order mark
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc


def bad_input(exc: UnicodeDecodeError | csv.Error, path, line) -> ParseError:
    """`exc` as a ParseError at `line`. The text layer decodes ahead of the
    line it returns, so a decode error is placed by finding the first line
    of `path` that is not UTF-8. Lines end where that layer ends them, and
    where `bytes.splitlines` does: at LF, CRLF or a lone CR."""
    if isinstance(exc, csv.Error):
        return ParseError(f"malformed CSV: {exc}", path=path, line=line)
    data, line = Path(path).read_bytes(), None
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as first:
        line = len((data[:first.start] + b"?").splitlines())  # "?" holds the bad byte's line
    return ParseError(f"not UTF-8: {exc.reason}", path=path, line=line)


def _header_row(fh, path, line: int) -> tuple[list[str], int]:
    """The stripped cells of the CSV row on `line`, the next line of `fh`
    ([] where that line is blank or the file ends), and the row's last line.
    Undecodable bytes and malformed CSV raise ParseError."""
    reader = csv.reader(fh)
    try:
        row = next(reader, [])
    except (UnicodeDecodeError, csv.Error) as exc:
        raise bad_input(exc, path, line - 1 + reader.line_num) from exc
    return [cell.strip() for cell in row], line - 1 + reader.line_num


def read_table(path, header: list[str], parse, keyed: bool = True, header_line: int = 1) -> dict:
    """The UTF-8 CSV file at `path` as a dict in file order: in a table `keyed`
    by image, image_id -> ``parse(line, image_id, row)`` of its row, elsewhere
    image_id -> that of each of its rows. Line `header_line` must be `header`
    (a deep store's #source_tag line comes first), and every non-blank row must
    have as many fields. The image id is the first cell, stripped: it must not
    be empty, nor, in a keyed table, repeat. Lines are physical lines, so a row
    whose quoted field spans lines is placed at its last. A breach, an
    undecodable byte or malformed CSV raises ParseError at its line, a repeated
    id DuplicateId; `parse` then checks the row's cells, unstripped."""
    width, table = len(header), {}
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
                    if not keyed:
                        table.setdefault(image_id, []).append(parse(line, image_id, row))
                    elif image_id in table:
                        raise DuplicateId(image_id, path=path, line=line)
                    else:
                        table[image_id] = parse(line, image_id, row)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise bad_input(exc, path, start + reader.line_num) from exc
    return table


def read_lines(path) -> list[str]:
    """The lines of a text file; a byte that is not UTF-8 is a ParseError at its line."""
    with _open_csv(path) as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise bad_input(exc, path, None) from exc


def load_manifest(path, cache: StoreCache | None = None) -> FeatureStore:
    """The manifest as a two-column store (see `manifest_store`), through
    `cache` as `load_deep_store` reads a deep store."""
    return _load("manifest", path, cache)[0]


def load_image_refs(path) -> dict[str, str]:
    """image_id → URI, from an `image_id,uri` file; each id listed once, each URI non-empty."""
    def parse(line, image_id, row):
        if not (uri := row[1].strip()):
            raise ParseError("empty uri", path=path, line=line)
        return uri
    return read_table(path, ["image_id", "uri"], parse)


# Lines csv.reader yields as an empty row; every loader skips them.
_BLANK_LINES = frozenset(("\n", "\r\n", "\r"))
# Longer lines may hold a field csv.reader rejects.
_FIELD_LIMIT = csv.field_size_limit()


def _parse_bulk(fh, n_values: int, converters=None, ids: list[str] | None = None):
    """(ids, values) of the data lines left in `fh`, or None when the row scan must read them.

    Only lines of an id and `n_values` cells with no quote character, and no
    longer than csv.reader's field limit, are taken, so the id is the text
    before the first comma, as csv.reader splits it. loadtxt's float syntax
    is a subset of float()'s, with the same values. A cell loadtxt or a
    converter rejects, or a repeated or empty id, leaves the file to the row
    scan. Ids equal to `ids`, a list of unique ids such as the manifest's,
    are returned as that very list, with no check of their own.
    """
    listed: list[str] = []

    def data_lines():
        for line in fh:
            if line in _BLANK_LINES:
                continue
            if line.count(",") != n_values or '"' in line or len(line) > _FIELD_LIMIT:
                raise ValueError("line needs the row scan")
            listed.append(line.partition(",")[0].strip())
            yield line

    lines = data_lines()
    try:
        first = next(lines, None)
        values = np.empty((0, n_values)) if first is None else np.loadtxt(
            itertools.chain([first], lines), dtype=np.float64, delimiter=",",
            comments=None, usecols=range(1, n_values + 1), converters=converters, ndmin=2,
        )  # (loadtxt warns on empty input)
    except (ValueError, OverflowError):  # OverflowError: a converter's int past float64
        return None
    if ids is not None and listed == ids:  # one compare in C, and no set of the ids
        return ids, values
    unique = set(listed)
    return (listed, values) if len(unique) == len(listed) and "" not in unique else None


_PRIVACY_HEADER = ["image_id", *PRIVACY_FEATURE_NAMES]
# The largest people_count a privacy store may hold: analyze's people curve
# has a point for each count up to the largest one.
MAX_PEOPLE_COUNT = 10_000


def _level_code(cell: str) -> float:
    """A sensitivity cell as the row scan reads it: NaN where empty, else its
    level's ``level / 4``, a decimal in [0, 1] snapping to the nearest level."""
    cell = cell.strip()
    if not cell:
        return np.nan
    try:
        return encode_likelihood(Likelihood[cell.upper()])
    except KeyError:
        pass
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"bad sensitivity cell {cell!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"sensitivity value {value} out of [0,1]")
    return encode_likelihood(Likelihood(int(round(value * 4))))


_LEVEL_CODES = _Codes({lvl.name: encode_likelihood(lvl) for lvl in Likelihood}, _level_code)


def decode_levels(values: np.ndarray) -> np.ndarray:
    """Likelihood level of each sensitivity column, decoded from ``level / 4``."""
    return np.rint(values[:, SENSITIVITY] * 4).astype(np.intp)


def load_privacy_store(path, cache: StoreCache | None = None,
                       ids: list[str] | None = None) -> FeatureStore:
    """The privacy store (see `FeatureStore`), through `cache` and aligned to
    `ids` as `load_deep_store` reads a deep store."""
    return _load("privacy", path, cache, ids)[0]


def write_privacy_store(path, store: FeatureStore) -> None:
    """The inverse of `load_privacy_store`: level tokens, an empty cell where
    a level is missing, the count as an integer and the two probabilities at
    6 decimals."""
    tokens = ("", *(lvl.name for lvl in Likelihood))  # "" where missing, else the level's token
    levels = np.where(store.missing, 0, decode_levels(store.values) + 1)
    write_csv(path, _PRIVACY_HEADER, (
        [image_id, *(tokens[c] for c in codes), "%.6f" % people_prob, "%d" % count, "%.6f" % out]
        for image_id, codes, (people_prob, count, out) in zip(
            store.ids, levels.tolist(), store.values[:, PEOPLE_PROB:].tolist())))


# The row parsers of the store kinds: (path, line, image_id, row) -> the row's
# cells coded as the bulk converters code them, or a fault at path:line.
def _manifest_row(path, line, image_id, row) -> tuple[float, float]:
    try:
        label = _LABEL_CODES[row[1]]
    except ValueError:
        raise UnknownLabel(row[1].strip(), path=path, line=line) from None
    try:
        return label, _SPLIT_CODES[row[2]]
    except ValueError:
        raise ParseError(f"unknown split {row[2].strip()!r}", path=path, line=line) from None


def _privacy_row(path, line, image_id, row) -> tuple:
    try:
        levels = [_LEVEL_CODES[cell] for cell in row[1:6]]
        people_prob, people_count, outdoor_prob = float(row[6]), int(row[7]), float(row[8])
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=line) from exc
    if not 0.0 <= people_prob <= 1.0:
        raise ParseError(f"people_prob out of [0,1]: {people_prob}", path=path, line=line)
    if not 0.0 <= outdoor_prob <= 1.0:
        raise ParseError(f"outdoor_prob out of [0,1]: {outdoor_prob}", path=path, line=line)
    if people_count < 0:
        raise ParseError(f"people_count negative: {people_count}", path=path, line=line)
    if people_count > MAX_PEOPLE_COUNT:
        raise ParseError(f"people_count above {MAX_PEOPLE_COUNT}: {people_count}",
                         path=path, line=line)
    return (*levels, people_prob, people_count, outdoor_prob)


def _deep_row(path, line, image_id, row) -> list[float]:
    try:
        values = [float(c) for c in row[1:]]
    except ValueError as exc:
        raise ParseError(str(exc), path=path, line=line) from exc
    if not np.isfinite(values).all():
        raise ParseError(f"non-finite value for image {image_id!r}", path=path, line=line)
    return values


def _privacy(ids: list[str], values: np.ndarray) -> FeatureStore | None:
    """The privacy store of coded `values`, None where a probability or
    count is out of its range (the row scan reports it)."""
    missing = np.isnan(values[:, SENSITIVITY])
    values[:, SENSITIVITY][missing] = 0.0
    probs, counts = values[:, [PEOPLE_PROB, OUTDOOR_PROB]], values[:, PEOPLE_COUNT]
    if not (((probs >= 0.0) & (probs <= 1.0)).all()
            and ((counts >= 0) & (counts <= MAX_PEOPLE_COUNT)).all()):
        return None
    return FeatureStore(ids, values, missing)


def _fixed_header(*names: str) -> dict:
    """The `head` and `names` of a kind whose first line is the column
    header image_id,`names`, and whose metadata is []."""
    header = ["image_id", *names]

    def head(fh, path) -> tuple[list, int]:
        if _header_row(fh, path, 1)[0] != header:
            raise ParseError("expected header " + ",".join(header), path=path, line=1)
        return [], 1
    return {"head": head, "names": lambda meta: list(names) if meta == [] else None}


def _deep_head(fh, path) -> tuple[list, int]:
    """([source_tag, column names], 2), from the two header lines of a deep store."""
    try:
        first = fh.readline().strip()
    except UnicodeDecodeError as exc:
        raise bad_input(exc, path, 1) from exc
    if not first.startswith("#"):
        raise ParseError("missing #source_tag=...,dim=... header", path=path, line=1)
    try:
        fields = dict(part.split("=", 1) for part in first.lstrip("#").split(","))
        source_tag = fields["source_tag"].strip()
        dim = int(fields["dim"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad deep-store header {first!r}", path=path, line=1) from exc
    if dim <= 0:
        raise ParseError("dim must be positive", path=path, line=1)
    header, _ = _header_row(fh, path, 2)
    if header[:1] != ["image_id"]:
        raise ParseError("expected column header starting with image_id", path=path, line=2)
    if len(header) - 1 != dim:
        raise ParseError(f"column header names {len(header) - 1} columns, "
                         f"first line declares dim={dim}", path=path, line=2)
    return [source_tag, header[1:]], 2


@dataclass(frozen=True)
class _Kind:
    """A kind of table `_parse` reads and a `StoreCache` holds, as data:
    `version`, in its cache entries' names; `head`, (file, path) ->
    (metadata as a JSON list, the column header's line), which reads the
    lines up to and including the column header; `names`, the columns given
    metadata, None for any `head` never returns; the bulk parse's loadtxt
    `converters` by file column (the image_id is column 0); `row`, the row
    scan's parser; `store`, (ids, coded values) -> the store both paths end
    in, None where a value needs the row scan; the width of `missing`.

    Bump the version whenever the kind's parse accepts or rejects other
    files, or returns other results, or its entry layout changes, so no
    older entry is read.
    """

    version: int
    head: Callable[..., tuple[list, int]]
    names: Callable[[list], list[str] | None]
    converters: dict | None
    row: Callable[..., Sequence[float]]
    store: Callable[[list[str], np.ndarray], FeatureStore | None]
    missing: int | None


STORE_KINDS = {
    "manifest": _Kind(1, **_fixed_header("label", "split"), converters={
        1 + LABEL: _LABEL_CODES.__getitem__, 1 + SPLIT: _SPLIT_CODES.__getitem__},
        row=_manifest_row, store=_manifest, missing=2),
    "privacy": _Kind(1, **_fixed_header(*PRIVACY_FEATURE_NAMES), converters={
        **{1 + col: _LEVEL_CODES.__getitem__ for col in range(len(SENSITIVITY_CLASSES))},
        1 + PEOPLE_COUNT: int}, row=_privacy_row, store=_privacy,
        missing=len(SENSITIVITY_CLASSES)),
    "deep": _Kind(2, _deep_head, names=lambda meta: meta[1] if [*map(type, meta)] == [str, list]
                  and all(type(c) is str for c in meta[1]) else None,
                  converters=None, row=_deep_row, store=lambda ids, values: (
                      FeatureStore(ids, values) if np.isfinite(values).all() else None),
                  missing=None),
}


def _bulk(kind: str, path, ids: list[str] | None = None) -> tuple[FeatureStore, list] | None:
    """`_scan`'s (store, metadata), or None when the row scan must read the
    file. A store whose ids equal `ids` (see `_parse_bulk`) holds that list."""
    spec = STORE_KINDS[kind]
    try:
        with _open_csv(path) as fh:
            meta = spec.head(fh, path)[0]
            parsed = _parse_bulk(fh, len(spec.names(meta)), spec.converters, ids)
    except ParseError:
        return None  # the row scan reports it
    store = None if parsed is None else spec.store(*parsed)
    return None if store is None else (store, meta)


def _scan(kind: str, path) -> tuple[FeatureStore, list]:
    """(store, metadata), parsed row by row: the reference for `_bulk` and
    the one reporter of each fault at its path:line."""
    spec = STORE_KINDS[kind]
    with _open_csv(path) as fh:
        meta, header_line = spec.head(fh, path)
    names = spec.names(meta)
    rows = read_table(path, ["image_id", *names], partial(spec.row, path),
                      header_line=header_line)
    values = np.array(list(rows.values()), dtype=np.float64).reshape(len(rows), len(names))
    return spec.store(list(rows), values), meta


def _parse(kind: str, path, ids: list[str] | None = None) -> tuple[FeatureStore, list]:
    """(store, metadata) of the `kind` file at `path`, in bulk where the
    file allows it, else row by row; the store is `aligned` to `ids`."""
    store, meta = _bulk(kind, path, ids) or _scan(kind, path)
    return aligned(store, ids), meta


def _load(kind: str, path, cache: StoreCache | None,
          ids: list[str] | None = None) -> tuple[FeatureStore, list]:
    return _parse(kind, path, ids) if cache is None else cache.load(kind, path, ids)


def file_sha256(path) -> str:
    """The hex sha256 of the bytes of the file at `path`, read in 1 MiB chunks."""
    # imported here: it loads OpenSSL, which importing the CLI and checking
    # the config need not pay for; only a command that reads a store hashes
    import hashlib

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def publish(path, write, binary: bool = False) -> None:
    """Write the file at `path` whole: `write` streams into a temporary file
    beside it, UTF-8 text with no newline translation or, with `binary`,
    bytes, which then replaces `path`. No reader sees half a file, and a
    failed `write` leaves the old file and no temporary one. This is the
    one place privlens writes a file."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            write(fh)
        if path.is_dir():  # an empty directory in its place, such as a damaged cache entry
            path.rmdir()
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, payload) -> None:
    """`payload` as JSON indented by 2, keys sorted, with a final newline."""
    def write(fh):
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    publish(path, write)


def write_csv(path, header: list[str], rows) -> None:
    """A CSV table: `header`, then each of `rows`."""
    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    publish(path, write)


class StoreCache:
    """Parsed stores under `root`, one entry per kind of store and file content.

    An entry is one file, `<kind>-v<version>-<sha256 of the file>.npy`, for
    each kind of `STORE_KINDS`: the values as `np.save` writes them, then
    `missing` the same way where the kind has it, then the JSON list of the
    kind's metadata followed by the ids. Loading writes nothing: a parse is
    only recorded, and `save` writes the recorded entries. A command saves
    once its input checks have passed. Entries are never pruned.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._parsed: dict[Path, tuple[FeatureStore, list]] = {}  # by entry

    def load(self, kind: str, path, ids: list[str] | None = None) -> tuple[FeatureStore, list]:
        """The store of `kind` at `path` and its metadata, from its entry when
        one exists and can be read (else with a warning), otherwise parsed
        and recorded. The store is `aligned` to `ids` before it is recorded,
        so the entry waiting for `save` holds no second id list."""
        spec = STORE_KINDS[kind]
        try:
            key = file_sha256(path)
        except OSError:  # the parser reports an unreadable file
            return _parse(kind, path, ids)
        entry = self.root / f"{kind}-v{spec.version}-{key}.npy"
        if entry.exists():
            try:
                with open(entry, "rb") as fh:
                    values = np.load(fh, allow_pickle=False)
                    missing = None if spec.missing is None else np.load(fh, allow_pickle=False)
                    *meta, listed = json.loads(fh.read())
                n = len(listed) if isinstance(listed, list) else -1
                names = spec.names(meta)
                if not (n >= 0 and all(isinstance(i, str) for i in listed) and names is not None
                        and values.dtype == np.float64 and values.shape == (n, len(names))
                        and (missing is None or (missing.dtype == bool
                                                 and missing.shape == (n, spec.missing)))):
                    raise ValueError("values and metadata disagree")
                if len(set(listed)) != n:
                    raise ValueError("repeated ids")
                return aligned(FeatureStore(listed, values, missing), ids), meta
            except (OSError, EOFError, ValueError, TypeError, AttributeError) as exc:
                log.warning("ignoring unreadable store cache entry %s: %s", entry, exc)
        loaded = self._parsed[entry] = _parse(kind, path, ids)
        return loaded

    def save(self) -> None:
        """Write the entries recorded since the last save; an OSError is one warning."""
        parsed, self._parsed = self._parsed, {}

        def write(fh, store, meta):
            np.save(fh, store.values)
            if store.missing is not None:
                np.save(fh, store.missing)
            fh.write(json.dumps([*meta, store.ids]).encode("ascii"))

        try:
            for entry, (store, meta) in parsed.items():
                self.root.mkdir(exist_ok=True)
                publish(entry, lambda fh: write(fh, store, meta), binary=True)
        except OSError as exc:
            log.warning("cannot save parsed stores under %s: %s", self.root, exc)


def load_deep_store(path, cache: StoreCache | None = None,
                    ids: list[str] | None = None) -> tuple[str, FeatureStore, list[str]]:
    """Returns (source_tag, store, the column names of its header).

    With a `cache`, a file whose bytes were parsed before is read from its
    entry, and any other is parsed and recorded there. Every error comes from
    the parser, so the cache holds only stores the parser returned. A store
    that lists `ids` in their order holds that list (see `aligned`).
    """
    store, (tag, columns) = _load("deep", path, cache, ids)
    return tag, store, columns


_ANNOTATIONS_HEADER = ["image_id", "assessor_id", "vote"]
_VOTES = tuple(FiveClassVote)
# Each vote token the bulk path takes, in upper or lower case and with any
# line end, and its vote's code, the vote's position in _VOTES; the bulk
# path leaves any other spelling to the row scan.
_VOTE_SPELLINGS = {spelling + end: code for code, vote in enumerate(_VOTES)
                   for spelling in (vote.value, vote.value.lower())
                   for end in ("", "\n", "\r\n", "\r")}


class _VoteRuns(dict):
    """The codes of a run of votes -> the votes, one tuple for all equal runs.
    Codes hash in C; members would hash through Enum.__hash__, in Python."""

    def __missing__(self, codes: tuple[int, ...]) -> tuple[FiveClassVote, ...]:
        votes = self[codes] = tuple(map(_VOTES.__getitem__, codes))
        return votes


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, and leave it as it was found.

    A parse that builds hundreds of thousands of tuples and records would
    otherwise start a collection every 700 of them; none of them is garbage.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_annotations(path) -> dict[str, AnnotationRecord]:
    """image_id -> its votes in file order, parsed in bulk where the file
    allows it, otherwise row by row, with the cyclic collector paused."""
    with _collector_paused():
        records = _bulk_annotations(path)
        return records if records is not None else _scan_annotations(path)


def _bulk_annotations(path) -> dict[str, AnnotationRecord] | None:
    """The row scan's records, or None when the row scan must read the file.

    Only lines of exactly three fields with no quote character, no longer
    than csv.reader's field limit, whose vote is spelled as in
    `_VOTE_SPELLINGS` are taken, and each image's rows must be contiguous.
    A record is closed whenever the id changes, so only the records are kept,
    and records with equal votes share one tuple of them.
    """
    records: dict[str, AnnotationRecord] = {}
    runs = _VoteRuns()
    spelled = _VOTE_SPELLINGS.get
    run, image_id, votes = None, None, []  # the open record: its id cell, its id, its vote codes
    with _open_csv(path) as fh:
        try:
            if fh.readline().rstrip("\r\n") != ",".join(_ANNOTATIONS_HEADER):
                return None  # any other spelling of the header, or none, is the row scan's
            for line in fh:
                cell, _, rest = line.partition(",")
                vote = spelled(rest.partition(",")[2])  # None unless 3 fields, the last a vote
                if vote is None or '"' in line or len(line) > _FIELD_LIMIT:
                    if line in _BLANK_LINES:
                        continue
                    return None
                if cell != run:
                    if votes:
                        records[image_id] = AnnotationRecord(image_id, runs[tuple(votes)])
                    run, image_id, votes = cell, cell.strip(), []
                    if not image_id or image_id in records:
                        return None
                votes.append(vote)
        except UnicodeDecodeError:
            return None
    if votes:
        records[image_id] = AnnotationRecord(image_id, runs[tuple(votes)])
    return records


def _scan_annotations(path) -> dict[str, AnnotationRecord]:
    """Row-at-a-time parse; the reference for the bulk path and its error reporter."""
    def parse(line, image_id, row):
        vote_tok = row[2].strip()
        try:
            return FiveClassVote[vote_tok.upper()]
        except KeyError:
            raise UnknownVote(vote_tok, path=path, line=line)
    votes = read_table(path, _ANNOTATIONS_HEADER, parse, keyed=False)
    return {image_id: AnnotationRecord(image_id, tuple(vs)) for image_id, vs in votes.items()}


def assign_splits(
    manifest: FeatureStore, seed: int, fractions: tuple[float, float, float]
) -> FeatureStore:
    """Seeded random train/val/test assignment for manifests lacking a split column.

    Only rows without a split are assigned; existing assignments are kept.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    order = np.flatnonzero(manifest.missing[:, SPLIT]).tolist()
    random.Random(seed).shuffle(order)
    n_train = int(round(fractions[0] * len(order)))
    n_val = int(round(fractions[1] * len(order)))
    values, missing = manifest.values.copy(), manifest.missing.copy()
    # ranks below n_train go to TRAIN (code 0), the next n_val to VAL (1), the rest to TEST (2)
    values[order, SPLIT] = np.searchsorted([n_train, n_train + n_val], np.arange(len(order)),
                                           side="right")
    missing[order, SPLIT] = False
    return FeatureStore(manifest.ids, values, missing)


def write_manifest(path, manifest: FeatureStore) -> None:
    labels, splits = ("", *_LABELS), ("", *_SPLITS)  # "" where empty, else the code's token
    tokens = np.where(manifest.missing, 0, manifest.values.astype(np.intp) + 1).tolist()
    write_csv(path, ["image_id", "label", "split"], (
        (image_id, labels[label], splits[split])
        for image_id, (label, split) in zip(manifest.ids, tokens)))


# Columns of each privacy group in the privacy store.
_PRIVACY_COLUMNS = {
    FeatureGroup.SENS: SENSITIVITY,
    FeatureGroup.PEOPLE: slice(PEOPLE_PROB, PEOPLE_COUNT + 1),
    FeatureGroup.OUT: slice(OUTDOOR_PROB, OUTDOOR_PROB + 1),
}


def build_design_matrix(ds: Dataset, split: Split,
                        spec: FeatureSpec) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Aligned (X, y, image_ids) of `split` in manifest order; Private=1, Public=0."""
    manifest = ds.manifest
    picked = np.flatnonzero(
        ~manifest.missing[:, SPLIT] & (manifest.values[:, SPLIT] == _SPLIT_CODES[split.value]))
    if not picked.size:
        return np.empty((0, 0)), np.empty(0), []
    ids = [manifest.ids[i] for i in picked.tolist()]
    # each needed store, the name MissingFeatures gives it, and its columns per group
    sources = [source for source in (
        (ds.privacy_features, "privacy", _PRIVACY_COLUMNS),
        (ds.deep_features.get("places365"), "PLACES", {FeatureGroup.PLACES: slice(None)}),
        (ds.deep_features.get(spec.source_tag), "DEEP", {FeatureGroup.DEEP: slice(None)}),
    ) if spec.groups & source[2].keys()]
    rows = [store.rows(manifest.ids)[picked] if store is not None else np.full(len(ids), -1)
            for store, _, _ in sources]

    unlabeled = manifest.missing[picked, LABEL]
    bad = np.logical_or.reduce([unlabeled, *(r < 0 for r in rows)])
    if bad.any():
        i = int(np.argmax(bad))  # the first failing image, checked as the manifest orders it
        if unlabeled[i]:
            raise MissingLabel(ids[i])
        raise next(MissingFeatures(ids[i], name)
                   for (_, name, _), r in zip(sources, rows) if r[i] < 0)

    blocks = {group: (store.values[:, cols], r)  # column views, gathered into X in place
              for (store, _, columns), r in zip(sources, rows) for group, cols in columns.items()}
    y = manifest.values[picked, LABEL]
    return assemble_features(blocks, spec.groups), y, ids
