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
id-keyed float64 matrix (`FeatureStore`); `write_manifest` and
`write_privacy_store` write the first two back. Every file privlens writes
is written whole by `publish`. Feature stores are parsed
in bulk; every table the bulk parser does not take is read row by row by
`read_table`, which checks the image id, reports each fault at its
path:line and returns the id-keyed table of what the loader's cell parser
made of each row.

A `StoreCache` keeps each parsed deep store in one file, keyed by the
sha256 of the file's bytes, so a later load of the same content skips the
parse.
"""

from __future__ import annotations

import csv
import enum
import itertools
import json
import logging
import os
import random
from dataclasses import dataclass, field
from functools import cached_property
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


@dataclass(frozen=True)
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
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "index", {image_id: i for i, image_id in enumerate(self.ids)})

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self, image_ids: list[str]) -> np.ndarray:
        """The row of each id, -1 where the store has none."""
        get = self.index.get
        return np.fromiter((get(i, -1) for i in image_ids), dtype=np.intp, count=len(image_ids))


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
# token -> code; an empty cell is NaN until it is marked missing
_LABEL_CODES = {"": np.nan, **{token: float(i) for i, token in enumerate(_LABELS)}}
_SPLIT_CODES = {"": np.nan, **{token: float(i) for i, token in enumerate(_SPLITS)}}


def manifest_store(rows: dict[str, tuple[str, str]]) -> FeatureStore:
    """A manifest from per-image ``(label, split)`` tokens as the file spells
    them in lower case, "" for an empty cell. The columns are the label (1.0
    private, 0.0 public) and the split's position in `Split`, with
    ``missing`` True where a cell was empty (its value then reads 0.0)."""
    cells = list(rows.values())
    values = np.array([[_LABEL_CODES[c[0]] for c in cells],
                       [_SPLIT_CODES[c[1]] for c in cells]], dtype=np.float64).T
    missing = np.isnan(values)
    return FeatureStore(list(rows), np.where(missing, 0.0, values), missing)


# Columns of the vote store: each image's private, public and undecidable votes.
N_PRIVATE, N_PUBLIC, N_UNDECIDABLE = 0, 1, 2


def vote_store(annotations: dict[str, AnnotationRecord]) -> FeatureStore:
    """The votes as counts, one row per annotated image in file order, in the
    columns N_PRIVATE, N_PUBLIC and N_UNDECIDABLE. The "clearly" variants count
    toward their side; undecidable votes count toward the assessor total but
    toward neither side."""
    V = FiveClassVote
    counts = [(vs.count(V.CLEARLY_PRIVATE) + vs.count(V.PRIVATE),
               vs.count(V.CLEARLY_PUBLIC) + vs.count(V.PUBLIC), vs.count(V.UNDECIDABLE))
              for vs in (record.votes for record in annotations.values())]
    return FeatureStore(list(annotations), np.array(counts, dtype=np.float64).reshape(-1, 3))


@dataclass
class Dataset:
    """Immutable-after-construction join of id-keyed stores: manifest, features, votes."""

    manifest: FeatureStore
    privacy_features: FeatureStore = field(default_factory=lambda: privacy_store({}))
    deep_features: dict[str, FeatureStore] = field(default_factory=dict)
    annotations: FeatureStore = field(default_factory=lambda: vote_store({}))
    splits_assigned: bool = False  # the manifest's splits were drawn, not read

    def __post_init__(self):
        known = self.manifest.index
        stores = {"privacy_features": self.privacy_features, "annotations": self.annotations,
                  **{f"deep store {tag!r}": s for tag, s in self.deep_features.items()}}
        for name, store in stores.items():
            if store.index.keys() <= known.keys():  # a check in C; the walk below keeps file order
                continue
            for image_id in store.ids:
                if image_id not in known:
                    log.warning("%s id %r not in manifest; ignored in matrices", name, image_id)

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
        return open(path, "r", encoding="utf-8", newline="")
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


def load_manifest(path) -> FeatureStore:
    """The manifest as a two-column store (see `manifest_store`)."""
    def parse(line, image_id, row):
        label, split = row[1].strip(), row[2].strip()
        cells = label.lower(), split.lower()
        if cells[0] not in _LABEL_CODES:
            raise UnknownLabel(label, path=path, line=line)
        if cells[1] not in _SPLIT_CODES:
            raise ParseError(f"unknown split {split!r}", path=path, line=line)
        return cells
    return manifest_store(read_table(path, ["image_id", "label", "split"], parse))


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


def _parse_bulk(fh, n_values: int, converters=None):
    """(ids, values) of the data lines left in `fh`, or None when the row scan must read them.

    Only lines of an id and `n_values` cells with no quote character, and no
    longer than csv.reader's field limit, are taken, so the id is the text
    before the first comma, as csv.reader splits it. loadtxt's float syntax
    is a subset of float()'s, with the same values. A cell loadtxt or a
    converter rejects, or a repeated id, leaves the file to the row scan.
    """
    ids: list[str] = []

    def data_lines():
        for line in fh:
            if line in _BLANK_LINES:
                continue
            if line.count(",") != n_values or '"' in line or len(line) > _FIELD_LIMIT:
                raise ValueError("line needs the row scan")
            ids.append(line.partition(",")[0].strip())
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
    unique = set(ids)
    return (ids, values) if len(unique) == len(ids) and "" not in unique else None


_PRIVACY_HEADER = ["image_id", *PRIVACY_FEATURE_NAMES]
# The largest people_count a privacy store may hold: analyze's people curve
# has a point for each count up to the largest one.
MAX_PEOPLE_COUNT = 10_000


def _parse_sensitivity_cell(cell: str, path, lineno) -> Likelihood | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        return Likelihood[cell.upper()]
    except KeyError:
        pass
    try:
        value = float(cell)
    except ValueError:
        raise ParseError(f"bad sensitivity cell {cell!r}", path=path, line=lineno)
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"sensitivity value {value} out of [0,1]", path=path, line=lineno)
    # numeric cells snap to the nearest of the five levels
    return Likelihood(int(round(value * 4)))


class _LevelCodes(dict):
    """Bulk converter table: cell -> encoded level, NaN for an empty cell.

    Exact level tokens are plain lookups; any other cell goes through the
    row scan's parser, whose ParseError leaves the file to the row scan.
    """

    def __missing__(self, cell: str) -> float:
        level = _parse_sensitivity_cell(cell, None, None)
        return np.nan if level is None else encode_likelihood(level)


_LEVEL_CODES = _LevelCodes({lvl.name: encode_likelihood(lvl) for lvl in Likelihood})
# keyed by file column, which counts the image_id first
_PRIVACY_CONVERTERS = {**{1 + col: _LEVEL_CODES.__getitem__
                          for col in range(len(SENSITIVITY_CLASSES))}, 1 + PEOPLE_COUNT: int}


def decode_levels(values: np.ndarray) -> np.ndarray:
    """Likelihood level of each sensitivity column, decoded from ``level / 4``."""
    return np.rint(values[:, SENSITIVITY] * 4).astype(np.intp)


def _bulk_privacy_store(path) -> FeatureStore | None:
    with _open_csv(path) as fh:
        if _header_row(fh, path, 1)[0] != _PRIVACY_HEADER:
            return None  # the row scan reports it
        parsed = _parse_bulk(fh, len(PRIVACY_FEATURE_NAMES), _PRIVACY_CONVERTERS)
    if parsed is None:
        return None
    ids, values = parsed
    missing = np.isnan(values[:, SENSITIVITY])
    values[:, SENSITIVITY][missing] = 0.0
    probs, counts = values[:, [PEOPLE_PROB, OUTDOOR_PROB]], values[:, PEOPLE_COUNT]
    if not (((probs >= 0.0) & (probs <= 1.0)).all()
            and ((counts >= 0) & (counts <= MAX_PEOPLE_COUNT)).all()):
        return None
    return FeatureStore(ids, values, missing)


def _scan_privacy_store(path) -> FeatureStore:
    """Row-at-a-time parse; the reference for the bulk path and its error reporter."""
    def parse(line, image_id, row):
        levels = [_parse_sensitivity_cell(c, path, line) for c in row[1:6]]
        try:
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
    return privacy_store(read_table(path, _PRIVACY_HEADER, parse))


def load_privacy_store(path) -> FeatureStore:
    store = _bulk_privacy_store(path)
    return store if store is not None else _scan_privacy_store(path)


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


def _deep_header(fh, path) -> tuple[str, int, list[str]]:
    """(source_tag, dim, column names) from the two header lines of a deep store."""
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
    return source_tag, dim, header[1:]


def _bulk_deep_store(path) -> tuple[str, FeatureStore, list[str]] | None:
    with _open_csv(path) as fh:
        source_tag, dim, columns = _deep_header(fh, path)
        parsed = _parse_bulk(fh, dim)
    if parsed is None or not np.isfinite(parsed[1]).all():
        return None
    return source_tag, FeatureStore(*parsed), columns


def _scan_deep_store(path) -> tuple[str, FeatureStore, list[str]]:
    """Row-at-a-time parse; the reference for the bulk path and its error reporter."""
    with _open_csv(path) as fh:
        source_tag, dim, columns = _deep_header(fh, path)
    def parse(line, image_id, row):
        try:
            values = [float(c) for c in row[1:]]
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=line) from exc
        if not np.isfinite(values).all():
            raise ParseError(f"non-finite value for image {image_id!r}", path=path, line=line)
        return values
    rows = read_table(path, ["image_id", *columns], parse, header_line=2)
    values = np.array(list(rows.values()), dtype=np.float64).reshape(len(rows), dim)
    return source_tag, FeatureStore(list(rows), values), columns


def _parse_deep_store(path) -> tuple[str, FeatureStore, list[str]]:
    loaded = _bulk_deep_store(path)
    return loaded if loaded is not None else _scan_deep_store(path)


def file_sha256(path) -> str:
    """The hex sha256 of the bytes of the file at `path`, read in 1 MiB chunks."""
    import hashlib  # imported here: it loads OpenSSL, and only a cached load hashes

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


# Part of each entry's name. Bump it whenever the deep-store parser accepts or
# rejects other files, or returns other results, or the entry layout changes,
# so no older entry is read.
STORE_CACHE_VERSION = 2


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
    """Parsed deep stores under `root`, one entry per file content.

    An entry is one file, `deep-v<STORE_CACHE_VERSION>-<sha256 of the
    file>.npy`: the values as `np.save` writes them, then the JSON list
    ``[source tag, column names, ids]``. Loading writes nothing: a parse is
    only recorded, and `save` writes the recorded entries. A command saves
    once its input checks have passed.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._parsed: dict[Path, tuple[str, FeatureStore, list[str]]] = {}  # by entry

    def load(self, path) -> tuple[str, FeatureStore, list[str]]:
        """The deep store at `path`, from its entry when one exists and can be
        read (else with a warning), otherwise parsed and recorded."""
        try:
            key = file_sha256(path)
        except OSError:  # the parser reports an unreadable file
            return _parse_deep_store(path)
        entry = self.root / f"deep-v{STORE_CACHE_VERSION}-{key}.npy"
        if entry.exists():
            try:
                with open(entry, "rb") as fh:
                    values = np.load(fh, allow_pickle=False)
                    tag, columns, ids = json.loads(fh.read())
                if not (isinstance(ids, list) and isinstance(columns, list)
                        and all(isinstance(s, str) for s in (tag, *columns, *ids))
                        and values.dtype == np.float64
                        and values.shape == (len(ids), len(columns))):
                    raise ValueError("values and metadata disagree")
                return tag, FeatureStore(ids, values), columns
            except (OSError, EOFError, ValueError, TypeError, AttributeError) as exc:
                log.warning("ignoring unreadable store cache entry %s: %s", entry, exc)
        loaded = self._parsed[entry] = _parse_deep_store(path)
        return loaded

    def save(self) -> None:
        """Write the entries recorded since the last save; an OSError is one warning."""
        parsed, self._parsed = self._parsed, {}
        try:
            for entry, (tag, store, columns) in parsed.items():
                meta = json.dumps([tag, columns, store.ids]).encode("ascii")
                self.root.mkdir(exist_ok=True)
                publish(entry, lambda fh: (np.save(fh, store.values), fh.write(meta)), binary=True)
        except OSError as exc:
            log.warning("cannot save parsed deep stores under %s: %s", self.root, exc)


def load_deep_store(path, cache: StoreCache | None = None) -> tuple[str, FeatureStore, list[str]]:
    """Returns (source_tag, store, the column names of its header).

    With a `cache`, a file whose bytes were parsed before is read from its
    entry, and any other is parsed and recorded there. Every error comes from
    the parser, so the cache holds only stores the parser returned.
    """
    return _parse_deep_store(path) if cache is None else cache.load(path)


def load_annotations(path) -> dict[str, AnnotationRecord]:
    def parse(line, image_id, row):
        vote_tok = row[2].strip()
        try:
            return FiveClassVote[vote_tok.upper()]
        except KeyError:
            raise UnknownVote(vote_tok, path=path, line=line)
    votes = read_table(path, ["image_id", "assessor_id", "vote"], parse, keyed=False)
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
    rows = [store.rows(ids) if store is not None else np.full(len(ids), -1)
            for store, _, _ in sources]

    unlabeled = manifest.missing[picked, LABEL]
    bad = np.logical_or.reduce([unlabeled, *(r < 0 for r in rows)])
    if bad.any():
        i = int(np.argmax(bad))  # the first failing image, checked as the manifest orders it
        if unlabeled[i]:
            raise MissingLabel(ids[i])
        raise next(MissingFeatures(ids[i], name)
                   for (_, name, _), r in zip(sources, rows) if r[i] < 0)

    blocks = {group: store.values[r, cols]
              for (store, _, columns), r in zip(sources, rows) for group, cols in columns.items()}
    y = manifest.values[picked, LABEL]
    return assemble_features(blocks, spec.groups), y, ids
