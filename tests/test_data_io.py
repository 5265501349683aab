import json
import logging
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from privlens.data_io import (
    _bulk_deep_store,
    _bulk_privacy_store,
    _scan_deep_store,
    _scan_privacy_store,
    AnnotationRecord,
    Dataset,
    FeatureStore,
    FiveClassVote,
    Split,
    StoreCache,
    assign_splits,
    build_design_matrix,
    load_annotations,
    load_deep_store,
    load_image_refs,
    load_manifest,
    load_privacy_store,
    manifest_store,
    privacy_store,
    publish,
    vote_store,
    write_manifest,
    write_privacy_store,
)
from privlens.config import DataPaths, ExperimentConfig, load_dataset
from privlens.extractors import load_detections, load_io_map
from privlens.errors import (
    DuplicateId,
    MissingFeatures,
    MissingLabel,
    ParseError,
    PrivlensError,
    UnknownLabel,
    UnknownVote,
)
from privlens.features import (
    FeatureGroup,
    FeatureSpec,
    Likelihood,
    PrivacyLabel,
    encode_likelihood,
)

import frozen_splits
from conftest import make_pfv, manifest_cells

G = FeatureGroup


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestManifest:
    def test_direct_mapping(self, tmp_path):
        path = write(tmp_path, "m.csv", "image_id,label,split\nimg_001,private,train\n")
        assert manifest_cells(load_manifest(path)) == {
            "img_001": ("private", "train")}

    def test_optional_fields_empty(self, tmp_path):
        path = write(tmp_path, "m.csv", "image_id,label,split\nimg_001,,\n")
        manifest = load_manifest(path)
        assert manifest_cells(manifest) == {"img_001": ("", "")}
        assert manifest.missing.all()

    def test_duplicate_id(self, tmp_path):
        path = write(tmp_path, "m.csv",
                     "image_id,label,split\nimg_001,private,train\nimg_001,public,test\n")
        with pytest.raises(DuplicateId):
            load_manifest(path)

    def test_unknown_label(self, tmp_path):
        path = write(tmp_path, "m.csv", "image_id,label,split\nimg_002,secret,train\n")
        with pytest.raises(UnknownLabel):
            load_manifest(path)

    def test_bad_header(self, tmp_path):
        path = write(tmp_path, "m.csv", "id,lab\nimg,private\n")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_roundtrip_write(self, tmp_path):
        cells = {"a": ("public", "val"), "b": ("", "")}
        path = tmp_path / "out.csv"
        write_manifest(path, manifest_store(cells))
        assert manifest_cells(load_manifest(path)) == cells


class TestImageRefs:
    def test_direct_mapping(self, tmp_path):
        path = write(tmp_path, "r.csv", "image_id,uri\na, http://x/1\nb,http://x/2\n")
        assert load_image_refs(path) == {"a": "http://x/1", "b": "http://x/2"}

    def test_repeated_id_is_duplicate_at_its_line(self, tmp_path):
        path = write(tmp_path, "r.csv", "image_id,uri\na,http://x/1\na,http://x/2\n")
        with pytest.raises(DuplicateId) as info:
            load_image_refs(path)
        assert str(info.value) == f"duplicate image_id: 'a' [{path}:3]"

    @pytest.mark.parametrize("cell", ["", "  "], ids=["empty", "blank"])
    def test_empty_id_is_parse_error_at_its_line(self, tmp_path, cell):
        path = write(tmp_path, "r.csv", f"image_id,uri\na,http://x/1\n{cell},http://x/3\n")
        with pytest.raises(ParseError) as info:
            load_image_refs(path)
        assert str(info.value) == f"empty image_id [{path}:3]"

    @pytest.mark.parametrize("cell", ["", "  "], ids=["empty", "blank"])
    def test_empty_uri_is_parse_error_at_its_line(self, tmp_path, cell):
        path = write(tmp_path, "r.csv", f"image_id,uri\na,http://x/1\nb,{cell}\n")
        with pytest.raises(ParseError) as info:
            load_image_refs(path)
        assert str(info.value) == f"empty uri [{path}:3]"


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
@pytest.mark.parametrize("load, lines", [
    (load_manifest, [b"image_id,label,split", b"a,private,train", b"b,pub\xfflic,test"]),
    (load_io_map, [b"# scenes", b"beach,outdoor", b"k\xffitchen,indoor"]),
], ids=["manifest", "io map"])
def test_bad_byte_is_placed_at_its_line(tmp_path, load, lines, newline):
    # the text layer ends a line at LF, CRLF or a lone CR; the reported line must agree
    path = tmp_path / "in.txt"
    path.write_bytes(newline.encode().join(lines) + newline.encode())
    with pytest.raises(ParseError) as info:
        load(path)
    assert info.value.line == 3
    assert str(info.value) == f"not UTF-8: invalid start byte [{path}:3]"


PRIVACY_HEADER = ("image_id,adult,racy,medical,spoofed,violent,"
                  "people_prob,people_count,outdoor_prob\n")
DEEP_HEADER = "#source_tag=rn,dim=2\nimage_id,v0,v1\n"


@pytest.mark.parametrize("cell", ["", "  ", '""'], ids=["empty", "blank", "quoted"])
@pytest.mark.parametrize("load, head, row, lineno", [
    (load_privacy_store, PRIVACY_HEADER, "{},POSSIBLE,,,,,0.5,1,0.25", 3),
    (load_deep_store, DEEP_HEADER, "{},0.5,1.5", 4),
    (load_annotations, "image_id,assessor_id,vote\n", "{},u1,PRIVATE", 3),
], ids=["privacy store", "deep store", "annotations"])
def test_empty_id_is_parse_error_at_its_line(tmp_path, load, head, row, lineno, cell):
    # the line before the bad one is valid; an unquoted file first takes the bulk path
    good = row.format("a")
    path = write(tmp_path, "in.csv", head + good + "\n" + row.format(cell) + "\n")
    with pytest.raises(ParseError) as info:
        load(path)
    assert str(info.value) == f"empty image_id [{path}:{lineno}]"


# Each table after a row whose quoted id spans two lines: the fault is on the
# next physical line, not on the next row. The quote also sends both stores
# to their row scans.
_SPANNING_ID = '"x\ny"'


@pytest.mark.parametrize("load, head, good, bad, message", [
    (load_manifest, "image_id,label,split\n", "{},public,train", "b,bogus,train",
     "unknown privacy label: 'bogus'"),
    (load_image_refs, "image_id,uri\n", "{},http://x/1", "b", "expected 2 fields, got 1"),
    (load_privacy_store, PRIVACY_HEADER, "{},POSSIBLE,,,,,0.5,1,0.25",
     "b,MAYBE,,,,,0.5,1,0.25", "bad sensitivity cell 'MAYBE'"),
    (load_deep_store, DEEP_HEADER, "{},0.5,1.5", "b,zz,1.5",
     "could not convert string to float: 'zz'"),
    (load_annotations, "image_id,assessor_id,vote\n", "{},u1,PRIVATE", "b,u1,MAYBE",
     "unknown vote token: 'MAYBE'"),
    (load_detections, "image_id,class_name,confidence\n", "{},person,0.9", "b,person,high",
     "could not convert string to float: 'high'"),
    (load_manifest, "image_id,label,split\n", "{},public,train", "b," + "x" * 131_073 + ",",
     "malformed CSV: field larger than field limit (131072)"),
    (load_manifest, '"image_id\n",label,split\n', "{},public,train", "b,bogus,train",
     "unknown privacy label: 'bogus'"),
], ids=["manifest", "image refs", "privacy store", "deep store", "annotations", "detections",
        "malformed CSV", "header spanning lines"])
def test_error_after_a_field_spanning_lines_names_its_physical_line(tmp_path, load, head,
                                                                     good, bad, message):
    path = write(tmp_path, "in.csv", head + good.format(_SPANNING_ID) + "\n" + bad + "\n")
    line = head.count("\n") + 3
    with pytest.raises(PrivlensError) as info:
        load(path)
    assert str(info.value) == f"{message} [{path}:{line}]"
    assert info.value.line == line


def test_row_spanning_lines_is_placed_at_its_last_line(tmp_path):
    path = write(tmp_path, "m.csv", 'image_id,label,split\na,public,train\n"x\ny",public\n')
    with pytest.raises(ParseError) as info:
        load_manifest(path)
    assert str(info.value) == f"expected 3 fields, got 2 [{path}:4]"


@pytest.mark.parametrize("load, head, rows, expected", [
    # a repeated id before a bad cell, then an empty id before a wrong width
    (load_privacy_store, PRIVACY_HEADER, ["a,,,,,,0.5,1,0.25", "a,MAYBE,,,,,0.5,1,0.25"],
     (DuplicateId, "duplicate image_id: 'a'")),
    (load_privacy_store, PRIVACY_HEADER, [",,,,,,0.5,1"], (ParseError, "expected 9 fields, got 8")),
    (load_deep_store, DEEP_HEADER, ["a,1,2", "a,zz,2"], (DuplicateId, "duplicate image_id: 'a'")),
    (load_deep_store, DEEP_HEADER, ["a,1,2", ",1"], (ParseError, "expected 3 fields, got 2")),
], ids=["privacy id before cells", "privacy width before id", "deep id before cells",
        "deep width before id"])
def test_a_rows_checks_run_in_one_order(tmp_path, load, head, rows, expected):
    path = write(tmp_path, "in.csv", head + "".join(row + "\n" for row in rows))
    line = head.count("\n") + len(rows)
    assert _outcome(load, path) == (expected[0], f"{expected[1]} [{path}:{line}]")


class TestPrivacyStore:
    def test_level_tokens(self, tmp_path):
        path = write(tmp_path, "p.csv", PRIVACY_HEADER +
                     "img_001,VERY_UNLIKELY,POSSIBLE,VERY_UNLIKELY,VERY_UNLIKELY,"
                     "UNLIKELY,0.92,2,0.10\n")
        store = load_privacy_store(path)
        vec = store.values[store.index["img_001"]]
        assert vec[0] == encode_likelihood(Likelihood.VERY_UNLIKELY)
        assert vec[1] == encode_likelihood(Likelihood.POSSIBLE)
        assert vec[4] == encode_likelihood(Likelihood.UNLIKELY)
        assert vec[5] == 0.92 and vec[6] == 2
        assert vec[7] == 0.10
        assert not store.missing.any()

    def test_numeric_sensitivity_cells(self, tmp_path):
        path = write(tmp_path, "p.csv", PRIVACY_HEADER +
                     "img_001,0.0,0.5,1.0,0.25,0.75,0.1,0,0.2\n")
        store = load_privacy_store(path)
        vec = store.values[store.index["img_001"]]
        assert vec[0] == encode_likelihood(Likelihood.VERY_UNLIKELY)
        assert vec[1] == encode_likelihood(Likelihood.POSSIBLE)
        assert vec[2] == encode_likelihood(Likelihood.VERY_LIKELY)

    def test_empty_sensitivity_cell_is_missing(self, tmp_path):
        path = write(tmp_path, "p.csv", PRIVACY_HEADER + "img_001,,,,,,0.1,0,0.2\n")
        store = load_privacy_store(path)
        row = store.index["img_001"]
        assert store.values[row, 0] == 0.0 and store.missing[row].all()

    def test_kind_dispatch(self, tmp_path):
        path = write(tmp_path, "p.csv", PRIVACY_HEADER)
        assert len(load_privacy_store(path)) == 0
        with pytest.raises(ParseError):
            load_deep_store(path)  # each store kind has its own loader and header


class TestDeepStore:
    def test_happy_path(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "#source_tag=rn101,dim=3\nimage_id,v0,v1,v2\nimg_1,0.5,1.5,-2\n")
        tag, store, columns = load_deep_store(path)
        assert tag == "rn101" and columns == ["v0", "v1", "v2"]
        np.testing.assert_allclose(store.values[store.index["img_1"]], [0.5, 1.5, -2.0])

    def test_dim_mismatch(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "#source_tag=rn101,dim=3\nimage_id,v0,v1,v2\nimg_1,0.5,1.5\n")
        with pytest.raises(ParseError, match=re.escape(f"expected 4 fields, got 3 [{path}:3]")):
            load_deep_store(path)

    @pytest.mark.parametrize("names", ["v0", "v0,v1,v2,v3"])
    def test_header_width_differing_from_dim_is_parse_error(self, tmp_path, names):
        path = write(tmp_path, "d.csv", f"#source_tag=rn,dim=3\nimage_id,{names}\na,1,2,3\n")
        with pytest.raises(ParseError, match=re.escape(f"[{path}:2]")):
            load_deep_store(path)

    def test_blank_column_header_line(self, tmp_path):
        path = write(tmp_path, "d.csv", "#source_tag=rn101,dim=1\n\nimage_id,v0\nimg_1,0.5\n")
        with pytest.raises(ParseError, match=re.escape(f"[{path}:2]")):
            load_deep_store(path)

    def test_empty_body_valid_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "#source_tag=rn101,dim=3\nimage_id,v0,v1,v2\n")
        tag, store, _ = load_deep_store(path)
        assert tag == "rn101" and len(store) == 0 and store.values.shape == (0, 3)

    def test_missing_header(self, tmp_path):
        path = write(tmp_path, "d.csv", "image_id,v0\nimg_1,0.5\n")
        with pytest.raises(ParseError):
            load_deep_store(path)


class TestAnnotations:
    def test_multi_row_merge(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "image_id,assessor_id,vote\nimg_9,a1,PRIVATE\nimg_9,a2,PUBLIC\n")
        rec = load_annotations(path)["img_9"]
        assert rec.votes == (FiveClassVote.PRIVATE, FiveClassVote.PUBLIC)

    def test_third_vote_appends(self, tmp_path):
        path = write(tmp_path, "a.csv",
                     "image_id,assessor_id,vote\nimg_9,a1,PRIVATE\nimg_9,a2,PUBLIC\n"
                     "img_9,a3,UNDECIDABLE\n")
        assert len(load_annotations(path)["img_9"].votes) == 3

    def test_unknown_vote(self, tmp_path):
        path = write(tmp_path, "a.csv", "image_id,assessor_id,vote\nimg_9,a1,MAYBE\n")
        with pytest.raises(UnknownVote):
            load_annotations(path)


class TestDesignMatrix:
    def test_shapes_full_privacy(self, tiny_dataset):
        X, y, ids = build_design_matrix(
            tiny_dataset, Split.TRAIN, FeatureSpec({G.SENS, G.PEOPLE, G.OUT})
        )
        assert X.shape == (3, 8)
        np.testing.assert_array_equal(y, [0.0, 1.0, 0.0])
        assert ids == ["a", "b", "c"]

    def test_sens_only_shape(self, tiny_dataset):
        X, _, _ = build_design_matrix(tiny_dataset, Split.TRAIN, FeatureSpec({G.SENS}))
        assert X.shape == (3, 5)

    def test_missing_deep_features(self, tiny_dataset):
        with pytest.raises(MissingFeatures):
            build_design_matrix(
                tiny_dataset, Split.TRAIN, FeatureSpec({G.DEEP}, source_tag="rn101")
            )

    def test_missing_label(self):
        ds = Dataset(manifest_store({"x": ("", "train"), "y": ("public", "train")}),
                     privacy_features=privacy_store({"x": make_pfv(), "y": make_pfv()}))
        with pytest.raises(MissingLabel):
            build_design_matrix(ds, Split.TRAIN, FeatureSpec({G.SENS}))

    def test_permuting_manifest_permutes_rows(self, tiny_dataset):
        X, y, ids = build_design_matrix(tiny_dataset, Split.TRAIN,
                                        FeatureSpec({G.SENS, G.PEOPLE, G.OUT}))
        cells = manifest_cells(tiny_dataset.manifest)
        flipped = Dataset(manifest_store(dict(reversed(cells.items()))),
                          privacy_features=tiny_dataset.privacy_features)
        X2, y2, ids2 = build_design_matrix(flipped, Split.TRAIN,
                                           FeatureSpec({G.SENS, G.PEOPLE, G.OUT}))
        assert ids2 == list(reversed(ids))
        np.testing.assert_array_equal(X2, X[::-1])
        np.testing.assert_array_equal(y2, y[::-1])

    def test_load_build_deterministic(self, synth_corpus):
        def build():
            manifest = load_manifest(synth_corpus / "manifest.csv")
            store = load_privacy_store(synth_corpus / "privacy_features.csv")
            ds = Dataset(manifest, privacy_features=store)
            return build_design_matrix(ds, Split.TRAIN, FeatureSpec({G.SENS, G.PEOPLE, G.OUT}))
        X1, y1, ids1 = build()
        X2, y2, ids2 = build()
        assert X1.tobytes() == X2.tobytes()
        assert y1.tobytes() == y2.tobytes()
        assert ids1 == ids2


class TestSplits:
    def test_assign_splits_reproducible_and_proportioned(self):
        manifest = manifest_store({f"i{i}": ("public", "") for i in range(100)})
        a = manifest_cells(assign_splits(manifest, seed=5))
        b = manifest_cells(assign_splits(manifest, seed=5))
        assert a == b
        counts = {s: sum(1 for _, split in a.values() if split == s.value) for s in Split}
        assert counts[Split.TRAIN] == 70 and counts[Split.VAL] == 10
        assert counts[Split.TEST] == 20

    def test_existing_splits_kept(self):
        manifest = manifest_store({"a": ("", "test"), "b": ("", "")})
        out = manifest_cells(assign_splits(manifest, seed=1))
        assert out["a"] == ("", "test")

    def test_unknown_store_id_warns_not_raises(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            ds = Dataset(
                manifest_store({"a": ("public", "")}),
                privacy_features=privacy_store({"a": make_pfv(), "ghost": make_pfv()}),
                deep_features={"rn": FeatureStore(["a"], np.zeros((1, 2)))},
                annotations=vote_store({i: AnnotationRecord(i, (FiveClassVote.PRIVATE,))
                                        for i in ("z", "a", "y")}),
            )
        # one line per unknown id, store by store and in each store's file order
        assert [r.getMessage() for r in caplog.records] == [
            "privacy_features id 'ghost' not in manifest; ignored in matrices",
            "annotations id 'z' not in manifest; ignored in matrices",
            "annotations id 'y' not in manifest; ignored in matrices",
        ]
        X, y, ids = build_design_matrix(ds, None, FeatureSpec({G.SENS}))
        assert ids == ["a"]  # the orphan id never reaches the matrix


class TestNonFiniteDeepCell:
    def test_nan_is_parse_error_with_line(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "#source_tag=rn101,dim=2\nimage_id,v0,v1\nimg_1,0.5,1.5\nimg_2,nan,1\n")
        with pytest.raises(ParseError, match=r"d\.csv:4\]"):
            load_deep_store(path)

    def test_inf_is_parse_error_with_line(self, tmp_path):
        path = write(tmp_path, "d.csv",
                     "#source_tag=rn101,dim=2\nimage_id,v0,v1\nimg_1,-inf,1.5\n")
        with pytest.raises(ParseError, match=r"d\.csv:3\]"):
            load_deep_store(path)


# --- the bulk loaders against the row scan ------------------------------------
#
# Generated stores mix valid cells (level tokens in any case, numeric and
# empty sensitivity cells, padding) with blank lines, ids holding '#' or
# quotes, duplicate ids and malformed cells or rows. Wherever the row scan
# returns a store, the bulk path must return the identical one or leave the
# file to the row scan; wherever the row scan raises, the bulk path must not
# return a store, and the public loader must raise the same error.

_PADS = st.sampled_from(["", " ", "  "])


def _padded(cells):
    return st.builds(lambda a, c, b: a + c + b, _PADS, cells, _PADS)


def _quoted(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"'


_IDS = st.text(alphabet="abz09_#-", min_size=1, max_size=4)
_ID_CELL_FORMS = st.sampled_from([str, str, str, _quoted, lambda i: f" {i} "])
_SENS_CELLS = st.one_of(
    _padded(st.sampled_from([lvl.name for lvl in Likelihood])),
    st.sampled_from(["very_likely", "Possible", "unLikely"]),
    _padded(st.floats(0, 1).map(repr)),
    st.sampled_from(["0.125", "0.375", "0.5", "1", "0", "", "  "]),
)
_PROB_CELLS = st.one_of(st.floats(0, 1).map(lambda x: f"{x:.6f}"),
                        _padded(st.floats(0, 1).map(repr)))
_COUNT_CELLS = _padded(st.integers(0, 6).map(str))
_BAD_CELLS = st.sampled_from(["MAYBE", "1.5", "-0.25", "nan", "inf", "x", "", "1e400", '"0.5"'])
# out of range or not finite, where the cells are plain numbers
_BAD_NUMBERS = st.sampled_from(["1.5", "-0.25", "-1", "nan", "-inf", "1e400"])
_BLANK = st.sampled_from(["", "", " "])  # a whitespace-only line is a malformed row


@st.composite
def _store_lines(draw, row_cells):
    """A store body: mostly valid rows, sometimes a blank line, a row with a
    field too few or too many, a malformed cell, a bad number in one of the
    last three cells, a repeated id or an empty one."""
    ids = draw(st.lists(_IDS, min_size=6, max_size=8, unique=True))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            lines.append(draw(_BLANK))
            continue
        image_id = draw(st.sampled_from(ids)) if kind == 1 else ids[len(lines) % len(ids)]
        cells = [draw(_ID_CELL_FORMS)(image_id)] + draw(row_cells)
        if kind == 2:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
        elif kind == 3:
            cells[draw(st.integers(1, len(cells) - 1))] = draw(_BAD_CELLS)
        elif kind == 4:
            cells[draw(st.integers(max(1, len(cells) - 3), len(cells) - 1))] = draw(_BAD_NUMBERS)
        elif kind == 5:
            cells[0] = draw(st.sampled_from(["", " ", '""']))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(line + newline for line in lines)


_PRIVACY_ROWS = st.tuples(
    *[_SENS_CELLS] * 5, _PROB_CELLS, _COUNT_CELLS, _PROB_CELLS,
).map(list)


def _outcome(load, path):
    try:
        return load(path)
    except PrivlensError as exc:
        return type(exc), str(exc)


def _same_store(a, b) -> bool:
    return (
        a.ids == b.ids
        and a.values.dtype == b.values.dtype
        and a.values.shape == b.values.shape
        and a.values.tobytes() == b.values.tobytes()
        and (a.missing is None) == (b.missing is None)
        and (a.missing is None or np.array_equal(a.missing, b.missing))
    )


_PROPERTY = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestBulkMatchesRowScan:
    @_PROPERTY
    @given(_store_lines(_PRIVACY_ROWS))
    def test_privacy_store(self, tmp_path, body):
        path = tmp_path / "p.csv"
        path.write_text(PRIVACY_HEADER + body, encoding="utf-8", newline="")
        scanned = _outcome(_scan_privacy_store, path)
        bulk = _bulk_privacy_store(path)
        if isinstance(scanned, tuple):  # the row scan rejects the file
            assert bulk is None
            assert _outcome(load_privacy_store, path) == scanned
            return
        if '"' not in body:  # a valid unquoted file never needs the row scan
            assert bulk is not None
        if bulk is not None:
            assert _same_store(bulk, scanned)
        assert _same_store(load_privacy_store(path), scanned)

    @_PROPERTY
    @given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
        st.just(dim),
        _store_lines(st.lists(
            st.one_of(
                _padded(st.floats(-1e6, 1e6).map(repr)),
                st.floats(-10, 10).map(lambda x: f"{x:.5f}"),
                st.floats(allow_nan=True, allow_infinity=True).map(repr),
            ),
            min_size=dim, max_size=dim,
        )),
    )))
    def test_deep_store(self, tmp_path, dim_body):
        dim, body = dim_body
        path = tmp_path / "d.csv"
        header = f"#source_tag=rn,dim={dim}\nimage_id," + ",".join(
            f"v{k}" for k in range(dim)) + "\n"
        path.write_text(header + body, encoding="utf-8", newline="")
        scanned = _outcome(_scan_deep_store, path)
        bulk = _bulk_deep_store(path)
        if isinstance(scanned[1], str):  # the row scan rejects the file
            assert bulk is None
            assert _outcome(load_deep_store, path) == scanned
            return
        if '"' not in body:
            assert bulk is not None
        for tag, store, columns in [t for t in (bulk, load_deep_store(path)) if t is not None]:
            assert tag == scanned[0] == "rn"
            assert _same_store(store, scanned[1])
            assert columns == scanned[2] == [f"v{k}" for k in range(dim)]


# Manifests: ids csv.writer may quote, with or without labels, some splits preset.
_MANIFESTS = st.booleans().flatmap(lambda labeled: st.dictionaries(
    st.text(alphabet='ab_9,"/ ', min_size=1, max_size=6).filter(lambda s: s == s.strip()),
    st.tuples(st.sampled_from(["", "private", "public"] if labeled else [""]),
              st.sampled_from(["", "", "train", "val", "test"])),
    max_size=40,
))
_FRACTIONS = st.one_of(
    st.just((0.7, 0.1, 0.2)),
    st.tuples(st.floats(0, 1), st.floats(0, 1)).map(
        lambda ab: (ab[0], (1 - ab[0]) * ab[1], 1 - ab[0] - (1 - ab[0]) * ab[1])),
)


class TestWritePrivacyStore:
    @_PROPERTY
    @given(st.lists(st.tuples(
        st.sampled_from(["img_{}", "a,{}", 'q"{}']),  # the last two are written quoted
        st.lists(st.sampled_from([None, *Likelihood]), min_size=5, max_size=5),
        st.floats(0, 1), st.integers(0, 10**6), st.floats(0, 1)), max_size=12))
    def test_load_reads_back_the_written_store(self, tmp_path, rows):
        # the probabilities at 6 decimals, the precision the file keeps
        store = privacy_store({fmt.format(i): (*levels, round(prob, 6), count, round(out, 6))
                               for i, (fmt, levels, prob, count, out) in enumerate(rows)})
        path = tmp_path / "privacy_features.csv"
        write_privacy_store(path, store)
        assert _same_store(load_privacy_store(path), store)


def _records(cells):
    return [frozen_splits.Record(image_id, PrivacyLabel(label) if label else None,
                                 Split(split) if split else None)
            for image_id, (label, split) in cells.items()]


def _tokens(records):
    return {r.image_id: (r.binary_label.value if r.binary_label else "",
                         r.split.value if r.split else "") for r in records}


class TestManifestMatchesFrozenReference:
    @_PROPERTY
    @given(_MANIFESTS, st.integers(0, 2**64), _FRACTIONS)
    def test_assign_splits(self, cells, seed, fractions):
        expected = frozen_splits.assign_splits(_records(cells), seed, fractions)
        got = manifest_cells(assign_splits(manifest_store(cells), seed, fractions))
        assert got == _tokens(expected)

    @_PROPERTY
    @given(_MANIFESTS, st.integers(0, 2**64), _FRACTIONS)
    def test_written_bytes_and_reload(self, tmp_path, cells, seed, fractions):
        manifest = manifest_store(cells)
        assigned = assign_splits(manifest, seed, fractions)
        for store, records in ((manifest, _records(cells)),
                               (assigned, frozen_splits.assign_splits(_records(cells), seed,
                                                                      fractions))):
            write_manifest(tmp_path / "new.csv", store)
            frozen_splits.write_manifest(tmp_path / "ref.csv", records)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
            assert _same_store(load_manifest(tmp_path / "new.csv"), store)

    @_PROPERTY
    @given(_MANIFESTS, st.integers(0, 2**32), _FRACTIONS)
    def test_manifest_with_splits_csv(self, tmp_path, cells, seed, fractions):
        # the command writes the assigned manifest at its commit point (tests/test_cli.py)
        frozen_splits.write_manifest(tmp_path / "manifest.csv", _records(cells))
        out = tmp_path / "out"
        cfg = ExperimentConfig(DataPaths(tmp_path / "manifest.csv"), seed=seed,
                               split_fractions=fractions, out_dir=out)
        ds = load_dataset(cfg, require_splits=True)
        assert not out.exists()
        assert ds.splits_assigned == (not all(split for _, split in cells.values()))
        expected = frozen_splits.assign_splits(_records(cells), cfg.split_seed, fractions)
        assert manifest_cells(ds.manifest) == _tokens(expected)


# --- the parsed deep-store cache ------------------------------------------------

def _no_parse(monkeypatch):
    """Makes any deep-store parse fail the test."""
    def never(path):
        raise AssertionError(f"{path} was parsed")
    monkeypatch.setattr("privlens.data_io._bulk_deep_store", never)
    monkeypatch.setattr("privlens.data_io._scan_deep_store", never)


def _same_deep_store(a, b) -> bool:
    return a[0] == b[0] and a[2] == b[2] and _same_store(a[1], b[1])


_TEXT = st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")
_CACHE_IDS = st.one_of(st.text(_TEXT, min_size=1, max_size=5),
                       st.text(_TEXT, max_size=4).map(lambda s: s + "\x00"))


@st.composite
def _deep_files(draw):
    """A valid deep store: any source tag, column names and ids, some cells
    quoted, so that both the bulk parse and the row scan are reached."""
    dim = draw(st.integers(1, 3))
    tag = draw(st.text(st.characters(blacklist_categories=("Cs",),
                                     blacklist_characters="\r\n,"), max_size=4))
    names = draw(st.lists(st.text(_TEXT, max_size=4), min_size=dim, max_size=dim))
    ids = draw(st.lists(_CACHE_IDS.filter(lambda s: s.strip() == s), max_size=6, unique=True))
    rows = [[i, *draw(st.lists(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                               min_size=dim, max_size=dim))] for i in ids]
    quote = draw(st.booleans())

    def line(cells):
        return ",".join(_quoted(c) if quote or any(q in c for q in ',"') else c for c in cells)

    return (f"#source_tag={tag},dim={dim}\n" + line(["image_id", *names]) + "\n"
            + "".join(line(r) + "\n" for r in rows))


class TestStoreCache:
    @_PROPERTY
    @given(_deep_files())
    def test_cached_load_equals_the_parse(self, tmp_path, body):
        example = Path(tempfile.mkdtemp(dir=tmp_path))  # tmp_path is shared by the examples
        path, root = example / "d.csv", example / "cache"
        path.write_text(body, encoding="utf-8", newline="")
        parsed = load_deep_store(path)
        cache = StoreCache(root)
        assert _same_deep_store(load_deep_store(path, cache), parsed)
        cache.save()
        with pytest.MonkeyPatch.context() as mp:
            _no_parse(mp)
            cached = load_deep_store(path, StoreCache(root))
        assert _same_deep_store(cached, parsed)
        assert cached[1].values.flags.writeable and cached[1].values.dtype == np.float64

    def _entry(self, tmp_path, text=DEEP_HEADER + "a,0.5,1.5\nb\x00,-2,3e-3\n"):
        path = write(tmp_path, "d.csv", text)
        cache = StoreCache(tmp_path / "cache")
        loaded = load_deep_store(path, cache)
        cache.save()
        return path, loaded

    @pytest.mark.parametrize("damage", [
        lambda npy, meta: npy.write_bytes(npy.read_bytes()[:-5]),
        lambda npy, meta: npy.write_bytes(npy.read_bytes()[:40]),
        lambda npy, meta: npy.write_bytes(b""),
        lambda npy, meta: meta.write_text(json.dumps(
            {**json.loads(meta.read_text()), "ids": ["a"]})),
        lambda npy, meta: meta.write_text(json.dumps(
            {**json.loads(meta.read_text()), "columns": ["v0"]})),
        lambda npy, meta: meta.write_text("{not json"),
        lambda npy, meta: meta.write_text("null"),
        lambda npy, meta: meta.unlink(),
        lambda npy, meta: (npy.unlink(), npy.mkdir()),
        lambda npy, meta: (meta.unlink(), meta.mkdir()),
    ], ids=["truncated npy", "truncated npy header", "empty npy", "ids of wrong length",
            "columns of wrong length", "non-JSON metadata", "metadata not an object",
            "metadata missing", "directory at the npy", "directory at the metadata"])
    def test_bad_entry_is_one_warning_a_parse_and_a_rewrite(self, tmp_path, caplog,
                                                             monkeypatch, damage):
        path, first = self._entry(tmp_path)
        (npy,) = (tmp_path / "cache").glob("*.npy")
        meta = npy.with_suffix(".json")
        damage(npy, meta)
        cache = StoreCache(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            assert _same_deep_store(load_deep_store(path, cache), first)
            cache.save()
        (record,) = caplog.records
        assert record.getMessage().startswith(
            f"ignoring unreadable store cache entry {npy.with_suffix('')}: ")
        caplog.clear()
        _no_parse(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            assert _same_deep_store(load_deep_store(path, StoreCache(tmp_path / "cache")), first)
        assert caplog.records == []
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [meta.name, npy.name]

    def test_edit_keeping_size_and_mtime_is_a_miss(self, tmp_path):
        path, first = self._entry(tmp_path)
        stat = path.stat()
        path.write_text(path.read_text().replace("0.5", "0.7"))
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert path.stat().st_size == stat.st_size
        cache = StoreCache(tmp_path / "cache")
        tag, store, _ = load_deep_store(path, cache)
        assert store.values[0].tolist() == [0.7, 1.5]
        cache.save()
        assert len(list((tmp_path / "cache").glob("*.npy"))) == 2

    def test_entries_are_written_only_by_save(self, tmp_path):
        path = write(tmp_path, "d.csv", DEEP_HEADER + "a,0.5,1.5\n")
        cache = StoreCache(tmp_path / "cache")
        load_deep_store(path, cache)
        assert not (tmp_path / "cache").exists()
        cache.save()
        assert len(list((tmp_path / "cache").iterdir())) == 2

    @pytest.mark.parametrize("text", [DEEP_HEADER + ",0.5,1.5\n", DEEP_HEADER + "a,nan,1\n",
                                      "image_id,v0\na,1\n"], ids=["empty id", "nan", "header"])
    def test_rejected_file_records_nothing(self, tmp_path, text):
        path = write(tmp_path, "d.csv", text)
        cache = StoreCache(tmp_path / "cache")
        with pytest.raises(ParseError) as info:
            load_deep_store(path, cache)
        assert str(info.value) == str(_outcome(load_deep_store, path)[1])
        cache.save()
        assert not (tmp_path / "cache").exists()

    def test_unreadable_file_is_the_parsers_error(self, tmp_path):
        with pytest.raises(ParseError, match=re.escape(f"[{tmp_path}]")):
            load_deep_store(tmp_path, StoreCache(tmp_path / "cache"))

    def test_failed_save_is_one_warning(self, tmp_path, caplog):
        (tmp_path / "cache").write_text("a file where the cache directory goes")
        path = write(tmp_path, "d.csv", DEEP_HEADER + "a,0.5,1.5\n")
        cache = StoreCache(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            load_deep_store(path, cache)
            cache.save()
        (record,) = caplog.records
        assert record.getMessage().startswith(
            f"cannot save parsed deep stores under {tmp_path / 'cache'}: ")


class TestPublish:
    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_failed_writer_leaves_the_old_file(self, tmp_path, error):
        path = write(tmp_path, "report.csv", "earlier,bytes\n")

        def write_half(fh):
            fh.write("image_id,label\n")
            fh.flush()
            raise error("midway")

        with pytest.raises(error, match="midway"):
            publish(path, write_half)
        assert path.read_bytes() == b"earlier,bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_text_has_no_newline_translation_and_bytes_pass_through(self, tmp_path):
        publish(tmp_path / "a.txt", lambda fh: fh.write("é\r\n\n"))
        publish(tmp_path / "b.bin", lambda fh: fh.write(b"\xff\x00"), binary=True)
        assert (tmp_path / "a.txt").read_bytes() == "é\r\n\n".encode("utf-8")
        assert (tmp_path / "b.bin").read_bytes() == b"\xff\x00"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin"]

    def test_empty_directory_in_its_place_is_replaced(self, tmp_path):
        (tmp_path / "entry.json").mkdir()
        publish(tmp_path / "entry.json", lambda fh: fh.write("{}"))
        assert (tmp_path / "entry.json").read_text() == "{}"
