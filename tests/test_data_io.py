import codecs
import gc
import io
import json
import logging
import os
import re
import sys
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from privlens import data_io
from privlens.data_io import (
    _bulk,
    _bulk_annotations,
    _parse,
    _scan,
    _scan_annotations,
    AnnotationRecord,
    Dataset,
    FeatureStore,
    FiveClassVote,
    MAX_PEOPLE_COUNT,
    STORE_KINDS,
    Split,
    StoreCache,
    aligned,
    assign_splits,
    build_design_matrix,
    file_sha256,
    load_annotations,
    load_deep_store,
    load_image_refs,
    load_manifest,
    load_privacy_store,
    load_vote_store,
    manifest_store,
    privacy_store,
    publish,
    read_table,
    vote_store,
    write_manifest,
    write_privacy_store,
)
from privlens.config import DataPaths, ExperimentConfig, load_dataset
from privlens.extractors import load_categories, load_detections, load_io_map
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

import frozen_row_loop
import frozen_splits
from conftest import make_pfv, manifest_cells, never_parse

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
ANNOTATIONS_HEADER = "image_id,assessor_id,vote\n"
MANIFEST_HEADER = "image_id,label,split\n"


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


def _comparable(loaded):
    """A loader's result in a form `==` compares, arrays as bytes."""
    if isinstance(loaded, FeatureStore):
        return (loaded.ids, loaded.values.dtype, loaded.values.shape, loaded.values.tobytes(),
                None if loaded.missing is None else loaded.missing.tobytes())
    if isinstance(loaded, tuple):
        return tuple(map(_comparable, loaded))
    return loaded


# A valid file for each loader; its bulk parser and whether that takes the
# file; and the line a byte that is not UTF-8 is put on.
_MARKED_FILES = {
    "manifest": (load_manifest, "image_id,label,split\na,public,train\nb,,\n", None, 3),
    "privacy store, bulk": (load_privacy_store, PRIVACY_HEADER + "a,POSSIBLE,,,,,0.5,1,0.25\n"
                            "b,,,,,,0.1,0,0.2\n", (partial(_bulk, "privacy"), True), 3),
    "privacy store, row scan": (load_privacy_store, PRIVACY_HEADER + '"a",POSSIBLE,,,,,0.5,1,0.25\n'
                                "b,,,,,,0.1,0,0.2\n", (partial(_bulk, "privacy"), False), 3),
    "deep store": (load_deep_store, DEEP_HEADER + "a,0.5,1.5\nb,-2,3e-3\n",
                   (partial(_bulk, "deep"), True), 4),
    "annotations, bulk": (load_annotations, ANNOTATIONS_HEADER + "a,u1,PRIVATE\nb,u1,public\n",
                          (_bulk_annotations, True), 3),
    "annotations, row scan": (load_annotations, ANNOTATIONS_HEADER + '"a",u1,PRIVATE\n'
                              "b,u1,public\n", (_bulk_annotations, False), 3),
    "detections": (load_detections, "image_id,class_name,confidence\na,person,0.9\nb,dog,0.5\n",
                   None, 3),
    "image refs": (load_image_refs, "image_id,uri\na,http://x/1\nb,http://x/2\n", None, 3),
    "categories": (load_categories, "beach\nkitchen\n", None, 2),
    "io map": (load_io_map, "beach,outdoor\nkitchen,indoor\n", None, 2),
}


@pytest.mark.parametrize("name", list(_MARKED_FILES))
def test_byte_order_mark_is_skipped(tmp_path, name):
    # spreadsheet tools start a UTF-8 CSV with a byte-order mark
    load, text, bulk, bad_line = _MARKED_FILES[name]
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_bytes(text.encode())
    marked.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert _comparable(load(marked)) == _comparable(load(plain))
    if bulk is not None:
        parse, takes = bulk
        assert (parse(marked) is not None) == takes
    lines = text.encode().splitlines(keepends=True)
    lines[bad_line - 1] = b"\xff" + lines[bad_line - 1]
    marked.write_bytes(codecs.BOM_UTF8 + b"".join(lines))
    with pytest.raises(ParseError) as info:
        load(marked)
    assert str(info.value) == f"not UTF-8: invalid start byte [{marked}:{bad_line}]"


@pytest.mark.parametrize("load, text, error, message, line", [
    (load_manifest, "image_id,label,split\na,public,train\na,private,test\n", DuplicateId,
     "duplicate image_id: 'a'", 3),
    (load_manifest, "image_id,label,split\na, Secret ,train\n", UnknownLabel,
     "unknown privacy label: 'Secret'", 2),
    (load_annotations, "image_id,assessor_id,vote\na,u1,PRIVATE\na,u2,maybe\n", UnknownVote,
     "unknown vote token: 'maybe'", 3),
], ids=["duplicate id", "unknown label", "unknown vote"])
def test_id_label_and_vote_faults_are_parse_errors(tmp_path, load, text, error, message, line):
    path = write(tmp_path, "in.csv", text)
    try:
        load(path)
    except ParseError as exc:
        assert type(exc) is error
        assert (str(exc), exc.path, exc.line) == (f"{message} [{path}:{line}]", path, line)
    else:
        pytest.fail("no ParseError")


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

    def test_equal_vote_runs_are_one_tuple_and_records_have_no_dict(self, tmp_path):
        path = write(tmp_path, "a.csv", ANNOTATIONS_HEADER + "a,u1,PRIVATE\na,u2,public\n"
                     "b,u1,private\nb,u3,PUBLIC\nc,u1,PUBLIC\nc,u2,PRIVATE\n")
        loaded = load_annotations(path)
        assert loaded["a"].votes == (FiveClassVote.PRIVATE, FiveClassVote.PUBLIC)
        assert loaded["a"].votes is loaded["b"].votes  # however each vote is spelled
        assert loaded["c"].votes == (FiveClassVote.PUBLIC, FiveClassVote.PRIVATE)
        assert not hasattr(loaded["a"], "__dict__")

    def test_vote_store_holds_no_wide_array_per_vote(self):
        """Over 100,000 votes in distinct tuples, as the row scan builds
        them, the traced peak stays under 33 bytes a vote: one int64 array
        per vote alive at a time, beside a byte per vote and the per-image
        arrays."""
        votes = list(FiveClassVote)
        records = {f"i{k}": AnnotationRecord(f"i{k}", tuple(votes[(k + j) % 5] for j in range(4)))
                   for k in range(25_000)}
        tracemalloc.start()
        try:
            counts = vote_store(records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.values.sum() == 100_000
        assert peak < 33 * 100_000


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("rows, parsers, error", [
    ("a,u1,PRIVATE\na,u2,public\n", ["_bulk_annotations"], None),
    ('"a",u1,PRIVATE\n', ["_bulk_annotations", "_scan_annotations"], None),
    ("a,u1,MAYBE\n", ["_bulk_annotations", "_scan_annotations"], UnknownVote),
], ids=["bulk path", "row scan", "unknown vote"])
def test_load_annotations_pauses_the_collector_and_leaves_it_as_found(
        tmp_path, monkeypatch, enabled, rows, parsers, error):
    path = write(tmp_path, "a.csv", ANNOTATIONS_HEADER + rows)
    collecting = {}  # parser -> whether the collector ran while it did

    def spy(name, parse):
        def spied(path):
            collecting[name] = gc.isenabled()
            return parse(path)
        return spied

    for name in ("_bulk_annotations", "_scan_annotations"):
        monkeypatch.setattr(data_io, name, spy(name, getattr(data_io, name)))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert load_annotations(path)["a"].votes[0] is FiveClassVote.PRIVATE
        else:
            with pytest.raises(error):
                load_annotations(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert collecting == dict.fromkeys(parsers, False)


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
        a = manifest_cells(assign_splits(manifest, 5, (0.7, 0.1, 0.2)))
        b = manifest_cells(assign_splits(manifest, 5, (0.7, 0.1, 0.2)))
        assert a == b
        counts = {s: sum(1 for _, split in a.values() if split == s.value) for s in Split}
        assert counts[Split.TRAIN] == 70 and counts[Split.VAL] == 10
        assert counts[Split.TEST] == 20

    def test_existing_splits_kept(self):
        manifest = manifest_store({"a": ("", "test"), "b": ("", "")})
        out = manifest_cells(assign_splits(manifest, 1, (0.7, 0.1, 0.2)))
        assert out["a"] == ("", "test")

    def test_unknown_store_id_warns_not_raises(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            ds = Dataset(
                manifest_store({"a": ("public", "train")}),
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
        X, y, ids = build_design_matrix(ds, Split.TRAIN, FeatureSpec({G.SENS}))
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
# at the bound, past it, and past float64 (400 digits)
_COUNT_CELLS = st.one_of(_padded(st.integers(0, 6).map(str)), st.sampled_from(
    [str(MAX_PEOPLE_COUNT), str(MAX_PEOPLE_COUNT + 1), str(10**399)]))
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
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return "".join(line + newline for line in lines)


_PRIVACY_ROWS = st.tuples(
    *[_SENS_CELLS] * 5, _PROB_CELLS, _COUNT_CELLS, _PROB_CELLS,
).map(list)
# Label and split cells: tokens padded, in any case or empty, and unknown or quoted ones.
_MANIFEST_ROWS = st.tuples(
    st.one_of(_padded(st.sampled_from(["", "private", "public", "PRIVATE", "Public", "pRivate"])),
              st.sampled_from(["secret", "privat", '"private"', '" public "'])),
    st.one_of(_padded(st.sampled_from(["", "train", "val", "test", "TEST", "Val"])),
              st.sampled_from(["dev", "training", '"train"', '""'])),
).map(list)


# Vote tokens: spellings the bulk path takes, and spellings that only the
# row scan reads (mixed case, padding) or that it rejects.
_EXACT_VOTES = st.sampled_from([s for v in FiveClassVote for s in (v.value, v.value.lower())])
_OTHER_VOTES = st.one_of(
    st.sampled_from(["Private", "clearly_Public", "uNDECIDABLE"]),
    _padded(st.sampled_from([v.value for v in FiveClassVote])),
    st.sampled_from(["MAYBE", "", "  ", "PRIVATE_", '"PUBLIC"', '"public,x"']),
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _annotation_files(draw):
    """(text, plain): a header and vote rows, each image's rows contiguous
    unless a row goes back to an earlier image; sometimes a blank line, a
    quoted or padded id, an empty or blank one, a field too few or too
    many, or a vote spelled other than exactly. Each line ends in LF, CRLF
    or a lone CR. `plain` when the file has none of these but blank lines."""
    ids = draw(st.lists(_IDS, min_size=4, max_size=6, unique=True))
    lines, plain, run = [ANNOTATIONS_HEADER.rstrip("\n")], True, 0
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.integers(0, 20))
        if kind == 0:
            blank = draw(_BLANK)
            lines.append(blank)
            plain = plain and not blank
            continue
        if kind > 14:
            run = min(run + 1, len(ids) - 1)  # the next image's rows start
        cells = [ids[run], f"u{len(lines)}", draw(_EXACT_VOTES)]
        if kind == 1:
            cells[0] = draw(st.sampled_from(ids[:run + 1]))  # back to an earlier image, maybe
        elif kind == 2:
            cells[0] = draw(_ID_CELL_FORMS)(cells[0])
        elif kind == 3:
            cells[0] = draw(st.sampled_from(["", " ", '""']))
        elif kind == 4:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["x"]
        elif kind == 5:
            cells[2] = draw(_OTHER_VOTES)
        elif kind == 6:
            cells[1] = _quoted(cells[1])
        plain = plain and not 1 <= kind <= 6
        lines.append(",".join(cells))
    ends = [draw(_LINE_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""  # no line end after the last line
    return "".join(line + end for line, end in zip(lines, ends)), plain


def _outcome(load, path):
    try:
        return load(path)
    except PrivlensError as exc:
        return type(exc), str(exc)


def _as_loaded(kind, parse):
    """`parse` of a `kind` file (`_bulk` or `_scan`), its (store, metadata)
    in the shape the kind's public loader returns, None where `parse` gives none."""
    def load(path):
        if (parsed := parse(kind, path)) is None:
            return None
        store, meta = parsed
        return (meta[0], store, meta[1]) if kind == "deep" else store
    return load


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
    @given(_store_lines(_MANIFEST_ROWS), st.sampled_from(["", "\ufeff"]))
    def test_manifest(self, tmp_path, body, bom):
        path = tmp_path / "m.csv"
        path.write_text(bom + MANIFEST_HEADER + body, encoding="utf-8", newline="")
        scanned = _outcome(_as_loaded("manifest", _scan), path)
        bulk = _as_loaded("manifest", _bulk)(path)
        if isinstance(scanned, tuple):  # the row scan rejects the file
            assert bulk is None
            assert _outcome(load_manifest, path) == scanned
            return
        if '"' not in body:  # a valid unquoted file never needs the row scan
            assert bulk is not None
        for store in [s for s in (bulk, load_manifest(path)) if s is not None]:
            assert _same_store(store, scanned)
            # in the same memory order, which a cache entry records
            assert _npy(store.values) == _npy(scanned.values)
            assert _npy(store.missing) == _npy(scanned.missing)

    @_PROPERTY
    @given(_store_lines(_PRIVACY_ROWS))
    def test_privacy_store(self, tmp_path, body):
        path = tmp_path / "p.csv"
        path.write_text(PRIVACY_HEADER + body, encoding="utf-8", newline="")
        scanned = _outcome(_as_loaded("privacy", _scan), path)
        bulk = _as_loaded("privacy", _bulk)(path)
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
        scanned = _outcome(_as_loaded("deep", _scan), path)
        bulk = _as_loaded("deep", _bulk)(path)
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

    @_PROPERTY
    @given(_annotation_files())
    def test_annotations(self, tmp_path, text_plain):
        text, plain = text_plain
        path = tmp_path / "a.csv"
        path.write_text(text, encoding="utf-8", newline="")
        scanned = _outcome(_scan_annotations, path)
        bulk = _bulk_annotations(path)
        if isinstance(scanned, tuple):  # the row scan rejects the file
            assert bulk is None
            assert _outcome(load_annotations, path) == scanned
            return
        if plain:  # exact tokens and contiguous ids never need the row scan
            assert bulk is not None
        for loaded in [r for r in (bulk, load_annotations(path)) if r is not None]:
            assert list(loaded.items()) == list(scanned.items())

    @pytest.mark.parametrize("rows", [
        'a,u1,PRIVATE\n"b",u1,PUBLIC\n',
        'a,"u,1",PRIVATE\n',
        "a,u1,PRIVATE,x\n",
        "a,u1\n",
        "a,u1,PRIVATE\nb," + "u" * 131_073 + ",PUBLIC\n",
        "a,u1,PRIVATE\n,u1,PUBLIC\n",
        "a,u1,PRIVATE\n  ,u1,PUBLIC\n",
        "a,u1,PRIVATE\nb,u1,PUBLIC\na,u2,PUBLIC\n",
        "a,u1, PRIVATE\n",
        "a,u1,Private\n",
        "a,u1,MAYBE\n",
        "a,u1,PRIVATE\n \n",
    ], ids=["quote", "quoted comma", "four fields", "two fields", "past the field limit",
            "empty id", "blank id", "rows apart", "padded vote", "mixed case", "unknown vote",
            "whitespace line"])
    def test_each_rule_leaves_the_annotations_to_the_row_scan(self, tmp_path, rows):
        path = write(tmp_path, "a.csv", ANNOTATIONS_HEADER + rows)
        assert _bulk_annotations(path) is None
        assert _outcome(load_annotations, path) == _outcome(_scan_annotations, path)

    def test_an_undecodable_byte_leaves_the_annotations_to_the_row_scan(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_bytes(ANNOTATIONS_HEADER.encode() + b"a,u1,PRIVATE\nb,u\xff,PUBLIC\n")
        assert _bulk_annotations(path) is None
        assert _outcome(load_annotations, path) == _outcome(_scan_annotations, path) == (
            ParseError, f"not UTF-8: invalid start byte [{path}:3]")


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
        st.floats(0, 1), st.integers(0, MAX_PEOPLE_COUNT), st.floats(0, 1)), max_size=12))
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


# --- the parsed-store cache -----------------------------------------------------

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


# Row ids and cells of the tables `read_table` is checked on: repeats once
# stripped, empty, blank and quoted-empty ids, fields spanning lines and a
# cell the parser rejects. Each fault is rare enough that most tables reach
# the next row.
_ROW_IDS = st.sampled_from(["a", "b", " a ", '"x\ny"', '"c,d"'] * 4 + ["", "  ", '""'])
_ROW_CELLS = st.sampled_from(["1", "", " v ", '"p\nq"', '"e, f"', "bad"])


@st.composite
def _tables(draw):
    """(file bytes, header, header_line, keyed) of a table as a loader reads it."""
    width = draw(st.integers(2, 3))
    header = ["image_id", *(f"c{k}" for k in range(1, width))]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [draw(st.sampled_from([",".join(header)] * 4 + [
        " image_id , " + ",".join(header[1:]), "id," + ",".join(header[1:])]))]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 16 + ["blank", "short", "long"] * 2 + ["byte"]))
        n = width + (kind == "long") - (kind == "short")
        lines.append({"blank": "", "byte": "z,\udcff"}.get(kind) or ",".join(
            [draw(_ROW_IDS), *(draw(_ROW_CELLS) for _ in range(n - 1))]))
    prefix = ["#source_tag=t,dim=1"] if draw(st.booleans()) else []
    text = "".join(line + newline for line in prefix + lines)
    return (text.encode("utf-8", "surrogateescape"), header, 1 + len(prefix),
            draw(st.booleans()))


def _cells_or_error(line, image_id, row):
    if "bad" in row:
        raise ParseError(f"bad cell in {image_id!r}", line=line)
    return line, image_id, row


def _frozen_table(path, header, parse, keyed, header_line):
    """The table a loader built by driving the earlier row loop."""
    table = {}
    for line, image_id, row in frozen_row_loop.read_table(path, header, keyed, header_line):
        if keyed:
            table[image_id] = parse(line, image_id, row)
        else:
            table.setdefault(image_id, []).append(parse(line, image_id, row))
    return table


def _table_or_error(read, *args):
    try:
        return read(*args)
    except Exception as exc:  # a raw error too must be the same one
        return type(exc), str(exc), getattr(exc, "line", None)


class TestReadTableMatchesFrozenLoop:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_tables())
    def test_same_table_or_same_error(self, tmp_path, table):
        data, header, header_line, keyed = table
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        args = path, header, _cells_or_error, keyed, header_line
        assert _table_or_error(read_table, *args) == _table_or_error(_frozen_table, *args)


# Manifest and privacy-store bodies for the cache: the cells of
# `_store_lines`, plus quoted and padded cells, numeric levels and -0.0.
_ZEROS = st.sampled_from(["-0.0", " -0.0 ", "-0", "0.0"])
_MANIFEST_CELLS = st.tuples(
    _padded(st.sampled_from(["", "private", "public", "PRIVATE", "Public"])),
    st.one_of(_padded(st.sampled_from(["", "train", "val", "test", "TEST"])),
              st.sampled_from(['"train"', '" val "', '""'])),
).map(list)
_CACHED_SENS_CELLS = st.one_of(_SENS_CELLS, _ZEROS,
                               st.sampled_from(['"POSSIBLE"', '" 0.5 "', '""']))
_CACHED_PROB_CELLS = st.one_of(_PROB_CELLS, _ZEROS)


def _cached_privacy_rows(counts):
    return st.tuples(*[_CACHED_SENS_CELLS] * 5, _CACHED_PROB_CELLS, counts,
                     _CACHED_PROB_CELLS).map(list)


@st.composite
def _valid_lines(draw, row_cells):
    """A store body whose every row the parser takes."""
    ids = draw(st.lists(_IDS, max_size=6, unique=True))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(",".join([draw(_ID_CELL_FORMS)(i), *draw(row_cells)]) + newline for i in ids)


# (loader, header, body): bodies of `_store_lines`, most of them rejected, and valid ones
_CACHED_FILES = {
    "manifest": (load_manifest, "image_id,label,split\n",
                 st.one_of(_store_lines(_MANIFEST_CELLS), _valid_lines(_MANIFEST_CELLS))),
    "privacy": (load_privacy_store, PRIVACY_HEADER, st.one_of(
        _store_lines(_cached_privacy_rows(_COUNT_CELLS)),
        _valid_lines(_cached_privacy_rows(st.one_of(_padded(st.integers(0, 6).map(str)),
                                                    st.just(str(MAX_PEOPLE_COUNT))))))),
}


def _load_kind(kind, path, cache=None):
    """The store of `kind` at `path`, as its public loader returns it."""
    return {"manifest": load_manifest, "privacy": load_privacy_store,
            "deep": load_deep_store, "votes": load_vote_store}[kind](path, cache)


def _same_loaded(a, b) -> bool:
    return _same_deep_store(a, b) if isinstance(a, tuple) else _same_store(a, b)


def _npy(array) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


# --- a parse given the manifest's ids -----------------------------------------

# Files of each kind: the cache's bodies, most of them rejected, and valid ones.
_DEEP_CELLS = st.one_of(_padded(st.floats(-1e6, 1e6).map(repr)),
                        st.floats(allow_nan=True, allow_infinity=True).map(repr))
_KIND_TEXTS = {
    "manifest": _CACHED_FILES["manifest"][2].map(lambda body: MANIFEST_HEADER + body),
    "privacy": _CACHED_FILES["privacy"][2].map(lambda body: PRIVACY_HEADER + body),
    "deep": st.one_of(_deep_files(), _store_lines(
        st.lists(_DEEP_CELLS, min_size=2, max_size=2)).map(lambda body: DEEP_HEADER + body)),
}


def _file_ids(kind, path, text) -> list[str]:
    """The ids a manifest of the file's images would hold: the parse's ids,
    or where the parse rejects the file, each non-empty id cell once."""
    try:
        return _parse(kind, path)[0].ids
    except ParseError:
        lines = re.split(r"\r\n|\r|\n", text)[1 + (kind == "deep"):]
        return [i for i in dict.fromkeys(line.partition(",")[0].strip() for line in lines) if i]


class TestParseGivenTheManifestIds:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(list(_KIND_TEXTS)).flatmap(
        lambda kind: st.tuples(st.just(kind), _KIND_TEXTS[kind])),
        st.sampled_from(["equal", "permuted", "subset"]), st.randoms(use_true_random=False))
    def test_is_the_parse_aligned_to_them(self, tmp_path, kind_text, how, rng):
        kind, text = kind_text
        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "s.csv"
        path.write_text(text, encoding="utf-8", newline="")
        ids = _file_ids(kind, path, text)
        if how == "permuted":
            shuffled = rng.sample(ids, len(ids))
            ids = shuffled if shuffled != ids else ids[::-1]  # another order, where there is one
        elif how == "subset":
            ids = [i for i in ids if rng.random() < 0.5]

        def outcome(parse):
            try:
                store, meta = parse()
            except PrivlensError as exc:
                return type(exc), str(exc)
            return (store.ids, store.ids is ids, _npy(store.values),
                    None if store.missing is None else _npy(store.missing), meta)

        def parse_then_align():
            store, meta = _parse(kind, path)
            return aligned(store, ids), meta

        assert outcome(lambda: _parse(kind, path, ids)) == outcome(parse_then_align)

    @pytest.mark.parametrize("kind, text, line", [
        ("manifest", MANIFEST_HEADER + "a,public,train\nb,,\na,private,test\n", 4),
        ("privacy", PRIVACY_HEADER + "a,,,,,,0.5,1,0.25\nb,,,,,,0.5,1,0.25\n"
                                     "a,,,,,,0.5,1,0.25\n", 4),
        ("deep", DEEP_HEADER + "a,1,2\nb,1,2\na,1,2\n", 5),
    ])
    def test_a_repeated_id_is_still_a_duplicate_id(self, tmp_path, kind, text, line):
        path = write(tmp_path, "s.csv", text)
        for ids in (["a", "b"], ["b", "a"], ["a"], None):
            with pytest.raises(DuplicateId) as info:
                _parse(kind, path, ids)
            assert str(info.value) == f"duplicate image_id: 'a' [{path}:{line}]"

    @pytest.mark.parametrize("load, header, row", [
        (load_privacy_store, PRIVACY_HEADER, "POSSIBLE,,,,,0.5,1,0.25"),
        (load_deep_store, DEEP_HEADER, "0.5,1.5"),
    ], ids=["privacy", "deep"])
    def test_a_store_listing_them_builds_no_set_of_its_ids(self, tmp_path, load, header, row):
        ids = [f"img_{k:06d}" for k in range(20_000)]
        path = write(tmp_path, "s.csv", header + "".join(f"{i},{row}\n" for i in ids))

        def traced_peak(parse):
            tracemalloc.start()
            try:
                return parse(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        _, alone = traced_peak(lambda: load(path))
        loaded, given = traced_peak(lambda: load(path, ids=ids))
        assert (loaded if isinstance(loaded, FeatureStore) else loaded[1]).ids is ids
        # the parsed id list is dropped once it equals `ids`, and no set is built
        assert given < alone - sys.getsizeof(set(ids)) / 2


# A valid file of each kind with two images, one id holding a NUL.
_KIND_FILES = {
    "manifest": "image_id,label,split\na,private,train\nb\x00,,test\n",
    "privacy": PRIVACY_HEADER + "a,VERY_UNLIKELY,,POSSIBLE,LIKELY,UNLIKELY,0.5,1,0.25\n"
                                "b\x00,,,,,,-0.0,0,0.2\n",
    "deep": DEEP_HEADER + "a,0.5,1.5\nb\x00,-2,3e-3\n",
    "votes": ANNOTATIONS_HEADER + "a,u1,PRIVATE\na,u2,CLEARLY_PUBLIC\nb\x00,u1,UNDECIDABLE\n",
}


def _parts(entry, kind) -> tuple[bytes, bytes | None, list]:
    """An entry's values and `missing` as they are saved, and its JSON list."""
    raw = entry.read_bytes()
    with open(entry, "rb") as fh:
        np.load(fh, allow_pickle=False)
        split = fh.tell()
        if STORE_KINDS[kind].missing is not None:
            np.load(fh, allow_pickle=False)
        end = fh.tell()
    return raw[:split], raw[split:end] or None, json.loads(raw[end:])


def _meta(listed, ids=None, meta=None) -> bytes:
    """An entry's JSON list `listed`, with other ids or metadata."""
    return json.dumps([*(listed[:-1] if meta is None else meta),
                       listed[-1] if ids is None else ids]).encode()


# Each damage: a file that is not the entry the cache saved. The second group
# damages `missing`, so it applies to the kinds that have one.
_DAMAGES = {
    "truncated file": lambda v, m, p: (v + (m or b"") + _meta(p))[:-5],
    "truncated header": lambda v, m, p: v[:40],
    "empty file": lambda v, m, p: b"",
    "ids of wrong length": lambda v, m, p: v + (m or b"") + _meta(p, ids=["a"]),
    "repeated ids": lambda v, m, p: v + (m or b"") + _meta(p, ids=["a", "a"]),
    "metadata of another kind": lambda v, m, p: v + (m or b"") + _meta(p, meta=["rn", ["v0"]]),
    "non-JSON metadata": lambda v, m, p: v + (m or b"") + b"{not json",
    "metadata not a list": lambda v, m, p: v + (m or b"") + b"null",
    "no metadata": lambda v, m, p: v + (m or b""),
    "values cut short": lambda v, m, p: v[:-8] + (m or b"") + _meta(p),
}
_MISSING_DAMAGES = {
    "missing cut short": lambda v, m, p: v + m[:-3] + _meta(p),
    "file ends in missing": lambda v, m, p: v + m[:-3],
    "missing of floats": lambda v, m, p: v + _npy(np.load(io.BytesIO(m)).astype(float))
    + _meta(p),
    "missing of wrong shape": lambda v, m, p: v + _npy(np.load(io.BytesIO(m))[:, :1]) + _meta(p),
    "missing of one row": lambda v, m, p: v + _npy(np.load(io.BytesIO(m))[:1]) + _meta(p),
}
_DAMAGE_CASES = [pytest.param(kind, damage, id=f"{kind}: {name}")
                 for kind in STORE_KINDS
                 for name, damage in [*_DAMAGES.items(),
                                      *(_MISSING_DAMAGES.items()
                                        if STORE_KINDS[kind].missing is not None else ())]]


class TestStoreCache:
    def test_stores_recorded_for_save_hold_the_manifests_id_list(self, tmp_path):
        ids = ["a", "b", "c"]
        cfg = ExperimentConfig(DataPaths(
            write(tmp_path, "m.csv", MANIFEST_HEADER + "".join(f"{i},public,val\n" for i in ids)),
            privacy_features=write(tmp_path, "p.csv", PRIVACY_HEADER + "".join(
                f"{i},POSSIBLE,,LIKELY,UNLIKELY,VERY_LIKELY,0.5,1,0.25\n" for i in ids)),
            deep_features=(write(tmp_path, "d.csv", DEEP_HEADER + "".join(
                f"{i},0.5,1.5\n" for i in ids)), write(tmp_path, "e.csv", DEEP_HEADER.replace(
                    "rn", "other") + "".join(f"{i},0.5,1.5\n" for i in reversed(ids)))),
            annotations=write(tmp_path, "a.csv", ANNOTATIONS_HEADER + "a,u1,PRIVATE\n"
                              "b,u1,PUBLIC\nc,u1,PUBLIC\n")))
        cache = StoreCache(tmp_path / "cache")
        ds = load_dataset(cfg, cache=cache)
        manifest, privacy, deep, other, votes = (store for store, _ in cache._parsed.values())
        assert manifest.ids is ds.manifest.ids == ids
        assert privacy is ds.privacy_features and deep is ds.deep_features["rn"]
        assert votes is ds.annotations
        assert privacy.ids is deep.ids is votes.ids is ds.manifest.ids
        assert other.ids == ids[::-1]  # another order keeps its own list
        cache.save()
        cached = load_dataset(cfg, cache=StoreCache(tmp_path / "cache"))
        assert (cached.privacy_features.ids is cached.deep_features["rn"].ids
                is cached.annotations.ids is cached.manifest.ids)

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
            never_parse(mp)
            cached = load_deep_store(path, StoreCache(root))
        assert _same_deep_store(cached, parsed)
        assert cached[1].values.flags.writeable and cached[1].values.dtype == np.float64

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(list(_CACHED_FILES)).flatmap(
        lambda kind: st.tuples(st.just(kind), _CACHED_FILES[kind][2])))
    def test_hit_is_the_parse_and_a_rejected_file_the_same_error(self, tmp_path, kind_body):
        # valid files take the bulk path or, quoted, the row scan; others are rejected
        kind, body = kind_body
        load, header, _ = _CACHED_FILES[kind]
        example = Path(tempfile.mkdtemp(dir=tmp_path))
        path, root = example / "s.csv", example / "cache"
        path.write_text(header + body, encoding="utf-8", newline="")
        parsed = _outcome(load, path)
        cache = StoreCache(root)
        loaded = _outcome(lambda p: load(p, cache), path)
        cache.save()
        if isinstance(parsed, tuple):  # the class and message, which ends in [path:line]
            assert loaded == parsed
            assert not root.exists()
            return
        assert _same_store(loaded, parsed)
        with pytest.MonkeyPatch.context() as mp:
            never_parse(mp)
            cached = load(path, StoreCache(root))
        assert _same_store(cached, parsed)
        assert cached.values.flags.writeable and cached.missing.dtype == bool

    def _entry(self, tmp_path, kind="deep"):
        path = write(tmp_path, "s.csv", _KIND_FILES[kind])
        cache = StoreCache(tmp_path / "cache")
        loaded = _load_kind(kind, path, cache)
        cache.save()
        return path, loaded

    @pytest.mark.parametrize("kind, damage", _DAMAGE_CASES + [
        pytest.param(kind, lambda v, m, p: None, id=f"{kind}: directory at the entry")
        for kind in STORE_KINDS])
    def test_bad_entry_is_one_warning_a_parse_and_a_rewrite(self, tmp_path, caplog,
                                                             monkeypatch, kind, damage):
        path, first = self._entry(tmp_path, kind)
        (entry,) = (tmp_path / "cache").iterdir()
        damaged = damage(*_parts(entry, kind))
        if damaged is None:
            entry.unlink()
            entry.mkdir()
        else:
            entry.write_bytes(damaged)
        cache = StoreCache(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            assert _same_loaded(_load_kind(kind, path, cache), first)
            cache.save()
        (record,) = caplog.records
        assert record.getMessage().startswith(f"ignoring unreadable store cache entry {entry}: ")
        caplog.clear()
        never_parse(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            assert _same_loaded(_load_kind(kind, path, StoreCache(tmp_path / "cache")), first)
        assert caplog.records == []
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [entry.name]

    @pytest.mark.parametrize("kind", list(STORE_KINDS))
    def test_entry_is_one_file_of_values_then_metadata(self, tmp_path, kind):
        path, loaded = self._entry(tmp_path, kind)
        (entry,) = (tmp_path / "cache").iterdir()
        assert entry.name == f"{kind}-v{STORE_KINDS[kind].version}-{file_sha256(path)}.npy"
        store, meta = (loaded[1], [loaded[0], loaded[2]]) if kind == "deep" else (loaded, [])
        with open(entry, "rb") as fh:
            assert np.load(fh, allow_pickle=False).tobytes() == store.values.tobytes()
            if store.missing is not None:
                assert np.load(fh, allow_pickle=False).tolist() == store.missing.tolist()
            assert json.loads(fh.read()) == [*meta, store.ids]

    def test_entry_of_another_version_is_not_read(self, tmp_path, caplog):
        # an entry of the two-file layout, with values the file does not hold
        path = write(tmp_path, "d.csv", DEEP_HEADER + "a,0.5,1.5\n")
        (tmp_path / "cache").mkdir()
        earlier = tmp_path / "cache" / f"deep-v1-{file_sha256(path)}"
        np.save(earlier.with_suffix(".npy"), np.array([[9.0, 9.0]]))
        earlier.with_suffix(".json").write_text(
            json.dumps({"source_tag": "rn", "columns": ["v0", "v1"], "ids": ["a"]}))
        cache = StoreCache(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            assert load_deep_store(path, cache)[1].values.tolist() == [[0.5, 1.5]]
            cache.save()
        assert caplog.records == []
        assert len(list((tmp_path / "cache").iterdir())) == 3

    @pytest.mark.parametrize("kind", list(STORE_KINDS))
    def test_entry_of_another_kind_or_version_is_never_read(self, tmp_path, caplog, kind):
        # each other name for the same bytes holds that entry with its values changed
        path, first = self._entry(tmp_path, kind)
        (entry,) = (tmp_path / "cache").iterdir()
        values, missing, listed = _parts(entry, kind)
        changed = _npy(np.load(io.BytesIO(values)) + 1.0) + (missing or b"") + _meta(listed)
        key, version = file_sha256(path), STORE_KINDS[kind].version
        planted = {f"{kind}-v{version + 1}-{key}.npy", f"{kind}-v{version - 1}-{key}.npy",
                   *(f"{other}-v{spec.version}-{key}.npy"
                     for other, spec in STORE_KINDS.items() if other != kind)}
        entry.unlink()
        for name in planted:
            (tmp_path / "cache" / name).write_bytes(changed)
        cache = StoreCache(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            assert _same_loaded(_load_kind(kind, path, cache), first)
            cache.save()
        assert caplog.records == []
        assert {p.name for p in (tmp_path / "cache").iterdir()} == planted | {entry.name}
        assert entry.read_bytes() != changed

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
        paths = {kind: write(tmp_path, f"{kind}.csv", text) for kind, text in _KIND_FILES.items()}
        cache = StoreCache(tmp_path / "cache")
        for kind, path in paths.items():
            _load_kind(kind, path, cache)
        assert not (tmp_path / "cache").exists()
        cache.save()
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == sorted(
            f"{kind}-v{STORE_KINDS[kind].version}-{file_sha256(path)}.npy"
            for kind, path in paths.items())

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

    @pytest.mark.parametrize("kind", list(STORE_KINDS))
    def test_unreadable_file_is_the_parsers_error(self, tmp_path, kind):
        with pytest.raises(ParseError, match=re.escape(f"[{tmp_path}]")):
            _load_kind(kind, tmp_path, StoreCache(tmp_path / "cache"))

    def test_failed_save_is_one_warning(self, tmp_path, caplog):
        (tmp_path / "cache").write_text("a file where the cache directory goes")
        path = write(tmp_path, "d.csv", DEEP_HEADER + "a,0.5,1.5\n")
        cache = StoreCache(tmp_path / "cache")
        with caplog.at_level(logging.WARNING, logger="privlens.data_io"):
            load_deep_store(path, cache)
            cache.save()
        (record,) = caplog.records
        assert record.getMessage().startswith(
            f"cannot save parsed stores under {tmp_path / 'cache'}: ")

    @pytest.mark.parametrize("n", [0, 1, 8191, 8192, 8193])
    @pytest.mark.parametrize("kind", ["manifest", "deep"], ids=["no metadata", "metadata"])
    def test_entry_ids_are_the_bytes_of_one_dump(self, tmp_path, kind, n):
        # the ids are written a chunk at a time; JSON escapes each "é" and "\\"
        ids = [f"imé\\{k}" for k in range(n)]
        header, meta = ((MANIFEST_HEADER, []) if kind == "manifest"
                        else (DEEP_HEADER, ["rn", ["v0", "v1"]]))
        row = ",public,train\n" if kind == "manifest" else ",0.5,1.5\n"
        path = write(tmp_path, "s.csv", header + "".join(i + row for i in ids))
        cache = StoreCache(tmp_path / "cache")
        _load_kind(kind, path, cache)
        cache.save()
        (entry,) = (tmp_path / "cache").iterdir()
        with open(entry, "rb") as fh:
            for _ in range(1 + (STORE_KINDS[kind].missing is not None)):
                np.load(fh, allow_pickle=False)
            assert fh.read() == json.dumps([*meta, ids]).encode("ascii")

    def test_a_save_never_holds_the_whole_id_list_as_text(self, tmp_path):
        ids = [f"img_{k:06d}_é" for k in range(200_000)]
        path = write(tmp_path, "m.csv",
                     MANIFEST_HEADER + "".join(f"{i},public,train\n" for i in ids))
        cache = StoreCache(tmp_path / "cache")
        load_manifest(path, cache)
        tracemalloc.start()
        try:
            cache.save()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one json.dumps of the whole list, then its bytes, would take twice its length
        assert peak < len(json.dumps([ids])) / 2

    def test_readme_names_every_kinds_entry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        assert [kind for kind, spec in STORE_KINDS.items()
                if f"`{kind}-v{spec.version}-<sha256>.npy`" not in readme] == []


def _never(path):
    raise AssertionError(f"{path} was parsed")


class TestVoteStoreCache:
    """The vote counts through the store cache, parsed by `load_annotations` on a miss."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_annotation_files(), st.sampled_from(["same", "file has ghosts", "more", None]),
           st.lists(st.booleans(), min_size=6, max_size=6))
    @example((ANNOTATIONS_HEADER, True), "same", [True] * 6)  # a file with no votes
    @example((ANNOTATIONS_HEADER.rstrip("\n"), True), "more", [True] * 6)
    def test_store_has_the_bytes_of_the_counted_parse(self, tmp_path, text_plain, manifest,
                                                      keep):
        example_dir = Path(tempfile.mkdtemp(dir=tmp_path))  # tmp_path is shared by the examples
        path, root = example_dir / "a.csv", example_dir / "cache"
        path.write_text(text_plain[0], encoding="utf-8", newline="")
        parsed = _outcome(load_annotations, path)
        cache = StoreCache(root)
        if isinstance(parsed, tuple):  # a rejected file: the loader's error, and no entry
            assert _outcome(lambda p: load_vote_store(p, cache, None), path) == parsed
            cache.save()
            assert not root.exists()
            return
        # the manifest's ids: the file's, some of them, or more than the file's
        ids = {"same": list(parsed), "file has ghosts": [i for i, k in zip(parsed, keep) if k],
               "more": [*parsed, "\x00no votes"], None: None}[manifest]
        expected = aligned(vote_store(parsed), ids)
        loaded = load_vote_store(path, cache, ids)
        cache.save()
        cached = load_vote_store(path, StoreCache(root), ids, parse=_never)
        for store in (loaded, cached):
            assert _same_store(store, expected)
            assert (store.ids is ids) == (expected.ids is ids)
            assert store.values.flags.writeable

    def test_unknown_vote_writes_no_entry_and_keeps_its_line(self, tmp_path):
        path = write(tmp_path, "a.csv", ANNOTATIONS_HEADER + "a,u1,PRIVATE\na,u2,maybe\n")
        cache = StoreCache(tmp_path / "cache")
        with pytest.raises(UnknownVote) as info:
            load_vote_store(path, cache, ["a"])
        assert str(info.value) == str(_outcome(load_annotations, path)[1])
        assert str(info.value).endswith(f"[{path}:3]")
        cache.save()
        assert not (tmp_path / "cache").exists()

    def test_a_miss_parses_with_the_callers_parser(self, tmp_path):
        path = write(tmp_path, "a.csv", ANNOTATIONS_HEADER + "a,u1,PRIVATE\n")
        parsed = []

        def parse(p):
            parsed.append(p)
            return load_annotations(p)

        for _ in range(2):
            cache = StoreCache(tmp_path / "cache")
            assert load_vote_store(path, cache, parse=parse).values.tolist() == [[1.0, 0.0, 0.0]]
            cache.save()
        assert parsed == [path]


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
