"""The join of the stores to the manifest, by position where a store lists
the manifest's ids and by id elsewhere, against the earlier id-keyed join
in `frozen_join`."""

from __future__ import annotations

import logging
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from privlens.analysis import controversial_image_ids, controversial_people_breakdown
from privlens.data_io import (
    AnnotationRecord,
    Dataset,
    FeatureStore,
    FiveClassVote,
    Split,
    build_design_matrix,
    manifest_store,
    privacy_store,
    vote_store,
)
from privlens.errors import PrivlensError
from privlens.features import FeatureGroup as G, FeatureSpec, Likelihood

import frozen_join

_MANIFEST_IDS = [f"i{k}" for k in range(6)]
_EXTRA_IDS = ["x0", "x1"]
# how a store lists its ids against the manifest's: the manifest's own list,
# an equal copy, another order, some of them, with ids the manifest lacks, none
_ORDERS = ("shared", "aligned", "shuffled", "partial", "extra", "empty")
_SPECS = [FeatureSpec({G.SENS, G.PEOPLE, G.OUT}), FeatureSpec({G.PEOPLE}),
          FeatureSpec({G.DEEP}, "resnet"), FeatureSpec({G.OUT, G.PLACES, G.DEEP}, "resnet")]
_PRIVACY_CELLS = st.tuples(*[st.none() | st.sampled_from(Likelihood)] * 5, st.floats(0, 1),
                           st.integers(0, 3), st.floats(0, 1))
_VOTES = st.lists(st.sampled_from(FiveClassVote), min_size=1, max_size=5).map(tuple)


@st.composite
def _store_ids(draw, manifest_ids: list[str]) -> list[str]:
    order = draw(st.sampled_from(_ORDERS))
    if order == "shared":
        return manifest_ids
    if order == "aligned":
        return list(manifest_ids)
    if order == "shuffled":
        return draw(st.permutations(manifest_ids))
    if order == "partial":
        return draw(st.lists(st.sampled_from(manifest_ids), unique=True)) if manifest_ids else []
    if order == "extra":
        extra = draw(st.lists(st.sampled_from(_EXTRA_IDS), min_size=1, unique=True))
        return draw(st.sampled_from([manifest_ids + extra, extra + manifest_ids,
                                     draw(st.permutations(manifest_ids + extra))]))
    return []


def _on(ids: list[str], store: FeatureStore) -> FeatureStore:
    """`store` holding the list `ids`, equal to its own, as `load_dataset` shares it."""
    assert store.ids == ids
    return FeatureStore(ids, store.values, store.missing)


@st.composite
def _datasets(draw):
    """(a dataset of stores listed in any of `_ORDERS`, its warnings), the
    same stores keyed by id, and the frozen check's warnings."""
    manifest_ids = draw(st.lists(st.sampled_from(_MANIFEST_IDS), unique=True))
    manifest = manifest_store({i: (draw(st.sampled_from(["private", "public", ""])),
                                   draw(st.sampled_from(["train", "val", "test", ""])))
                               for i in manifest_ids})
    ids = draw(_store_ids(manifest.ids))
    privacy = _on(ids, privacy_store({i: draw(_PRIVACY_CELLS) for i in ids}))
    deep = {}
    for tag in draw(st.sampled_from([[], ["resnet"], ["places365", "resnet"]])):
        ids = draw(_store_ids(manifest.ids))
        values = np.random.default_rng(draw(st.integers(0, 99))).normal(size=(len(ids), 3))
        deep[tag] = FeatureStore(ids, values)
    ids = draw(_store_ids(manifest.ids))
    votes = _on(ids, vote_store({i: AnnotationRecord(i, draw(_VOTES)) for i in ids}))
    ds = _logged("privlens.data_io", lambda: Dataset(
        manifest, privacy_features=privacy, deep_features=deep, annotations=votes))
    keyed = [frozen_join.IdKeyedStore(s.ids, s.values, s.missing)
             for s in (manifest, privacy, votes, *deep.values())]
    frozen = SimpleNamespace(manifest=keyed[0], privacy_features=keyed[1], annotations=keyed[2],
                             deep_features=dict(zip(deep, keyed[3:])))
    return ds, frozen, _logged("frozen_join", lambda: frozen_join.check_ids(frozen))[1]


def _logged(name: str, make):
    """(the result of `make()`, the messages logged to `name` while it ran)."""
    records, handler = [], logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger(name)
    logger.addHandler(handler)
    try:
        return make(), [r.getMessage() for r in records]
    finally:
        logger.removeHandler(handler)


def _outcome(compute):
    """What `compute()` returns, arrays as their dtype, shape and bytes, or
    the type and message of the PrivlensError it raises."""
    try:
        result = compute()
    except PrivlensError as exc:
        return type(exc), str(exc)
    return [(a.dtype, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
            for a in (result if isinstance(result, tuple) else (result,))]


@settings(max_examples=300, deadline=None)
@given(_datasets())
def test_the_join_is_the_id_keyed_join(case):
    (ds, warnings), frozen, frozen_warnings = case
    assert warnings == frozen_warnings
    for split in Split:
        for spec in _SPECS:
            assert _outcome(lambda: build_design_matrix(ds, split, spec)) == _outcome(
                lambda: frozen_join.build_design_matrix(frozen, split, spec))
    assert _outcome(lambda: ds.labeled_privacy_features) == _outcome(
        lambda: frozen_join.labeled_privacy_features(frozen))
    ids = controversial_image_ids(ds)
    assert ids == frozen_join.controversial_image_ids(frozen)
    assert _outcome(lambda: controversial_people_breakdown(ds)) == _outcome(
        lambda: frozen_join.controversial_people_breakdown(frozen, ids))
    # a store listing the manifest's ids is joined with no id map
    stores = [ds.privacy_features, ds.annotations, *ds.deep_features.values()]
    for store in stores:
        if store.ids == ds.manifest.ids:
            assert "index" not in vars(store)
    if all(not store.ids or store.ids == ds.manifest.ids for store in stores):
        assert "index" not in vars(ds.manifest)
