"""Frozen reference copy of the earlier id-keyed join: a store that builds its
id -> row map when it is made and looks up every id through it, the
"not in manifest" check of `Dataset`, `Dataset.labeled_privacy_features`,
`build_design_matrix`, `controversial_image_ids` and
`controversial_people_breakdown`, with the `assemble_features` that stacked
the gathered blocks with `np.hstack`. It is kept to check the join by
position and the gather in place against. The code is the earlier code
verbatim, except that each function takes any object with the `Dataset`
attributes, the check is a function, and it logs to its own logger. Do not
change it to follow the package.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from privlens.analysis import is_controversial
from privlens.data_io import LABEL, PEOPLE_COUNT, SPLIT, _PRIVACY_COLUMNS, _SPLIT_CODES, Split
from privlens.errors import (DimensionMismatch, EmptyControversialSet, EmptyDataset,
                             MissingFeatures, MissingGroupData, MissingLabel)
from privlens.features import GROUP_ORDER, FeatureGroup, FeatureSpec

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class IdKeyedStore:
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


def check_ids(ds) -> None:
    known = ds.manifest.index
    stores = {"privacy_features": ds.privacy_features, "annotations": ds.annotations,
              **{f"deep store {tag!r}": s for tag, s in ds.deep_features.items()}}
    for name, store in stores.items():
        if store.index.keys() <= known.keys():  # a check in C; the walk below keeps file order
            continue
        for image_id in store.ids:
            if image_id not in known:
                log.warning("%s id %r not in manifest; ignored in matrices", name, image_id)


def assemble_features(
    blocks: dict[FeatureGroup, np.ndarray],
    groups: set[FeatureGroup],
) -> np.ndarray:
    """Stack the selected 2-D column blocks side by side in fixed block order.

    Raises MissingGroupData when no group is selected or a selected group has
    no block, and DimensionMismatch when the blocks disagree on their rows.
    """
    if not groups:
        raise MissingGroupData("at least one feature group must be selected")
    selected = []
    for group in GROUP_ORDER:
        if group not in groups:
            continue
        if group not in blocks:
            raise MissingGroupData(f"group {group.name} has no feature block")
        selected.append(blocks[group])
    if len({block.shape[0] for block in selected}) > 1:
        raise DimensionMismatch(
            "feature blocks disagree on the number of rows: "
            + ", ".join(str(block.shape[0]) for block in selected)
        )
    return np.hstack(selected)


def labeled_privacy_features(ds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    store, manifest = ds.privacy_features, ds.manifest
    rows = store.rows(manifest.ids)
    keep = (rows >= 0) & ~manifest.missing[:, LABEL]
    rows = rows[keep]
    shared = store.values[rows], store.missing[rows], manifest.values[keep, LABEL] == 1.0
    for a in shared:
        a.setflags(write=False)  # every analysis of this dataset reads the same arrays
    return shared


def build_design_matrix(ds, split: Split,
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


def controversial_image_ids(ds) -> list[str]:
    """Manifest-ordered ids of controversial images."""
    ids, votes = ds.manifest.ids, ds.annotations
    rows = votes.rows(ids)
    voted = np.flatnonzero(rows >= 0)
    return [ids[i] for i in voted[is_controversial(votes.values[rows[voted]])].tolist()]


def controversial_people_breakdown(ds, ids: list[str]) -> dict[str, float]:
    """Fractions of the controversial images `ids` with one / two-plus / no people."""
    if not ids:
        raise EmptyControversialSet("no controversial images in dataset")
    rows = ds.privacy_features.rows(ids)
    if (rows < 0).any():
        image_id = ids[int(np.argmax(rows < 0))]
        raise EmptyDataset(f"controversial image {image_id!r} lacks people_count")
    counts = ds.privacy_features.values[rows, PEOPLE_COUNT]
    total = len(ids)
    return {
        "one_person": int(np.count_nonzero(counts == 1)) / total,
        "two_plus": int(np.count_nonzero(counts > 1)) / total,
        "none": int(np.count_nonzero(counts == 0)) / total,
    }
