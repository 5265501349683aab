"""Analyses of human privacy votes and interpretable features: controversial
images, people-count breakdowns, cumulative private probability, sensitivity
label distributions, conditional private probability, group probabilities.

Votes arrive as per-image counts (see data_io.vote_store).
"""

from __future__ import annotations

import itertools

import numpy as np

from .data_io import N_PRIVATE, N_PUBLIC, OUTDOOR_PROB, PEOPLE_COUNT, Dataset, decode_levels
# Each analysis is written as JSON and as a flat CSV. The CLI calls the
# writers by these names, which perfbench/traced_cli.py wraps.
from .data_io import write_csv, write_json  # noqa: F401
from .errors import EmptyControversialSet, EmptyDataset
from .features import Likelihood, SENSITIVITY_CLASSES

#: Neither side may exceed this fraction of assessors for an image to count
#: as controversial.
CONTROVERSY_MAX_SHARE = 0.65

# Group-membership thresholds.
SENSITIVE_MIN_LEVEL = Likelihood.POSSIBLE
OUTDOOR_MIN_PROB = 0.5


def is_controversial(counts: np.ndarray) -> np.ndarray:
    """For each row of an (n, 3) vote-count array (see data_io.vote_store): both
    sides voted, and neither was picked by more than 65% of assessors. Counts
    divide as Python's ints do, so a share of exactly 0.65 (13 of 20) passes."""
    n = counts.sum(axis=1)
    private, public = counts[:, N_PRIVATE], counts[:, N_PUBLIC]
    with np.errstate(invalid="ignore"):  # 0/0 in a row of no votes, which has no side
        return ((private >= 1) & (public >= 1)
                & (private / n <= CONTROVERSY_MAX_SHARE) & (public / n <= CONTROVERSY_MAX_SHARE))


def _controversial_rows(ds: Dataset) -> np.ndarray:
    """Manifest positions of controversial images, ascending."""
    rows = ds.annotations.rows(ds.manifest.ids)
    voted = np.flatnonzero(rows >= 0)
    return voted[is_controversial(ds.annotations.values[rows[voted]])]


def controversial_image_ids(ds: Dataset) -> list[str]:
    """Manifest-ordered ids of controversial images."""
    return [ds.manifest.ids[i] for i in _controversial_rows(ds).tolist()]


def controversial_people_breakdown(ds: Dataset) -> dict[str, float]:
    """Fractions of the controversial images with one / two-plus / no people."""
    picked = _controversial_rows(ds)
    if not picked.size:
        raise EmptyControversialSet("no controversial images in dataset")
    rows = ds.privacy_features.rows(ds.manifest.ids)[picked]
    if (rows < 0).any():
        image_id = ds.manifest.ids[picked[int(np.argmax(rows < 0))]]
        raise EmptyDataset(f"controversial image {image_id!r} lacks people_count")
    counts = ds.privacy_features.values[rows, PEOPLE_COUNT]
    return {
        "one_person": int(np.count_nonzero(counts == 1)) / picked.size,
        "two_plus": int(np.count_nonzero(counts > 1)) / picked.size,
        "none": int(np.count_nonzero(counts == 0)) / picked.size,
    }


def group_membership(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(has_people, is_sensitive, is_outdoor) for each privacy-store row.

    A missing sensitivity cell never makes an image sensitive: it reads 0.0,
    the code of VERY_UNLIKELY, which is below SENSITIVE_MIN_LEVEL.
    """
    return (
        values[:, PEOPLE_COUNT] >= 1,
        (decode_levels(values) >= SENSITIVE_MIN_LEVEL).any(axis=1),
        values[:, OUTDOOR_PROB] >= OUTDOOR_MIN_PROB,
    )


def cumulative_private_by_people(
    ds: Dataset, location: str | None = None
) -> list[tuple[int, float]]:
    """(k, P(private | people_count <= k)) for each k up to the max count.

    location: None, "indoor" or "outdoor"; filters on the outdoor threshold.
    k values with an empty conditioning set are omitted.
    """
    if location not in (None, "indoor", "outdoor"):
        raise ValueError(f"bad location filter {location!r}")
    values, _, private = ds.labeled_privacy_features
    outdoor = values[:, OUTDOOR_PROB] >= OUTDOOR_MIN_PROB
    keep = {None: np.ones_like(outdoor), "indoor": ~outdoor, "outdoor": outdoor}[location]
    counts = values[keep, PEOPLE_COUNT].astype(np.int64)
    if counts.size == 0:
        raise EmptyDataset("no labeled images with features after filtering")
    n_upto = np.cumsum(np.bincount(counts))
    private_upto = np.cumsum(np.bincount(counts[private[keep]], minlength=n_upto.size))
    return [
        (k, int(n_private) / int(n))
        for k, (n_private, n) in enumerate(zip(private_upto, n_upto))
        if n
    ]


def sensitivity_label_distribution(ds: Dataset) -> dict:
    """Count tensor class x level x label, plus per-(class,label) shares.

    Missing sensitivity fields are skipped (not counted as any level).
    """
    values, missing, private = ds.labeled_privacy_features
    levels = decode_levels(values)
    counts, shares = {}, {}
    for j, c in enumerate(SENSITIVITY_CLASSES):
        per_label = {
            key: [int(n) for n in np.bincount(levels[~missing[:, j] & mask, j],
                                              minlength=len(Likelihood))]
            for key, mask in (("private", private), ("public", ~private))
        }
        counts[c] = {lvl.name: {key: n[lvl] for key, n in per_label.items()} for lvl in Likelihood}
        shares[c] = {
            key: {lvl.name: (n[lvl] / sum(n) if sum(n) else 0.0) for lvl in Likelihood}
            for key, n in per_label.items()
        }
    return {"counts": counts, "shares": shares}


def private_prob_given_sensitivity(
    ds: Dataset, sensitivity_class: str
) -> list[tuple[str, float | None, int]]:
    """(level, P(private | class == level), support) per likelihood level.

    Zero-support levels report a null probability.
    """
    if sensitivity_class not in SENSITIVITY_CLASSES:
        raise ValueError(f"unknown sensitivity class {sensitivity_class!r}")
    j = SENSITIVITY_CLASSES.index(sensitivity_class)
    values, missing, private = ds.labeled_privacy_features
    present = ~missing[:, j]
    levels = decode_levels(values)[:, j]
    n_total = np.bincount(levels[present], minlength=len(Likelihood))
    n_private = np.bincount(levels[present & private], minlength=len(Likelihood))
    out = []
    for lvl in Likelihood:
        n = int(n_total[lvl])
        prob = int(n_private[lvl]) / n if n else None
        out.append((lvl.name, prob, n))
    return out


def group_privacy_probabilities(ds: Dataset) -> list[dict]:
    """Share of the dataset and P(private) for all 8 people x sensitive x outdoor cells."""
    values, _, private = ds.labeled_privacy_features
    total = len(private)
    if total == 0:
        raise EmptyDataset("no labeled images with full privacy features")
    has_people, sensitive, outdoor = group_membership(values)
    # cell codes count up in sorted (has_people, is_sensitive, is_outdoor) order
    cell = 4 * has_people + 2 * sensitive + outdoor
    n_cell = np.bincount(cell, minlength=8)
    n_private = np.bincount(cell[private], minlength=8)
    out = []
    for code, (p, s, o) in enumerate(itertools.product((False, True), repeat=3)):
        n = int(n_cell[code])
        out.append({
            "has_people": p,
            "is_sensitive": s,
            "is_outdoor": o,
            "share": n / total,
            "p_private": int(n_private[code]) / n if n else None,
            "support": n,
        })
    return out

