"""Analyses of human privacy votes and interpretable features: controversial
images, people-count breakdowns, cumulative private probability, sensitivity
label distributions, conditional private probability, group probabilities.

Vote folding: the "clearly" variants merge into private/public; undecidable
votes count toward the assessor total but toward neither side.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .data_io import AnnotationRecord, Dataset, FiveClassVote, decode_levels
from .errors import EmptyControversialSet, EmptyDataset, TooFewVotes
from .features import Likelihood, SENSITIVITY_CLASSES

#: Neither side may exceed this fraction of assessors for an image to count
#: as controversial.
CONTROVERSY_MAX_SHARE = 0.65

# Group-membership thresholds (configurable where used).
SENSITIVE_MIN_LEVEL = Likelihood.POSSIBLE
OUTDOOR_MIN_PROB = 0.5

# Columns of the privacy store (see data_io.FeatureStore).
_PEOPLE_COUNT = 6
_OUTDOOR_PROB = 7

_PRIVATE_VOTES = {FiveClassVote.CLEARLY_PRIVATE, FiveClassVote.PRIVATE}
_PUBLIC_VOTES = {FiveClassVote.CLEARLY_PUBLIC, FiveClassVote.PUBLIC}


@dataclass(frozen=True)
class VoteSummary:
    n_votes: int
    n_private: int
    n_public: int
    n_undecidable: int

    def __post_init__(self):
        if self.n_private + self.n_public + self.n_undecidable != self.n_votes:
            raise ValueError("vote counts must sum to n_votes")


def summarize_votes(record: AnnotationRecord) -> VoteSummary:
    n_private = sum(1 for v in record.votes if v in _PRIVATE_VOTES)
    n_public = sum(1 for v in record.votes if v in _PUBLIC_VOTES)
    n_undecidable = len(record.votes) - n_private - n_public
    return VoteSummary(len(record.votes), n_private, n_public, n_undecidable)


def is_controversial(summary: VoteSummary) -> bool:
    """Both sides voted, and neither side was picked by more than 65% of assessors."""
    if summary.n_votes < 2:
        raise TooFewVotes("controversy is defined only for 2+ assessors")
    if summary.n_private < 1 or summary.n_public < 1:
        return False
    return (
        summary.n_private / summary.n_votes <= CONTROVERSY_MAX_SHARE
        and summary.n_public / summary.n_votes <= CONTROVERSY_MAX_SHARE
    )


def controversial_image_ids(ds: Dataset) -> list[str]:
    """Manifest-ordered ids of controversial images (2+ votes only)."""
    out = []
    for image_id in ds.manifest.ids:
        ann = ds.annotations.get(image_id)
        if ann is None or len(ann.votes) < 2:
            continue
        if is_controversial(summarize_votes(ann)):
            out.append(image_id)
    return out


def controversial_people_breakdown(ds: Dataset, ids: list[str]) -> dict[str, float]:
    """Fractions of the controversial images `ids` with one / two-plus / no people."""
    if not ids:
        raise EmptyControversialSet("no controversial images in dataset")
    rows = ds.privacy_features.rows(ids)
    if (rows < 0).any():
        image_id = ids[int(np.argmax(rows < 0))]
        raise EmptyDataset(f"controversial image {image_id!r} lacks people_count")
    counts = ds.privacy_features.values[rows, _PEOPLE_COUNT]
    total = len(ids)
    return {
        "one_person": int(np.count_nonzero(counts == 1)) / total,
        "two_plus": int(np.count_nonzero(counts > 1)) / total,
        "none": int(np.count_nonzero(counts == 0)) / total,
    }


def group_membership(
    values: np.ndarray,
    missing: np.ndarray,
    sensitive_min_level: Likelihood = SENSITIVE_MIN_LEVEL,
    outdoor_min_prob: float = OUTDOOR_MIN_PROB,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(has_people, is_sensitive, is_outdoor) for each privacy-store row.

    A missing sensitivity cell never makes an image sensitive.
    """
    sensitive = ((decode_levels(values) >= sensitive_min_level) & ~missing).any(axis=1)
    return (
        values[:, _PEOPLE_COUNT] >= 1,
        sensitive,
        values[:, _OUTDOOR_PROB] >= outdoor_min_prob,
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
    outdoor = values[:, _OUTDOOR_PROB] >= OUTDOOR_MIN_PROB
    keep = {None: np.ones_like(outdoor), "indoor": ~outdoor, "outdoor": outdoor}[location]
    counts = values[keep, _PEOPLE_COUNT].astype(np.int64)
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
    values, missing, private = ds.labeled_privacy_features
    total = len(private)
    if total == 0:
        raise EmptyDataset("no labeled images with full privacy features")
    has_people, sensitive, outdoor = group_membership(values, missing)
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


# --- report writers (JSON + flat CSV per analysis) ---------------------------

def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
