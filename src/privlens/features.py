"""Canonical feature schema: likelihood encoding, block assembly, standardization.

The eight interpretable per-image features live in a fixed order:
adult, racy, medical, spoofed, violent, people_prob, people_count, outdoor_prob.
Every serialized model and every CSV store relies on this order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyMatrix, MissingGroupData, NonFiniteValue


class Likelihood(enum.IntEnum):
    """Five ordered likelihood levels, as reported by SafeSearch-style services."""

    VERY_UNLIKELY = 0
    UNLIKELY = 1
    POSSIBLE = 2
    LIKELY = 3
    VERY_LIKELY = 4


class PrivacyLabel(enum.Enum):
    """Binary privacy label. PRIVATE is the positive class everywhere."""

    PRIVATE = "private"
    PUBLIC = "public"


class FeatureGroup(enum.Enum):
    """Named blocks of input columns, toggled on/off in ablations."""

    SENS = "sens"
    PEOPLE = "people"
    OUT = "out"
    PLACES = "places"
    DEEP = "deep"


#: Canonical column order of the eight privacy-specific features.
PRIVACY_FEATURE_NAMES = (
    "adult", "racy", "medical", "spoofed", "violent",
    "people_prob", "people_count", "outdoor_prob",
)

SENSITIVITY_CLASSES = ("adult", "racy", "medical", "spoofed", "violent")


def encode_likelihood(level: Likelihood | None) -> float:
    """Map a likelihood level onto [0,1] linearly (index / 4).

    ``None`` (extractor returned unknown) encodes as 0.0; the privacy
    store's ``missing`` mask tells such cells apart from VERY_UNLIKELY.
    """
    if level is None:
        return 0.0
    return int(level) / 4.0


#: Block order in design matrices (and columns of the ablation table).
GROUP_ORDER = (
    FeatureGroup.SENS,
    FeatureGroup.PEOPLE,
    FeatureGroup.OUT,
    FeatureGroup.PLACES,
    FeatureGroup.DEEP,
)


@dataclass(frozen=True)
class FeatureSpec:
    """The feature groups a design matrix stacks and a model consumes, with
    the tag of the deep store that backs DEEP."""

    groups: frozenset[FeatureGroup]
    source_tag: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "groups", frozenset(self.groups))
        if FeatureGroup.DEEP in self.groups and self.source_tag is None:
            raise ValueError("source_tag required when groups include deep")

    def to_dict(self) -> dict:
        return {"groups": sorted(g.value for g in self.groups),
                "source_tag": self.source_tag}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        groups, tag = frozenset(FeatureGroup(g) for g in d["groups"]), d.get("source_tag")
        if not isinstance(tag, (str, type(None))):
            raise ValueError(f"source_tag must be a string or null, not {tag!r}")
        return cls(groups, tag)


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


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column mean and stddev, fitted on the training split only."""

    mean: np.ndarray
    stddev: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        stddev = np.asarray(self.stddev, dtype=np.float64)
        if mean.shape != stddev.shape or mean.ndim != 1:
            raise DimensionMismatch("mean/stddev must be 1-D and same shape")
        if np.any(stddev <= 0):
            raise ValueError("stddev entries must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "stddev", stddev)

    @property
    def dim(self) -> int:
        return int(self.mean.size)


def require_finite(finite: np.ndarray, message: str) -> None:
    """NonFiniteValue with `message` formatted with the 1-based position of the
    first False in `finite`, unless every entry is True. Callers compute with
    float warnings off and report through here instead."""
    if not finite.all():
        raise NonFiniteValue(message.format(int(np.argmin(finite)) + 1))


def fit_standardizer(X: np.ndarray) -> StandardizationParams:
    """Column means and population stddevs; zero-variance columns get stddev 1.
    A NaN or infinite entry, or a sum or square past float64's range, is
    NonFiniteValue naming the first such column."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix("cannot fit standardizer on an empty matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        stddev = X.std(axis=0)  # population stddev (ddof=0)
    require_finite(np.isfinite(mean) & np.isfinite(stddev),
                   "feature column {} has no finite mean and stddev")
    stddev = np.where(stddev == 0.0, 1.0, stddev)
    return StandardizationParams(mean=mean, stddev=stddev)


def apply_standardizer(params: StandardizationParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.dim:
        raise DimensionMismatch(
            f"matrix has {X.shape[-1] if X.ndim == 2 else '?'} columns, "
            f"standardizer expects {params.dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        Xs = (X - params.mean) / params.stddev
    require_finite(np.isfinite(Xs).all(axis=0), "standardized feature column {} is not finite")
    return Xs
