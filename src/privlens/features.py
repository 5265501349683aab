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


#: rows per block of a pass over a matrix: a gather into a design matrix, a
#: standardizer fit, or a pass through a network with hidden layers. At width
#: 16 a block's activation is 256 KB, small enough to stay in a core's L2 cache
ROW_BLOCK = 2048


def assemble_features(
    blocks: dict[FeatureGroup, tuple[np.ndarray, np.ndarray]],
    groups: set[FeatureGroup],
) -> np.ndarray:
    """One new float64 matrix of the selected blocks side by side, in fixed
    block order. Block `(values, rows)` is `values[rows]`, gathered
    `ROW_BLOCK` rows at a time straight into its columns, so no block is
    ever copied whole.

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
    if len({len(rows) for _, rows in selected}) > 1:
        raise DimensionMismatch(
            "feature blocks disagree on the number of rows: "
            + ", ".join(str(len(rows)) for _, rows in selected)
        )
    n = len(selected[0][1])
    X = np.empty((n, sum(values.shape[1] for values, _ in selected)))
    end = 0
    for values, rows in selected:
        start, end = end, end + values.shape[1]
        for top in range(0, n, ROW_BLOCK):
            X[top:top + ROW_BLOCK, start:end] = values[rows[top:top + ROW_BLOCK]]
    return X


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
    NonFiniteValue naming the first such column.

    The squared deviations are summed `ROW_BLOCK` rows at a time, so no
    temporary the size of X is made. numpy sums a C-ordered matrix's columns
    row by row, and `np.add.reduce` over the running total stacked on top of
    a block's squares continues that very sum: the bytes are those of
    `X.std(axis=0)`. A one-column matrix, and one not in C order, take the
    one-pass `X.std(axis=0)`: numpy sums a contiguous column pairwise.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix("cannot fit standardizer on an empty matrix")
    n = X.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        if X.shape[1] == 1 or not X.flags.c_contiguous:
            stddev = X.std(axis=0)  # population stddev (ddof=0)
        else:
            stack = np.zeros((min(n, ROW_BLOCK) + 1, X.shape[1]))  # the total, then a block
            for top in range(0, n, ROW_BLOCK):
                squares = stack[1:1 + min(ROW_BLOCK, n - top)]
                np.subtract(X[top:top + ROW_BLOCK], mean, out=squares)
                np.square(squares, out=squares)
                stack[0] = np.add.reduce(stack[:1 + len(squares)], axis=0)
            stddev = np.sqrt(stack[0] / n)
    require_finite(np.isfinite(mean) & np.isfinite(stddev),
                   "feature column {} has no finite mean and stddev")
    stddev = np.where(stddev == 0.0, 1.0, stddev)
    return StandardizationParams(mean=mean, stddev=stddev)


def apply_standardizer(params: StandardizationParams, X: np.ndarray) -> np.ndarray:
    """`(X - mean) / stddev` as a new matrix. A wrong width is DimensionMismatch,
    a non-finite result NonFiniteValue naming its column."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != params.dim:
        raise DimensionMismatch(
            f"matrix has {X.shape[-1] if X.ndim == 2 else '?'} columns, "
            f"standardizer expects {params.dim}"
        )
    return _standardize(params, X, np.empty_like(X))


def standardize_in_place(params: StandardizationParams, X: np.ndarray) -> np.ndarray:
    """`apply_standardizer` written over `X`, a float64 matrix of the
    standardizer's width: the same operations, so the same bits and checks."""
    return _standardize(params, X, X)


def _standardize(params: StandardizationParams, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(X, params.mean, out=out)
        out /= params.stddev
    finite = np.ones(out.shape[1], dtype=bool)  # checked a row block at a time
    for top in range(0, len(out), ROW_BLOCK):
        finite &= np.isfinite(out[top:top + ROW_BLOCK]).all(axis=0)
    require_finite(finite, "standardized feature column {} is not finite")
    return out
