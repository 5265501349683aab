"""Confusion counts, balanced accuracy, F1, unweighted accuracy.

Labels are 0/1 or bool arrays; 1/True is Private, the positive class throughout.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch, UndefinedMetric

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _is_private(y) -> np.ndarray:
    """A 0/1 or bool label vector as a bool mask; any other value is a ValueError."""
    y = np.asarray(y)
    if y.ndim != 1 or y.dtype.kind not in "biuf" or not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be a vector of 0/1 or bool (1/True is Private)")
    return y == 1


def confusion(y_true, y_pred) -> ConfusionCounts:
    t, p = _is_private(y_true), _is_private(y_pred)
    if len(t) != len(p):
        raise LengthMismatch(f"{len(t)} true vs {len(p)} predicted")
    if not len(t):
        raise EmptyInput("no samples to evaluate")
    tp, fp, fn = (int(np.count_nonzero(m)) for m in (t & p, ~t & p, t & ~p))
    return ConfusionCounts(tp=tp, fp=fp, tn=len(t) - tp - fp - fn, fn=fn)


def balanced_accuracy(c: ConfusionCounts) -> float:
    """Mean of per-class recall; undefined when a class is absent."""
    if c.tp + c.fn == 0 or c.tn + c.fp == 0:
        raise UndefinedMetric("balanced accuracy needs both classes present")
    return (c.tp / (c.tp + c.fn) + c.tn / (c.tn + c.fp)) / 2.0


def f1(c: ConfusionCounts) -> float:
    """2·tp / (2·tp + fp + fn); 0.0 by convention when the denominator is 0."""
    denom = 2 * c.tp + c.fp + c.fn
    if denom == 0:
        log.warning("F1 denominator is zero (no positives anywhere); returning 0.0")
        return 0.0
    return 2 * c.tp / denom


def unweighted_accuracy(c: ConfusionCounts) -> float:
    """Plain fraction of correct predictions."""
    if c.n == 0:
        raise EmptyInput("cannot compute accuracy on zero samples")
    return (c.tp + c.tn) / c.n


@dataclass(frozen=True)
class MetricsReport:
    balanced_accuracy: float | None
    f1: float
    unweighted_accuracy: float
    counts: ConfusionCounts

    @property
    def n(self) -> int:
        return self.counts.n

    @classmethod
    def from_labels(cls, y_true, y_pred) -> "MetricsReport":
        c = confusion(y_true, y_pred)
        try:
            ba = balanced_accuracy(c)
        except UndefinedMetric:
            ba = None
        return cls(
            balanced_accuracy=ba,
            f1=f1(c),
            unweighted_accuracy=unweighted_accuracy(c),
            counts=c,
        )

    def to_dict(self) -> dict:
        return {
            "balanced_accuracy": self.balanced_accuracy,
            "f1": self.f1,
            "unweighted_accuracy": self.unweighted_accuracy,
            "counts": asdict(self.counts),
            "n": self.n,
        }

    def table_row(self, name: str = "") -> str:
        ba = f"{self.balanced_accuracy:6.4f}" if self.balanced_accuracy is not None else "   n/a"
        return f"{name:<24s} BA={ba} F1={self.f1:6.4f} UBA={self.unweighted_accuracy:6.4f} n={self.n}"
