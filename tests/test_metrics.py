import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from privlens.errors import EmptyInput, LengthMismatch, UndefinedMetric
from privlens.features import PrivacyLabel
from privlens.metrics import (
    ConfusionCounts,
    MetricsReport,
    balanced_accuracy,
    confusion,
    f1,
    unweighted_accuracy,
)

P, PUB = 1, 0  # the label code: 1 is Private


def labels_from_counts(c: ConfusionCounts):
    """Expand counts back into per-sample 0/1 label arrays (the brute-force oracle)."""
    y_true = np.array([P] * (c.tp + c.fn) + [PUB] * (c.tn + c.fp))
    y_pred = np.array([P] * c.tp + [PUB] * c.fn + [PUB] * c.tn + [P] * c.fp)
    return y_true, y_pred


def oracle_metrics(y_true, y_pred):
    """Metrics straight from per-sample labels, no confusion-matrix shortcut."""
    n = len(y_true)
    correct = sum(1 for t, p in zip(y_true, y_pred) if t == p)
    pos = [(t, p) for t, p in zip(y_true, y_pred) if t == P]
    neg = [(t, p) for t, p in zip(y_true, y_pred) if t == PUB]
    recall_pos = sum(1 for t, p in pos if p == P) / len(pos) if pos else None
    recall_neg = sum(1 for t, p in neg if p == PUB) / len(neg) if neg else None
    ba = (recall_pos + recall_neg) / 2 if pos and neg else None
    pred_pos = sum(1 for p in y_pred if p == P)
    true_pos = sum(1 for t, p in zip(y_true, y_pred) if t == P and p == P)
    denom = pred_pos + len(pos)
    f1_val = 2 * true_pos / denom if denom else 0.0
    return ba, f1_val, correct / n


class TestConfusion:
    def test_hand_count(self):
        c = confusion([P, P, PUB], [P, PUB, PUB])
        assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 0)

    def test_perfect(self):
        c = confusion([P, PUB], [P, PUB])
        assert c.fn == 0 and c.fp == 0

    def test_all_private_on_all_public(self):
        c = confusion([PUB] * 4, [P] * 4)
        assert c.tn == 0 and c.fp == 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            confusion([P], [P, PUB])

    def test_empty(self):
        with pytest.raises(EmptyInput):
            confusion([], [])


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40),
       st.sampled_from([bool, np.int64, np.uint8, np.float64]))
def test_confusion_equals_per_sample_count(pairs, dtype):
    y_true = np.array([t for t, _ in pairs], dtype=dtype)
    y_pred = np.array([p for _, p in pairs], dtype=dtype)
    expected = ConfusionCounts(
        tp=sum(t and p for t, p in pairs), fp=sum(p and not t for t, p in pairs),
        tn=sum(not (t or p) for t, p in pairs), fn=sum(t and not p for t, p in pairs))
    assert confusion(y_true, y_pred) == expected
    assert confusion(list(y_true), list(y_pred)) == expected


@given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=20), st.integers(0, 19),
       st.sampled_from([2, 0.5, np.nan, -1, PrivacyLabel.PRIVATE, PrivacyLabel.PUBLIC]),
       st.booleans())
def test_confusion_rejects_a_value_that_is_not_0_or_1(labels, k, bad, in_pred):
    # an old-style enum list, say, must not be counted silently as all Public
    bad_side = list(labels)
    bad_side[k % len(labels)] = bad
    args = (labels, bad_side) if in_pred else (bad_side, labels)
    with pytest.raises(ValueError):
        confusion(*args)
    with pytest.raises(ValueError):
        MetricsReport.from_labels(*args)


class TestBalancedAccuracy:
    def test_hand_computed(self):
        assert balanced_accuracy(ConfusionCounts(3, 1, 5, 1)) == pytest.approx(
            (0.75 + 5 / 6) / 2
        )

    def test_perfect(self):
        assert balanced_accuracy(ConfusionCounts(2, 0, 3, 0)) == 1.0

    def test_coin_flip_symmetry(self):
        assert balanced_accuracy(ConfusionCounts(2, 2, 2, 2)) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(UndefinedMetric):
            balanced_accuracy(ConfusionCounts(3, 0, 0, 1))


class TestF1:
    def test_hand_computed(self):
        assert f1(ConfusionCounts(tp=3, fp=1, tn=0, fn=1)) == pytest.approx(0.75)

    def test_zero_denominator_convention(self):
        assert f1(ConfusionCounts(0, 0, 5, 0)) == 0.0

    def test_perfect(self):
        assert f1(ConfusionCounts(4, 0, 2, 0)) == 1.0


class TestUnweightedAccuracy:
    def test_hand_computed(self):
        assert unweighted_accuracy(ConfusionCounts(3, 1, 5, 1)) == pytest.approx(0.8)

    def test_perfect(self):
        assert unweighted_accuracy(ConfusionCounts(3, 0, 5, 0)) == 1.0

    def test_all_wrong(self):
        assert unweighted_accuracy(ConfusionCounts(0, 4, 0, 4)) == 0.0


def test_exhaustive_oracle_equivalence():
    """All 6^4 confusion matrices with counts <= 5 against the label-list oracle."""
    for tp, fp, tn, fn in itertools.product(range(6), repeat=4):
        c = ConfusionCounts(tp, fp, tn, fn)
        if c.n == 0:
            continue
        y_true, y_pred = labels_from_counts(c)
        assert confusion(y_true, y_pred) == c
        ba_o, f1_o, uba_o = oracle_metrics(y_true, y_pred)
        if ba_o is None:
            with pytest.raises(UndefinedMetric):
                balanced_accuracy(c)
        else:
            assert abs(balanced_accuracy(c) - ba_o) <= 1e-12
        assert abs(f1(c) - f1_o) <= 1e-12
        assert abs(unweighted_accuracy(c) - uba_o) <= 1e-12


@given(st.integers(0, 20), st.integers(0, 20), st.integers(0, 20), st.integers(0, 20))
def test_class_swap_leaves_ba_unchanged(tp, fp, tn, fn):
    c = ConfusionCounts(tp, fp, tn, fn)
    swapped = ConfusionCounts(tp=tn, fp=fn, tn=tp, fn=fp)
    if tp + fn > 0 and tn + fp > 0:
        assert balanced_accuracy(c) == pytest.approx(balanced_accuracy(swapped))


@given(st.integers(0, 20), st.integers(0, 20))
def test_uba_equals_ba_when_recalls_equal(tp, fp):
    # balanced data with equal per-class recall: tp=tn, fn=fp
    c = ConfusionCounts(tp=tp, fp=fp, tn=tp, fn=fp)
    if c.n > 0 and tp + fp > 0:
        assert unweighted_accuracy(c) == pytest.approx(balanced_accuracy(c))


def test_report_roundtrip_and_row():
    report = MetricsReport.from_labels([P, P, PUB], [P, PUB, PUB])
    d = report.to_dict()
    assert d["n"] == 3 and d["counts"]["tp"] == 1
    assert "BA=" in report.table_row("fixture")
