import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privlens.analysis import (
    CONTROVERSY_MAX_SHARE,
    controversial_image_ids,
    controversial_people_breakdown,
    cumulative_private_by_people,
    group_membership,
    group_privacy_probabilities,
    is_controversial,
    private_prob_given_sensitivity,
    sensitivity_label_distribution,
)
from privlens.data_io import (
    AnnotationRecord,
    Dataset,
    FeatureStore,
    FiveClassVote,
    manifest_store,
    privacy_store,
    vote_store,
)
from privlens.errors import EmptyControversialSet, EmptyDataset
from privlens.features import SENSITIVITY_CLASSES, Likelihood, PrivacyLabel

import frozen_votes
from conftest import make_pfv

V = FiveClassVote
L = Likelihood
P, PUB = PrivacyLabel.PRIVATE, PrivacyLabel.PUBLIC


def ann(votes, image_id="x"):
    return AnnotationRecord(image_id, tuple(votes))


def counts(votes):
    """The (private, public, undecidable) counts of one image's votes."""
    return vote_store({"x": ann(votes)}).values[0].tolist()


def controversial(votes) -> bool:
    return bool(is_controversial(vote_store({"x": ann(votes)}).values)[0])


class TestSummarizeVotes:
    """`vote_store` folds each image's votes into three counts."""

    def test_clearly_variants_fold(self):
        assert counts([V.CLEARLY_PRIVATE, V.PUBLIC]) == [1, 1, 0]

    def test_undecidable(self):
        assert counts([V.UNDECIDABLE]) == [0, 0, 1]

    def test_majority_private(self):
        assert counts([V.PRIVATE, V.PRIVATE, V.PUBLIC]) == [2, 1, 0]


class TestIsControversial:
    def test_even_split_is_controversial(self):
        assert controversial([V.PRIVATE, V.PUBLIC])

    def test_two_thirds_exceeds_threshold(self):
        assert not controversial([V.PRIVATE, V.PRIVATE, V.PUBLIC])

    def test_unanimous_public_not_controversial(self):
        assert not controversial([V.PUBLIC, V.PUBLIC])

    def test_single_vote_not_controversial(self):
        """A row of fewer than two votes is not controversial, and no division warns."""
        rows = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [1, 1, 0]], dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_controversial(rows).tolist() == [False, False, False, False, True]

    def test_exhaustive_vs_literal_criterion(self):
        """All vote multisets of size 2..5 against a literal reading: at least
        one private vote, at least one public vote, and neither label selected
        by more than 65% of assessors."""
        for size in range(2, 6):
            for votes in itertools.combinations_with_replacement(list(V), size):
                n_priv = sum(v in (V.CLEARLY_PRIVATE, V.PRIVATE) for v in votes)
                n_pub = sum(v in (V.CLEARLY_PUBLIC, V.PUBLIC) for v in votes)
                literal = (
                    n_priv >= 1 and n_pub >= 1
                    and not n_priv / size > CONTROVERSY_MAX_SHARE
                    and not n_pub / size > CONTROVERSY_MAX_SHARE
                )
                assert controversial(votes) == literal

    def test_folding_invariance(self):
        for size in range(2, 5):
            for votes in itertools.combinations_with_replacement(list(V), size):
                folded = [
                    V.PRIVATE if v is V.CLEARLY_PRIVATE
                    else V.PUBLIC if v is V.CLEARLY_PUBLIC else v
                    for v in votes
                ]
                assert controversial(votes) == controversial(folded)


_MANIFEST_IDS = [f"i{k}" for k in range(8)]


@st.composite
def _image_votes(draw):
    """One image's votes, drawn as counts of each kind and shuffled, so that
    shares such as 13 of 20 come up."""
    per_kind = draw(st.lists(st.integers(0, 13), min_size=5, max_size=5)
                    .filter(lambda c: sum(c) > 0))
    return draw(st.permutations([v for v, n in zip(V, per_kind) for _ in range(n)]))


# ids in the manifest, ids with votes (some not in the manifest) and their votes
_VOTE_CASES = st.tuples(
    st.lists(st.sampled_from(_MANIFEST_IDS), unique=True),
    st.dictionaries(st.sampled_from([*_MANIFEST_IDS, "x0", "x1"]), _image_votes()),
)
_AT_THRESHOLD = {
    "i0": [V.PRIVATE] * 13 + [V.PUBLIC] * 7,  # 13 of 20 is exactly 0.65
    "i1": [V.CLEARLY_PUBLIC] * 6 + [V.PUBLIC] * 7 + [V.PRIVATE] * 5 + [V.UNDECIDABLE] * 2,
    "i2": [V.PRIVATE] * 14 + [V.PUBLIC] * 6,
    "i3": [V.PUBLIC],
    "x0": [V.PRIVATE, V.PUBLIC],
}


class TestAgainstFrozenVotes:
    """The count store and the mask against the earlier per-image records,
    summaries and scalar rule in `frozen_votes`."""

    @settings(max_examples=200, deadline=None)
    @given(_VOTE_CASES)
    @example((["i3", "i2", "i1", "i0", "i4"], _AT_THRESHOLD))
    def test_controversial_image_ids(self, case):
        manifest_ids, votes = case
        manifest = manifest_store({i: ("", "") for i in manifest_ids})
        records = {i: ann(vs, i) for i, vs in votes.items()}
        expected = frozen_votes.controversial_image_ids(
            SimpleNamespace(manifest=manifest, annotations=records))
        ds = Dataset(manifest, annotations=vote_store(records))
        assert controversial_image_ids(ds) == expected

    @settings(max_examples=200, deadline=None)
    @given(_VOTE_CASES)
    def test_vote_store_counts(self, case):
        _, votes = case
        store = vote_store({i: ann(vs, i) for i, vs in votes.items()})
        assert store.ids == list(votes)
        assert store.values.dtype == np.float64 and store.values.shape == (len(votes), 3)
        assert store.values.tolist() == [
            [sum(v in (V.CLEARLY_PRIVATE, V.PRIVATE) for v in vs),
             sum(v in (V.CLEARLY_PUBLIC, V.PUBLIC) for v in vs),
             sum(v is V.UNDECIDABLE for v in vs)]
            for vs in votes.values()]

    def test_threshold_example_is_on_the_boundary(self):
        assert frozen_votes.controversial_image_ids(SimpleNamespace(
            manifest=manifest_store({i: ("", "") for i in _AT_THRESHOLD}),
            annotations={i: ann(vs, i) for i, vs in _AT_THRESHOLD.items()})) == ["i0", "i1", "x0"]


def controversial_ds(counts):
    """Each image gets one Private + one Public vote (controversial) and the
    given people_count."""
    manifest, features, annotations = {}, {}, {}
    for i, c in enumerate(counts):
        image_id = f"i{i}"
        manifest[image_id] = ("public", "")
        features[image_id] = make_pfv(people_count=c)
        annotations[image_id] = ann([V.PRIVATE, V.PUBLIC], image_id)
    return Dataset(manifest_store(manifest), privacy_features=privacy_store(features),
                   annotations=vote_store(annotations))


def people_breakdown(ds):
    return controversial_people_breakdown(ds, controversial_image_ids(ds))


class TestPeopleBreakdown:
    def test_hand_counted(self):
        ds = controversial_ds([1, 1, 2, 0])
        assert people_breakdown(ds) == {
            "one_person": 0.5, "two_plus": 0.25, "none": 0.25}

    def test_all_no_people(self):
        ds = controversial_ds([0, 0])
        breakdown = people_breakdown(ds)
        assert breakdown == {"one_person": 0.0, "two_plus": 0.0, "none": 1.0}

    def test_empty_controversial_set(self):
        ds = Dataset(manifest=manifest_store({"a": ("public", "")}),
                     privacy_features=privacy_store({"a": make_pfv()}),
                     annotations=vote_store({"a": ann([V.PUBLIC, V.PUBLIC], "a")}))
        with pytest.raises(EmptyControversialSet):
            people_breakdown(ds)

    def test_fractions_sum_to_one(self):
        ds = controversial_ds([0, 1, 1, 2, 3, 5])
        assert sum(people_breakdown(ds).values()) == pytest.approx(1.0, abs=1e-9)


def labeled_ds(rows):
    """rows: list of (people_count, label) or (people_count, label, outdoor_prob)."""
    manifest, features = {}, {}
    for i, row in enumerate(rows):
        count, label = row[0], row[1]
        outdoor = row[2] if len(row) > 2 else 0.0
        image_id = f"i{i}"
        manifest[image_id] = (label.value, "")
        features[image_id] = make_pfv(people_count=count, outdoor_prob=outdoor)
    return Dataset(manifest_store(manifest), privacy_features=privacy_store(features))


class TestCumulativeByPeople:
    def test_hand_computed(self):
        ds = labeled_ds([(0, PUB), (1, P), (1, PUB), (2, P)])
        assert cumulative_private_by_people(ds) == [
            (0, 0.0), (1, pytest.approx(1 / 3)), (2, 0.5)]

    def test_all_private(self):
        ds = labeled_ds([(0, P), (2, P)])
        assert all(p == 1.0 for _, p in cumulative_private_by_people(ds))

    def test_empty_prefixes_omitted(self):
        ds = labeled_ds([(3, P)])
        assert cumulative_private_by_people(ds) == [(3, 1.0)]

    def test_location_filter(self):
        ds = labeled_ds([(0, PUB, 0.9), (1, P, 0.1)])
        assert cumulative_private_by_people(ds, "outdoor") == [(0, 0.0)]
        assert cumulative_private_by_people(ds, "indoor") == [(1, 1.0)]

    def test_final_entry_is_unconditional_fraction(self):
        ds = labeled_ds([(0, PUB), (1, P), (4, PUB), (2, P), (2, PUB)])
        curve = cumulative_private_by_people(ds)
        assert curve[-1][1] == pytest.approx(2 / 5)
        assert all(0.0 <= p <= 1.0 for _, p in curve)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            cumulative_private_by_people(Dataset(manifest_store({})))


class TestSensitivityDistribution:
    def test_single_nonzero_cell(self):
        ds = Dataset(manifest=manifest_store({"a": ("private", "")}),
                     privacy_features=privacy_store({"a": make_pfv(
                         adult=None, racy=L.POSSIBLE, medical=None,
                         spoofed=None, violent=None)}))
        dist = sensitivity_label_distribution(ds)
        nonzero = [(c, lvl, lab)
                   for c, per_level in dist["counts"].items()
                   for lvl, per_label in per_level.items()
                   for lab, n in per_label.items() if n]
        assert nonzero == [("racy", "POSSIBLE", "private")]

    def test_empty_dataset_all_zero(self):
        dist = sensitivity_label_distribution(Dataset(manifest_store({})))
        assert all(n == 0
                   for per_level in dist["counts"].values()
                   for per_label in per_level.values()
                   for n in per_label.values())

    def test_hand_tallied_fixture(self):
        ds = Dataset(
            manifest=manifest_store({"a": ("private", ""), "b": ("private", ""),
                                    "c": ("public", ""), "d": ("public", "")}),
            privacy_features=privacy_store({
                "a": make_pfv(racy=L.LIKELY),
                "b": make_pfv(racy=L.LIKELY, adult=L.POSSIBLE),
                "c": make_pfv(racy=L.VERY_UNLIKELY),
                "d": make_pfv(),
            }))
        counts = sensitivity_label_distribution(ds)["counts"]
        assert counts["racy"]["LIKELY"]["private"] == 2
        assert counts["racy"]["VERY_UNLIKELY"]["public"] == 2
        assert counts["adult"]["POSSIBLE"]["private"] == 1
        assert counts["adult"]["VERY_UNLIKELY"]["private"] == 1

    def test_shares_sum_to_one(self):
        ds = Dataset(
            manifest=manifest_store({"a": ("private", ""), "b": ("public", "")}),
            privacy_features=privacy_store({"a": make_pfv(violent=L.LIKELY), "b": make_pfv()}))
        shares = sensitivity_label_distribution(ds)["shares"]
        assert sum(shares["violent"]["private"].values()) == pytest.approx(1.0, abs=1e-9)


class TestConditionalPrivate:
    def test_hand_computed(self):
        ds = Dataset(
            manifest=manifest_store({"a": ("private", ""), "b": ("private", ""),
                                    "c": ("public", ""), "d": ("private", "")}),
            privacy_features=privacy_store({
                "a": make_pfv(adult=L.VERY_LIKELY),
                "b": make_pfv(adult=L.VERY_LIKELY),
                "c": make_pfv(adult=L.VERY_UNLIKELY),
                "d": make_pfv(adult=L.VERY_UNLIKELY),
            }))
        rows = {lvl: (p, n) for lvl, p, n in private_prob_given_sensitivity(ds, "adult")}
        assert rows["VERY_LIKELY"] == (1.0, 2)
        assert rows["VERY_UNLIKELY"] == (0.5, 2)

    def test_zero_support_is_null(self):
        ds = Dataset(manifest=manifest_store({"a": ("private", "")}),
                     privacy_features=privacy_store({"a": make_pfv(adult=L.VERY_LIKELY)}))
        rows = {lvl: (p, n) for lvl, p, n in private_prob_given_sensitivity(ds, "adult")}
        assert rows["POSSIBLE"] == (None, 0)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            private_prob_given_sensitivity(Dataset(manifest_store({})), "funny")


class TestGroupProbabilities:
    def test_one_image_per_cell(self):
        manifest, features = {}, {}
        labels = [P, PUB, P, PUB, P, PUB, P, PUB]
        combos = list(itertools.product([0, 1], repeat=3))
        for i, ((people, sens, outd), label) in enumerate(zip(combos, labels)):
            image_id = f"i{i}"
            manifest[image_id] = (label.value, "")
            features[image_id] = make_pfv(
                racy=L.LIKELY if sens else L.VERY_UNLIKELY,
                people_count=people,
                outdoor_prob=0.9 if outd else 0.1,
            )
        ds = Dataset(manifest_store(manifest), privacy_features=privacy_store(features))
        cells = group_privacy_probabilities(ds)
        assert len(cells) == 8
        assert all(c["share"] == pytest.approx(0.125) for c in cells)
        assert all(c["p_private"] in (0.0, 1.0) for c in cells)
        assert sum(c["share"] for c in cells) == pytest.approx(1.0, abs=1e-9)

    def test_empty_cell_reports_null(self):
        ds = labeled_ds([(0, PUB)])
        cells = group_privacy_probabilities(ds)
        empty = [c for c in cells if c["support"] == 0]
        assert empty and all(c["p_private"] is None and c["share"] == 0.0 for c in empty)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            group_privacy_probabilities(Dataset(manifest_store({})))


def membership(pfv):
    """(has_people, is_sensitive, is_outdoor) of one image."""
    return tuple(bool(m[0]) for m in group_membership(privacy_store({"x": pfv}).values))


class TestGroupMembership:
    def test_thresholds(self):
        member = membership(make_pfv(racy=L.POSSIBLE, people_count=1, outdoor_prob=0.5))
        assert member == (True, True, True)
        member = membership(make_pfv(racy=L.UNLIKELY, people_count=0, outdoor_prob=0.49))
        assert member == (False, False, False)

    def test_missing_sensitivity_not_sensitive(self):
        member = membership(make_pfv(adult=None, racy=None, medical=None,
                                     spoofed=None, violent=None))
        assert not member[1]
        # a missing cell reads VERY_UNLIKELY's 0.0, below the threshold
        assert membership(make_pfv(adult=None, racy=L.POSSIBLE))[1]
        assert not membership(make_pfv(adult=None, racy=L.UNLIKELY))[1]


def test_controversial_ids_manifest_order():
    ds = controversial_ds([1, 2])
    assert controversial_image_ids(ds) == ["i0", "i1"]


def test_feature_analyses_select_the_labeled_rows_once(monkeypatch):
    calls = []
    real = FeatureStore.rows
    monkeypatch.setattr(FeatureStore, "rows",
                        lambda self, ids: calls.append(len(ids)) or real(self, ids))
    ds = labeled_ds([(0, PUB), (1, P), (1, PUB, 0.9), (2, P)])
    for loc in (None, "indoor", "outdoor"):
        cumulative_private_by_people(ds, loc)
    sensitivity_label_distribution(ds)
    for c in SENSITIVITY_CLASSES:
        private_prob_given_sensitivity(ds, c)
    group_privacy_probabilities(ds)
    assert calls == [4]
