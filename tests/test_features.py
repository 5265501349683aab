import numpy as np
import pytest
from hypothesis import given, strategies as st

from privlens.data_io import (
    Dataset,
    FeatureStore,
    Split,
    build_design_matrix,
    manifest_store,
    privacy_store,
)
from privlens.errors import DimensionMismatch, EmptyMatrix, MissingGroupData, NonFiniteValue
from privlens.features import (
    ROW_BLOCK,
    SENSITIVITY_CLASSES,
    FeatureGroup,
    FeatureSpec,
    Likelihood,
    apply_standardizer,
    assemble_features,
    encode_likelihood,
    fit_standardizer,
)

from conftest import make_pfv

L = Likelihood
G = FeatureGroup


def imputed(pfv):
    """Names of the sensitivity cells a privacy store marks missing."""
    store = privacy_store({"x": pfv})
    return tuple(c for c, m in zip(SENSITIVITY_CLASSES, store.missing[0]) if m)


def whole(block):
    """`block` as the `(values, rows)` pair that gathers all of its rows."""
    return block, np.arange(len(block))


def design_row(pfv, groups, deep=None):
    """One image's design-matrix row, built from a privacy store and an
    optional deep store tagged rn101."""
    deep_features = {}
    if deep is not None:
        deep_features["rn101"] = FeatureStore(["x"], np.asarray(deep, dtype=float)[None, :])
    ds = Dataset(manifest_store({"x": ("public", "train")}),
                 privacy_features=privacy_store({"x": pfv}), deep_features=deep_features)
    X, _, _ = build_design_matrix(
        ds, Split.TRAIN, FeatureSpec(groups, "rn101" if deep is not None else None))
    return X[0]


class TestEncodeLikelihood:
    def test_endpoints_and_midpoint(self):
        assert encode_likelihood(L.VERY_UNLIKELY) == 0.0
        assert encode_likelihood(L.POSSIBLE) == 0.5
        assert encode_likelihood(L.VERY_LIKELY) == 1.0

    def test_all_levels_hit_quarter_grid(self):
        assert {encode_likelihood(l) for l in L} == {0.0, 0.25, 0.5, 0.75, 1.0}

    def test_strictly_monotone(self):
        values = [encode_likelihood(l) for l in sorted(L)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_missing_encodes_as_zero(self):
        assert encode_likelihood(None) == 0.0

    def test_imputed_flag_lists_missing_fields(self):
        pfv = make_pfv()
        assert imputed(pfv) == ()
        pfv2 = make_pfv(racy=None, violent=None)
        assert imputed(pfv2) == ("racy", "violent")


class TestAssembleFeatures:
    def test_sens_only_is_five_encoded_likelihoods(self):
        pfv = make_pfv(adult=L.UNLIKELY, racy=L.POSSIBLE)
        vec = design_row(pfv, {G.SENS})
        assert vec.shape == (5,)
        np.testing.assert_allclose(vec, [0.25, 0.5, 0.0, 0.0, 0.0])

    def test_full_privacy_vector_canonical_order(self):
        pfv = make_pfv(adult=L.LIKELY, people_prob=0.9, people_count=3, outdoor_prob=0.2)
        vec = design_row(pfv, {G.SENS, G.PEOPLE, G.OUT})
        assert vec.shape == (8,)
        np.testing.assert_allclose(vec, [0.75, 0, 0, 0, 0, 0.9, 3.0, 0.2])

    def test_deep_concatenation_dimension(self):
        pfv = make_pfv()
        vec = design_row(pfv, {G.SENS, G.PEOPLE, G.OUT, G.DEEP}, deep=np.zeros(2048))
        assert vec.shape == (2056,)  # 8 + 2048

    def test_missing_group_source_raises(self):
        with pytest.raises(MissingGroupData, match="^group SENS has no feature block$"):
            assemble_features({}, {G.SENS})
        with pytest.raises(MissingGroupData, match="^group DEEP has no feature block$"):
            assemble_features({G.SENS: whole(np.zeros((1, 5)))}, {G.SENS, G.DEEP})

    def test_empty_group_set_raises(self):
        with pytest.raises(MissingGroupData,
                           match="^at least one feature group must be selected$"):
            assemble_features({G.SENS: whole(np.zeros((1, 5)))}, set())

    def test_deep_dim_disagreement_raises(self):
        blocks = {G.SENS: whole(np.zeros((3, 5))), G.DEEP: whole(np.zeros((2, 100)))}
        with pytest.raises(DimensionMismatch,
                           match="^feature blocks disagree on the number of rows: 3, 2$"):
            assemble_features(blocks, {G.SENS, G.DEEP})

    def test_blocks_stack_in_fixed_order(self):
        blocks = {G.DEEP: whole(np.full((2, 1), 9.0)), G.OUT: whole(np.full((2, 1), 1.0)),
                  G.SENS: whole(np.zeros((2, 5)))}
        X = assemble_features(blocks, {G.DEEP, G.OUT, G.SENS})
        np.testing.assert_array_equal(X[0], [0, 0, 0, 0, 0, 1.0, 9.0])

    @pytest.mark.parametrize("n", [1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 7])
    def test_gather_is_the_stacked_fancy_index(self, n):
        """Each block's rows, gathered a row block at a time into column views
        of one matrix, are the bytes of `np.hstack` of the gathered blocks."""
        rng = np.random.default_rng(n)
        store = rng.normal(size=(n + 5, 12))
        deep = rng.normal(size=(n + 3, 4))
        rows, deep_rows = rng.permutation(n + 5)[:n], rng.integers(0, n + 3, size=n)
        blocks = {G.SENS: (store[:, 0:5], rows), G.OUT: (store[:, 7:8], rows),
                  G.DEEP: (deep, deep_rows)}
        X = assemble_features(blocks, {G.SENS, G.OUT, G.DEEP})
        expected = np.hstack([store[rows, 0:5], store[rows, 7:8], deep[deep_rows]])
        assert X.dtype == np.float64 and X.flags.c_contiguous
        assert X.shape == expected.shape and X.tobytes() == expected.tobytes()

    def test_deterministic(self):
        pfv = make_pfv(racy=L.LIKELY, people_prob=0.3, people_count=1, outdoor_prob=0.6)
        a = design_row(pfv, {G.SENS, G.PEOPLE, G.OUT})
        b = design_row(pfv, {G.SENS, G.PEOPLE, G.OUT})
        assert np.array_equal(a, b)


class TestFeatureSpec:
    def test_deep_needs_a_source_tag(self):
        with pytest.raises(ValueError, match="source_tag required"):
            FeatureSpec({G.SENS, G.DEEP})
        with pytest.raises(ValueError, match="source_tag required"):
            FeatureSpec.from_dict({"groups": ["deep"], "source_tag": None})

    def test_tag_without_deep_is_kept(self):
        spec = FeatureSpec([G.OUT, G.SENS], "rn101")
        assert spec.groups == frozenset({G.SENS, G.OUT}) and spec.source_tag == "rn101"
        assert spec.to_dict() == {"groups": ["out", "sens"], "source_tag": "rn101"}


class TestStandardizer:
    def test_hand_computed_single_column(self):
        params = fit_standardizer(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(params.mean, [1.0])
        np.testing.assert_allclose(params.stddev, [1.0])  # population stddev

    def test_zero_variance_column_gets_unit_stddev(self):
        params = fit_standardizer(np.array([[5.0], [5.0]]))
        np.testing.assert_allclose(params.mean, [5.0])
        np.testing.assert_allclose(params.stddev, [1.0])

    def test_two_columns_hand_computed(self):
        params = fit_standardizer(np.array([[1.0, 0.0], [3.0, 0.0]]))
        np.testing.assert_allclose(params.mean, [2.0, 0.0])
        np.testing.assert_allclose(params.stddev, [1.0, 1.0])

    def test_apply_hand_computed(self):
        params = fit_standardizer(np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(
            apply_standardizer(params, np.array([[0.0], [2.0]])), [[-1.0], [1.0]]
        )

    def test_identity_params_leave_input_unchanged(self):
        from privlens.features import StandardizationParams
        params = StandardizationParams(np.zeros(3), np.ones(3))
        X = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_array_equal(apply_standardizer(params, X), X)

    def test_apply_third_example(self):
        from privlens.features import StandardizationParams
        params = StandardizationParams(np.array([2.0, 0.0]), np.array([1.0, 1.0]))
        np.testing.assert_allclose(
            apply_standardizer(params, np.array([[1.0, 0.0]])), [[-1.0, 0.0]]
        )

    def test_empty_matrix_raises(self):
        with pytest.raises(EmptyMatrix):
            fit_standardizer(np.empty((0, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
    def test_non_finite_statistics_name_their_column(self, bad):
        # two 1e308 cells overflow the sum; the check runs with float warnings off
        X = np.array([[0.0, 1.0, 1.0], [1.0, bad, bad], [2.0, bad, 0.0]])
        with pytest.raises(NonFiniteValue, match="^feature column 2 has no finite mean"):
            fit_standardizer(X)

    def test_standardized_overflow_names_its_column(self):
        from privlens.features import StandardizationParams
        params = StandardizationParams(np.array([0.0, -1e308]), np.array([1.0, 0.5]))
        with pytest.raises(NonFiniteValue, match="^standardized feature column 2 is not"):
            apply_standardizer(params, np.array([[1.0, 1e308]]))

    def test_dim_mismatch_raises(self):
        params = fit_standardizer(np.array([[0.0], [2.0]]))
        with pytest.raises(DimensionMismatch):
            apply_standardizer(params, np.zeros((2, 2)))

    @given(st.lists(
        st.lists(st.floats(-100, 100), min_size=3, max_size=3),
        min_size=2, max_size=30,
    ))
    def test_roundtrip_zero_mean_unit_std(self, rows):
        X = np.array(rows)
        params = fit_standardizer(X)
        Z = apply_standardizer(params, X)
        for j in range(X.shape[1]):
            if X[:, j].std() <= 1e-3:  # near-constant columns keep raw scale
                continue  # (and rounding noise dominates their z-scores)
            scale = max(1.0, np.abs(Z[:, j]).max())
            assert abs(Z[:, j].mean()) <= 1e-10 * scale
            assert abs(Z[:, j].std() - 1.0) < 1e-10
