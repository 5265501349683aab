"""One design matrix per split: `build_design_matrix` gathers each store's
rows straight into one matrix, `fit_standardizer` sums in row blocks, and
training standardizes a handed-over train matrix in place. Each keeps the
bytes of the earlier code, and each stays near one copy of the matrix."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import frozen_join
import frozen_standardizer
from privlens.classifiers import TrainConfig, train_logreg, train_mlp
from privlens.data_io import Dataset, FeatureStore, Split, build_design_matrix, manifest_store
from privlens.errors import NonFiniteValue, PrivlensError
from privlens.features import (ROW_BLOCK, FeatureGroup as G, FeatureSpec, apply_standardizer,
                               fit_standardizer, standardize_in_place)


def _fit_outcome(fit, X):
    """The bytes of `fit(X)`'s mean and stddev, or the type and message of its error."""
    try:
        params = fit(X)
    except PrivlensError as exc:
        return type(exc), str(exc)
    return params.mean.tobytes(), params.stddev.tobytes()


@st.composite
def _matrices(draw):
    """Up to 20,000 × 300 values at 0–5 decimals around an offset, some
    columns constant, perhaps with one NaN, infinite or 1e308 cell."""
    # whole row blocks and a rest, so that each count of blocks is drawn as often
    n = min(draw(st.integers(0, 9)) * ROW_BLOCK + draw(st.integers(1, ROW_BLOCK)), 20_000)
    d = draw(st.integers(1, 300) | st.sampled_from([1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(draw(st.sampled_from([0.0, 1.0, -300.0, 1e4])),
                   draw(st.sampled_from([1e-3, 1.0, 50.0])), size=(n, d))
    X = np.round(X, draw(st.integers(0, 5)))
    for j in draw(st.lists(st.integers(0, d - 1), max_size=3)):
        X[:, j] = X[0, j]
    if draw(st.integers(0, 3)) == 0:
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308]))
        X[draw(st.integers(0, n - 1)), draw(st.integers(0, d - 1))] = bad
    return X


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_matrices())
def test_the_fit_in_row_blocks_keeps_the_one_pass_bytes(X):
    assert _fit_outcome(fit_standardizer, X) == _fit_outcome(
        frozen_standardizer.fit_standardizer, X)


@pytest.mark.parametrize("layout", [np.asfortranarray, lambda X: X[:, ::2]],
                         ids=["fortran", "strided"])
def test_a_matrix_not_in_c_order_keeps_the_one_pass_bytes(layout):
    X = layout(np.round(np.random.default_rng(3).normal(size=(3 * ROW_BLOCK, 10)), 3))
    assert _fit_outcome(fit_standardizer, X) == _fit_outcome(
        frozen_standardizer.fit_standardizer, X)


def _traced_peak(compute):
    """(compute(), the most memory numpy and Python held at once during it)."""
    tracemalloc.start()
    try:
        result = compute()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def _train_matrix(n=20_000, d=136, seed=0):
    rng = np.random.default_rng(seed)
    X = np.round(rng.normal(size=(n, d)), 5)
    return X, (X[:, 0] + rng.normal(size=n) > 0).astype(float)


def test_the_fit_holds_no_copy_of_the_matrix():
    X, _ = _train_matrix()
    params, peak = _traced_peak(lambda: fit_standardizer(X))
    assert params.dim == 136
    assert peak < X.nbytes / 4  # a row block of squares, not X - mean


def _deep_dataset(n=20_000, deep_dim=128, seed=0):
    """`n` images, seven in ten in the train split, with the eight privacy
    features and a `deep_dim`-wide store tagged resnet."""
    rng = np.random.default_rng(seed)
    ids = [f"img_{k:06d}" for k in range(n)]
    manifest = manifest_store({i: (("private", "public")[k % 2],
                                   "train" if k % 10 < 7 else "test")
                               for k, i in enumerate(ids)})
    privacy = FeatureStore(ids, rng.random((n, 8)), np.zeros((n, 5), dtype=bool))
    deep = FeatureStore(ids, np.round(rng.normal(size=(n, deep_dim)), 5))
    return Dataset(manifest, privacy_features=privacy, deep_features={"resnet": deep})


def test_the_design_matrix_is_gathered_in_place():
    ds = _deep_dataset()
    spec = FeatureSpec({G.SENS, G.PEOPLE, G.OUT, G.DEEP}, "resnet")
    (X, y, ids), peak = _traced_peak(lambda: build_design_matrix(ds, Split.TRAIN, spec))
    assert X.shape == (14_000, 136)
    assert peak < 1.3 * X.nbytes  # one matrix, a row block and the row indices
    frozen = frozen_join.build_design_matrix(ds, Split.TRAIN, spec)
    assert X.tobytes() == frozen[0].tobytes() and ids == frozen[2]


_SCHEDULES = {
    "full-batch": {},
    "mini-batch": {"batch_size": 3_000},
    "early-stop": {"early_stop_patience": 0},
}


def _train(kind, X, y, X_val, y_val, schedule, **handover):
    cfg = TrainConfig(learning_rate=0.3, epochs=4, seed=5, **_SCHEDULES[schedule])
    val = {"X_val": X_val, "y_val": y_val} if schedule == "early-stop" else {}
    if kind == "logreg":
        return train_logreg(X, y, cfg, **val, **handover)
    return train_mlp(X, y, cfg, [8, 8, 4], **val, **handover)


def _model_bytes(model):
    return [a.tobytes() for a in (*model.layers.weights, *model.layers.biases,
                                  model.standardizer.mean, model.standardizer.stddev)]


@pytest.mark.parametrize("schedule", _SCHEDULES)
@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_training_leaves_the_callers_arrays_alone(kind, schedule):
    X, y = _train_matrix(n=2 * ROW_BLOCK + 100, d=12)
    X_val, y_val = _train_matrix(n=300, d=12, seed=1)
    raw, raw_val = X.copy(), X_val.copy()
    _train(kind, X, y, X_val, 1.0 - y_val, schedule)
    assert X.tobytes() == raw.tobytes() and X_val.tobytes() == raw_val.tobytes()


@pytest.mark.parametrize("schedule", _SCHEDULES)
@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_a_handed_over_matrix_trains_the_same_model(kind, schedule):
    X, y = _train_matrix(n=2 * ROW_BLOCK + 100, d=12)
    X_val, y_val = _train_matrix(n=300, d=12, seed=1)
    raw, raw_val = X.copy(), X_val.copy()
    model, trace = _train(kind, X, y, X_val, 1.0 - y_val, schedule, overwrite_X=True)
    kept, kept_trace = _train(kind, raw, y, X_val, 1.0 - y_val, schedule)
    assert _model_bytes(model) == _model_bytes(kept) and trace == kept_trace
    assert X.tobytes() == apply_standardizer(model.standardizer, raw).tobytes()
    assert X_val.tobytes() == raw_val.tobytes()  # only X is handed over


@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_training_a_handed_over_matrix_copies_none_of_it(kind):
    X, y = _train_matrix()
    cfg = TrainConfig(learning_rate=0.3, epochs=2)
    train = {"logreg": lambda: train_logreg(X, y, cfg, overwrite_X=True),
             "mlp": lambda: train_mlp(X, y, dataclasses.replace(cfg, epochs=1), [16, 16, 8],
                                      overwrite_X=True)}[kind]
    _, peak = _traced_peak(train)
    assert peak < X.nbytes / 4


def test_standardizing_in_place_holds_no_copy_of_the_matrix():
    X, _ = _train_matrix()
    params = fit_standardizer(X)
    _, peak = _traced_peak(lambda: standardize_in_place(params, X))
    assert peak < X.nbytes / 32  # a row block of finite flags, not a flag per cell


def test_applying_the_standardizer_holds_one_copy_of_the_matrix():
    X, _ = _train_matrix()
    params = fit_standardizer(X)
    _, peak = _traced_peak(lambda: apply_standardizer(params, X))
    assert peak < 1.03 * X.nbytes  # the result and a row block of finite flags


def test_the_lowest_non_finite_column_is_named_over_all_row_blocks():
    X, _ = _train_matrix(n=2 * ROW_BLOCK + 10, d=6)
    params = fit_standardizer(X)
    X[5, 4] = np.inf  # the first row block holds a higher column
    X[ROW_BLOCK + 7, 1] = np.nan  # the second the lower one
    for standardize in (apply_standardizer, standardize_in_place):
        with pytest.raises(NonFiniteValue) as info:
            standardize(params, X.copy())
        assert str(info.value) == "standardized feature column 2 is not finite"
