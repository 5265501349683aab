import dataclasses
import json
import re
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import two_pass_training
from privlens import classifiers
from privlens.classifiers import (
    MlpLayers,
    Model,
    TrainConfig,
    early_stopping_blocker,
    init_mlp_layers,
    load_model,
    logreg_loss_and_grad,
    mlp_loss_and_grad,
    model_to_dict,
    predict_label,
    predict_proba,
    sample_weights,
    save_model,
    sigmoid,
    train_logreg,
    train_mlp,
)
from privlens.errors import (
    DegenerateLabels,
    DimensionMismatch,
    ParseError,
    SchemaVersionMismatch,
    ShapeError,
)
from privlens.features import (
    FeatureSpec,
    StandardizationParams,
    apply_standardizer,
    fit_standardizer,
)

FIXTURES = Path(__file__).parent / "fixtures"


def separable_2d(n=40, margin=0.5, seed=3):
    """y = 1 iff x0 > 0, points kept a margin away from the boundary."""
    rng = np.random.default_rng(seed)
    x0 = np.concatenate([rng.uniform(margin, 3, n // 2),
                         rng.uniform(-3, -margin, n // 2)])
    x1 = rng.normal(size=n)
    X = np.column_stack([x0, x1])
    y = (x0 > 0).astype(float)
    return X, y


def xor_data(repeats=50):
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0.0, 1.0, 1.0, 0.0])
    X = np.tile(base, (repeats, 1))
    y = np.tile(labels, repeats)
    return X, y


def flatten_mlp(layers: MlpLayers) -> np.ndarray:
    return np.concatenate([w.ravel() for w in layers.weights]
                          + [b.ravel() for b in layers.biases])


def unflatten_mlp(theta: np.ndarray, template: MlpLayers) -> MlpLayers:
    parts, pos = [], 0
    for p in template.weights + template.biases:
        parts.append(theta[pos:pos + p.size].reshape(p.shape))
        pos += p.size
    n = len(template.weights)
    return MlpLayers(parts[:n], parts[n:])


def random_mlp_layers(input_dim, hidden_dims, rng):
    """Random weights AND biases: keeps pre-activations off the ReLU kink,
    where finite differences legitimately disagree with the subgradient."""
    layers = init_mlp_layers(input_dim, hidden_dims, seed=int(rng.integers(1 << 31)))
    layers.biases = [rng.normal(scale=0.3, size=b.shape) for b in layers.biases]
    return layers


def central_diff(f, theta, eps=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (f(up) - f(down)) / (2 * eps)
    return grad


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return np.max(np.abs(analytic - numeric) / denom)


class TestGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_logreg_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, 5).astype(float)
        weights = rng.uniform(0.5, 2.0, 5)
        l2 = rng.uniform(0, 0.5)
        w = rng.normal(size=4)
        b = rng.normal()
        _, gw, gb = logreg_loss_and_grad(w, b, X, y, weights, l2)
        analytic = np.concatenate([gw, [gb]])

        def f(theta):
            return logreg_loss_and_grad(theta[:4], theta[4], X, y, weights, l2)[0]

        numeric = central_diff(f, np.concatenate([w, [b]]))
        assert max_rel_error(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("seed", range(20))
    def test_mlp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, 5).astype(float)
        weights = rng.uniform(0.5, 2.0, 5)
        l2 = rng.uniform(0, 0.5)
        layers = random_mlp_layers(4, [3, 3, 3], rng)
        _, gw, gb = mlp_loss_and_grad(layers, X, y, weights, l2)
        analytic = np.concatenate([g.ravel() for g in gw] + [g.ravel() for g in gb])

        def f(theta):
            return mlp_loss_and_grad(unflatten_mlp(theta, layers), X, y, weights, l2)[0]

        numeric = central_diff(f, flatten_mlp(layers))
        assert max_rel_error(analytic, numeric) < 1e-4


class TestTrainLogreg:
    def test_separable_reaches_perfect_accuracy(self):
        X, y = separable_2d()
        cfg = TrainConfig(learning_rate=0.1, epochs=500, l2_penalty=0.0, seed=0)
        model, trace = train_logreg(X, y, cfg)
        pred = predict_proba(model, X) >= 0.5
        assert np.array_equal(pred.astype(float), y)
        assert len(trace) == 501

    def test_constant_features_predict_prior(self):
        X = np.ones((10, 2))
        y = np.array([1.0] * 5 + [0.0] * 5)
        cfg = TrainConfig(learning_rate=0.1, epochs=300, seed=0)
        model, _ = train_logreg(X, y, cfg)
        np.testing.assert_allclose(predict_proba(model, X), 0.5, atol=1e-6)

    def test_bitwise_deterministic(self):
        X, y = separable_2d()
        cfg = TrainConfig(learning_rate=0.05, epochs=100, batch_size=8, seed=42)
        m1, t1 = train_logreg(X, y, cfg)
        m2, t2 = train_logreg(X, y, cfg)
        assert m1.layers.weights[0].tobytes() == m2.layers.weights[0].tobytes()
        assert m1.layers.biases[0].tobytes() == m2.layers.biases[0].tobytes()
        assert t1 == t2

    def test_full_batch_loss_monotone_nonincreasing(self):
        X, y = separable_2d()
        cfg = TrainConfig(learning_rate=0.01, epochs=200, seed=0)
        _, trace = train_logreg(X, y, cfg)
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))

    def test_l2_shrinks_weights_monotonically(self):
        X, y = separable_2d()
        norms = []
        for l2 in (0.0, 0.1, 1.0):
            cfg = TrainConfig(learning_rate=0.1, epochs=300, l2_penalty=l2, seed=0)
            model, _ = train_logreg(X, y, cfg)
            norms.append(np.linalg.norm(model.layers.weights[0]))
        assert norms[0] >= norms[1] >= norms[2]

    def test_degenerate_labels_with_balanced_weighting(self):
        X = np.zeros((4, 2))
        y = np.ones(4)
        with pytest.raises(DegenerateLabels):
            train_logreg(X, y, TrainConfig(class_weighting="balanced"))

    def test_standardization_invariance(self):
        # the standardizer is fitted on the training data, so an affine change
        # of each column leaves the predictions as they were
        X, y = separable_2d()
        cfg = TrainConfig(learning_rate=0.05, epochs=150, seed=1)
        m1, _ = train_logreg(X, y, cfg)
        X2 = X * np.array([3.0, 0.25]) + np.array([10.0, -4.0])
        m2, _ = train_logreg(X2, y, cfg)
        np.testing.assert_allclose(
            predict_proba(m1, X), predict_proba(m2, X2), atol=1e-10
        )

    def test_balanced_equals_duplicated_minority_at_init(self):
        # one positive, three negatives; 3x duplication balances the classes
        X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.2, 0.9]])
        y = np.array([1.0, 0.0, 0.0, 0.0])
        w0 = np.zeros(2)
        weights = sample_weights(y, "balanced")
        _, g_bal, gb_bal = logreg_loss_and_grad(w0, 0.0, X, y, weights, 0.0)
        X_dup = np.vstack([X, X[:1], X[:1]])
        y_dup = np.concatenate([y, [1.0, 1.0]])
        ones = sample_weights(y_dup, "none")
        _, g_dup, gb_dup = logreg_loss_and_grad(w0, 0.0, X_dup, y_dup, ones, 0.0)
        np.testing.assert_allclose(g_bal, g_dup, atol=1e-12)
        np.testing.assert_allclose(gb_bal, gb_dup, atol=1e-12)


class TestTrainMlp:
    def test_xor_reaches_perfect_accuracy(self):
        X, y = xor_data()
        cfg = TrainConfig(learning_rate=0.05, epochs=5000, class_weighting="none", seed=0)
        model, _ = train_mlp(X, y, cfg, [8, 8, 8])
        pred = (predict_proba(model, X) >= 0.5).astype(float)
        assert np.array_equal(pred, y)

    def test_zero_epochs_returns_seeded_init(self):
        X, y = separable_2d(n=20)
        cfg = TrainConfig(epochs=0, seed=9)
        model, trace = train_mlp(X, y, cfg, [4, 4, 4])
        expected = init_mlp_layers(2, [4, 4, 4], seed=9)
        for got, want in zip(model.layers.weights, expected.weights):
            np.testing.assert_array_equal(got, want)
        probs = predict_proba(model, X)
        assert np.all((probs > 0) & (probs < 1))
        assert trace == [trace[0]]

    def test_bitwise_deterministic(self):
        X, y = separable_2d()
        cfg = TrainConfig(learning_rate=0.05, epochs=50, batch_size=8, seed=11)
        m1, _ = train_mlp(X, y, cfg, [4, 4, 4])
        m2, _ = train_mlp(X, y, cfg, [4, 4, 4])
        for a, b in zip(m1.layers.weights, m2.layers.weights):
            assert a.tobytes() == b.tobytes()

    def test_bad_hidden_dims(self):
        X, y = separable_2d(n=10)
        with pytest.raises(ShapeError):
            train_mlp(X, y, TrainConfig(), [4, 4])

    def test_early_stopping_restores_best(self):
        X, y = separable_2d(n=30, seed=1)
        Xv, yv = separable_2d(n=20, seed=2)
        cfg = TrainConfig(learning_rate=0.05, epochs=2000,
                          early_stop_patience=5, seed=0)
        model, trace = train_mlp(X, y, cfg, [4, 4, 4], X_val=Xv, y_val=yv)
        assert len(trace) <= 2001


def logreg_model(weights) -> Model:
    """The one-layer network with these weights, zero bias and no scaling."""
    w = np.asarray(weights, dtype=np.float64)
    return Model(MlpLayers([w[:, None]], [np.zeros(1)]),
                 StandardizationParams(np.zeros(w.size), np.ones(w.size)), FeatureSpec(groups=()))


class TestPredict:
    def _zero_model(self, dim=1):
        return logreg_model(np.zeros(dim))

    def test_zero_logit_gives_half(self):
        model = self._zero_model(3)
        np.testing.assert_allclose(predict_proba(model, np.ones((4, 3))), 0.5)

    def test_unit_weight_zero_input(self):
        model = logreg_model([1.0])
        np.testing.assert_allclose(predict_proba(model, np.array([[0.0]])), 0.5)

    def test_logit_ln3_gives_three_quarters(self):
        model = logreg_model([1.0])
        probs = predict_proba(model, np.array([[np.log(3.0)]]))
        np.testing.assert_allclose(probs, 0.75, atol=1e-12)

    def test_tie_goes_to_private(self):
        model = self._zero_model()
        assert predict_label(model, np.zeros((2, 1))).tolist() == [True, True]  # Private

    def test_threshold_rule(self):
        model = logreg_model([1.0])
        # logit -0.04 -> prob 0.49
        assert predict_label(model, np.array([[np.log(0.49 / 0.51)]])).tolist() == [False]

    def test_dimension_mismatch(self):
        model = self._zero_model(2)
        with pytest.raises(DimensionMismatch):
            predict_proba(model, np.zeros((1, 3)))


class TestSerialization:
    def test_logreg_roundtrip(self, tmp_path):
        X, y = separable_2d()
        model, _ = train_logreg(X, y, TrainConfig(epochs=50))
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(predict_proba(model, X), predict_proba(loaded, X))

    def test_mlp_roundtrip(self, tmp_path):
        X, y = separable_2d()
        model, _ = train_mlp(X, y, TrainConfig(epochs=20), [4, 4, 4])
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(predict_proba(model, X), predict_proba(loaded, X))

    def test_version_mismatch(self, tmp_path):
        X, y = separable_2d()
        model, _ = train_logreg(X, y, TrainConfig(epochs=5))
        doc = model_to_dict(model)
        doc["schema_version"] = 99
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), "utf-8")
        with pytest.raises(SchemaVersionMismatch):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        X, y = separable_2d()
        model, _ = train_logreg(X, y, TrainConfig(epochs=5))
        path = tmp_path / "m.json"
        save_model(model, path)
        path.write_text(path.read_text("utf-8")[:40], "utf-8")
        with pytest.raises(ParseError):
            load_model(path)

    @pytest.mark.parametrize("name, kind, depth", [("model_logreg_v1.json", "logreg", 1),
                                                   ("model_mlp_v1.json", "mlp", 4)])
    def test_schema_v1_file_loads_and_saves_byte_for_byte(self, tmp_path, name, kind, depth):
        # both fixtures were written by the two-class code before the fold
        model = load_model(FIXTURES / name)
        assert model.kind == kind and len(model.layers.weights) == depth
        save_model(model, tmp_path / name)
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes()

    def test_logreg_file_predicts_with_its_weight_vector(self):
        doc = json.loads((FIXTURES / "model_logreg_v1.json").read_text("utf-8"))
        model = load_model(FIXTURES / "model_logreg_v1.json")
        X = np.random.default_rng(0).normal(size=(50, 3))
        z = (apply_standardizer(model.standardizer, X) @ np.array(doc["params"]["weights"])
             + doc["params"]["bias"])
        assert np.array_equal(predict_proba(model, X), sigmoid(z))

    @pytest.mark.parametrize("edit", [
        lambda d: [d],
        lambda d: d["params"].update(weights=d["params"]["weights"][:2]),
        lambda d: d["params"].update(weights=[d["params"]["weights"]]),
        lambda d: d["params"].update(bias=[1.0, 2.0]),
        lambda d: d.update(kind="svm"),
        lambda d: d.update(kind="mlp", params={"weights": [[[w] for w in d["params"]["weights"]]],
                                               "biases": [[d["params"]["bias"]]]}),
    ], ids=["json list", "too few weights", "nested weights", "vector bias", "unknown kind",
            "mlp without hidden layers"])
    def test_malformed_logreg_file_is_parse_error(self, tmp_path, edit):
        doc = json.loads((FIXTURES / "model_logreg_v1.json").read_text("utf-8"))
        doc = edit(doc) or doc
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), "utf-8")
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("edit", [
        lambda p: p["weights"].pop(1),
        lambda p: p["biases"].pop(),
        lambda p: p["biases"][0].append(0.0),
        lambda p: p.update(weights=p["weights"][:3] + [[[r[0], r[0]] for r in p["weights"][3]]],
                           biases=p["biases"][:3] + [[0.0, 0.0]]),
        lambda p: p["weights"].__setitem__(0, p["weights"][0][:2]),
    ], ids=["broken chain", "missing bias", "bias too long", "two logits", "input width"])
    def test_malformed_mlp_file_is_parse_error(self, tmp_path, edit):
        doc = json.loads((FIXTURES / "model_mlp_v1.json").read_text("utf-8"))
        edit(doc["params"])
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), "utf-8")
        with pytest.raises(ParseError, match=re.escape(str(path))):
            load_model(path)

    @pytest.mark.parametrize("name, edit", [
        ("model_logreg_v1.json", lambda d: d["params"]["weights"].__setitem__(1, float("nan"))),
        ("model_logreg_v1.json", lambda d: d["params"].update(bias=float("inf"))),
        ("model_logreg_v1.json", lambda d: d["standardizer"]["mean"].__setitem__(0, float("nan"))),
        ("model_mlp_v1.json", lambda d: d["params"]["weights"][2][0].__setitem__(0, float("nan"))),
        ("model_mlp_v1.json", lambda d: d["params"]["biases"][3].__setitem__(0, -float("inf"))),
        ("model_mlp_v1.json", lambda d: d["standardizer"]["stddev"].__setitem__(2, float("inf"))),
    ], ids=["logreg nan weight", "logreg inf bias", "logreg nan mean", "mlp nan weight",
            "mlp -inf bias", "mlp inf stddev"])
    def test_non_finite_number_is_parse_error(self, tmp_path, name, edit):
        doc = json.loads((FIXTURES / name).read_text("utf-8"))
        edit(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc), "utf-8")  # json writes NaN and Infinity tokens
        message = f"non-finite number in model file [{path}]"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_model(path)

    def test_save_is_byte_stable(self, tmp_path):
        X, y = separable_2d()
        model, _ = train_logreg(X, y, TrainConfig(epochs=10))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_sigmoid_extremes_finite():
    z = np.array([-1000.0, 0.0, 1000.0])
    s = sigmoid(z)
    assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0


# --- the fused training loop -------------------------------------------------

@st.composite
def training_problems(draw):
    """A small problem with both classes in train (and in val, with patience)
    and a config covering full batch, batch >= n, mini-batches, L2 and patience."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5, d)
    y = rng.integers(0, 2, n).astype(float)
    y[:2] = (0.0, 1.0)
    batch = draw(st.sampled_from(["none", "ge_n", "lt_n"]))
    batch_size = {"none": None,
                  "ge_n": n + draw(st.integers(0, 5)),
                  "lt_n": draw(st.integers(1, n - 1))}[batch]
    patience = draw(st.none() | st.integers(0, 3))
    cfg = TrainConfig(
        learning_rate=draw(st.floats(0.01, 0.5)),
        epochs=draw(st.integers(0, 25)),
        l2_penalty=draw(st.sampled_from([0.0, 0.01, 0.3])),
        batch_size=batch_size,
        seed=draw(st.integers(0, 1000)),
        class_weighting=draw(st.sampled_from(["none", "balanced"])),
        early_stop_patience=patience,
    )
    val = {}
    if patience is not None:
        m = draw(st.integers(2, 10))
        y_val = rng.integers(0, 2, m).astype(float)
        y_val[:2] = (1.0, 0.0)
        val = {"X_val": rng.normal(size=(m, d)), "y_val": y_val}
    return X, y, cfg, val


def _l2_summed_logreg_trace(X, y, cfg, final, n):
    """The `n` trace entries `train_logreg` gives when `l2_penalty > 0`: at the
    parameters entering each epoch, then at `final`'s, the reference's L2-free
    loss plus 0.5·l2·float(np.sum(w*w)), the form the network sums its penalty
    in (the reference uses np.dot(w, w))."""
    Xs = apply_standardizer(fit_standardizer(X), X)
    weights = sample_weights(y, cfg.class_weighting)
    no_stop = dataclasses.replace(cfg, early_stop_patience=None)
    models = [train_logreg(X, y, dataclasses.replace(no_stop, epochs=i))[0]
              for i in range(n - 1)] + [final]
    trace = []
    for model in models:
        w, b = model.layers.weights[0].ravel(), model.layers.biases[0][0]
        loss = two_pass_training.logreg_loss_and_grad(w, b, Xs, y, weights, 0.0)[0]
        trace.append(loss + 0.5 * cfg.l2_penalty * float(np.sum(w * w)))
    return trace


@settings(max_examples=60, deadline=None)
@given(problem=training_problems(), kind=st.sampled_from(["logreg", "mlp"]))
def test_fused_loop_matches_two_pass_reference(problem, kind):
    X, y, cfg, val = problem
    if kind == "logreg":
        got, got_trace = train_logreg(X, y, cfg, **val)
        want_w, want_b, want_trace = two_pass_training.train_logreg(X, y, cfg, **val)
        assert np.array_equal(got.layers.weights[0].ravel(), want_w)
        assert got.layers.biases[0][0] == want_b
        if cfg.l2_penalty > 0:
            want_trace = _l2_summed_logreg_trace(X, y, cfg, got, len(got_trace))
    else:
        got, got_trace = train_mlp(X, y, cfg, [3, 3, 2], **val)
        want_w, want_b, want_trace = two_pass_training.train_mlp(X, y, cfg, [3, 3, 2], **val)
        for a, b in zip(got.layers.weights + got.layers.biases, want_w + want_b):
            assert np.array_equal(a, b)
    assert got_trace == want_trace


def _same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))



@settings(deadline=None)
@given(n=st.integers(1, 600), d=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       l2=st.sampled_from([0.0, 0.01, 0.3]))
def test_one_layer_network_gradient_is_the_frozen_logreg_gradient(n, d, seed, l2):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5, d)
    y = rng.integers(0, 2, n).astype(float)
    weights = rng.uniform(0.5, 2.0, n)
    w, b = rng.normal(size=d), rng.normal()
    _, want_gw, want_gb = two_pass_training.logreg_loss_and_grad(w, b, X, y, weights, l2)
    layers = MlpLayers([w[:, None]], [np.array([b])])
    _, (gw,), (gb,) = mlp_loss_and_grad(layers, X, y, weights, l2)
    assert _same_bits(gw.ravel(), want_gw) and _same_bits(gb, [want_gb])
    _, adapter_gw, adapter_gb = logreg_loss_and_grad(w, b, X, y, weights, l2)
    assert _same_bits(adapter_gw, want_gw) and _same_bits(adapter_gb, want_gb)


@given(hnp.arrays(np.float64, st.integers(0, 200),
                  elements=st.floats(allow_nan=False, allow_subnormal=True)))
def test_sigmoid_is_bit_identical_to_piecewise_form(z):
    assert _same_bits(sigmoid(z), two_pass_training.piecewise_sigmoid(z))


def test_sigmoid_bit_identity_at_edges():
    tiny = np.finfo(np.float64).smallest_subnormal
    z = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, tiny, -tiny, 1e-300,
                  -1e-300, 800.0, -800.0, 709.78, -709.78, 36.7, -36.7, np.inf, -np.inf])
    z = np.concatenate([z, np.random.default_rng(0).normal(scale=10, size=14_000)])
    assert _same_bits(sigmoid(z), two_pass_training.piecewise_sigmoid(z))


@pytest.mark.parametrize("kind", ["logreg", "mlp"])
@pytest.mark.parametrize("batch_size", [None, 40, 1000])
def test_full_batch_training_makes_one_call_per_epoch(monkeypatch, kind, batch_size):
    calls = []
    for name in ("logreg_loss_and_grad", "mlp_loss_and_grad"):
        real = getattr(classifiers, name)
        monkeypatch.setattr(classifiers, name,
                            lambda *a, _real=real: calls.append(1) or _real(*a))
    X, y = separable_2d(n=40)
    cfg = TrainConfig(epochs=7, batch_size=batch_size)
    if kind == "logreg":
        train_logreg(X, y, cfg)
    else:
        train_mlp(X, y, cfg, [4, 4, 4])
    assert len(calls) == cfg.epochs + 1


@pytest.mark.parametrize("kind", ["logreg", "mlp"])
def test_one_class_validation_trains_without_early_stopping(kind, caplog):
    X, y = separable_2d(n=20)
    cfg = TrainConfig(epochs=30, early_stop_patience=1, seed=4)
    no_stop = dataclasses.replace(cfg, early_stop_patience=None)
    X_val = np.zeros((5, 2))
    if kind == "logreg":
        model, trace = train_logreg(X, y, cfg, X_val=X_val, y_val=np.ones(5))
        plain, plain_trace = train_logreg(X, y, no_stop)
        assert np.array_equal(model.layers.weights[0], plain.layers.weights[0])
    else:
        model, trace = train_mlp(X, y, cfg, [3, 3, 3], X_val=X_val, y_val=np.ones(5))
        plain, plain_trace = train_mlp(X, y, no_stop, [3, 3, 3])
        assert np.array_equal(model.layers.weights[0], plain.layers.weights[0])
    assert trace == plain_trace and len(trace) == 31
    assert "early stopping disabled: validation split has one class" in caplog.text
    assert early_stopping_blocker(np.ones(5), "none") is None
