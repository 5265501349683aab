"""From-scratch gradient-descent classifiers: one feed-forward network (ReLU
hidden layers, sigmoid output, binary cross-entropy), trained as logistic
regression with no hidden layers or as the three-hidden-layer MLP.

Loss/gradient functions are module-level so tests can check them against
finite differences. All math is double precision, summed in fixed row order,
so training is bit-reproducible given the same config and seed: the same
bytes for any BLAS thread count on one numpy build.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .data_io import write_json
from .errors import (
    DegenerateLabels,
    DimensionMismatch,
    NonFiniteLoss,
    ParseError,
    SchemaVersionMismatch,
    ShapeError,
)
from .features import (
    FeatureSpec,
    StandardizationParams,
    apply_standardizer,
    fit_standardizer,
    require_finite,
)

log = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    l2_penalty: float = 0.0
    batch_size: int | None = None  # None = full batch
    seed: int = 0
    class_weighting: str = "balanced"  # "none" | "balanced"
    early_stop_patience: int | None = None

    def __post_init__(self):  # NaN fails every comparison
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0 <= self.l2_penalty < np.inf:
            raise ValueError("l2_penalty must be finite and non-negative")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError("batch_size must be positive or None")
        if self.class_weighting not in ("none", "balanced"):
            raise ValueError(f"unknown class_weighting {self.class_weighting!r}")
        if self.early_stop_patience is not None and self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be non-negative or None")


def sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows, and each branch is the exact piecewise form
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _bce_from_logits(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # log(1 + e^z) - y*z, stable for any z
    return np.logaddexp(0.0, z) - y * z


def sample_weights(y: np.ndarray, class_weighting: str) -> np.ndarray:
    """Per-row weights; 'balanced' gives each class equal total weight."""
    n = y.size
    if class_weighting == "none":
        return np.ones(n)
    n_pos = int(np.sum(y == 1.0))
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("balanced weighting needs both classes present")
    w = np.where(y == 1.0, n / (2.0 * n_pos), n / (2.0 * n_neg))
    return w


@dataclass
class MlpLayers:
    """Weight matrices and bias vectors of a feed-forward network, input layer
    first: ReLU after every layer but the last, whose single output is the
    logit. One layer is logistic regression; the MLP has three hidden layers."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if not self.weights or len(self.weights) != len(self.biases):
            raise ShapeError("expected one bias vector per weight matrix, at least one layer")
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.shape != W.shape[1:]:
                raise ShapeError(f"layer {i} has weights {W.shape} and biases {b.shape}")
            if i and W.shape[0] != self.weights[i - 1].shape[1]:
                raise ShapeError(
                    f"layer {i - 1} output dim {self.weights[i - 1].shape[1]} != "
                    f"layer {i} input dim {W.shape[0]}"
                )
        if self.weights[-1].shape[1] != 1:
            raise ShapeError("output layer must produce a single logit")


def init_mlp_layers(input_dim: int, hidden_dims: list[int], seed: int) -> MlpLayers:
    """Seeded He-style uniform init: U(±sqrt(6/fan_in))."""
    if len(hidden_dims) != 3 or any(h <= 0 for h in hidden_dims):
        raise ShapeError("hidden_dims must be three positive integers")
    rng = np.random.default_rng(seed)
    dims = [input_dim] + list(hidden_dims) + [1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpLayers(weights, biases)


def mlp_forward(layers: MlpLayers, X: np.ndarray):
    """Returns (logits, the input of each layer) for backprop."""
    inputs = [X]
    for W, b in zip(layers.weights[:-1], layers.biases[:-1]):
        inputs.append(np.maximum(inputs[-1] @ W + b, 0.0))
    logits = (inputs[-1] @ layers.weights[-1] + layers.biases[-1]).ravel()
    return logits, inputs


def mlp_loss_and_grad(layers: MlpLayers, X, y, weights, l2_penalty):
    """Weighted BCE + (l2/2)·Σ||W||² and gradients in layer order."""
    logits, inputs = mlp_forward(layers, X)
    wsum = weights.sum()
    # numpy's own pairwise sum, not a BLAS dot, whose split varies with the thread count
    loss = float(np.sum(weights * _bce_from_logits(logits, y)) / wsum)
    loss += 0.5 * l2_penalty * sum(float(np.sum(W * W)) for W in layers.weights)

    delta = (weights * (sigmoid(logits) - y) / wsum)[:, None]
    grads_w, grads_b = [], []
    for i in reversed(range(len(layers.weights))):
        W = layers.weights[i]
        grads_w.append(inputs[i].T @ delta + l2_penalty * W)
        grads_b.append(delta.sum(axis=0))
        if i:
            # a ReLU output is positive exactly where its pre-activation is
            delta = (delta @ W.T) * (inputs[i] > 0.0)
    return loss, grads_w[::-1], grads_b[::-1]


def logreg_loss_and_grad(w, b, X, y, weights, l2_penalty):
    """`mlp_loss_and_grad` of the one-layer network with weight vector `w` and
    scalar bias `b`; returns (loss, grad_w, grad_b) in the same shapes."""
    layers = MlpLayers([np.reshape(w, (-1, 1))], [np.reshape(b, 1)])
    loss, (grad_w,), (grad_b,) = mlp_loss_and_grad(layers, X, y, weights, l2_penalty)
    return loss, grad_w.ravel(), float(grad_b[0])


@dataclass
class Model:
    """A network with the standardizer and feature spec it was trained with."""

    layers: MlpLayers
    standardizer: StandardizationParams
    feature_spec: FeatureSpec

    @property
    def kind(self) -> str:
        return "logreg" if len(self.layers.weights) == 1 else "mlp"


def _check_training_inputs(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.size:
        raise ShapeError(f"X {X.shape} and y {y.shape} are inconsistent")
    if X.shape[0] < 2:
        raise ShapeError("need at least 2 training rows")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise ValueError("labels must be 0/1")
    return X, y


def early_stopping_blocker(y_val, class_weighting: str) -> str | None:
    """Why early stopping cannot run on this validation split, or None."""
    if class_weighting == "balanced" and np.unique(y_val).size < 2:
        return "validation split has one class"
    return None


def _objective(params, X, y, weights, l2_penalty):
    """Loss and gradients of the network whose weights, then biases, are `params`."""
    n = len(params) // 2
    loss, grads_w, grads_b = mlp_loss_and_grad(
        MlpLayers(params[:n], params[n:]), X, y, weights, l2_penalty)
    return loss, grads_w + grads_b


def _epoch_batches(n: int, batch_size: int | None, rng: np.random.Generator):
    """Row indices of each mini-batch of one epoch; a single None for a full batch."""
    if batch_size is None or batch_size >= n:
        yield None
        return
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _descend(params: list, X, y, weights, cfg: TrainConfig,
             rng: np.random.Generator, val=None) -> tuple[list, list[float]]:
    """Gradient descent on `params`. Returns (final params, loss trace).

    Trace entry i is the full-train loss at the parameters entering epoch i;
    the last entry is the loss after the final step. A full-batch epoch makes
    one `_objective` call, whose loss is the trace entry and whose gradient is
    the step; a mini-batch epoch makes one full-data call for the trace, then
    one per batch. With `val`, training stops once the validation loss has
    failed to improve on more than `cfg.early_stop_patience` epochs in a row,
    and returns the best parameters seen. Steps build new arrays, so kept
    parameters never change.
    """
    l2, lr = cfg.l2_penalty, cfg.learning_rate
    best_loss, best, misses = np.inf, params, 0
    trace: list[float] = []

    def traced(params):
        """The gradients at `params`, after appending their full-train loss to the trace."""
        loss, grads = _objective(params, X, y, weights, l2)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"training diverged (loss={loss}); lower the learning rate")
        trace.append(loss)
        return grads

    for _ in range(cfg.epochs):
        grads = traced(params)
        for idx in _epoch_batches(y.size, cfg.batch_size, rng):
            if idx is not None:
                grads = _objective(params, X[idx], y[idx], weights[idx], l2)[1]
            params = [p - lr * g for p, g in zip(params, grads)]
        if val is not None:
            val_loss = _objective(params, *val, l2)[0]
            if val_loss < best_loss:
                best_loss, best, misses = val_loss, params, 0
            else:
                misses += 1
                if misses > cfg.early_stop_patience:
                    params = best
                    break
    traced(params)
    return params, trace


def _train(init, seed: int, X, y, cfg: TrainConfig, X_val, y_val):
    """Train the network `init(input_dim)`, drawing mini-batches from `seed`.
    The validation set is used only when early stopping is on and can run."""
    X, y = _check_training_inputs(X, y)
    standardizer = fit_standardizer(X)
    Xs = apply_standardizer(standardizer, X)
    weights = sample_weights(y, cfg.class_weighting)
    val = None
    if X_val is not None and cfg.early_stop_patience is not None:
        yv = np.asarray(y_val, dtype=np.float64)
        reason = early_stopping_blocker(yv, cfg.class_weighting)
        if reason is not None:
            log.warning("early stopping disabled: %s", reason)
        else:
            Xv = apply_standardizer(standardizer, np.asarray(X_val, dtype=np.float64))
            val = (Xv, yv, sample_weights(yv, cfg.class_weighting))
    layers = init(Xs.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite loss is NonFiniteLoss
        params, trace = _descend(layers.weights + layers.biases, Xs, y, weights, cfg,
                                 np.random.default_rng(seed), val)
    n = len(layers.weights)
    return Model(MlpLayers(params[:n], params[n:]), standardizer, FeatureSpec(frozenset())), trace


def train_logreg(X, y, cfg: TrainConfig, X_val=None, y_val=None) -> tuple[Model, list[float]]:
    """Gradient-descent logistic regression, the one-layer network started at
    zeros. Returns (model, per-epoch loss trace).

    The standardizer is fitted on X; features are standardized internally
    both here and at prediction time.
    """
    return _train(lambda dim: MlpLayers([np.zeros((dim, 1))], [np.zeros(1)]), cfg.seed,
                  X, y, cfg, X_val, y_val)


def train_mlp(X, y, cfg: TrainConfig, hidden_dims: list[int],
              X_val=None, y_val=None) -> tuple[Model, list[float]]:
    """Backprop training of the three-hidden-layer MLP. Returns (model, loss trace)."""
    return _train(lambda dim: init_mlp_layers(dim, hidden_dims, cfg.seed), cfg.seed + 1,
                  X, y, cfg, X_val, y_val)


def predict_proba(model: Model, X) -> np.ndarray:
    """Sigmoid of the model logit per row; values in (0,1). A matrix of the
    wrong width is the standardizer's DimensionMismatch."""
    Xs = apply_standardizer(model.standardizer, X)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = mlp_forward(model.layers, Xs)[0]
    require_finite(np.isfinite(logits), "model logit of row {} is not finite")
    return sigmoid(logits)


def predict_label(model: Model, X) -> np.ndarray:
    """True (Private) iff the probability is at least 0.5, so ties go to Private."""
    return predict_proba(model, X) >= 0.5


# --- serialization -----------------------------------------------------------
# Schema v1 has a layout per kind: "logreg" stores its one layer as a weight
# vector and a scalar bias, so files written before the kinds shared one
# network type keep their bytes.

def model_to_dict(model: Model) -> dict:
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "kind": model.kind,
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "stddev": model.standardizer.stddev.tolist(),
        },
        "feature_spec": model.feature_spec.to_dict(),
    }
    if model.kind == "logreg":
        doc["params"] = {"weights": model.layers.weights[0].ravel().tolist(),
                         "bias": float(model.layers.biases[0][0])}
    else:
        doc["params"] = {
            "weights": [w.tolist() for w in model.layers.weights],
            "biases": [b.tolist() for b in model.layers.biases],
        }
    return doc


def save_model(model: Model, path) -> None:
    write_json(path, model_to_dict(model))


def load_model(path) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # a JSON or UTF-8 decode error is a ValueError
        raise ParseError(f"cannot read model file: {exc}", path=path) from exc
    if not isinstance(doc, dict):
        raise ParseError("model file must hold a JSON object", path=path)
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(version, MODEL_SCHEMA_VERSION)
    try:
        standardizer = StandardizationParams(
            mean=np.array(doc["standardizer"]["mean"], dtype=np.float64),
            stddev=np.array(doc["standardizer"]["stddev"], dtype=np.float64),
        )
        spec = FeatureSpec.from_dict(doc["feature_spec"])
        kind, params = doc["kind"], doc["params"]
        if kind == "logreg":
            layers = MlpLayers([np.array(params["weights"], dtype=np.float64)[:, None]],
                               [np.array([params["bias"]], dtype=np.float64)])
        elif kind == "mlp":
            layers = MlpLayers([np.array(w, dtype=np.float64) for w in params["weights"]],
                               [np.array(b, dtype=np.float64) for b in params["biases"]])
        else:
            raise ParseError(f"unknown model kind {kind!r}", path=path)
    except (KeyError, TypeError, ValueError, OverflowError, IndexError, DimensionMismatch,
            ShapeError) as exc:  # OverflowError: an integer past float64
        raise ParseError(f"malformed model document: {exc}", path=path) from exc
    if not all(np.isfinite(a).all() for a in (standardizer.mean, standardizer.stddev,
                                              *layers.weights, *layers.biases)):
        raise ParseError("non-finite number in model file", path=path)
    model = Model(layers, standardizer, spec)
    if model.kind != kind:
        raise ParseError("an mlp model needs at least one hidden layer", path=path)
    if layers.weights[0].shape[0] != standardizer.dim:
        raise ParseError(f"first layer takes {layers.weights[0].shape[0]} inputs, "
                         f"the standardizer has {standardizer.dim} columns", path=path)
    return model
