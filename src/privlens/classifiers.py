"""From-scratch gradient-descent classifiers: logistic regression and a
three-hidden-layer MLP (ReLU, sigmoid output, binary cross-entropy).

Loss/gradient functions are module-level so tests can check them against
finite differences. All math is double precision, summed in fixed row order,
so training is bit-reproducible given the same config and seed.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateLabels,
    DimensionMismatch,
    NonFiniteLoss,
    ParseError,
    SchemaVersionMismatch,
    ShapeError,
)
from .features import (
    FeatureGroup,
    PrivacyLabel,
    StandardizationParams,
    apply_standardizer,
    fit_standardizer,
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

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if self.l2_penalty < 0:
            raise ValueError("l2_penalty must be non-negative")
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError("batch_size must be positive or None")
        if self.class_weighting not in ("none", "balanced"):
            raise ValueError(f"unknown class_weighting {self.class_weighting!r}")


@dataclass(frozen=True)
class FeatureSpec:
    """Which feature blocks a model consumes, for compatibility checks."""

    groups: tuple[FeatureGroup, ...]
    source_tag: str | None = None

    def to_dict(self) -> dict:
        return {"groups": sorted(g.value for g in self.groups),
                "source_tag": self.source_tag}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        return cls(
            groups=tuple(FeatureGroup(g) for g in d["groups"]),
            source_tag=d.get("source_tag"),
        )


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


def logreg_loss_and_grad(w, b, X, y, weights, l2_penalty):
    """Weighted BCE + (l2/2)·||w||² and its gradient wrt (w, b)."""
    z = X @ w + b
    wsum = weights.sum()
    loss = float(np.dot(weights, _bce_from_logits(z, y)) / wsum)
    loss += 0.5 * l2_penalty * float(np.dot(w, w))
    resid = weights * (sigmoid(z) - y) / wsum
    grad_w = X.T @ resid + l2_penalty * w
    grad_b = float(resid.sum())
    return loss, grad_w, grad_b


@dataclass
class MlpLayers:
    """Weight matrices and bias vectors: three hidden layers + output layer."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        if len(self.weights) != 4 or len(self.biases) != 4:
            raise ShapeError("expected exactly 3 hidden layers + 1 output layer")
        for i in range(3):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise ShapeError(
                    f"layer {i} output dim {self.weights[i].shape[1]} != "
                    f"layer {i + 1} input dim {self.weights[i + 1].shape[0]}"
                )
        if self.weights[3].shape[1] != 1:
            raise ShapeError("output layer must produce a single logit")

    def copy(self) -> "MlpLayers":
        return MlpLayers([w.copy() for w in self.weights], [b.copy() for b in self.biases])


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
    """Returns (logits, per-layer pre-activations) for backprop."""
    activations = [X]
    pre = []
    h = X
    for i in range(3):
        z = h @ layers.weights[i] + layers.biases[i]
        pre.append(z)
        h = np.maximum(z, 0.0)
        activations.append(h)
    logits = (h @ layers.weights[3] + layers.biases[3]).ravel()
    return logits, activations, pre


def mlp_loss_and_grad(layers: MlpLayers, X, y, weights, l2_penalty):
    """Weighted BCE + (l2/2)·Σ||W||² and gradients in layer order."""
    logits, activations, pre = mlp_forward(layers, X)
    wsum = weights.sum()
    loss = float(np.dot(weights, _bce_from_logits(logits, y)) / wsum)
    loss += 0.5 * l2_penalty * sum(float(np.sum(W * W)) for W in layers.weights)

    delta = (weights * (sigmoid(logits) - y) / wsum)[:, None]
    grads_w = [None] * 4
    grads_b = [None] * 4
    grads_w[3] = activations[3].T @ delta + l2_penalty * layers.weights[3]
    grads_b[3] = delta.sum(axis=0)
    back = delta @ layers.weights[3].T
    for i in (2, 1, 0):
        dz = back * (pre[i] > 0.0)
        grads_w[i] = activations[i].T @ dz + l2_penalty * layers.weights[i]
        grads_b[i] = dz.sum(axis=0)
        back = dz @ layers.weights[i].T
    return loss, grads_w, grads_b


@dataclass
class LogRegModel:
    weights: np.ndarray
    bias: float
    standardizer: StandardizationParams
    feature_spec: FeatureSpec

    kind = "logreg"

    def logits(self, X: np.ndarray) -> np.ndarray:
        Xs = apply_standardizer(self.standardizer, X)
        return Xs @ self.weights + self.bias


@dataclass
class MlpModel:
    layers: MlpLayers
    standardizer: StandardizationParams
    feature_spec: FeatureSpec

    kind = "mlp"

    def logits(self, X: np.ndarray) -> np.ndarray:
        Xs = apply_standardizer(self.standardizer, X)
        return mlp_forward(self.layers, Xs)[0]


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


def _training_set(X, y, cfg: TrainConfig, standardizer, X_val, y_val):
    """(standardizer, standardized X, y, row weights, validation set or None);
    the validation set is kept only when early stopping is on and can run."""
    X, y = _check_training_inputs(X, y)
    if standardizer is None:
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
    return standardizer, Xs, y, weights, val


def _logreg_objective(params, X, y, weights, l2_penalty):
    loss, grad_w, grad_b = logreg_loss_and_grad(params[0], params[1], X, y, weights, l2_penalty)
    return loss, [grad_w, grad_b]


def _mlp_objective(params, X, y, weights, l2_penalty):
    layers = MlpLayers(params[:4], params[4:])
    loss, grads_w, grads_b = mlp_loss_and_grad(layers, X, y, weights, l2_penalty)
    return loss, grads_w + grads_b


def _epoch_batches(n: int, batch_size: int | None, rng: np.random.Generator):
    """Row indices of each mini-batch of one epoch; a single None for a full batch."""
    if batch_size is None or batch_size >= n:
        yield None
        return
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _descend(objective, params: list, X, y, weights, cfg: TrainConfig,
             rng: np.random.Generator, val=None) -> tuple[list, list[float]]:
    """Gradient descent on `params`. Returns (final params, loss trace).

    `objective(params, X, y, weights, l2)` gives the loss and its gradients in
    `params` order. Trace entry i is the full-train loss at the parameters
    entering epoch i; the last entry is the loss after the final step. A
    full-batch epoch makes one call, whose loss is the trace entry and whose
    gradient is the step; a mini-batch epoch makes one full-data call for the
    trace, then one per batch. With `val`, training stops once the validation
    loss has failed to improve on more than `cfg.early_stop_patience` epochs in
    a row, and returns the best parameters seen. Steps build new arrays, so
    kept parameters never change.
    """
    l2, lr = cfg.l2_penalty, cfg.learning_rate
    best_loss, best, misses = np.inf, params, 0
    trace: list[float] = []
    for _ in range(cfg.epochs):
        loss, grads = objective(params, X, y, weights, l2)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"training diverged (loss={loss}); lower the learning rate")
        trace.append(loss)
        for idx in _epoch_batches(y.size, cfg.batch_size, rng):
            if idx is not None:
                grads = objective(params, X[idx], y[idx], weights[idx], l2)[1]
            params = [p - lr * g for p, g in zip(params, grads)]
        if val is not None:
            val_loss = objective(params, *val, l2)[0]
            if val_loss < best_loss:
                best_loss, best, misses = val_loss, params, 0
            else:
                misses += 1
                if misses > cfg.early_stop_patience:
                    params = best
                    break
    trace.append(objective(params, X, y, weights, l2)[0])
    return params, trace


def train_logreg(X, y, cfg: TrainConfig, standardizer: StandardizationParams | None = None,
                 X_val=None, y_val=None) -> tuple[LogRegModel, list[float]]:
    """Gradient-descent logistic regression. Returns (model, per-epoch loss trace).

    The standardizer is fitted on X unless one is passed in; features are
    standardized internally both here and at prediction time.
    """
    standardizer, Xs, y, weights, val = _training_set(X, y, cfg, standardizer, X_val, y_val)
    rng = np.random.default_rng(cfg.seed)
    (w, b), trace = _descend(_logreg_objective, [np.zeros(Xs.shape[1]), 0.0],
                             Xs, y, weights, cfg, rng, val)
    return LogRegModel(w, float(b), standardizer, FeatureSpec(groups=())), trace


def train_mlp(X, y, cfg: TrainConfig, hidden_dims: list[int],
              standardizer: StandardizationParams | None = None,
              X_val=None, y_val=None) -> tuple[MlpModel, list[float]]:
    """Backprop training of the three-hidden-layer MLP. Returns (model, loss trace)."""
    standardizer, Xs, y, weights, val = _training_set(X, y, cfg, standardizer, X_val, y_val)
    init = init_mlp_layers(Xs.shape[1], hidden_dims, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    params, trace = _descend(_mlp_objective, init.weights + init.biases,
                             Xs, y, weights, cfg, rng, val)
    layers = MlpLayers(params[:4], params[4:])
    return MlpModel(layers, standardizer, FeatureSpec(groups=())), trace


def predict_proba(model, X) -> np.ndarray:
    """Sigmoid of the model logit per row; values in (0,1)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.standardizer.dim:
        raise DimensionMismatch(
            f"X has {X.shape[-1] if X.ndim == 2 else '?'} columns, "
            f"model expects {model.standardizer.dim}"
        )
    return sigmoid(model.logits(X))


def predict_label(model, X, threshold: float = 0.5) -> list[PrivacyLabel]:
    """Private iff probability >= threshold (ties go to Private)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0,1)")
    probs = predict_proba(model, X)
    return [
        PrivacyLabel.PRIVATE if p >= threshold else PrivacyLabel.PUBLIC for p in probs
    ]


# --- serialization -----------------------------------------------------------

def model_to_dict(model) -> dict:
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
        doc["params"] = {"weights": model.weights.tolist(), "bias": model.bias}
    else:
        doc["params"] = {
            "weights": [w.tolist() for w in model.layers.weights],
            "biases": [b.tolist() for b in model.layers.biases],
        }
    return doc


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read model file: {exc}", path=path) from exc
    version = doc.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise SchemaVersionMismatch(version, MODEL_SCHEMA_VERSION)
    try:
        standardizer = StandardizationParams(
            mean=np.array(doc["standardizer"]["mean"], dtype=np.float64),
            stddev=np.array(doc["standardizer"]["stddev"], dtype=np.float64),
        )
        spec = FeatureSpec.from_dict(doc["feature_spec"])
        params = doc["params"]
        if doc["kind"] == "logreg":
            return LogRegModel(
                weights=np.array(params["weights"], dtype=np.float64),
                bias=float(params["bias"]),
                standardizer=standardizer,
                feature_spec=spec,
            )
        if doc["kind"] == "mlp":
            layers = MlpLayers(
                weights=[np.array(w, dtype=np.float64) for w in params["weights"]],
                biases=[np.array(b, dtype=np.float64) for b in params["biases"]],
            )
            return MlpModel(layers=layers, standardizer=standardizer, feature_spec=spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed model document: {exc}", path=path) from exc
    raise ParseError(f"unknown model kind {doc['kind']!r}", path=path)
