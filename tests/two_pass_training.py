"""Frozen reference copies of the earlier training code, kept to check the
fused loop in `privlens.classifiers` against: two near-copied loops that
evaluate the full-train loss for the trace and then, in a second call, the
gradient for each step (on a copy of the rows even in full-batch mode), the
separate logistic-regression and MLP loss-and-gradient functions, and the
piecewise sigmoid. The trainers return plain arrays. Do not change these to
follow the package.
"""

from types import SimpleNamespace

import numpy as np

from privlens.classifiers import init_mlp_layers, sample_weights
from privlens.errors import NonFiniteLoss
from privlens.features import apply_standardizer, fit_standardizer


def piecewise_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce_from_logits(z, y):
    # log(1 + e^z) - y*z, stable for any z
    return np.logaddexp(0.0, z) - y * z


def logreg_loss_and_grad(w, b, X, y, weights, l2_penalty):
    """Weighted BCE + (l2/2)·||w||² and its gradient wrt (w, b)."""
    z = X @ w + b
    wsum = weights.sum()
    loss = float(np.dot(weights, _bce_from_logits(z, y)) / wsum)
    loss += 0.5 * l2_penalty * float(np.dot(w, w))
    resid = weights * (piecewise_sigmoid(z) - y) / wsum
    grad_w = X.T @ resid + l2_penalty * w
    grad_b = float(resid.sum())
    return loss, grad_w, grad_b


def mlp_forward(layers, X):
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


def mlp_loss_and_grad(layers, X, y, weights, l2_penalty):
    """Weighted BCE + (l2/2)·Σ||W||² and gradients in layer order."""
    logits, activations, pre = mlp_forward(layers, X)
    wsum = weights.sum()
    loss = float(np.dot(weights, _bce_from_logits(logits, y)) / wsum)
    loss += 0.5 * l2_penalty * sum(float(np.sum(W * W)) for W in layers.weights)

    delta = (weights * (piecewise_sigmoid(logits) - y) / wsum)[:, None]
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


def _copy_layers(layers):
    return SimpleNamespace(weights=[w.copy() for w in layers.weights],
                           biases=[b.copy() for b in layers.biases])


def _epoch_batches(n, batch_size, rng):
    if batch_size is None or batch_size >= n:
        yield np.arange(n)
        return
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


class _EarlyStopper:
    def __init__(self, patience):
        self.patience = patience
        self.best_loss = np.inf
        self.best_state = None
        self.misses = 0

    def should_stop(self, val_loss, state):
        if self.patience is None:
            return False
        if val_loss < self.best_loss:
            self.best_loss = val_loss
            self.best_state = state
            self.misses = 0
            return False
        self.misses += 1
        return self.misses > self.patience


def _val_set(standardizer, X_val, y_val, cfg):
    if X_val is None:
        return None
    Xv = apply_standardizer(standardizer, np.asarray(X_val, dtype=np.float64))
    yv = np.asarray(y_val, dtype=np.float64)
    return Xv, yv, sample_weights(yv, cfg.class_weighting)


def train_logreg(X, y, cfg, standardizer=None, X_val=None, y_val=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if standardizer is None:
        standardizer = fit_standardizer(X)
    Xs = apply_standardizer(standardizer, X)
    weights_all = sample_weights(y, cfg.class_weighting)

    w = np.zeros(Xs.shape[1])
    b = 0.0
    rng = np.random.default_rng(cfg.seed)
    trace = []
    stopper = _EarlyStopper(cfg.early_stop_patience)
    val = _val_set(standardizer, X_val, y_val, cfg)

    for _ in range(cfg.epochs):
        loss, _, _ = logreg_loss_and_grad(w, b, Xs, y, weights_all, cfg.l2_penalty)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"training diverged (loss={loss}); lower the learning rate")
        trace.append(loss)
        for idx in _epoch_batches(y.size, cfg.batch_size, rng):
            _, gw, gb = logreg_loss_and_grad(
                w, b, Xs[idx], y[idx], weights_all[idx], cfg.l2_penalty
            )
            w = w - cfg.learning_rate * gw
            b = b - cfg.learning_rate * gb
        if val is not None and stopper.should_stop(
            logreg_loss_and_grad(w, b, *val, cfg.l2_penalty)[0], (w.copy(), b)
        ):
            w, b = stopper.best_state
            break

    final_loss, _, _ = logreg_loss_and_grad(w, b, Xs, y, weights_all, cfg.l2_penalty)
    trace.append(final_loss)
    return w, float(b), trace


def train_mlp(X, y, cfg, hidden_dims, standardizer=None, X_val=None, y_val=None):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if standardizer is None:
        standardizer = fit_standardizer(X)
    Xs = apply_standardizer(standardizer, X)
    weights_all = sample_weights(y, cfg.class_weighting)

    layers = _copy_layers(init_mlp_layers(Xs.shape[1], hidden_dims, cfg.seed))
    rng = np.random.default_rng(cfg.seed + 1)
    trace = []
    stopper = _EarlyStopper(cfg.early_stop_patience)
    val = _val_set(standardizer, X_val, y_val, cfg)

    for _ in range(cfg.epochs):
        loss, _, _ = mlp_loss_and_grad(layers, Xs, y, weights_all, cfg.l2_penalty)
        if not np.isfinite(loss):
            raise NonFiniteLoss(f"training diverged (loss={loss}); lower the learning rate")
        trace.append(loss)
        for idx in _epoch_batches(y.size, cfg.batch_size, rng):
            _, gw, gb = mlp_loss_and_grad(
                layers, Xs[idx], y[idx], weights_all[idx], cfg.l2_penalty
            )
            for i in range(4):
                layers.weights[i] = layers.weights[i] - cfg.learning_rate * gw[i]
                layers.biases[i] = layers.biases[i] - cfg.learning_rate * gb[i]
        if val is not None and stopper.should_stop(
            mlp_loss_and_grad(layers, *val, cfg.l2_penalty)[0], _copy_layers(layers)
        ):
            layers = stopper.best_state
            break

    final_loss, _, _ = mlp_loss_and_grad(layers, Xs, y, weights_all, cfg.l2_penalty)
    trace.append(final_loss)
    return layers.weights, layers.biases, trace
