"""Feedforward multilayer perceptron trained with mini-batch gradient descent.

Softmax output over the class list, cross-entropy loss, seeded
Glorot-uniform initialization. Early stopping watches the loss on a
chronological tail of the training rows and restores the best weights.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..segment import InsufficientData
from .base import LabeledDataset, TrainedModel, json_int, stored_array

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpConfig:
    hidden_layers: tuple[int, ...] = (100,)
    activation: str = "relu"
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    early_stop_patience: int = 20
    validation_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_layers", tuple(int(h) for h in self.hidden_layers))
        for name in ("learning_rate", "validation_fraction"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("batch_size", "max_epochs", "early_stop_patience"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if not self.hidden_layers or any(h < 1 for h in self.hidden_layers):
            raise ValueError("hidden_layers must be positive integers")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        for name in ("batch_size", "max_epochs", "early_stop_patience"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.validation_fraction <= 0.5:
            raise ValueError("validation_fraction must be in (0, 0.5]")


@dataclass
class MlpParams:
    weights: list[np.ndarray]   # per layer, (fan_in, fan_out)
    biases: list[np.ndarray]    # per layer, (fan_out,)
    activation: str
    config: MlpConfig = field(default=None)
    epochs_run: int = 0


def init_params(layer_sizes, activation: str, rng: np.random.Generator) -> MlpParams:
    """Scaled-uniform (Glorot) initialization, biases at zero."""
    weights = []
    biases = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(weights=weights, biases=biases, activation=activation)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    return np.maximum(z, 0.0) if kind == "relu" else np.tanh(z)


def _activate_grad(a: np.ndarray, kind: str) -> np.ndarray:
    return (a > 0.0).astype(np.float64) if kind == "relu" else 1.0 - a**2


def forward(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Return activations per layer; the last entry is softmax probabilities."""
    acts = [x]
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w + b
        if i < len(params.weights) - 1:
            h = _activate(z, params.activation)
        else:
            z = z - z.max(axis=1, keepdims=True)
            e = np.exp(z)
            h = e / e.sum(axis=1, keepdims=True)
        acts.append(h)
    return acts


def cross_entropy(probs: np.ndarray, y_onehot: np.ndarray) -> float:
    """Mean cross-entropy of softmax outputs against one-hot targets."""
    return float(-np.log(np.maximum(probs[y_onehot.astype(bool)], 1e-300)).mean())


def loss_and_grads(params: MlpParams, x: np.ndarray, y_onehot: np.ndarray):
    """Mean cross-entropy and its analytic gradients for a batch."""
    acts = forward(params, x)
    probs = acts[-1]
    n = x.shape[0]
    loss = cross_entropy(probs, y_onehot)

    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    delta = (probs - y_onehot) / n
    for layer in range(len(params.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * _activate_grad(
                acts[layer], params.activation
            )
    return loss, grads_w, grads_b


defaults = {f.name: f.default for f in fields(MlpConfig) if f.name != "seed"}
seeded = True


def check(params: dict) -> None:
    MlpConfig(**params)


def fit(data: LabeledDataset, params: dict, seed: int) -> MlpParams:
    """Train with mini-batch gradient descent and patience-based early stopping.

    The validation slice is the chronological tail of each class's training
    rows; test data never participates. Raises when the loss goes
    non-finite.
    """
    cfg = MlpConfig(**params, seed=seed)
    x = data.features
    y = data.label_indices
    n, d = x.shape
    n_classes = len(data.class_list)
    y_onehot = np.zeros((n, n_classes))
    y_onehot[np.arange(n), y] = 1.0

    val_mask = _validation_mask(y, cfg.validation_fraction)
    if (~val_mask).sum() < 1:
        raise InsufficientData("not enough rows to carve a validation slice")
    x_tr, y_tr = x[~val_mask], y_onehot[~val_mask]
    x_val, y_val = x[val_mask], y_onehot[val_mask]

    rng = np.random.default_rng(cfg.seed)
    net = init_params([d, *cfg.hidden_layers, n_classes], cfg.activation, rng)

    best_val = np.inf
    best_snapshot = _snapshot(net)
    patience = cfg.early_stop_patience
    epochs_run = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(x_tr.shape[0])
        for start in range(0, x_tr.shape[0], cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, gw, gb = loss_and_grads(net, x_tr[batch], y_tr[batch])
            if not np.isfinite(loss):
                raise ValueError(f"diverged at epoch {epoch}")
            for layer in range(len(net.weights)):
                net.weights[layer] -= cfg.learning_rate * gw[layer]
                net.biases[layer] -= cfg.learning_rate * gb[layer]
        epochs_run = epoch

        val_loss = cross_entropy(forward(net, x_val)[-1], y_val)
        if not np.isfinite(val_loss):
            raise ValueError(f"diverged at epoch {epoch}")
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_snapshot = _snapshot(net)
            patience = cfg.early_stop_patience
        else:
            patience -= 1
            if patience <= 0:
                break

    net.weights = [w.copy() for w in best_snapshot[0]]
    net.biases = [b.copy() for b in best_snapshot[1]]
    net.config = cfg
    net.epochs_run = epochs_run
    return net


def predict(model: TrainedModel, matrix: np.ndarray) -> np.ndarray:
    return forward(model.params, matrix)[-1].argmax(axis=1)


def to_doc(p: MlpParams) -> dict:
    return {
        "activation": p.activation,
        "weights": list(p.weights),
        "biases": list(p.biases),
        "epochs_run": p.epochs_run,
        "config": asdict(p.config) if p.config is not None else None,
    }


def from_doc(doc: dict, n_features: int, n_classes: int) -> MlpParams:
    if type(doc["weights"]) is not list or type(doc["biases"]) is not list:
        raise ValueError("weights and biases must be lists of arrays")
    weights = [stored_array(w, f"weights[{i}]", "<f8", 2) for i, w in enumerate(doc["weights"])]
    biases = [stored_array(b, f"biases[{i}]", "<f8", 1) for i, b in enumerate(doc["biases"])]
    if not weights or len(biases) != len(weights):
        raise ValueError(f"{len(weights)} weight and {len(biases)} bias layers stored")
    width = n_features
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.shape[0] != width or b.shape != w.shape[1:]:
            raise ValueError(
                f"schema mismatch: layer {i} has weights {w.shape} and biases {b.shape}, "
                f"its input is {width} wide"
            )
        width = w.shape[1]
    if width != n_classes:
        raise ValueError(
            f"schema mismatch: output layer is {width} wide, header has {n_classes} classes"
        )
    if doc["activation"] not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}")
    cfg_doc = doc.get("config")
    cfg = None
    if cfg_doc is not None:
        if type(cfg_doc) is not dict:
            raise ValueError(f"config: expected an object, got {cfg_doc!r}")
        values = {f.name: cfg_doc[f.name] for f in fields(MlpConfig)}
        for name in ("batch_size", "max_epochs", "early_stop_patience", "seed"):
            json_int(values[name], f"config.{name}")
        for name in ("learning_rate", "validation_fraction"):
            if type(values[name]) not in (int, float):
                raise ValueError(f"config.{name}: expected a number, got {values[name]!r}")
        if type(values["hidden_layers"]) is not list:
            raise ValueError(f"config.hidden_layers: expected a list, got {values['hidden_layers']!r}")
        values["hidden_layers"] = [json_int(h, "config.hidden_layers") for h in values["hidden_layers"]]
        cfg = MlpConfig(**values)
        if cfg.activation != doc["activation"]:
            raise ValueError(f"config.activation {cfg.activation!r} differs from activation {doc['activation']!r}")
    return MlpParams(
        weights=weights,
        biases=biases,
        activation=doc["activation"],
        config=cfg,
        epochs_run=json_int(doc.get("epochs_run", 0), "epochs_run"),
    )


def _validation_mask(y: np.ndarray, fraction: float) -> np.ndarray:
    """Chronological-tail holdout, taken per class.

    Rows arrive grouped per driver in window order, so a flat tail would
    hold out whole drivers; taking each class's own tail keeps every class
    represented on both sides of the split.
    """
    mask = np.zeros(y.size, dtype=bool)
    for cls in np.unique(y):
        rows = np.nonzero(y == cls)[0]
        n_val = max(1, int(round(fraction * rows.size)))
        mask[rows[rows.size - n_val :]] = True
    return mask


def _snapshot(params: MlpParams):
    return ([w.copy() for w in params.weights], [b.copy() for b in params.biases])
