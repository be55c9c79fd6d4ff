"""Multilayer perceptron scoring core: forward/backward passes, the
pointwise cross-entropy and pairwise hinge/logistic objectives, plain SGD,
and a finite-difference gradient checker.

The score of an input is final_w . psi(x) where psi is the layer stack;
pairwise training maximizes score differences between positive and
negative examples from the same session.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fileio import fmt_float

ACTIVATIONS = ("relu", "tanh", "identity")
OBJECTIVES = ("pointwise", "pairwise_hinge", "pairwise_logistic")


class NeuralError(ValueError):
    """Invalid model structure, shapes, or training configuration."""


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class Layer:
    weight: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise NeuralError(
                f"layer shapes inconsistent: weight {self.weight.shape}, bias {self.bias.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise NeuralError(f"unknown activation {self.activation!r}")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise NeuralError("layer has non-finite parameters")


@dataclass
class MlpModel:
    layers: list
    final_w: np.ndarray

    def __post_init__(self):
        self.final_w = np.asarray(self.final_w, dtype=np.float64)
        width = None
        for idx, layer in enumerate(self.layers):
            if width is not None and layer.weight.shape[1] != width:
                raise NeuralError(
                    f"layer {idx} expects input width {layer.weight.shape[1]}, got {width}"
                )
            width = layer.weight.shape[0]
        expected = width if width is not None else len(self.final_w)
        if self.final_w.shape != (expected,):
            raise NeuralError(
                f"final_w has shape {self.final_w.shape}, expected ({expected},)"
            )
        if not np.all(np.isfinite(self.final_w)):
            raise NeuralError("final_w has non-finite parameters")

    @property
    def input_width(self) -> int:
        return self.layers[0].weight.shape[1] if self.layers else len(self.final_w)

    def copy(self) -> "MlpModel":
        return MlpModel(
            [Layer(l.weight.copy(), l.bias.copy(), l.activation) for l in self.layers],
            self.final_w.copy(),
        )


def init_mlp(input_width: int, hidden_widths, activation: str, seed: int) -> MlpModel:
    """Glorot-uniform initialized MLP; deterministic in seed."""
    rng = np.random.RandomState(seed)
    layers = []
    fan_in = input_width
    for width in hidden_widths:
        bound = np.sqrt(6.0 / (fan_in + width))
        layers.append(Layer(rng.uniform(-bound, bound, (width, fan_in)), np.zeros(width), activation))
        fan_in = width
    bound = np.sqrt(6.0 / (fan_in + 1))
    final_w = rng.uniform(-bound, bound, fan_in)
    return MlpModel(layers, final_w)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(0.0, z)
    if activation == "tanh":
        return np.tanh(z)
    return z


def _activation_derivative(z: np.ndarray, a: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return (z > 0.0).astype(np.float64)
    if activation == "tanh":
        return 1.0 - a * a
    return np.ones_like(z)


def _run_layers(model: MlpModel, X, product, mask_for=None, cache=None) -> np.ndarray:
    """The layer stack both forwards share; returns the top activations.

    `product(h, W)` computes h @ W.T, `mask_for(a)` gives a dropout mask,
    and `cache` collects what the backward pass needs.
    """
    h = np.asarray(X, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != model.input_width:
        raise NeuralError(f"input has shape {h.shape}, expected (n, {model.input_width})")
    for layer in model.layers:
        z = product(h, layer.weight) + layer.bias
        a = _activate(z, layer.activation)
        mask = mask_for(a) if mask_for is not None else None
        if cache is not None:
            for key, value in (("inputs", h), ("pres", z), ("raws", a), ("masks", mask)):
                cache[key].append(value)
        h = a if mask is None else a * mask
    return h


def mlp_forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Inference scores for an (n, width) batch; returns (n,). No dropout.

    einsum reduces each output over the input axis in one fixed order,
    where BLAS blocking depends on the batch shape; so a row scores
    bit-identically alone, in any batch, and in any position.
    """
    h = _run_layers(model, X, lambda h, w: np.einsum("ij,kj->ik", h, w))
    return np.einsum("ij,j->i", h, model.final_w)


def mlp_forward_batch(model: MlpModel, X: np.ndarray, training: bool = False,
                      dropout_rate: float = 0.0, rng: np.random.RandomState | None = None):
    """Training forward pass with BLAS products; returns (scores, cache for
    backward).

    Inverted dropout on hidden activations is applied only when `training`
    is set, so inference needs no rescaling.
    """
    mask_for = None
    if training and dropout_rate > 0.0:
        if rng is None:
            raise NeuralError("dropout requires an rng")
        keep = 1.0 - dropout_rate

        def mask_for(a):
            return (rng.random_sample(a.shape) < keep).astype(np.float64) / keep

    cache = {"inputs": [], "pres": [], "raws": [], "masks": []}
    cache["top"] = _run_layers(model, X, lambda h, w: h @ w.T, mask_for, cache)
    return cache["top"] @ model.final_w, cache


@dataclass
class ModelGrads:
    layers: list  # [(dW, db), ...]
    final_w: np.ndarray


def mlp_backward(model: MlpModel, cache: dict, dscores: np.ndarray) -> ModelGrads:
    """Backpropagate per-example score gradients through the cached pass."""
    dscores = np.asarray(dscores, dtype=np.float64)
    d_final_w = cache["top"].T @ dscores
    dh = dscores[:, None] * model.final_w[None, :]
    layer_grads = [None] * len(model.layers)
    for idx in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[idx]
        mask = cache["masks"][idx]
        if mask is not None:
            dh = dh * mask
        dz = dh * _activation_derivative(cache["pres"][idx], cache["raws"][idx], layer.activation)
        layer_grads[idx] = (dz.T @ cache["inputs"][idx], dz.sum(axis=0))
        dh = dz @ layer.weight
    return ModelGrads(layer_grads, d_final_w)


def add_grads(a: ModelGrads, b: ModelGrads) -> ModelGrads:
    return ModelGrads(
        [(wa + wb, ba + bb) for (wa, ba), (wb, bb) in zip(a.layers, b.layers)],
        a.final_w + b.final_w,
    )


def pointwise_loss(scores, labels):
    """Binary cross-entropy on logistic(score); returns (sum, dL/dscore)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.size == 0:
        raise NeuralError("pointwise_loss requires at least one example")
    if scores.shape != labels.shape:
        raise NeuralError(f"scores shape {scores.shape} != labels shape {labels.shape}")
    per_example = labels * np.logaddexp(0.0, -scores) + (1.0 - labels) * np.logaddexp(0.0, scores)
    grads = sigmoid(scores) - labels
    return float(per_example.sum()), grads


def pairwise_loss(d, kind: str):
    """Pairwise loss on a score difference; hinge or logistic (RankNet)."""
    arr = np.asarray(d, dtype=np.float64)
    if kind == "hinge":
        f = np.maximum(0.0, 1.0 - arr)
        # subgradient at the kink d=1 is defined as 0
        df = np.where(arr < 1.0, -1.0, 0.0)
    elif kind == "logistic":
        f = np.logaddexp(0.0, -arr)
        df = -sigmoid(-arr)
    else:
        raise NeuralError(f"unknown pairwise loss kind {kind!r}")
    if arr.ndim == 0:
        return float(f), float(df)
    return f, df


def sgd_step(model: MlpModel, grads: ModelGrads, learning_rate: float,
             l2_penalty: float = 0.0) -> MlpModel:
    """In-place SGD update with L2 on weights (not biases)."""
    for (dw, db), layer in zip(grads.layers, model.layers):
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise NeuralError("non-finite gradient")
        layer.weight -= learning_rate * (dw + l2_penalty * layer.weight)
        layer.bias -= learning_rate * db
    if not np.all(np.isfinite(grads.final_w)):
        raise NeuralError("non-finite gradient")
    model.final_w -= learning_rate * (grads.final_w + l2_penalty * model.final_w)
    return model


def _param_arrays(model: MlpModel) -> list:
    arrs = []
    for layer in model.layers:
        arrs.append(layer.weight)
        arrs.append(layer.bias)
    arrs.append(model.final_w)
    return arrs


def flatten_grads(grads: ModelGrads) -> np.ndarray:
    parts = []
    for dw, db in grads.layers:
        parts.append(dw.ravel())
        parts.append(db.ravel())
    parts.append(grads.final_w.ravel())
    return np.concatenate(parts)


def gradient_check(model: MlpModel, objective, max_params: int = 200,
                   step: float = 1e-5, seed: int = 0) -> float:
    """Compare analytic gradients of `objective` against central finite
    differences; returns the max relative error over probed parameters.

    `objective(model) -> (loss, ModelGrads)`. When the model has more than
    `max_params` parameters, a seeded random subsample is probed.
    """
    _, grads = objective(model)
    analytic = flatten_grads(grads)
    arrays = _param_arrays(model)
    sizes = [a.size for a in arrays]
    offsets = np.cumsum([0] + sizes)
    total = offsets[-1]
    if total > max_params:
        idxs = np.sort(np.random.RandomState(seed).choice(total, size=max_params, replace=False))
    else:
        idxs = np.arange(total)
    max_rel = 0.0
    for flat_idx in idxs:
        arr_idx = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        local = int(flat_idx - offsets[arr_idx])
        arr = arrays[arr_idx]
        original = arr.flat[local]
        arr.flat[local] = original + step
        loss_plus, _ = objective(model)
        arr.flat[local] = original - step
        loss_minus, _ = objective(model)
        arr.flat[local] = original
        numeric = (loss_plus - loss_minus) / (2.0 * step)
        ga = analytic[flat_idx]
        rel = abs(ga - numeric) / max(1e-8, abs(ga) + abs(numeric))
        max_rel = max(max_rel, rel)
    return max_rel


@dataclass(frozen=True)
class TrainConfig:
    objective: str = "pairwise_hinge"
    learning_rate: float = 0.05
    epochs: int = 20
    batch_size: int = 64
    l2_penalty: float = 0.0
    dropout_rate: float = 0.0
    early_stop_patience: int = 5
    seed: int = 0
    hidden_layers: tuple = (100, 100, 100)
    activation: str = "relu"

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise NeuralError(f"unknown objective {self.objective!r}")
        if self.learning_rate <= 0:
            raise NeuralError("learning_rate must be > 0")
        if self.epochs < 0 or self.batch_size < 1 or self.early_stop_patience < 0:
            raise NeuralError("epochs, batch_size, early_stop_patience out of range")
        if self.l2_penalty < 0:
            raise NeuralError("l2_penalty must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise NeuralError("dropout_rate must be in [0, 1)")
        if self.activation not in ACTIVATIONS:
            raise NeuralError(f"unknown activation {self.activation!r}")

    @property
    def pairwise_kind(self) -> str | None:
        if self.objective == "pairwise_hinge":
            return "hinge"
        if self.objective == "pairwise_logistic":
            return "logistic"
        return None


def layers_to_lines(layers) -> list:
    lines = [f"num_layers {len(layers)}"]
    for idx, layer in enumerate(layers):
        out_w, in_w = layer.weight.shape
        lines.append(f"layer {idx} {layer.activation} {out_w} {in_w}")
        for row in layer.weight:
            lines.append(" ".join(fmt_float(x) for x in row))
        lines.append(" ".join(fmt_float(x) for x in layer.bias))
    return lines


def layers_from_lines(lines: list, start: int):
    """Parse layers written by layers_to_lines; returns (layers, next index)."""
    head = lines[start].split()
    if len(head) != 2 or head[0] != "num_layers":
        raise NeuralError(f"expected 'num_layers <n>', got {lines[start]!r}")
    count = int(head[1])
    pos = start + 1
    layers = []
    for _ in range(count):
        tag, _idx, activation, out_w, in_w = lines[pos].split()
        if tag != "layer":
            raise NeuralError(f"expected layer header, got {lines[pos]!r}")
        out_w, in_w = int(out_w), int(in_w)
        pos += 1
        weight = np.array(
            [[float(x) for x in lines[pos + r].split()] for r in range(out_w)], dtype=np.float64
        ).reshape(out_w, in_w)
        pos += out_w
        bias = np.array([float(x) for x in lines[pos].split()], dtype=np.float64)
        pos += 1
        layers.append(Layer(weight, bias, activation))
    return layers, pos


def mlp_to_lines(model: MlpModel) -> list:
    lines = layers_to_lines(model.layers)
    lines.append("final_w " + " ".join(fmt_float(x) for x in model.final_w))
    return lines


def mlp_from_lines(lines: list, start: int = 0):
    layers, pos = layers_from_lines(lines, start)
    parts = lines[pos].split()
    if parts[0] != "final_w":
        raise NeuralError(f"expected final_w line, got {lines[pos]!r}")
    final_w = np.array([float(x) for x in parts[1:]], dtype=np.float64)
    return MlpModel(layers, final_w), pos + 1
