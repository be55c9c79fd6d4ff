"""Layer-stack core of the MLP ranker and the semantic model's arms:
forward/backward passes, the pointwise cross-entropy and pairwise
hinge/logistic objectives, plain SGD, and a finite-difference checker.

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


def init_layers(rng: np.random.RandomState, fan_in: int, widths, activation: str) -> list:
    """Glorot-uniform layers of the given widths drawn from `rng`; zero biases."""
    layers = []
    for width in widths:
        bound = np.sqrt(6.0 / (fan_in + width))
        layers.append(Layer(rng.uniform(-bound, bound, (width, fan_in)), np.zeros(width), activation))
        fan_in = width
    return layers


def init_mlp(input_width: int, hidden_widths, activation: str, seed: int) -> MlpModel:
    """Glorot-uniform initialized MLP; deterministic in seed. final_w is
    drawn as the weight row of a last, one-unit layer."""
    rng = np.random.RandomState(seed)
    *layers, head = init_layers(rng, input_width, [*hidden_widths, 1], activation)
    return MlpModel(layers, head.weight[0])


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


def _per_row(h: np.ndarray, W: np.ndarray) -> np.ndarray:
    """h @ W computed as n stacked (1, in) by (in, out) products."""
    return np.matmul(h[:, None, :], W)[:, 0, :]


def _run_layers(layers, X, width: int, mask_for=None, cache=None) -> np.ndarray:
    """The one layer-stack forward; returns the top activations.

    Inference (no `cache`) multiplies row by row, as a stack of (1, in)
    by (in, out) products: each row runs the same product whatever the
    batch, where the blocking of one (n, in) BLAS product depends on n; so
    a row comes out bit-identically alone, in any batch, and in any
    position. It multiplies by a C-contiguous copy of weight.T, made on
    every call: the copy is faster than the transposed view but gives
    other bits, so a batch size must never choose between them, and a
    kept copy would go stale when SGD updates the weights in place.
    Training passes a dict as `cache`, which
    collects what the backward pass needs, and multiplies by BLAS;
    `mask_for(a)` gives a dropout mask.
    """
    h = np.asarray(X, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != width:
        raise NeuralError(f"input has shape {h.shape}, expected (n, {width})")
    for layer in layers:
        if cache is None:
            z = _per_row(h, np.ascontiguousarray(layer.weight.T)) + layer.bias
        else:
            z = h @ layer.weight.T + layer.bias
        a = _activate(z, layer.activation)
        mask = mask_for(a) if mask_for is not None else None
        if cache is not None:
            for key, value in (("inputs", h), ("pres", z), ("raws", a), ("masks", mask)):
                cache.setdefault(key, []).append(value)
        h = a if mask is None else a * mask
    return h


def layers_forward(layers, X: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """Top activations of a non-empty layer stack for an (n, width) batch:
    the batch-invariant inference forward, or with a `cache` dict the
    training forward (no dropout) that `layers_backward` reads."""
    return _run_layers(layers, X, layers[0].weight.shape[1], cache=cache)


def mlp_forward(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Inference scores for an (n, width) batch; returns (n,). No dropout.
    The final product is per row too, so a row scores bit-identically
    alone, in any batch, and in any position."""
    h = _run_layers(model.layers, X, model.input_width)
    return _per_row(h, model.final_w[:, None])[:, 0]


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

    cache = {}
    cache["top"] = _run_layers(model.layers, X, model.input_width, mask_for, cache)
    return cache["top"] @ model.final_w, cache


def layers_backward(layers, cache: dict, dtop: np.ndarray) -> list:
    """Backpropagate gradients of the top activations, (n, out), through a
    cached training pass; returns [(dW, db), ...] in layer order."""
    grads = [None] * len(layers)
    dh = dtop
    for idx in range(len(layers) - 1, -1, -1):
        layer = layers[idx]
        mask = cache["masks"][idx]
        if mask is not None:
            dh = dh * mask
        dz = dh * _activation_derivative(cache["pres"][idx], cache["raws"][idx], layer.activation)
        grads[idx] = (dz.T @ cache["inputs"][idx], dz.sum(axis=0))
        if idx:  # no gradient is needed w.r.t. the input itself
            dh = dz @ layer.weight
    return grads


@dataclass
class ModelGrads:
    layers: list  # [(dW, db), ...]
    final_w: np.ndarray


def mlp_backward(model: MlpModel, cache: dict, dscores: np.ndarray) -> ModelGrads:
    """Backpropagate per-example score gradients through the cached pass."""
    dscores = np.asarray(dscores, dtype=np.float64)
    d_final_w = cache["top"].T @ dscores
    dh = dscores[:, None] * model.final_w[None, :]
    return ModelGrads(layers_backward(model.layers, cache, dh), d_final_w)


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


def layers_sgd_step(layers, grads, learning_rate: float, l2_penalty: float = 0.0) -> None:
    """In-place SGD update of a layer stack from [(dW, db), ...], with L2 on
    weights (not biases); a non-finite gradient raises NeuralError."""
    for (dw, db), layer in zip(grads, layers):
        if not (np.all(np.isfinite(dw)) and np.all(np.isfinite(db))):
            raise NeuralError("non-finite gradient")
        layer.weight -= learning_rate * (dw + l2_penalty * layer.weight)
        layer.bias -= learning_rate * db


def sgd_step(model: MlpModel, grads: ModelGrads, learning_rate: float,
             l2_penalty: float = 0.0) -> MlpModel:
    """In-place SGD update with L2 on weights (not biases)."""
    layers_sgd_step(model.layers, grads.layers, learning_rate, l2_penalty)
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
        if not 0 < self.learning_rate < np.inf:
            raise NeuralError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 0 or self.batch_size < 1 or self.early_stop_patience < 0:
            raise NeuralError("epochs, batch_size, early_stop_patience out of range")
        if not 0 <= self.l2_penalty < np.inf:
            raise NeuralError(f"l2_penalty must be finite and >= 0, got {self.l2_penalty}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise NeuralError("dropout_rate must be in [0, 1)")
        if self.activation not in ACTIVATIONS:
            raise NeuralError(f"unknown activation {self.activation!r}")
        if any(width < 1 for width in self.hidden_layers):
            raise NeuralError(f"hidden layer widths must be >= 1, got {self.hidden_layers}")

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
    """Parse layers written by layers_to_lines; returns (layers, next index).
    A missing, short or non-numeric line raises NeuralError."""
    pos = start
    try:
        head = lines[pos].split()
        if len(head) != 2 or head[0] != "num_layers":
            raise NeuralError(f"expected 'num_layers <n>', got {lines[pos]!r}")
        pos += 1
        layers = []
        for _ in range(int(head[1])):
            tag, _idx, activation, out_w, in_w = lines[pos].split()
            if tag != "layer":
                raise NeuralError(f"expected layer header, got {lines[pos]!r}")
            out_w, in_w = int(out_w), int(in_w)
            # out_w weight rows, then the bias row
            rows = [[float(x) for x in lines[pos + 1 + r].split()] for r in range(out_w + 1)]
            layers.append(Layer(np.array(rows[:-1]).reshape(out_w, in_w), rows[-1], activation))
            pos += out_w + 2
    except (IndexError, ValueError) as e:
        raise NeuralError(f"malformed layer block at line {pos + 1}: {e}") from None
    return layers, pos


def mlp_to_lines(model: MlpModel) -> list:
    lines = layers_to_lines(model.layers)
    lines.append("final_w " + " ".join(fmt_float(x) for x in model.final_w))
    return lines


def mlp_from_lines(lines: list, start: int = 0):
    layers, pos = layers_from_lines(lines, start)
    parts = lines[pos].split() if pos < len(lines) else []
    if not parts or parts[0] != "final_w":
        raise NeuralError(f"expected final_w line at line {pos + 1}")
    try:
        final_w = np.array([float(x) for x in parts[1:]], dtype=np.float64)
    except ValueError as e:
        raise NeuralError(f"malformed final_w line: {e}") from None
    return MlpModel(layers, final_w), pos + 1
