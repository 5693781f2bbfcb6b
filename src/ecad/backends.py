"""Pluggable regression backends: closed-form ridge and a small feedforward net.

Fitted models are immutable after ``fit`` and safe to share across concurrent
``predict`` calls.  Both backends are deterministic given the spec's seed.

A bootstrap ensemble of ridge models needs no per-model pass over its rows:
`fit_ridge_bags` reads each block of rows once into its sufficient
statistics, and fits every bag from the multiplicity-weighted sums of those
statistics, so a bag is a count per block rather than a copy of its rows.
`RidgeStack` evaluates all the fitted models with one matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

__all__ = [
    "BackendSpec",
    "RidgeModel",
    "RidgeStack",
    "MLPModel",
    "fit",
    "fit_ridge_bags",
    "mlp_loss_and_gradients",
]

BACKEND_KINDS = ("ridge", "mlp")


@dataclass(frozen=True)
class BackendSpec:
    """Configuration of the regression algorithm behind the anomaly scores.

    ``kind`` selects the backend; the remaining fields only apply to their
    backend and are ignored otherwise.
    """

    kind: str = "ridge"
    ridge_lambda: float = 1.0
    mlp_hidden: tuple[int, ...] = (64, 64)
    mlp_epochs: int = 200
    mlp_learning_rate: float = 1e-3
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "mlp_hidden", tuple(int(w) for w in self.mlp_hidden))

    def validate(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}; expected one of {BACKEND_KINDS}")
        if self.ridge_lambda < 0:
            raise ValueError(f"ridge_lambda must be >= 0, got {self.ridge_lambda}")
        if any(w < 1 for w in self.mlp_hidden):
            raise ValueError(f"all hidden widths must be >= 1, got {self.mlp_hidden}")
        if self.mlp_epochs < 1:
            raise ValueError(f"mlp_epochs must be >= 1, got {self.mlp_epochs}")
        if self.mlp_learning_rate <= 0:
            raise ValueError(f"mlp_learning_rate must be > 0, got {self.mlp_learning_rate}")

    def with_seed(self, seed: int) -> "BackendSpec":
        return replace(self, seed=int(seed))


def _check_training_inputs(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise ValueError(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"need at least one sample and one feature, got X shape {X.shape}")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise ValueError("non-finite values in training data")
    return X, y


def _check_predict_input(X: np.ndarray, input_dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != input_dim:
        raise ValueError(f"input dimension {X.shape[1]} does not match model dimension {input_dim}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite values in prediction input")
    return X


@dataclass(frozen=True)
class RidgeModel:
    """Ridge regression with the intercept handled by mean-centering.

    Solves (Xc' Xc + lambda I) w = Xc' yc on centered data; lambda = 0 falls
    back to the least-squares solution so noiseless linear data interpolates
    exactly.
    """

    spec: BackendSpec
    weights: np.ndarray
    x_mean: np.ndarray
    y_mean: float

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_predict_input(X, self.input_dim)
        return (X - self.x_mean) @ self.weights + self.y_mean

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {
            "weights": self.weights,
            "x_mean": self.x_mean,
            "y_mean": np.array(self.y_mean),
        }

    @classmethod
    def from_state(cls, spec: BackendSpec, arrays: dict[str, np.ndarray]) -> "RidgeModel":
        return cls(spec, arrays["weights"], arrays["x_mean"], float(arrays["y_mean"]))


def _fit_ridge(spec: BackendSpec, X: np.ndarray, y: np.ndarray) -> RidgeModel:
    x_mean = X.mean(axis=0)
    y_mean = float(y.mean())
    Xc = X - x_mean
    yc = y - y_mean
    lam = spec.ridge_lambda
    if lam > 0:
        gram = Xc.T @ Xc + lam * np.eye(X.shape[1])
        weights = np.linalg.solve(gram, Xc.T @ yc)
    else:
        weights = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    return RidgeModel(spec, weights, x_mean, y_mean)


# bytes of block statistics fit_ridge_bags holds before adding them into the bags
_STATS_CHUNK_BYTES = 1 << 20


def fit_ridge_bags(
    spec: BackendSpec,
    X: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
    counts: np.ndarray,
) -> list[RidgeModel]:
    """One ridge model per bag of row blocks, fitted from per-block sufficient statistics.

    Block i is the rows ``order[starts[i]:stops[i]]``, and bag b holds block i
    ``counts[b, i]`` times.  Model b is ``fit(spec, X[rows], y[rows])`` on its
    bag's rows, duplicates repeated, up to rounding.  X and y are centred once
    on their global means, block by block; each block's statistics are the
    Gram matrix of its rows ``[1, x - mean(X), y - mean(y)]``, which holds its
    row count, sums, ``X'X`` and ``X'y``.  A bag's statistics are the
    count-weighted sum of its blocks' statistics, and its centred normal
    equations follow from them by the bag-mean correction; all bags are then
    solved at once.  ``lambda = 0`` takes the least-squares solution of each
    bag's normal equations.  A fit whose state is not finite raises ValueError.
    """
    spec.validate()
    X, y = _check_training_inputs(X, y)
    counts = np.asarray(counts, dtype=np.float64)
    d = X.shape[1]
    x_center, y_center = X.mean(axis=0), float(y.mean())
    stats = np.zeros((counts.shape[0], d + 2, d + 2))
    step = max(1, _STATS_CHUNK_BYTES // stats[0].nbytes)
    for lo in range(0, starts.size, step):
        hi = min(lo + step, starts.size)
        chunk = np.empty((hi - lo, d + 2, d + 2))
        for i in range(lo, hi):
            rows = order[starts[i] : stops[i]]
            Z = np.empty((rows.size, d + 2))
            Z[:, 0] = 1.0
            np.subtract(X[rows], x_center, out=Z[:, 1:-1])
            np.subtract(y[rows], y_center, out=Z[:, -1])
            np.matmul(Z.T, Z, out=chunk[i - lo])
        stats += (counts[:, lo:hi] @ chunk.reshape(hi - lo, -1)).reshape(stats.shape)
    n_rows = stats[:, 0, 0]
    x_shift = stats[:, 0, 1:-1] / n_rows[:, None]  # bag mean minus global mean
    y_shift = stats[:, 0, -1] / n_rows
    gram = stats[:, 1:-1, 1:-1] - stats[:, 0, 1:-1, None] * x_shift[:, None, :]
    rhs = stats[:, 1:-1, -1] - stats[:, 0, 1:-1] * y_shift[:, None]
    lam = spec.ridge_lambda
    if lam > 0:
        gram += lam * np.eye(d)
        weights = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    else:
        weights = np.stack([np.linalg.lstsq(g, r, rcond=None)[0] for g, r in zip(gram, rhs)])
    x_mean = x_center + x_shift
    y_mean = y_center + y_shift
    finite = np.isfinite(weights).all(axis=1) & np.isfinite(x_mean).all(axis=1) & np.isfinite(y_mean)
    if not finite.all():
        raise ValueError(f"ridge fit of bag {np.argmin(finite)} produced non-finite weights")
    return [RidgeModel(spec, w, m, float(c)) for w, m, c in zip(weights, x_mean, y_mean.tolist())]


@dataclass(frozen=True)
class RidgeStack:
    """Ridge models evaluated together: model b predicts ``X @ weights[b] + offsets[b]``."""

    weights: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, models: Sequence[RidgeModel]) -> "RidgeStack":
        weights = np.stack([m.weights for m in models])
        x_means = np.stack([m.x_mean for m in models])
        y_means = np.array([m.y_mean for m in models])
        return cls(weights, y_means - np.einsum("bd,bd->b", x_means, weights))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(n_models, n_points) predictions: one (B, d) @ (d, n) product plus the offsets."""
        X = _check_predict_input(X, self.weights.shape[1])
        out = self.weights @ X.T
        out += self.offsets[:, None]
        return out


def _forward(
    weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray, outputs: list[np.ndarray]
) -> np.ndarray:
    """Forward pass into preallocated buffers: ReLU hidden layers, identity output.

    ``outputs[i]`` receives layer i's output on X (shape ``(n_rows, width_i)``);
    returns the flat predictions, a view of the last buffer.
    """
    a = X
    for W, b, out in zip(weights, biases, outputs):
        np.matmul(a, W, out=out)
        out += b
        if out is not outputs[-1]:
            np.maximum(out, 0.0, out=out)
        a = out
    return outputs[-1][:, 0]


def _layer_buffers(weights: list[np.ndarray], n_rows: int) -> list[np.ndarray]:
    return [np.empty((n_rows, W.shape[1])) for W in weights]


def mlp_forward(weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray) -> np.ndarray:
    """Flat predictions of the net (ReLU hidden layers, identity output) on X."""
    return _forward(weights, biases, X, _layer_buffers(weights, X.shape[0]))


def mlp_loss(weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray, y: np.ndarray) -> float:
    pred = mlp_forward(weights, biases, X)
    return float(np.mean((pred - y) ** 2))


class _MLPWorkspace:
    """Every buffer of one full-batch gradient step for a net over ``n_rows`` rows.

    A fit allocates one and each epoch writes into it, so training allocates
    no arrays per epoch.  ``grad_w``/``grad_b`` hold the gradients of the last
    `_backprop` call and ``resid`` its predictions minus targets.
    """

    def __init__(self, weights: list[np.ndarray], n_rows: int) -> None:
        self.outputs = _layer_buffers(weights, n_rows)
        self.deltas = _layer_buffers(weights, n_rows)
        self.masks = [np.empty(out.shape, dtype=bool) for out in self.outputs[:-1]]
        self.resid = np.empty(n_rows)
        self.grad_w = [np.empty_like(W) for W in weights]
        self.grad_b = [np.empty(W.shape[1]) for W in weights]


def _backprop(
    ws: _MLPWorkspace,
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
) -> None:
    """Gradients of the mean squared error on (X, y) into ``ws`` by backpropagation."""
    pred = _forward(weights, biases, X, ws.outputs)
    np.subtract(pred, y, out=ws.resid)
    last = len(weights) - 1
    np.multiply(2.0 / X.shape[0], ws.resid[:, None], out=ws.deltas[last])
    inputs = [X, *ws.outputs[:-1]]
    for layer in range(last, -1, -1):
        delta = ws.deltas[layer]
        if layer < last:
            # the ReLU derivative: an output is positive exactly where its input was
            mask = ws.masks[layer]
            np.greater(ws.outputs[layer], 0, out=mask)
            np.multiply(delta, mask, out=delta)
        np.matmul(inputs[layer].T, delta, out=ws.grad_w[layer])
        np.sum(delta, axis=0, out=ws.grad_b[layer])
        if layer > 0:
            np.matmul(delta, weights[layer].T, out=ws.deltas[layer - 1])


def mlp_loss_and_gradients(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean-squared-error loss and its gradients via backpropagation.

    The gradient arrays are new on every call.
    """
    ws = _MLPWorkspace(weights, X.shape[0])
    _backprop(ws, weights, biases, X, y)
    return float(np.mean(ws.resid**2)), ws.grad_w, ws.grad_b


@dataclass(frozen=True)
class MLPModel:
    """Feedforward net trained by full-batch gradient descent on squared error.

    Inputs and targets are standardized with training statistics (so the
    default learning rate behaves across value scales); predictions are mapped
    back to the original target scale.
    """

    spec: BackendSpec
    weights: list[np.ndarray] = field(repr=False)
    biases: list[np.ndarray] = field(repr=False)
    x_mean: np.ndarray = field(repr=False)
    x_std: np.ndarray = field(repr=False)
    y_mean: float = 0.0
    y_std: float = 1.0

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = _check_predict_input(X, self.input_dim)
        Xs = (X - self.x_mean) / self.x_std
        pred = mlp_forward(self.weights, self.biases, Xs)
        return self.y_mean + self.y_std * pred

    def state_arrays(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {
            "x_mean": self.x_mean,
            "x_std": self.x_std,
            "y_mean": np.array(self.y_mean),
            "y_std": np.array(self.y_std),
        }
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            out[f"W{i}"] = W
            out[f"b{i}"] = b
        return out

    @classmethod
    def from_state(cls, spec: BackendSpec, arrays: dict[str, np.ndarray]) -> "MLPModel":
        n_layers = len(spec.mlp_hidden) + 1
        weights = [arrays[f"W{i}"] for i in range(n_layers)]
        biases = [arrays[f"b{i}"] for i in range(n_layers)]
        return cls(
            spec,
            weights,
            biases,
            arrays["x_mean"],
            arrays["x_std"],
            float(arrays["y_mean"]),
            float(arrays["y_std"]),
        )


def init_mlp_params(
    input_dim: int, hidden: tuple[int, ...], rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """He-normal weight initialization with zero biases."""
    sizes = [input_dim, *hidden, 1]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / fan_in)
        weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return weights, biases


def _fit_mlp(spec: BackendSpec, X: np.ndarray, y: np.ndarray) -> MLPModel:
    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    x_std = np.where(x_std < 1e-12, 1.0, x_std)
    Xs = (X - x_mean) / x_std
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    ys = (y - y_mean) / y_std
    rng = np.random.default_rng(0 if spec.seed is None else spec.seed)
    weights, biases = init_mlp_params(X.shape[1], spec.mlp_hidden, rng)
    lr = spec.mlp_learning_rate
    ws = _MLPWorkspace(weights, X.shape[0])
    # a step size too large for the data overflows; `fit` rejects the result
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.mlp_epochs):
            _backprop(ws, weights, biases, Xs, ys)
            for param, grad in zip(weights + biases, ws.grad_w + ws.grad_b):
                grad *= lr
                param -= grad
    return MLPModel(spec, weights, biases, x_mean, x_std, y_mean, y_std)


def fit(spec: BackendSpec, X: np.ndarray, y: np.ndarray) -> RidgeModel | MLPModel:
    """Fit the configured backend on (X, y); deterministic given the spec seed.

    A fit whose state is not finite (an MLP step size too large for the data)
    raises ValueError.
    """
    spec.validate()
    X, y = _check_training_inputs(X, y)
    model = _fit_ridge(spec, X, y) if spec.kind == "ridge" else _fit_mlp(spec, X, y)
    if not all(np.isfinite(a).all() for a in model.state_arrays().values()):
        if spec.kind == "mlp":
            raise ValueError(
                f"MLP fit diverged to non-finite weights; lower mlp_learning_rate "
                f"(got {spec.mlp_learning_rate})"
            )
        raise ValueError("ridge fit produced non-finite weights")
    return model


def model_from_state(spec: BackendSpec, arrays: dict[str, np.ndarray]) -> RidgeModel | MLPModel:
    if spec.kind == "ridge":
        return RidgeModel.from_state(spec, arrays)
    return MLPModel.from_state(spec, arrays)
