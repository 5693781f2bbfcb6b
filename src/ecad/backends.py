"""Pluggable regression backends: closed-form ridge and a small feedforward net.

Fitted models are immutable after ``fit`` and safe to share across concurrent
``predict`` calls.  Both backends are deterministic given the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "BackendSpec",
    "RidgeModel",
    "MLPModel",
    "fit",
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
    for _ in range(spec.mlp_epochs):
        _backprop(ws, weights, biases, Xs, ys)
        for param, grad in zip(weights + biases, ws.grad_w + ws.grad_b):
            grad *= lr
            param -= grad
    return MLPModel(spec, weights, biases, x_mean, x_std, y_mean, y_std)


def fit(spec: BackendSpec, X: np.ndarray, y: np.ndarray) -> RidgeModel | MLPModel:
    """Fit the configured backend on (X, y); deterministic given the spec seed."""
    spec.validate()
    X, y = _check_training_inputs(X, y)
    if spec.kind == "ridge":
        return _fit_ridge(spec, X, y)
    return _fit_mlp(spec, X, y)


def model_from_state(spec: BackendSpec, arrays: dict[str, np.ndarray]) -> RidgeModel | MLPModel:
    if spec.kind == "ridge":
        return RidgeModel.from_state(spec, arrays)
    return MLPModel.from_state(spec, arrays)
