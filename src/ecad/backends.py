"""Pluggable regression backends: closed-form ridge and a small feedforward net.

A fitted model holds the B models of one backend, each parameter stacked on
a leading axis of length B, and ``predict(X)`` returns their ``(B, n)``
predictions.  `fit` is the only way to fit: without bags it fits one model
(B = 1) on all rows; with `Bags` it fits one model per bootstrap bag.  A
ridge ensemble needs no per-model pass over its rows: each block of rows is
read once into its sufficient statistics, and every bag is fitted from the
count-weighted sums of those statistics, so a bag is a count per block rather
than a copy of its rows; all B ridge models predict with one matrix product.
The MLP gathers each bag's rows, block by block in ascending order, and fits
the bags one at a time.  Each model type's ``param_shapes`` is the table of
its parameter names and per-model shapes.

Fitted models are immutable after ``fit`` and safe to share across concurrent
``predict`` calls.  Both backends are deterministic given the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "BackendSpec",
    "Bags",
    "RidgeModel",
    "MLPModel",
    "MODEL_TYPES",
    "fit",
    "mlp_loss_and_gradients",
]


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
        if self.kind not in MODEL_TYPES:
            raise ValueError(f"unknown backend kind {self.kind!r}; expected one of {tuple(MODEL_TYPES)}")
        if self.ridge_lambda < 0:
            raise ValueError(f"ridge_lambda must be >= 0, got {self.ridge_lambda}")
        if any(w < 1 for w in self.mlp_hidden):
            raise ValueError(f"all hidden widths must be >= 1, got {self.mlp_hidden}")
        if self.mlp_epochs < 1:
            raise ValueError(f"mlp_epochs must be >= 1, got {self.mlp_epochs}")
        if self.mlp_learning_rate <= 0:
            raise ValueError(f"mlp_learning_rate must be > 0, got {self.mlp_learning_rate}")


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


class Bags(NamedTuple):
    """Bootstrap bags over blocks of rows.

    Block i is the rows ``order[starts[i]:stops[i]]``, and bag b holds block i
    ``counts[b, i]`` times.
    """

    order: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    counts: np.ndarray

    def rows(self, b: int) -> np.ndarray:
        """Bag b's rows, block by block in ascending order, block i ``counts[b, i]`` times."""
        blocks = np.repeat(np.arange(self.starts.size), self.counts[b]).tolist()
        return np.concatenate([self.order[self.starts[i] : self.stops[i]] for i in blocks])


@dataclass(frozen=True)
class _StackedModel:
    """B fitted models of one backend.

    ``params`` maps each name of the model type's ``param_shapes`` table to the
    stack of that parameter over the B models, of shape ``(B, *shape)``.
    """

    spec: BackendSpec
    params: dict[str, np.ndarray] = field(repr=False)

    @property
    def n_models(self) -> int:
        return self.params["x_mean"].shape[0]

    @property
    def input_dim(self) -> int:
        return self.params["x_mean"].shape[1]


class RidgeModel(_StackedModel):
    """B ridge regressions with the intercept handled by mean-centering.

    Model b solves (Xc' Xc + lambda I) w = Xc' yc on its centered data; lambda = 0
    falls back to the least-squares solution so noiseless linear data
    interpolates exactly.
    """

    @staticmethod
    def param_shapes(spec: BackendSpec, input_dim: int) -> dict[str, tuple[int, ...]]:
        """Per-model shape of each parameter, in artifact order."""
        return {"weights": (input_dim,), "x_mean": (input_dim,), "y_mean": ()}

    @cached_property
    def _offsets(self) -> np.ndarray:
        p = self.params
        return p["y_mean"] - np.einsum("bd,bd->b", p["x_mean"], p["weights"])

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(B, n) predictions: one (B, d) @ (d, n) product plus each model's offset."""
        X = _check_predict_input(X, self.input_dim)
        out = self.params["weights"] @ X.T
        out += self._offsets[:, None]
        return out


def _fit_ridge(spec: BackendSpec, X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
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
    return {"weights": weights, "x_mean": x_mean, "y_mean": y_mean}


# bytes of block statistics _fit_ridge_bags holds before adding them into the bags
_STATS_CHUNK_BYTES = 1 << 20


def _fit_ridge_bags(
    spec: BackendSpec, X: np.ndarray, y: np.ndarray, bags: Bags
) -> dict[str, np.ndarray]:
    """Stacked ridge parameters of every bag, fitted from per-block sufficient statistics.

    Model b equals ``_fit_ridge`` on its bag's rows, duplicates repeated, up to
    rounding.  X and y are centred once on their global means, block by
    block; each block's statistics are the Gram matrix of its rows
    ``[1, x - mean(X), y - mean(y)]``, which holds its row count, sums,
    ``X'X`` and ``X'y``.  A bag's statistics are the count-weighted sum of its
    blocks' statistics, and its centred normal equations follow from them by
    the bag-mean correction; all bags are then solved at once.
    ``lambda = 0`` takes the least-squares solution of each bag's normal
    equations.
    """
    order, starts, stops = bags.order, bags.starts, bags.stops
    counts = np.asarray(bags.counts, dtype=np.float64)
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
    return {"weights": weights, "x_mean": x_center + x_shift, "y_mean": y_center + y_shift}


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


class MLPModel(_StackedModel):
    """Feedforward nets trained by full-batch gradient descent on squared error.

    Each net's inputs and targets are standardized with its training statistics
    (so the default learning rate behaves across value scales); predictions are
    mapped back to the original target scale.
    """

    @staticmethod
    def param_shapes(spec: BackendSpec, input_dim: int) -> dict[str, tuple[int, ...]]:
        """Per-model shape of each parameter, in artifact order."""
        shapes: dict[str, tuple[int, ...]] = {
            "x_mean": (input_dim,), "x_std": (input_dim,), "y_mean": (), "y_std": (),
        }
        sizes = [input_dim, *spec.mlp_hidden, 1]
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            shapes[f"W{i}"] = (fan_in, fan_out)
            shapes[f"b{i}"] = (fan_out,)
        return shapes

    @property
    def weights(self) -> list[np.ndarray]:
        """Each layer's (B, fan_in, fan_out) weight stack."""
        return [self.params[f"W{i}"] for i in range(len(self.spec.mlp_hidden) + 1)]

    @property
    def biases(self) -> list[np.ndarray]:
        """Each layer's (B, fan_out) bias stack."""
        return [self.params[f"b{i}"] for i in range(len(self.spec.mlp_hidden) + 1)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(B, n) predictions, one net at a time."""
        X = _check_predict_input(X, self.input_dim)
        p, weights, biases = self.params, self.weights, self.biases
        out = np.empty((self.n_models, X.shape[0]))
        for b in range(self.n_models):
            Xs = (X - p["x_mean"][b]) / p["x_std"][b]
            pred = mlp_forward([W[b] for W in weights], [c[b] for c in biases], Xs)
            out[b] = p["y_mean"][b] + p["y_std"][b] * pred
        return out


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


def _fit_mlp(spec: BackendSpec, X: np.ndarray, y: np.ndarray) -> dict[str, np.ndarray]:
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
    params = {"x_mean": x_mean, "x_std": x_std, "y_mean": y_mean, "y_std": y_std}
    for i, (W, b) in enumerate(zip(weights, biases)):
        params[f"W{i}"] = W
        params[f"b{i}"] = b
    return params

def fit(
    spec: BackendSpec, X: np.ndarray, y: np.ndarray, bags: Bags | None = None
) -> RidgeModel | MLPModel:
    """Fit the configured backend on (X, y); deterministic given the spec seed.

    Without ``bags`` the result holds one model fitted on every row; with
    ``bags`` it holds one model per bag, model b fitted on bag b's rows with
    duplicates repeated (for ridge up to rounding).  A fit whose state is not
    finite (an MLP step size too large for the data) raises ValueError naming
    the bag.
    """
    spec.validate()
    X, y = _check_training_inputs(X, y)
    if spec.kind == "ridge" and bags is not None:
        params = _fit_ridge_bags(spec, X, y, bags)
    else:
        fit_one = _fit_ridge if spec.kind == "ridge" else _fit_mlp
        fits = []
        for rows in [slice(None)] if bags is None else map(bags.rows, range(len(bags.counts))):
            fits.append(fit_one(spec, X[rows], y[rows]))
            if not all(np.isfinite(a).all() for a in fits[-1].values()):
                break  # a diverged bag ends the fit: the check below names it
        params = {name: np.stack([f[name] for f in fits]) for name in fits[0]}
    finite = np.ones(len(params["x_mean"]), dtype=bool)
    for stack in params.values():
        finite &= np.isfinite(stack.reshape(len(stack), -1)).all(axis=1)
    if not finite.all():
        where = "" if bags is None else f" of bag {np.argmin(finite)}"
        if spec.kind == "mlp":
            raise ValueError(
                f"MLP fit{where} diverged to non-finite weights; lower mlp_learning_rate "
                f"(got {spec.mlp_learning_rate})"
            )
        raise ValueError(f"ridge fit{where} produced non-finite weights")
    return MODEL_TYPES[spec.kind](spec, params)


MODEL_TYPES = {"ridge": RidgeModel, "mlp": MLPModel}
