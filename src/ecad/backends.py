"""Pluggable regression backends: closed-form ridge and a small feedforward net.

A fitted model holds the B models of one backend, each parameter stacked on
a leading axis of length B, and ``predict(X)`` returns their ``(B, n)``
predictions.  `fit` is the only way to fit: without counts it fits one model
(B = 1) on the rows of an ``(n, d)`` X; with a ``(B, n_blocks)`` count matrix
it fits one model per bootstrap bag over the blocks of a `panel.FeatureGrid`
X, block i being the K rows of time i, and bag b holding block i
``counts[b, i]`` times.  The grid is never built whole: each consumer gathers
only the blocks it is about to use from the panel.  A ridge ensemble needs no
per-model pass over its rows: the grid is built one chunk of blocks at a time,
once for the global means and once into each block's sufficient statistics,
and every bag is fitted from the count-weighted sums of those statistics, so
a bag is a count per block rather than a copy of its rows; all B ridge models
predict with one matrix product.  The MLP fits the bags one at a time, each
on the blocks it drew (built in ascending order, and whole, as full-batch
descent needs them) with every row weighted by its block's draw count, so an
epoch runs over each drawn row once however often the bag drew it.  Each model
type's ``param_shapes`` is the table of its parameter names and per-model
shapes.

Fitted models are immutable after ``fit`` and safe to share across concurrent
``predict`` calls.  Both backends are deterministic given the spec's seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

import numpy as np

from .panel import FeatureGrid

__all__ = [
    "BackendSpec",
    "RidgeModel",
    "MLPModel",
    "MODEL_TYPES",
    "fit",
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
        if self.kind not in MODEL_TYPES:
            raise ValueError(f"unknown backend kind {self.kind!r}; expected one of {tuple(MODEL_TYPES)}")
        if not self.ridge_lambda >= 0:
            raise ValueError(f"ridge_lambda must be >= 0, got {self.ridge_lambda}")
        if any(w < 1 for w in self.mlp_hidden):
            raise ValueError(f"all hidden widths must be >= 1, got {self.mlp_hidden}")
        if self.mlp_epochs < 1:
            raise ValueError(f"mlp_epochs must be >= 1, got {self.mlp_epochs}")
        if not self.mlp_learning_rate > 0:
            raise ValueError(f"mlp_learning_rate must be > 0, got {self.mlp_learning_rate}")


# bytes of an array's leading rows that _all_finite tests at a time
_FINITE_SCAN_BYTES = 1 << 20


def _all_finite(a: np.ndarray) -> bool:
    """Whether ``a`` holds no NaN or infinity, tested a block of leading rows at a time.

    A block is about ``_FINITE_SCAN_BYTES`` of ``a`` (one row if a row is
    larger), so no boolean array the size of ``a`` is made.
    """
    step = max(1, _FINITE_SCAN_BYTES * len(a) // max(1, a.nbytes))
    return all(np.isfinite(a[i : i + step]).all() for i in range(0, len(a), step))


def _check_training_inputs(
    X: np.ndarray | FeatureGrid, y: np.ndarray, counts: np.ndarray | None
) -> tuple[np.ndarray | FeatureGrid, np.ndarray]:
    """X and y, refused unless they hold finite rows of the layout ``fit`` documents.

    Without counts X and y come back as float64 arrays.  With counts X must be
    a `FeatureGrid`, whose panel is the one tested for finite values.
    """
    y = np.asarray(y, dtype=np.float64)
    if counts is None:
        X = panel = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
    elif isinstance(X, FeatureGrid):
        panel = X.values
    else:
        raise ValueError(f"with bag counts X must be a panel.FeatureGrid, got {type(X).__name__}")
    y_dims = 1 if counts is None else 2
    if y.ndim != y_dims:
        raise ValueError(f"y must be {y_dims}-D, got shape {y.shape}")
    if X.shape[:-1] != y.shape:
        raise ValueError(f"X of shape {X.shape} does not hold one row per entry of y, of shape {y.shape}")
    if counts is not None and (counts.ndim != 2 or counts.shape[1] != len(y) or not len(counts)):
        raise ValueError(f"bag counts of shape {counts.shape} for {len(y)} blocks")
    if y.size < 1 or X.shape[-1] < 1:
        raise ValueError(f"need at least one sample and one feature, got X shape {X.shape}")
    if not _all_finite(panel) or not _all_finite(y):
        raise ValueError("non-finite values in training data")
    return X, y


def _check_predict_input(X: np.ndarray, input_dim: int) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != input_dim:
        raise ValueError(f"input dimension {X.shape[1]} does not match model dimension {input_dim}")
    if not _all_finite(X):
        raise ValueError("non-finite values in prediction input")
    return X


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
    """The parameters of one ridge model fitted on the rows of (X, y), stacked as B = 1."""
    x_mean = X.mean(axis=0, keepdims=True)
    y_mean = y.mean(keepdims=True)
    Xc = X - x_mean
    yc = y - y_mean
    lam = spec.ridge_lambda
    if lam > 0:
        gram = Xc.T @ Xc + lam * np.eye(X.shape[1])
        weights = np.linalg.solve(gram, Xc.T @ yc)
    else:
        weights = np.linalg.lstsq(Xc, yc, rcond=None)[0]
    return {"weights": weights[None], "x_mean": x_mean, "y_mean": y_mean}


# bytes of block statistics _fit_ridge_bags holds before adding them into the bags
_STATS_CHUNK_BYTES = 1 << 20


def _fit_ridge_bags(
    spec: BackendSpec, X: FeatureGrid, y: np.ndarray, counts: np.ndarray
) -> dict[str, np.ndarray]:
    """Stacked ridge parameters of every bag, fitted from per-block sufficient statistics.

    X is a `FeatureGrid` of ``n_blocks`` times of K rows each, y its
    ``(n_blocks, K)`` targets, and bag b holds block i ``counts[b, i]``
    times; model b equals ``_fit_ridge`` on its bag's rows, duplicates
    repeated, up to rounding.  X and y are centred once on their global means;
    each block's statistics are the Gram matrix of its rows
    ``[1, x - mean(X), y - mean(y)]``, which holds its row count, sums,
    ``X'X`` and ``X'y``.  A bag's statistics are the count-weighted sum of its
    blocks' statistics, and its centred normal equations follow from them by
    the bag-mean correction; all bags are then solved at once.
    ``lambda = 0`` takes the least-squares solution of each bag's normal
    equations.  The grid is built one chunk of blocks at a time, twice: once
    for the mean of X and once for the statistics.
    """
    counts = counts.astype(np.float64)
    n_blocks, rows, d = X.shape
    stats = np.zeros((counts.shape[0], d + 2, d + 2))
    step = max(1, _STATS_CHUNK_BYTES // stats[0].nbytes)
    chunks = [slice(lo, min(lo + step, n_blocks)) for lo in range(0, n_blocks, step)]
    # the column sums of the flat rows, added row after row across the chunks: a
    # chunk's first row takes the sum so far.  numpy sums the columns of an
    # (n, d >= 2) array in row order too, so this is its mean bit for bit; a
    # single column it sums pairwise, which can differ in the last bits
    x_sum = None
    for chunk in chunks:
        flat = X[chunk].reshape(-1, d)
        if x_sum is not None:
            flat[0] += x_sum
        x_sum = np.add.reduce(flat, axis=0)
        del flat  # before the next chunk is built, as below
    x_center, y_center = x_sum / (n_blocks * rows), float(y.reshape(-1).mean())
    Z = np.empty((rows, d + 2))
    Z[:, 0] = 1.0
    for chunk in chunks:
        blocks = X[chunk]
        block_stats = np.empty((len(blocks), d + 2, d + 2))
        for i in range(len(blocks)):
            np.subtract(blocks[i], x_center, out=Z[:, 1:-1])
            np.subtract(y[chunk.start + i], y_center, out=Z[:, -1])
            np.matmul(Z.T, Z, out=block_stats[i])
        stats += (counts[:, chunk] @ block_stats.reshape(len(blocks), -1)).reshape(stats.shape)
        del blocks, block_stats
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
    loss_scale: np.ndarray,
) -> None:
    """Gradients of a weighted squared error on (X, y) into ``ws`` by backpropagation.

    The loss is ``sum(w * resid**2) / sum(w)`` and ``loss_scale`` is each
    row's ``(2 / sum(w)) * w``, its derivative with respect to the residual
    divided by the residual.

    Every result equals that of the allocating products and ``sum(axis=0)``
    bit for bit.  A bias gradient of a layer wider than 1 is einsum's column
    sum, which adds the rows of a C-ordered delta in order, as ``sum(axis=0)``
    does, but faster; a width-1 column is summed pairwise by ``sum`` and not
    by einsum, so it keeps ``sum``.  A back-product over an inner width of 1
    is one rounded product per cell, so it is a broadcast multiply.
    """
    pred = _forward(weights, biases, X, ws.outputs)
    np.subtract(pred, y, out=ws.resid)
    last = len(weights) - 1
    np.multiply(loss_scale, ws.resid, out=ws.deltas[last][:, 0])
    inputs = [X, *ws.outputs[:-1]]
    for layer in range(last, -1, -1):
        delta = ws.deltas[layer]
        if layer < last:
            # the ReLU derivative: an output is positive exactly where its input was
            mask = ws.masks[layer]
            np.greater(ws.outputs[layer], 0, out=mask)
            np.multiply(delta, mask, out=delta)
        np.matmul(inputs[layer].T, delta, out=ws.grad_w[layer])
        wide = delta.shape[1] > 1
        if wide:
            np.einsum("ij->j", delta, out=ws.grad_b[layer])
        else:
            np.sum(delta, axis=0, out=ws.grad_b[layer])
        if layer > 0:
            back = np.matmul if wide else np.multiply
            back(delta, weights[layer].T, out=ws.deltas[layer - 1])


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
        """(B, n) predictions, one net at a time through one set of buffers."""
        X = _check_predict_input(X, self.input_dim)
        p, weights, biases = self.params, self.weights, self.biases
        out = np.empty((self.n_models, X.shape[0]))
        Xs = np.empty(X.shape)
        buffers = _layer_buffers([W[0] for W in weights], X.shape[0])
        for b in range(self.n_models):
            np.subtract(X, p["x_mean"][b], out=Xs)
            Xs /= p["x_std"][b]
            pred = _forward([W[b] for W in weights], [c[b] for c in biases], Xs, buffers)
            np.multiply(pred, p["y_std"][b], out=out[b])
            out[b] += p["y_mean"][b]
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


def _fit_mlp(spec: BackendSpec, X: np.ndarray, y: np.ndarray, w: np.ndarray) -> dict[str, np.ndarray]:
    """One net fitted on the rows of (X, y), row i weighted ``w[i]``.

    A row of weight c counts as c copies of the row, in the standardisation
    statistics and in the mean squared error; the sums are written so that
    unit weights give ``X.mean``, ``X.std`` and ``2 / n`` bit for bit.
    """
    n = w.sum()
    x_mean = (X * w[:, None]).sum(axis=0) / n
    x_std = np.sqrt(((X - x_mean) ** 2 * w[:, None]).sum(axis=0) / n)
    x_std = np.where(x_std < 1e-12, 1.0, x_std)
    Xs = (X - x_mean) / x_std
    y_mean = float((y * w).sum() / n)
    y_std = float(np.sqrt(((y - y_mean) ** 2 * w).sum() / n))
    if y_std < 1e-12:
        y_std = 1.0
    ys = (y - y_mean) / y_std
    rng = np.random.default_rng(0 if spec.seed is None else spec.seed)
    weights, biases = init_mlp_params(X.shape[1], spec.mlp_hidden, rng)
    lr = spec.mlp_learning_rate
    ws = _MLPWorkspace(weights, X.shape[0])
    loss_scale = (2.0 / n) * w
    # a step size too large for the data overflows; `fit` rejects the result
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.mlp_epochs):
            _backprop(ws, weights, biases, Xs, ys, loss_scale)
            for param, grad in zip(weights + biases, ws.grad_w + ws.grad_b):
                grad *= lr
                param -= grad
    params = {"x_mean": x_mean, "x_std": x_std, "y_mean": y_mean, "y_std": y_std}
    for i, (W, b) in enumerate(zip(weights, biases)):
        params[f"W{i}"] = W
        params[f"b{i}"] = b
    return params


def _bag_rows(
    X: np.ndarray | FeatureGrid, y: np.ndarray, counts: np.ndarray | None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each bag's (X, y, row weights) for ``_fit_mlp``: the rows of the blocks it drew.

    Without counts the one bag is every row of an ``(n, d)`` X, each weighted 1.
    With counts a bag's rows are built from the `FeatureGrid` X when its fit
    starts, all of them at once.
    """
    if counts is None:
        yield X, y, np.ones(len(y))
        return
    for bag in counts:
        drawn = np.flatnonzero(bag)
        weights = np.repeat(bag[drawn].astype(np.float64), y.shape[1])
        yield X[drawn].reshape(-1, X.shape[2]), y[drawn].reshape(-1), weights


def fit(
    spec: BackendSpec, X: np.ndarray, y: np.ndarray, counts: np.ndarray | None = None
) -> RidgeModel | MLPModel:
    """Fit the configured backend on (X, y); deterministic given the spec seed.

    Without ``counts`` X is ``(n, d)``, y is ``(n,)`` and the result holds one
    model fitted on every row.  With a ``(B, n_blocks)`` integer ``counts``
    matrix X is a `panel.FeatureGrid` of shape ``(n_blocks, K, d)``, y is its
    ``(n_blocks, K)`` targets (``X.y``), block i is the K rows of time i, bag b
    holds block i ``counts[b, i]`` times, and the result holds one model per
    bag, model b equal up to rounding to a fit on bag b's rows with duplicates
    repeated; only the blocks in use are built from X's panel at a time.  A
    fit whose state is not finite (an MLP step size too large for the data)
    raises ValueError naming the bag.
    """
    if counts is not None:
        counts = np.asarray(counts)
    X, y = _check_training_inputs(X, y, counts)
    if spec.kind == "ridge":
        params = _fit_ridge(spec, X, y) if counts is None else _fit_ridge_bags(spec, X, y, counts)
    else:
        fits = []
        for rows, targets, weights in _bag_rows(X, y, counts):
            fits.append(_fit_mlp(spec, rows, targets, weights))
            if not all(np.isfinite(a).all() for a in fits[-1].values()):
                break  # a diverged bag ends the fit: the check below names it
        params = {name: np.stack([f[name] for f in fits]) for name in fits[0]}
    if not all(np.isfinite(stack).all() for stack in params.values()):
        finite = np.logical_and.reduce(
            [np.isfinite(stack.reshape(len(stack), -1)).all(axis=1) for stack in params.values()]
        )
        where = "" if counts is None else f" of bag {np.argmin(finite)}"
        if spec.kind == "mlp":
            raise ValueError(
                f"MLP fit{where} diverged to non-finite weights; lower mlp_learning_rate "
                f"(got {spec.mlp_learning_rate})"
            )
        raise ValueError(f"ridge fit{where} produced non-finite weights")
    return MODEL_TYPES[spec.kind](spec, params)


MODEL_TYPES = {"ridge": RidgeModel, "mlp": MLPModel}
