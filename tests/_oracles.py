"""Scalar reference definitions that the tests hold the pipeline's kernels to.

No pipeline stage runs these.  The detector ranks and partitions whole blocks
of points, the ensemble aggregates every leave-one-out set at once, and an
MLP fit reuses one workspace for all its epochs; each function here states
the same quantity for one point, one time or one net, as plainly as it can.
``gauss_solve`` solves the ridge oracles' normal equations without numpy.linalg.
``grid_train_ensemble`` is the one exception: it trains as the pipeline did
when it built the whole feature grid first, operation for operation, so that
the blockwise training can be held to it bit for bit.
"""

from __future__ import annotations

import numpy as np

from ecad import backends
from ecad.detector import nearest_rank_index
from ecad.ensemble import AggregatorSpec, BootstrapPlan, Ensemble, bootstrap_indices, loo_aggregate
from ecad.panel import build_features, time_blocks


def empirical_quantile(values: np.ndarray, level: float) -> float:
    """Nearest-rank empirical quantile: sort ascending, take ceil(level*n)-th."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot take a quantile of an empty vector")
    idx = nearest_rank_index(level, values.size)
    return float(np.partition(values, idx)[idx])


def p_value(window: np.ndarray, score: float) -> float:
    """Fraction of retained past scores that are >= the test score (ties count)."""
    window = np.asarray(window, dtype=np.float64)
    if window.size == 0:
        raise ValueError("cannot compute a p-value against an empty score window")
    return int(np.count_nonzero(window >= score)) / window.size


def loo_set(plan: BootstrapPlan, t: int) -> np.ndarray:
    """(n_models,) boolean mask of the models whose bag excludes time t."""
    pos = int(np.searchsorted(plan.available, t))
    if pos >= plan.available.size or plan.available[pos] != t:
        raise ValueError(f"time index {t} is not in the available set")
    return plan.multiplicity[:, pos] == 0


def loo_predict(ensemble: Ensemble, t: int, x: np.ndarray) -> float:
    """Aggregate the predictions at x of exactly the models whose bag excludes t."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    excluded = loo_set(ensemble.plan, t)[None, :]
    return float(loo_aggregate(ensemble.model.predict(x), excluded, ensemble.aggregator)[0, 0])


def mlp_loss(weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray, y: np.ndarray) -> float:
    """Mean squared error of one net on (X, y), through the forward pass the fit uses."""
    pred = backends._forward(weights, biases, X, backends._layer_buffers(weights, X.shape[0]))
    return float(np.mean((pred - y) ** 2))


def mlp_loss_and_gradients(
    weights: list[np.ndarray],
    biases: list[np.ndarray],
    X: np.ndarray,
    y: np.ndarray,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean-squared-error loss and its gradients by the fit's backpropagation.

    The gradient arrays are new on every call.
    """
    n = X.shape[0]
    ws = backends._MLPWorkspace(weights, n)
    backends._backprop(ws, weights, biases, X, y, np.full(n, 2.0 / n))
    return float(np.mean(ws.resid**2)), ws.grad_w, ws.grad_b


def gauss_solve(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Gaussian elimination with partial pivoting, independent of numpy.linalg."""
    A = [list(map(float, row)) for row in A]
    b = list(map(float, b))
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[pivot] = A[pivot], A[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            factor = A[r][col] / A[col][col]
            for c in range(col, n):
                A[r][c] -= factor * A[col][c]
            b[r] -= factor * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        x[r] = (b[r] - sum(A[r][c] * x[c] for c in range(r + 1, n))) / A[r][r]
    return np.array(x)


def _grid_ridge_params(spec: backends.BackendSpec, X: np.ndarray, y: np.ndarray, counts: np.ndarray) -> dict:
    """Every bag's ridge parameters from the sufficient statistics of a built ``(n_blocks, K, d)`` grid."""
    counts = counts.astype(np.float64)
    n_blocks, rows, d = X.shape
    x_center, y_center = X.reshape(-1, d).mean(axis=0), float(y.reshape(-1).mean())
    stats = np.zeros((counts.shape[0], d + 2, d + 2))
    # the BLAS products over the same chunks of blocks as the fit's
    step = max(1, backends._STATS_CHUNK_BYTES // stats[0].nbytes)
    for lo in range(0, n_blocks, step):
        hi = min(lo + step, n_blocks)
        Z = np.concatenate(
            [np.ones((hi - lo, rows, 1)), X[lo:hi] - x_center, (y[lo:hi] - y_center)[:, :, None]], axis=2
        )
        chunk = np.stack([z.T @ z for z in Z])
        stats += (counts[:, lo:hi] @ chunk.reshape(hi - lo, -1)).reshape(stats.shape)
    n_rows = stats[:, 0, 0]
    x_shift = stats[:, 0, 1:-1] / n_rows[:, None]
    y_shift = stats[:, 0, -1] / n_rows
    gram = stats[:, 1:-1, 1:-1] - stats[:, 0, 1:-1, None] * x_shift[:, None, :]
    rhs = stats[:, 1:-1, -1] - stats[:, 0, 1:-1] * y_shift[:, None]
    if spec.ridge_lambda > 0:
        weights = np.linalg.solve(gram + spec.ridge_lambda * np.eye(d), rhs[:, :, None])[:, :, 0]
    else:
        weights = np.stack([np.linalg.lstsq(g, r, rcond=None)[0] for g, r in zip(gram, rhs)])
    return {"weights": weights, "x_mean": x_center + x_shift, "y_mean": y_center + y_shift}


def grid_train_ensemble(
    values: np.ndarray,
    neighbors: np.ndarray,
    n_lags: int,
    spec: backends.BackendSpec,
    n_models: int,
    aggregator: AggregatorSpec,
    seed: int,
) -> Ensemble:
    """The ensemble of ``train_ensemble``, trained on the whole feature grid built first.

    Each training score is aggregated per time: the mean sums its set's
    predictions in model order and divides by the set size, the median and
    trimmed mean sort the set and sum the window rank by rank.  The
    predictions come over the blocks of ``time_blocks``, as the training's do.
    """
    times, X, y = build_features(values, neighbors, n_lags)
    plan = bootstrap_indices(times, n_models, seed)
    counts = plan.multiplicity
    if spec.kind == "ridge":
        params = _grid_ridge_params(spec, X, y, counts)
    else:
        fits = []
        for bag in counts:
            drawn = np.flatnonzero(bag)
            weights = np.repeat(bag[drawn].astype(np.float64), y.shape[1])
            fits.append(backends._fit_mlp(spec, X[drawn].reshape(-1, X.shape[2]), y[drawn].reshape(-1), weights))
        params = {name: np.stack([f[name] for f in fits]) for name in fits[0]}
    model = backends.MODEL_TYPES[spec.kind](spec, params)
    preds = np.concatenate(
        [model.predict(X[block].reshape(-1, X.shape[2])) for block in time_blocks(len(y), y.shape[1])], axis=1
    ).reshape(n_models, *y.shape)
    scores = []
    for i in np.flatnonzero(plan.usable):
        members = preds[counts[:, i] == 0, i]  # (count, K), in model order
        lo, hi = aggregator.rank_window(len(members))
        window = members if aggregator.kind == "mean" else np.sort(members, axis=0)[lo:hi]
        total = window[0].copy()
        for row in window[1:]:
            total += row
        scores.append(np.abs(y[i] - total / len(window)))
    return Ensemble(plan, model, aggregator, np.array(scores))
