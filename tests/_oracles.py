"""Scalar reference definitions that the tests hold the pipeline's kernels to.

No pipeline stage runs these.  The detector ranks and partitions whole blocks
of points, the ensemble aggregates every leave-one-out set at once, and an
MLP fit reuses one workspace for all its epochs; each function here states
the same quantity for one point, one time or one net, as plainly as it can.
``gauss_solve`` solves the ridge oracles' normal equations without numpy.linalg.
"""

from __future__ import annotations

import numpy as np

from ecad import backends
from ecad.detector import nearest_rank_index
from ecad.ensemble import BootstrapPlan, Ensemble, loo_aggregate


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
