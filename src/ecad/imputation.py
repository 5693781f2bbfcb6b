"""Iterative column-wise regression imputation for incomplete training panels.

A panel is a ``(T, K)`` array with NaN at its missing cells.  Each sweep
regresses every column in turn on the current values of the other columns
(fitting on the rows where that column is observed) and replaces the column's
missing entries with the fitted predictions.  Sweeps repeat until the
largest per-sweep change falls below the tolerance or the iteration cap is hit.
Observed entries are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backends import BackendSpec, fit
from .panel import as_panel

__all__ = ["ImputerConfig", "ImputeReport", "impute"]


@dataclass(frozen=True)
class ImputerConfig:
    """Settings for the round-robin imputer.

    ``tol`` is the maximum absolute change between sweeps, in value units.
    Missing cells are initialized with their column's observed mean before the
    first sweep.  ``inner_backend.seed`` seeds every inner fit.
    """

    max_iters: int = 10
    tol: float = 1e-3
    inner_backend: BackendSpec = field(
        default_factory=lambda: BackendSpec(kind="ridge", ridge_lambda=1.0)
    )

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")


@dataclass
class ImputeReport:
    """What the imputer did: sweep count, convergence trace, missingness profile."""

    iterations: int
    final_max_delta: float
    delta_trace: list[float]
    missing_per_column: list[int]


def impute(panel: np.ndarray, cfg: ImputerConfig = ImputerConfig()) -> tuple[np.ndarray, ImputeReport]:
    """Complete a panel by iterative column-on-columns regression.

    ``panel`` is a ``(T, K)`` array with NaN at its missing cells.  Returns a
    copy without NaN whose observed entries are bit-identical to the input,
    plus a report of the sweeps performed.  Requires at least two observed
    entries per column and at least one observed entry per row.
    """
    panel = as_panel(panel)
    mask = ~np.isnan(panel)
    T, K = panel.shape
    observed_per_column = mask.sum(axis=0)
    if (observed_per_column < 2).any():
        bad = int(np.argmin(observed_per_column))
        raise ValueError(
            f"column {bad} has only {int(observed_per_column[bad])} observed entries; need >= 2"
        )
    if (~mask).all(axis=1).any():
        bad = int(np.argmax((~mask).all(axis=1)))
        raise ValueError(f"row {bad} is fully missing")

    missing_per_column = [int(T - c) for c in observed_per_column]
    values = panel.copy()
    if mask.all():
        return values, ImputeReport(0, 0.0, [], missing_per_column)

    col_means = np.array([values[mask[:, k], k].mean() for k in range(K)])
    for k in range(K):
        values[~mask[:, k], k] = col_means[k]

    delta_trace: list[float] = []
    others = [np.array([j for j in range(K) if j != k]) for k in range(K)]
    sweeps = 0
    for _ in range(cfg.max_iters):
        sweeps += 1
        sweep_delta = 0.0
        for k in range(K):
            obs = mask[:, k]
            if obs.all():
                continue
            model = fit(cfg.inner_backend, values[obs][:, others[k]], values[obs, k])
            predicted = model.predict(values[~obs][:, others[k]])[0]
            sweep_delta = max(sweep_delta, float(np.max(np.abs(predicted - values[~obs, k]))))
            values[~obs, k] = predicted
        delta_trace.append(sweep_delta)
        if sweep_delta < cfg.tol:
            break

    # observed entries were never written; check the contract even under python -O
    if not np.array_equal(values[mask], panel[mask]):
        raise RuntimeError("imputation overwrote observed entries")
    return values, ImputeReport(sweeps, delta_trace[-1], delta_trace, missing_per_column)
