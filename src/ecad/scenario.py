"""Synthetic spatio-temporal scenarios: generation, truth labeling, missingness.

``generate`` returns a complete ``(T, K)`` value panel, the ``(K, 2)``
coordinates of its sensors and the ground truth, three separate values.
Sensors are placed uniformly on the unit square, row k of the coordinates
for column k of the panel, and every sensor shares one
data-generating recursion over its nearest neighbors' lagged values plus a
Gaussian error process (iid or AR(1) per sensor, independent across sensors).
Anomalies are injected additively after clean generation, and ground truth is
then labeled by comparing each value against nearest-rank quantiles of the
pool of recent values at nearby sensors — so the truth has two layers: what
was injected, and what the rule actually labels.  ``inject_missing`` hides
training cells by setting them to NaN, the panel's mark of an unobserved cell.

Everything here is a pure function of (config, seed) and safe to parallelize
across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detector import nearest_rank_index
from .panel import as_panel, neighbor_sets

__all__ = [
    "ErrorSpec",
    "InjectionSpec",
    "TruthSpec",
    "ScenarioConfig",
    "ScenarioTruth",
    "generate",
    "label_ground_truth",
    "inject_missing",
]

SCENARIO_MODELS = ("linear_neighbor_lag", "seasonal_nonlinear")
INJECTION_REGIONS = ("everywhere", "test")

# Internal generator constants: base flow level, true neighbor/lag structure,
# and the total autoregressive weight (< 1 keeps the recursion stable).
_BASE_LEVEL = 50.0
_TRUE_NEIGHBORS = 3
_TRUE_LAGS = 2
_AR_WEIGHT_TOTAL = 0.7
_SEASON_PERIOD = 24.0


@dataclass(frozen=True)
class ErrorSpec:
    """Error process per sensor: iid Gaussian or stationary AR(1) Gaussian."""

    kind: str = "iid"
    rho: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("iid", "ar1"):
            raise ValueError(f"unknown error dependence {self.kind!r}")
        if self.kind == "ar1" and not abs(self.rho) < 1:
            raise ValueError(f"ar1 requires |rho| < 1, got {self.rho}")


@dataclass(frozen=True)
class InjectionSpec:
    """Additive anomaly injection: Bernoulli positions, +/- fixed magnitude.

    ``region`` limits where injections may land: "everywhere" covers the full
    horizon; "test" leaves the training rows clean.
    """

    rate: float = 0.0
    magnitude_sigma: float = 8.0
    region: str = "everywhere"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 0.5:
            raise ValueError(f"injection rate must be in [0, 0.5), got {self.rate}")
        if not self.magnitude_sigma > 0:
            raise ValueError(f"magnitude_sigma must be > 0, got {self.magnitude_sigma}")
        if self.region not in INJECTION_REGIONS:
            raise ValueError(f"unknown injection region {self.region!r}")


@dataclass(frozen=True)
class TruthSpec:
    """Parameters of the ground-truth labeling rule (unknown to the detector)."""

    alpha: float = 0.01
    lag_depth: int = 3
    neighborhood_size: int = 4

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 0.5:
            raise ValueError(f"truth alpha must be in (0, 0.5), got {self.alpha}")
        if self.lag_depth < 1:
            raise ValueError(f"truth lag depth must be >= 1, got {self.lag_depth}")
        if self.neighborhood_size < 1:
            raise ValueError(f"truth neighborhood size must be >= 1")


@dataclass(frozen=True)
class ScenarioConfig:
    n_sensors: int = 20
    n_train: int = 1000
    n_test: int = 1000
    model: str = "linear_neighbor_lag"
    noise_sigma: float = 1.0
    error: ErrorSpec = field(default_factory=ErrorSpec)
    injection: InjectionSpec = field(default_factory=InjectionSpec)
    missing_fraction: float = 0.4
    truth: TruthSpec = field(default_factory=TruthSpec)
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.n_sensors < 1:
            raise ValueError(f"need at least one sensor, got {self.n_sensors}")
        if self.n_train < _TRUE_LAGS + 1 or self.n_test < 0:
            raise ValueError(
                f"horizons too short: n_train={self.n_train}, n_test={self.n_test}"
            )
        if self.model not in SCENARIO_MODELS:
            raise ValueError(f"unknown scenario model {self.model!r}")
        if not self.noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        # the generate stage masks the training panel, so a fraction it cannot mask is refused here
        _masked_per_column(self.n_train, self.n_sensors, self.missing_fraction)
        if self.truth.neighborhood_size > self.n_sensors:
            raise ValueError("truth neighborhood size exceeds sensor count")
        if self.truth.lag_depth >= self.n_train + self.n_test:
            raise ValueError(
                f"truth lag depth {self.truth.lag_depth} must be smaller than the panel length "
                f"n_train + n_test = {self.n_train + self.n_test}"
            )


@dataclass
class ScenarioTruth:
    """Ground-truth labels plus the injection map.

    Labels are defined only for t >= first_labeled_t; earlier rows are
    unlabeled and must be excluded from evaluation.
    """

    labels: np.ndarray
    injected: np.ndarray
    first_labeled_t: int


def _draw_errors(rng: np.random.Generator, T: int, K: int, sigma: float, spec: ErrorSpec) -> np.ndarray:
    z = rng.standard_normal((T, K))
    if spec.kind == "iid" or sigma == 0.0:
        return sigma * z
    eps = np.empty((T, K))
    eps[0] = sigma * z[0]
    scale = sigma * np.sqrt(1.0 - spec.rho**2)
    for t in range(1, T):
        eps[t] = spec.rho * eps[t - 1] + scale * z[t]
    return eps


def _ar_coefficients(n_neighbors: int, n_lags: int) -> np.ndarray:
    raw = np.outer(0.5 ** np.arange(n_neighbors), 0.6 ** np.arange(n_lags))
    return _AR_WEIGHT_TOTAL * raw / raw.sum()


def _simulate_clean(cfg: ScenarioConfig, coords: np.ndarray, eps: np.ndarray) -> np.ndarray:
    T, K = eps.shape
    n_nb = min(_TRUE_NEIGHBORS, K)
    nb_idx = neighbor_sets(coords, n_nb)  # (K, n_nb)
    weights = _ar_coefficients(n_nb, _TRUE_LAGS)

    values = np.empty((T, K))
    values[:_TRUE_LAGS] = _BASE_LEVEL + eps[:_TRUE_LAGS]

    if cfg.model == "linear_neighbor_lag":
        bias = (1.0 - _AR_WEIGHT_TOTAL) * _BASE_LEVEL
        for t in range(_TRUE_LAGS, T):
            drive = np.zeros(K)
            for lag in range(1, _TRUE_LAGS + 1):
                drive += values[t - lag][nb_idx] @ weights[:, lag - 1]
            values[t] = bias + drive + eps[t]
        return values

    # seasonal_nonlinear: shared daily cycle with location-dependent phase plus
    # a bounded nonlinear coupling to recent neighbor values
    amplitude = 3.0 * cfg.noise_sigma
    coupling = 2.0 * cfg.noise_sigma
    phase = 2.0 * np.pi * 0.2 * coords[:, 0]
    hours = np.arange(T)[:, None]
    season = amplitude * np.sin(2.0 * np.pi * hours / _SEASON_PERIOD + phase[None, :])
    denom = max(2.0 * amplitude, 1e-12)
    for t in range(_TRUE_LAGS, T):
        recent = np.zeros(K)
        for lag in range(1, _TRUE_LAGS + 1):
            recent += values[t - lag][nb_idx].mean(axis=1)
        recent /= _TRUE_LAGS
        values[t] = (
            _BASE_LEVEL
            + season[t]
            + coupling * np.tanh((recent - _BASE_LEVEL) / denom)
            + eps[t]
        )
    return values


def generate(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, ScenarioTruth]:
    """Generate a complete train+test panel: ``(values, coords, truth)``.

    ``values`` is the ``(n_train + n_test, K)`` panel and ``coords`` the
    ``(K, 2)`` sensor coordinates.  Deterministic given the config: identical
    configs give bit-identical panels, coordinates and truth.
    """
    T = cfg.n_train + cfg.n_test
    root = np.random.SeedSequence([0x5EC0, 0 if cfg.seed is None else cfg.seed])
    coord_rng, noise_rng, inject_rng = (np.random.default_rng(s) for s in root.spawn(3))

    coords = coord_rng.uniform(size=(cfg.n_sensors, 2))
    eps = _draw_errors(noise_rng, T, cfg.n_sensors, cfg.noise_sigma, cfg.error)
    clean = _simulate_clean(cfg, coords, eps)

    injected = inject_rng.random((T, cfg.n_sensors)) < cfg.injection.rate
    signs = np.where(inject_rng.random((T, cfg.n_sensors)) < 0.5, -1.0, 1.0)
    if cfg.injection.region == "test":
        injected[: cfg.n_train] = False
    bump = cfg.injection.magnitude_sigma * cfg.noise_sigma
    values = clean + injected * signs * bump

    labels = label_ground_truth(
        values, coords, cfg.truth.alpha, cfg.truth.lag_depth, cfg.truth.neighborhood_size
    )
    return values, coords, ScenarioTruth(labels, injected, cfg.truth.lag_depth)


def label_ground_truth(
    values: np.ndarray,
    coords: np.ndarray,
    alpha: float,
    lag_depth: int,
    neighborhood_size: int,
) -> np.ndarray:
    """Label each (t, k), t >= lag_depth, by comparison against its local pool.

    The pool holds the previous ``lag_depth`` values at the ``neighborhood_size``
    sensors nearest by the ``(K, 2)`` ``coords`` (self included); the point is
    anomalous when it is >= the pool's upper nearest-rank quantile or <= the
    lower one.  Comparisons are
    non-strict, so a constant panel labels every point anomalous — a documented
    degenerate case.  Rows before ``lag_depth`` stay unlabeled (False).
    """
    values = np.asarray(values, dtype=np.float64)
    T, K = values.shape
    if lag_depth < 1:
        raise ValueError(f"lag depth must be >= 1, got {lag_depth}")
    if T <= lag_depth:
        raise ValueError(f"panel length {T} leaves no labelable rows at lag depth {lag_depth}")
    neighbors = neighbor_sets(coords, neighborhood_size)
    pool_size = lag_depth * neighborhood_size
    hi_idx = nearest_rank_index(1.0 - alpha, pool_size)
    lo_idx = nearest_rank_index(alpha, pool_size)

    labels = np.zeros((T, K), dtype=bool)
    for k in range(K):
        series = values[:, neighbors[k]]  # (T, nb)
        windows = np.lib.stride_tricks.sliding_window_view(series, lag_depth, axis=0)
        pools = windows[: T - lag_depth].reshape(T - lag_depth, pool_size)
        pools = np.sort(pools, axis=1)
        v = values[lag_depth:, k]
        labels[lag_depth:, k] = (v >= pools[:, hi_idx]) | (v <= pools[:, lo_idx])
    return labels


def _masked_per_column(rows: int, n_sensors: int, fraction: float) -> int:
    """Cells ``inject_missing`` masks in each of ``n_sensors`` columns of ``rows`` cells.

    Refused unless every column keeps 2 observed cells and the observed cells
    are enough to leave one in every row.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"missing fraction must be in [0, 1), got {fraction}")
    n_mask = int(round(fraction * rows))
    if rows - n_mask < 2:
        raise ValueError(
            f"masking {n_mask} of {rows} training rows leaves fewer than 2 observed per column"
        )
    if n_mask and n_sensors * (rows - n_mask) < rows:
        raise ValueError(f"{n_sensors} columns of {rows - n_mask} cells cannot cover every row")
    return n_mask


def inject_missing(values: np.ndarray, fraction: float, seed: int) -> np.ndarray:
    """A copy of the complete panel ``values`` with round(fraction * T) cells per column set to NaN.

    Each column's cells are drawn uniformly and independently, so distinct
    columns almost surely lose different time sets.  A row the draws leave
    fully missing swaps one cell, within its column, with an observed cell of
    a row that keeps another, so per-column counts stay exact.
    """
    values = as_panel(values)
    rows, n_sensors = values.shape
    n_mask = _masked_per_column(rows, n_sensors, fraction)
    rng = np.random.default_rng(seed)
    observed = ~np.isnan(values)
    for k in range(n_sensors):
        observed[rng.choice(rows, size=n_mask, replace=False), k] = False
    for r in np.flatnonzero(~observed.any(axis=1)):
        # observed cells of rows with >= 2 of them, in columns where row r had a value
        donors = np.argwhere(observed & (observed.sum(axis=1) >= 2)[:, None] & ~np.isnan(values[r]))
        if donors.size == 0:
            raise ValueError(f"row {r} cannot be left an observed cell")
        s, k = donors[rng.integers(len(donors))]
        observed[s, k], observed[r, k] = False, True
    out = values.copy()
    out[~observed] = np.nan
    return out
