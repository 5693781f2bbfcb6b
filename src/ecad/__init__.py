"""Ensemble conformal anomaly detection for spatio-temporal sensor panels.

The pipeline: generate or ingest an hourly value panel with per-sensor
missingness, impute it column by column, fit a bootstrap ensemble whose
leave-one-out residuals form the initial anomaly score set, then detect
anomalies online by ranking each test score against a sliding window of past
scores, and finally evaluate per-sensor precision/recall/F1 against ground
truth.
"""

from .backends import BackendSpec, MLPModel, RidgeModel, fit
from .config import (
    DetectorConfig,
    EnsembleConfig,
    FeatureConfig,
    PipelineConfig,
    load_config,
)
from .detector import (
    Detection,
    LocalityConfig,
    ScoreStore,
    detect_stream,
    local_window,
)
from .ensemble import (
    AggregatorSpec,
    BootstrapPlan,
    Ensemble,
    load_ensemble,
    loo_aggregate,
    save_ensemble,
    train_ensemble,
)
from .evaluation import evaluate_sensors, rguess_expected_f1
from .imputation import ImputeReport, impute
from .panel import (
    build_features,
    load_panel,
    load_sensors,
    neighbor_sets,
    save_panel,
    save_sensors,
    time_blocks,
)
from .scenario import (
    ErrorSpec,
    InjectionSpec,
    ScenarioConfig,
    ScenarioTruth,
    TruthSpec,
    generate,
    inject_missing,
    label_ground_truth,
)

__version__ = "0.1.0"
