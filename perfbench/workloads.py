"""The benchmark's workloads as pipeline configs, and the fault probes that ride along.

Every setting the output checks rely on (alpha, aggregator, feature lags and
neighbours, locality) is spelled out here rather than taken from the
program's defaults, so the checks know the configuration from the benchmark's
own files.  The master seed and the output directory come from the command
line of each run.
"""

from __future__ import annotations

ALPHA = 0.05
N_LAGS = 5
NEIGHBOR_SIZE = 5
N_MODELS = 25


def _config(scenario: dict, backend: dict, aggregator: str, locality: bool) -> dict:
    return {
        "missing_token": "NA",
        "scenario": scenario,
        "backend": backend,
        "ensemble": {"n_models": N_MODELS, "aggregator": {"kind": aggregator, "trim_fraction": 0.1}},
        "features": {"n_lags": N_LAGS, "neighbor_size": NEIGHBOR_SIZE},
        "detector": {
            "alpha": ALPHA,
            "locality": {
                "enabled": locality,
                "n_lags": 5,
                "neighbor_size": 5,
                "variant": "neighbor_sensors",
            },
            "exclude_flagged_from_window": False,
        },
    }


WORKLOADS: dict[str, dict] = {
    "large-panel": _config(
        {
            "n_sensors": 40,
            "n_train": 2000,
            "n_test": 2000,
            "model": "linear_neighbor_lag",
            "injection": {"rate": 0.0},
            "missing_fraction": 0.4,
        },
        {"kind": "ridge", "ridge_lambda": 1.0},
        "mean",
        False,
    ),
    "robust-local": _config(
        {
            "n_sensors": 20,
            "n_train": 800,
            "n_test": 400,
            "model": "seasonal_nonlinear",
            "injection": {"rate": 0.4, "magnitude_sigma": 8.0, "region": "test"},
            "missing_fraction": 0.4,
            "truth": {"alpha": 0.12, "lag_depth": 5, "neighborhood_size": 4},
        },
        {"kind": "ridge", "ridge_lambda": 1.0},
        "median",
        True,
    ),
    "mlp-train": _config(
        {
            "n_sensors": 10,
            "n_train": 400,
            "n_test": 300,
            "model": "linear_neighbor_lag",
            "injection": {"rate": 0.0},
            # Not the program's default of 40%: at 40% about 4% of seeds
            # leave a training row with all 10 cells missing, and the
            # impute stage rejects it.  PROBES shows that fault.
            "missing_fraction": 0.1,
        },
        {"kind": "mlp", "mlp_hidden": [16, 16], "mlp_epochs": 40},
        "mean",
        False,
    ),
}


# A probe runs the generate and impute stages of a fixed input after every
# repetition of its workload, untimed, and its failed stages count as failed
# operations.  The input does not depend on the run's seed.  mlp-train's
# make-up at the program's default 40% missingness with master seed 22 leaves
# training row 354 fully missing, which the impute stage rejects.
PROBES: dict[str, dict] = {
    "mlp-train": {
        **WORKLOADS["mlp-train"],
        "scenario": {k: v for k, v in WORKLOADS["mlp-train"]["scenario"].items() if k != "missing_fraction"},
        "seed": 22,
    },
}
