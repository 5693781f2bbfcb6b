"""Span tracing from outside the program, and the per-layer table derived from it.

The tracer replaces public functions of the ``ecad`` modules with wrappers
that record a span (name, start, end, parent, run id) around each call.  The
spans are kept in memory and written to a JSON-lines file when the run ends.
The program's source is not touched: the wrappers are installed on the
module attributes and methods the stages look up at call time.

A span's self time is its duration minus the durations of the spans directly
inside it; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

STAGES = ("generate", "impute", "train", "detect", "evaluate")


class Tracer:
    """Records nested spans in one process; ``run_id`` names the repetition they belong to."""

    def __init__(self, run_id: int) -> None:
        # each span: [name, start, end, parent index or -1, run id, count attribute]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = run_id

    def wrap(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``measure(args, kwargs, result)`` returns a count stored on the span
        (rows, bytes, sweeps); it runs after the span has ended.
        """
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.run_id, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if measure is not None:
                span[5] = measure(args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def write(self, path: Path) -> None:
        """Append the spans to a JSON-lines file, one span per line."""
        with open(path, "a") as fh:
            for name, start, end, parent, run, count in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": run, "count": count}
                    )
                    + "\n"
                )


def install(tracer: Tracer, ecad) -> None:
    """Wrap the layer boundaries the pipeline stages call."""
    cli, ensemble, detector, imputation, backends = (
        ecad.cli,
        ecad.ensemble,
        ecad.detector,
        ecad.imputation,
        ecad.backends,
    )
    for stage in STAGES:
        tracer.wrap(cli, f"{stage}_stage", f"cli.{stage}")
    tracer.wrap(cli, "generate", "scenario.generate")
    tracer.wrap(cli, "load_panel", "panel.load", lambda a, kw, r: os.path.getsize(a[0]))
    tracer.wrap(cli, "save_panel", "panel.save")
    tracer.wrap(cli, "build_features", "panel.features", lambda a, kw, r: len(r))
    tracer.wrap(cli, "impute", "imputation.impute", lambda a, kw, r: r[1].iterations)
    tracer.wrap(imputation, "fit", "imputation.inner_fit")
    tracer.wrap(cli, "train_ensemble", "ensemble.train")
    tracer.wrap(ensemble, "fit", "backends.fit", lambda a, kw, r: len(a[2]))
    for model in (backends.RidgeModel, backends.MLPModel):
        tracer.wrap(model, "predict", "backends.predict", lambda a, kw, r: len(r))
    tracer.wrap(cli, "save_ensemble", "ensemble.save", lambda a, kw, r: os.path.getsize(a[1]))
    tracer.wrap(cli, "load_ensemble", "ensemble.load")
    tracer.wrap(
        cli, "detect_stream", "detector.detect_stream",
        lambda a, kw, r: sum(d.comparison_count for d in r),
    )
    tracer.wrap(detector, "batch_test_scores", "detector.test_scores")
    tracer.wrap(detector, "loo_prediction_matrix", "detector.loo_matrix", lambda a, kw, r: r.nbytes)
    tracer.wrap(detector, "local_window", "detector.local_window")
    tracer.wrap(cli, "evaluate_sensors", "evaluation.evaluate")


# metric -> (span name, what to take: total or self seconds, calls, or the sum of counts; unit)
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "scenario.generate_s": ("scenario.generate", "total", "s"),
    "panel.load_s": ("panel.load", "total", "s"),
    "panel.save_s": ("panel.save", "total", "s"),
    "panel.csv_bytes": ("panel.load", "count", "bytes"),
    "panel.features_s": ("panel.features", "total", "s"),
    "panel.feature_rows": ("panel.features", "count", "count"),
    "imputation.impute_s": ("imputation.impute", "total", "s"),
    "imputation.sweeps": ("imputation.impute", "count", "count"),
    "imputation.inner_fits": ("imputation.inner_fit", "calls", "count"),
    "backends.fit_s": ("backends.fit", "total", "s"),
    "backends.fit_calls": ("backends.fit", "calls", "count"),
    "backends.fit_rows": ("backends.fit", "count", "count"),
    "backends.predict_s": ("backends.predict", "total", "s"),
    "backends.predict_rows": ("backends.predict", "count", "count"),
    "ensemble.train_s": ("ensemble.train", "total", "s"),
    "ensemble.loo_scores_s": ("ensemble.train", "self", "s"),
    "ensemble.save_s": ("ensemble.save", "total", "s"),
    "ensemble.load_s": ("ensemble.load", "total", "s"),
    "ensemble.artifact_bytes": ("ensemble.save", "count", "bytes"),
    "detector.loo_matrix_s": ("detector.loo_matrix", "total", "s"),
    "detector.loo_matrix_bytes": ("detector.loo_matrix", "count", "bytes"),
    "detector.quantile_s": ("detector.test_scores", "self", "s"),
    "detector.window_loop_s": ("detector.detect_stream", "self", "s"),
    "detector.local_window_s": ("detector.local_window", "total", "s"),
    "detector.local_window_calls": ("detector.local_window", "calls", "count"),
    "detector.comparisons": ("detector.detect_stream", "count", "count"),
    "evaluation.evaluate_s": ("evaluation.evaluate", "total", "s"),
}
for _stage in STAGES:
    LAYER_METRICS[f"cli.{_stage}_s"] = (f"cli.{_stage}", "total", "s")
    LAYER_METRICS[f"cli.{_stage}_self_s"] = (f"cli.{_stage}", "self", "s")

# measured by the worker itself rather than derived from spans
EXTRA_METRICS = {"cli.detect_rss_mb": "MB", "traced.pipeline_s": "s"}


def layer_table(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one repetition's spans, summed over every call of each span."""
    durations = [end - start for _, start, end, _, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child_time[span[3]] += durations[i]
    acc: dict[str, dict[str, float]] = defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0, "count": 0})
    for i, (name, _, _, _, _, count) in enumerate(spans):
        entry = acc[name]
        entry["total"] += durations[i]
        entry["self"] += durations[i] - child_time[i]
        entry["calls"] += 1
        entry["count"] += count
    return {metric: acc[span][kind] if span in acc else 0 for metric, (span, kind, _) in LAYER_METRICS.items()}


def per_layer_units() -> dict[str, str]:
    units = {metric: unit for metric, (_, _, unit) in LAYER_METRICS.items()}
    units.update(EXTRA_METRICS)
    return units
