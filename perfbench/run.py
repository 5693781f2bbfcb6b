"""ecad benchmark: one workload, its end-to-end or per-layer metrics, and output checks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload large-panel --seed 1 --seconds 42 --trace 0

Steps:

1. Set-up time: start ``SETUP_PROBES`` fresh processes that each import ``ecad``
   from ``src/`` and resolve the workload config; report their median.
2. Repeat the full pipeline, each repetition in a fresh process
   (``worker.py``), as long as one more repetition of typical length still
   fits in ``--seconds``.  A fresh process per repetition is what a user's
   ``ecad run-all`` costs, allocator state and all.  With ``--trace 1`` every
   repetition wraps the layer boundaries and the run reports per-layer figures
   instead; end-to-end metrics come only from untraced runs.  After each
   untraced repetition, more fresh processes run the stages behind
   ``train_s`` (impute and train) and ``detect_points_per_s`` (detect) alone,
   until each group has been timed for ``COLD_REPEATS`` seconds in that
   repetition, so that a sub-second stage is timed over enough work.  Each
   sample is cold, as a user's ``ecad run-all``, ``ecad train`` or ``ecad
   detect`` is.  These repeats are not counted as operations; one that raises
   ends the run with an error.
3. After the timed region, check the artifacts of the last repetition with
   ``checks.py``, which does not use ``ecad``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric a median over the run's complete
repetitions.  Operations are pipeline stages, plus the stages of the
workload's fault probe (``workloads.PROBES``) after every repetition.  A
pipeline stage that raises ends the repetitions and makes ``correct`` false;
a probe stage that raises is only counted in ``failed``.  The processes run
one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import collections
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
sys.path.insert(0, str(HERE))

from tracing import STAGES, per_layer_units  # noqa: E402
from workloads import PROBES, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# stage groups sampled again after each untraced repetition, and the seconds
# each must have been timed for in that repetition
COLD_REPEATS = {("impute", "train"): 1.5, ("detect",): 1.0}
PROCESS_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_s": "s",
    "detect_points_per_s": "points/s",
    "peak_rss_mb": "MB",
}


def run_worker(work: Path, seed: int, *extra: str) -> dict:
    """Start one worker process; returns its result with ``setup_s`` and ``wall_s`` added."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--config", str(work / "config.json"),
        "--out", str(work / "run"),
        "--seed", str(seed),
        *extra,
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=PROCESS_TIMEOUT_S, check=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    result["wall_s"] = time.monotonic() - start
    return result


def end_to_end(reps: list[dict], setup: list[float]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "pipeline_s": statistics.median(r["pipeline_s"] for r in reps),
        "train_s": statistics.median(t for r in reps for t in r["samples"][("impute", "train")]),
        "detect_points_per_s": statistics.median(r["points"] / t for r in reps for t in r["samples"][("detect",)]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    units = per_layer_units()
    values = {}
    for metric in reps[0]["layers"]:
        # counts stay whole numbers; they are the same in every repetition
        median = statistics.median if units[metric] == "s" else statistics.median_low
        values[metric] = median(r["layers"][metric] for r in reps)
    values["cli.detect_rss_mb"] = statistics.median(r["detect_rss_mb"] for r in reps)
    values["traced.pipeline_s"] = statistics.median(r["pipeline_s"] for r in reps)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (ROOT / "src" / "ecad" / "__init__.py").is_file():
        print(f"no ecad sources under {ROOT / 'src'}: run from the root of an ecad checkout", file=sys.stderr)
        return 2

    config = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(config, indent=2))
    probe = []
    if args.workload in PROBES:
        (work / "probe.json").write_text(json.dumps({**PROBES[args.workload], "out_dir": str(work / "probe")}, indent=2))
        probe = ["--probe-config", str(work / "probe.json")]

    setup = [run_worker(work, args.seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]

    reps: list[dict] = []
    start = time.monotonic()
    while True:
        trace = ["--trace-file", str(work / "trace.jsonl"), "--rep", str(len(reps))] if args.trace else []
        rep_start = time.monotonic()
        rep = run_worker(work, args.seed, *trace, *probe)
        reps.append(rep)
        if rep["failure"] is not None:
            break
        if not args.trace:
            rep["samples"] = {}
            for group, min_s in COLD_REPEATS.items():
                samples = rep["samples"][group] = [sum(rep["stages"][stage] for stage in group)]
                while sum(samples) < min_s:
                    samples.append(run_worker(work, args.seed, "--stages", ",".join(group))["stages_s"])
            rep["wall_s"] = time.monotonic() - rep_start
        typical = statistics.median(r["wall_s"] for r in reps)
        if time.monotonic() - start + typical > args.seconds:
            break

    from checks import fingerprint, run_checks

    complete = [r for r in reps if r["failure"] is None]
    failures = [f for r in reps for f in (r["failure"], r.get("probe", {}).get("failure")) if f]
    attempted = sum(r["attempted"] + r.get("probe", {}).get("attempted", 0) for r in reps)
    for (stage, error), count in collections.Counter((f["stage"], f["error"]) for f in failures).items():
        print(f"failed operation ({count}x): stage {stage}: {error}")

    if reps[-1]["failure"] is None:
        checks = run_checks(work / "run", config, args.seed)
        hashes = {r["detections_sha256"] for r in reps}
        checks.append(("reruns_identical", len(hashes) == 1, f"{len(hashes)} distinct detections.csv over {len(reps)} reps"))
        print("fingerprint " + json.dumps(fingerprint(work / "run"), sort_keys=True))
    else:
        failure = reps[-1]["failure"]
        checks = [("pipeline", False, f"stage {failure['stage']} raised {failure['error']}")]

    env = reps[0]["env"]
    (work / "env.json").write_text(json.dumps(env, indent=2))
    print("environment " + json.dumps(env, sort_keys=True))
    for name, passed, detail in checks:
        print(f"check {name} {'PASS' if passed else 'FAIL'}: {detail}")

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    values = {}
    if complete:
        values = per_layer(complete) if args.trace else end_to_end(complete, setup)
    for i, r in enumerate(complete):
        stages = " ".join(f"{stage}={r['stages'][stage]:.3f}" for stage in STAGES)
        print(f"repetition {i}: pipeline={r['pipeline_s']:.3f} s ({stages}) setup={r['setup_s']:.3f} s rss={r['peak_rss_mb']:.0f} MB")
    print(f"repetitions {len(reps)}, set-up probes {len(setup)}; medians:")
    for metric in values:
        print(f"metric {metric} = {values[metric]:.6g} {units[metric]}")

    print(
        json.dumps(
            {
                "correct": all(passed for _, passed, _ in checks),
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
