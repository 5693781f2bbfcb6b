"""Make the reference figures in perfbench/README.md anew.

Usage (from the root of a checkout):

    python3 perfbench/reference.py

For every workload, one run after another, each of ``run_seconds`` from
BENCHMARK.json: untraced runs with seeds 1 to ``SEEDS`` and the default BLAS
threads, one traced run (seed 1, right after the untraced one), and untraced
runs with seeds 1 to ``SINGLE_THREAD_SEEDS`` and ``OPENBLAS_NUM_THREADS=1``
(the single-threaded baseline).  Prints markdown tables of medians and quartile spreads,
the tracing overhead (traced minus untraced ``pipeline_s``), the environment
and the result fingerprint of seed 1, and writes every run's result to
perfbench/work/reference.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, WORK  # noqa: E402
from tracing import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = 10
SINGLE_THREAD_SEEDS = 3


def bench(workload: str, seed: int, seconds: int, trace: int, env: dict | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True, env={**os.environ, **(env or {})},
    )
    lines = proc.stdout.strip().splitlines()
    info = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines if line.startswith(("environment", "fingerprint"))}
    return {"result": json.loads(lines[-1]), "environment": json.loads(info["environment"]),
            "fingerprint": json.loads(info["fingerprint"])}


def spread(values: list[float]) -> tuple[float, float]:
    """Median and the quartile distance as a share of it."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main() -> int:
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    runs: dict[str, dict] = {}
    for name in WORKLOADS:
        # the traced run follows the untraced run of the same seed, so that the
        # two share the machine's state as far as possible
        default = [bench(name, 1, seconds, 0)]
        traced = [bench(name, 1, seconds, 1)]
        default += [bench(name, s, seconds, 0) for s in range(2, SEEDS + 1)]
        single = [bench(name, s, seconds, 0, {"OPENBLAS_NUM_THREADS": "1"})
                  for s in range(1, SINGLE_THREAD_SEEDS + 1)]
        runs[name] = {"default": default, "single_thread": single, "traced": traced}
    WORK.mkdir(exist_ok=True)
    (WORK / "reference.json").write_text(json.dumps(runs, indent=1))

    for kind in ("default", "single_thread"):
        print(f"\n### End-to-end, {kind.replace('_', '-')} BLAS (median, quartile spread / median, runs)\n")
        print("| workload | " + " | ".join(f"{m} ({u})" for m, u in END_TO_END_UNITS.items()) + " | runs |")
        print("| --- |" + " --- |" * (len(END_TO_END_UNITS) + 1))
        for name, sets in runs.items():
            cells = []
            for metric in END_TO_END_UNITS:
                med, iqr = spread([r["result"]["metrics"][metric]["value"] for r in sets[kind]])
                cells.append(f"{med:.4g} ({iqr:.3f})")
            failed = sum(r["result"]["failed"] for r in sets[kind])
            correct = all(r["result"]["correct"] for r in sets[kind])
            print(f"| {name} | " + " | ".join(cells) + f" | {len(sets[kind])}, correct={correct}, failed={failed} |")

    print("\n### Per-layer (traced run, seed 1)\n")
    names = list(runs)
    print("| metric | unit | " + " | ".join(names) + " |")
    print("| --- | --- |" + " --- |" * len(names))
    for metric, unit in per_layer_units().items():
        vals = [runs[n]["traced"][0]["result"]["metrics"][metric]["value"] for n in names]
        print(f"| {metric} | {unit} | " + " | ".join(f"{v:.4g}" for v in vals) + " |")

    print("\n### Tracing overhead and fingerprint (seed 1)\n")
    print("| workload | untraced pipeline_s | traced pipeline_s | overhead | flag rate | mean F1 | detections.csv sha256 |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for name, sets in runs.items():
        untraced = sets["default"][0]["result"]["metrics"]["pipeline_s"]["value"]
        traced = sets["traced"][0]["result"]["metrics"]["traced.pipeline_s"]["value"]
        fp = sets["default"][0]["fingerprint"]
        print(f"| {name} | {untraced:.3f} | {traced:.3f} | {traced - untraced:+.3f} s | "
              f"{fp['flag_rate']:.4f} | {fp['mean_f1']:.4f} | `{fp['detections_sha256'][:16]}` |")
    first = next(iter(runs.values()))
    print("\nenvironment (default):", json.dumps(first["default"][0]["environment"], sort_keys=True))
    print("environment (single-thread):", json.dumps(first["single_thread"][0]["environment"], sort_keys=True)
          if first["single_thread"] else "-")
    return 0


if __name__ == "__main__":
    sys.exit(main())
