"""One repetition of a workload in a fresh process, as a user's ``ecad run-all`` would run.

Started by ``run.py``; prints a single JSON object on its last stdout line.
The process imports ``ecad`` from the checkout's ``src/``, resolves the
workload config, and records the monotonic clock reading at that moment (the
parent subtracts its own reading taken just before starting the process, which
gives the set-up time).  With ``--setup-only`` it stops there, and with
``--stages`` it runs only the stages named, cold, on the artifacts of the
repetition before, as ``ecad impute`` or ``ecad detect`` would.  Otherwise it
calls the public stage functions of ``ecad.cli`` in order (generate, impute,
train, detect, evaluate) and reports their wall times and the process's peak
RSS.  A stage that raises is reported with its error, and the stages after it
do not run.  With ``--probe-config`` the process then runs the generate and
impute stages of that config, untimed, and reports which of them failed.  With
``--trace-file`` the layer boundaries are wrapped by ``tracing.py`` first and
the spans are appended to that file.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import STAGES, Tracer, install, layer_table  # noqa: E402


def import_ecad():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ecad
    import ecad.cli

    if not Path(ecad.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported ecad from {ecad.__file__}, not from {src}")
    return ecad


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """Interpreter, numpy, BLAS library and thread count, and CPUs of this process."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    lib_path, threads = None, None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                lib_path, threads = path, int(getter())
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_library": os.path.basename(lib_path) if lib_path else None,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_stages(cli, cfg, stages) -> dict:
    """Run ``stages`` in order until one raises.

    Returns each stage's wall time, the RSS high-water mark after it, its
    summary, the number of stages attempted, and the failure if one raised.
    """
    run = {"times": {}, "rss_mb": {}, "summaries": {}, "attempted": 0, "failure": None}
    for stage in stages:
        run["attempted"] += 1
        t0 = time.perf_counter()
        try:
            run["summaries"][stage] = getattr(cli, f"{stage}_stage")(cfg)
        except Exception as exc:  # a failed operation is reported, not fatal
            run["failure"] = {"stage": stage, "error": f"{type(exc).__name__}: {exc}"}
            break
        run["times"][stage] = time.perf_counter() - t0
        run["rss_mb"][stage] = max_rss_mb()
    return run


def run_pipeline(cli, cfg) -> dict:
    """One full run-all, stage by stage."""
    start = time.perf_counter()
    run = run_stages(cli, cfg, STAGES)
    total = time.perf_counter() - start
    result = {"stages": run["times"], "attempted": run["attempted"], "failure": run["failure"]}
    if run["failure"] is None:
        result.update(
            pipeline_s=total,
            points=run["summaries"]["detect"]["points"],
            detect_rss_mb=run["rss_mb"]["detect"],
            detections_sha256=hashlib.sha256((cfg.out_path() / cli.ARTIFACTS["detections"]).read_bytes()).hexdigest(),
        )
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-file", default=None, help="trace this repetition, appending spans here")
    parser.add_argument("--rep", type=int, default=0, help="run id of the spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--stages", default=None, help="comma-separated stages to run alone, timed together")
    parser.add_argument("--probe-config", default=None, help="config whose generate and impute stages run after the pipeline")
    args = parser.parse_args()

    ecad = import_ecad()
    cfg = ecad.load_config(args.config, seed=args.seed, out_dir=args.out)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.stages:
        t0 = time.perf_counter()
        for stage in args.stages.split(","):
            getattr(ecad.cli, f"{stage}_stage")(cfg)
        print(json.dumps({"ready": ready, "stages_s": time.perf_counter() - t0}))
        return 0

    tracer = None
    if args.trace_file:
        tracer = Tracer(args.rep)
        install(tracer, ecad)
    result = run_pipeline(ecad.cli, cfg)
    result.update(ready=ready, peak_rss_mb=max_rss_mb(), env=environment())
    if tracer is not None:
        tracer.write(Path(args.trace_file))
        result["layers"] = layer_table(tracer.spans)
    if args.probe_config:
        probe_cfg = ecad.load_config(args.probe_config)
        probe = run_stages(ecad.cli, probe_cfg, ("generate", "impute"))
        result["probe"] = {"attempted": probe["attempted"], "failure": probe["failure"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
