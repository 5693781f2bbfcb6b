"""The pipeline once at the paper's network scale, with each stage's wall time and memory.

300 sensors, 2 190 training hours (a quarter of a year) and 168 test hours,
seed 7, every other setting at its default: the five stages of ``run-all``
run in this one process at 1 OpenBLAS thread.  After each stage the script
prints its wall time and the process's peak resident set so far
(``ru_maxrss``, KiB on Linux), then the stage's summary::

    python scripts/paper_scale.py [--out DIR] [--max-rss-mb MB]

Without ``--out`` the artifacts go to a temporary directory, removed at the
end.  With ``--max-rss-mb`` the script exits 1 when the process peak exceeds
that bound.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

# the thread count must be set before numpy loads OpenBLAS
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ecad import cli  # noqa: E402
from ecad.config import config_from_dict, resolve_seeds  # noqa: E402

SCENARIO = {"n_sensors": 300, "n_train": 2190, "n_test": 168}
SEED = 7


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(out: Path) -> float:
    """Run the five stages into ``out``, printing one line per stage; returns the process peak in MB."""
    cfg = resolve_seeds(config_from_dict({"seed": SEED, "out_dir": str(out), "scenario": SCENARIO}))
    print(f"# {SCENARIO['n_sensors']} sensors, {SCENARIO['n_train']} + {SCENARIO['n_test']} h, seed {SEED}, "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    total = 0.0
    for stage in ("generate", "impute", "train", "detect", "evaluate"):
        start = time.perf_counter()
        summary = getattr(cli, f"{stage}_stage")(cfg)
        wall = time.perf_counter() - start
        total += wall
        details = " ".join(f"{key}={value}" for key, value in summary.items() if key != "stage")
        print(f"stage={stage} wall_s={wall:.3f} rss_mb={peak_rss_mb():.1f} {details}", flush=True)
    peak = peak_rss_mb()
    print(f"total wall_s={total:.3f} peak_rss_mb={peak:.1f}")
    return peak


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="output directory (default: a temporary one)")
    parser.add_argument("--max-rss-mb", type=float, default=None, help="fail when the process peak exceeds this")
    args = parser.parse_args()
    if args.out is None:
        with tempfile.TemporaryDirectory() as out:
            peak = run(Path(out))
    else:
        peak = run(Path(args.out))
    if args.max_rss_mb is not None and peak > args.max_rss_mb:
        print(f"process peak {peak:.1f} MB exceeds the bound of {args.max_rss_mb:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
