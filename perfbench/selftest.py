"""Self-test of the output checks: each must fail on an artifact perturbed for it.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

For each workload the pipeline runs once (untimed, seed 1) and every check must pass
on its artifacts.  Then, in a copy of the artifacts each, one p-value, one
test score, one report row and one observed cell of the imputed panel are
changed, and the check that guards each must fail.  Exits 1 if any
expectation does not hold.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import read_ensemble, read_panel, run_checks, sampled_test_rows  # noqa: E402
from run import WORK, run_worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def edit_csv(path: Path, row: int, col: int, change) -> None:
    """Replace cell (row, col) of a CSV (row 0 is the first data row) with change(old text)."""
    lines = path.read_text().split("\n")
    cells = lines[row + 1].split(",")
    cells[col] = change(cells[col])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines))


def perturb_p_value(run: Path, config: dict, seed: int) -> None:
    """Move one p-value to the next possible rank; under locality, out of [0, 1]."""
    if config["detector"]["locality"]["enabled"]:
        edit_csv(run / "detections.csv", 0, 3, lambda old: repr(float(old) + 1.5))
        return
    k0 = int(run.joinpath("detections.csv").read_text().split("\n")[1].split(",")[1])
    window = int(np.count_nonzero(read_ensemble(run / "ensemble.npz")["score_sensors"] == k0))

    def next_rank(old: str) -> str:
        p = float(old)
        return repr(p + 1 / window if p + 1 / window <= 1 else p - 1 / window)

    edit_csv(run / "detections.csv", 0, 3, next_rank)


def perturb_test_score(run: Path, config: dict, seed: int) -> None:
    n_rows = len(run.joinpath("detections.csv").read_text().strip().split("\n")) - 1
    row = int(sampled_test_rows(n_rows, seed)[1])
    edit_csv(run / "detections.csv", row, 2, lambda old: repr(float(old) + 0.5))


def perturb_report_row(run: Path, config: dict, seed: int) -> None:
    edit_csv(run / "report.csv", 0, 4, lambda old: repr(float(old) + 0.01))


def perturb_observed_cell(run: Path, config: dict, seed: int) -> None:
    """Change one observed training cell of the imputed panel by one unit in the last place."""
    _, mask = read_panel(run / "train_panel.csv", config["missing_token"])
    t, k = np.argwhere(mask)[0]
    edit_csv(run / "train_panel_completed.csv", int(t), int(k), lambda old: repr(float(np.nextafter(float(old), np.inf))))


PERTURBATIONS = {
    "p_value": (perturb_p_value, "p_values"),
    "test_score": (perturb_test_score, "test_scores"),
    "report_row": (perturb_report_row, "report"),
    "observed_cell": (perturb_observed_cell, "imputation_observed_cells"),
}


SEED = 1


def selftest(name: str, seed: int) -> bool:
    config = WORKLOADS[name]
    work = WORK / "selftest" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "config.json").write_text(json.dumps(config, indent=2))
    failure = run_worker(work, seed)["failure"]
    if failure is not None:
        print(f"{name}: stage {failure['stage']} raised {failure['error']}")
        return False

    ok = True
    clean = run_checks(work / "run", config, seed)
    failing = [check for check, passed, _ in clean if not passed]
    print(f"{name} unperturbed: {'all checks pass' if not failing else 'FAILING ' + ', '.join(failing)}")
    ok &= not failing
    for label, (perturb, target) in PERTURBATIONS.items():
        copy = work / f"perturbed_{label}"
        shutil.copytree(work / "run", copy)
        perturb(copy, config, seed)
        results = {check: (passed, detail) for check, passed, detail in run_checks(copy, config, seed)}
        passed, detail = results[target]
        print(f"{name} perturbed {label}: check {target} {'PASSED (self-test fails)' if passed else 'fails as it must'}: {detail}")
        ok &= not passed
    return ok


def main() -> int:
    ok = True
    for name in WORKLOADS:
        ok &= selftest(name, SEED)
    print("self-test " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
