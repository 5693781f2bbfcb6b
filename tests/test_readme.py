"""The README's code examples run as written."""

import json
import re
from pathlib import Path

import numpy as np

from ecad.cli import main
from ecad.config import PipelineConfig, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading ``## <section>``."""
    text = README.read_text()
    body = text[text.index(f"## {section}\n") :]
    match = re.search(r"```python\n(.*?)```", body, re.DOTALL)
    assert match is not None, f"no python block under '## {section}'"
    return match.group(1)


def test_configuration_schema_is_the_default_config():
    # the loader reads its sections from the dataclasses, so the README's schema
    # is the one hand-kept copy of them; every value it shows must be the default
    text = README.read_text()
    body = text[text.index("## Configuration\n") :]
    match = re.search(r"```jsonc\n(.*?)```", body, re.DOTALL)
    assert match is not None, "no jsonc block under '## Configuration'"
    schema = json.loads(re.sub(r"\s*//.*", "", match.group(1)))
    assert config_from_dict(schema) == PipelineConfig()


def test_quickstart_output_is_what_run_all_prints(tmp_path, capsys):
    text = README.read_text()
    body = text[text.index("## Quickstart\n") :]
    # the fenced blocks in order: the bash command, then its output, which has no language tag
    output = next(code for lang, code in re.findall(r"```(\w*)\n(.*?)```", body, re.DOTALL) if not lang)
    assert main(["run-all", "--seed", "7", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    # each line's wall time and peak RSS are measurements, which vary from run to run
    measured = re.compile(r" wall_s=\d+\.\d{3} rss_mb=\d+\.\d(?= status=ok$)", re.MULTILINE)
    assert len(measured.findall(printed)) == len(measured.findall(output)) == 5
    assert measured.sub("", printed).splitlines() == measured.sub("", output).splitlines()
    assert len(output.splitlines()) == 5


def test_library_use_example_runs():
    namespace: dict = {}
    exec(compile(_python_block("Library use"), str(README), "exec"), namespace)
    detections, flagged = namespace["detections"], namespace["flagged"]
    assert len(detections) == 200 * 8
    assert flagged == [(d.t, d.k) for d in detections if d.flagged]
    assert all(500 <= d.t < 700 for d in detections)
    blocks = namespace["blocks"]
    assert [len(block) for block in blocks] == [64 * 8, 64 * 8, 72 * 8]
    for name in ("t", "k", "test_score", "p_value", "flagged", "comparison_count"):
        assert np.array_equal(np.concatenate([getattr(b, name) for b in blocks]), getattr(detections, name)), name
