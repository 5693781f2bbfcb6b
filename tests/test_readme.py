"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(section: str) -> str:
    """The first ```python block under the README heading ``## <section>``."""
    text = README.read_text()
    body = text[text.index(f"## {section}\n") :]
    match = re.search(r"```python\n(.*?)```", body, re.DOTALL)
    assert match is not None, f"no python block under '## {section}'"
    return match.group(1)


def test_library_use_example_runs():
    namespace: dict = {}
    exec(compile(_python_block("Library use"), str(README), "exec"), namespace)
    detections, flagged = namespace["detections"], namespace["flagged"]
    assert len(detections) == 200 * 8
    assert flagged == [(d.t, d.k) for d in detections if d.flagged]
    assert all(500 <= d.t < 700 for d in detections)
