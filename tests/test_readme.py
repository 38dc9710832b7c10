"""The README's python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
FENCES = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_every_python_fence_runs_on_its_own():
    assert len(FENCES) >= 2
    for i, code in enumerate(FENCES):
        # each fence gets a fresh namespace, so none leans on another
        exec(compile(code, f"README.md python fence {i}", "exec"), {})
