"""The README's python examples run as written, and its shell examples of
the CLI parse."""

import re
import shlex
from pathlib import Path

from cnflearn.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
FENCES = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
SH_FENCES = re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)


def test_every_python_fence_runs_on_its_own():
    assert len(FENCES) >= 2
    for i, code in enumerate(FENCES):
        # each fence gets a fresh namespace, so none leans on another
        exec(compile(code, f"README.md python fence {i}", "exec"), {})


def test_every_cli_command_in_a_sh_fence_parses():
    lines = "\n".join(SH_FENCES).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("cnflearn ")]
    assert len(commands) >= 5
    for argv in commands:
        build_parser().parse_args(argv[1:])
