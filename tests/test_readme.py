"""The README's code examples run as written, and its CLI section names every stage and flag."""

import contextlib
import io
import re
from pathlib import Path

from scriptweave.cli import _COMMON_FLAGS, _STAGES

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    dot = out.getvalue()
    assert dot.startswith("digraph")
    assert '"peel fruit" -> "slice fruit"' in dot


def test_cli_section_names_every_stage_and_flag():
    cli = README.read_text(encoding="utf-8").split("## CLI", 1)[1].split("\n## ", 1)[0]
    usage = {line.split()[1]: re.findall(r"--[\w-]+", line)
             for line in cli.splitlines() if line.startswith("scriptweave ")}
    table = re.findall(r"^\| `(\w+)` +\|", cli, re.M)
    assert sorted(usage) == sorted(table) == sorted(_STAGES)
    for stage, (_, _, flags) in _STAGES.items():
        assert {flag for flag, _, _ in flags} <= set(usage[stage]), stage
    for flag, _, _ in _COMMON_FLAGS:
        assert f"`{flag}`" in cli, flag
