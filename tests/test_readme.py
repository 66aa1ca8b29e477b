"""The README's examples run as written.

Every `python -m k3fm ...` line of its sh blocks, with backslash
continuations joined, runs in-process from the repository root and must
succeed; the library example's printed line must match its comment.
"""

import io
import json
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from k3fm.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)


CLI_EXAMPLES = [
    line
    for block in blocks("sh")
    for line in re.sub(r"\s*\\\n\s*", " ", block).splitlines()
    if line.startswith("python -m k3fm ")
]


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) >= 8


@pytest.mark.parametrize("line", CLI_EXAMPLES)
def test_readme_cli_example(capsys, monkeypatch, line):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    assert main(shlex.split(line)[3:]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["ok"] is True


def test_readme_library_example():
    section = README.split("## Library example", 1)[1]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    (expected,) = re.findall(r"print\(.*\)\s+# (.*)", code)
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code, {})
    assert out.getvalue() == expected + "\n"
