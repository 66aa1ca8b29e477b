"""The opt-in line trace plugin, tools/linetrace.py, on a fixture module."""

import importlib.util
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linetrace = load("linetrace_under_test", ROOT / "tools" / "linetrace.py")

FIXTURE = '''\
"""A fixture with one branch that runs and one that does not."""


def sign(x):
    # A comment is no line of code.
    if x >= 0:
        return 1
    return -1
'''


def test_line_trace_reports_the_branch_that_does_not_run(tmp_path):
    (tmp_path / "fixture.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "never.py").write_text("X = 1\n")
    lines = linetrace.source_lines(tmp_path / "fixture.py")
    # The function body's lines come from the nested code object.
    assert {6, 7, 8} <= lines and not {2, 3, 5} & lines
    before = sys.gettrace(), threading.gettrace()
    trace = linetrace.LineTrace(tmp_path)
    trace.start()
    try:
        module = load("linetrace_fixture", tmp_path / "fixture.py")
        assert module.sign(3) == 1
    finally:
        trace.stop()
    assert (sys.gettrace(), threading.gettrace()) == before
    assert trace.unreached() == {"fixture.py": [8], "sub/never.py": [1]}
