"""An opt-in pytest plugin that reports the lines of src/k3fm no test reaches.

Run it from the repository root:

    PYTHONPATH=src:tools python -m pytest -p linetrace

It uses the standard library only.  From before the test modules are
imported to the end of the session, sys.settrace and threading.settrace
record every line of the k3fm package that runs in this process.  A
module's lines are those of its code objects (co_lines, recursing through
co_consts), so a blank line, a comment or a docstring inside a function
never counts.  The unreached lines of each module are stored under
CACHE_KEY in pytest's cache (read them with
`python -m pytest --cache-show linetrace/unreached`), and the terminal
summary prints a count per module.

Child processes are not traced: lines that only a subprocess test reaches,
such as all of __main__.py and the BrokenPipeError branch of cli.main,
read as unreached.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path
from types import CodeType

import pytest

CACHE_KEY = "linetrace/unreached"
PACKAGE = "k3fm"


def code_lines(code: CodeType) -> set[int]:
    """The line numbers of code and of every code object in its constants."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= code_lines(const)
    return lines


def source_lines(path: Path) -> set[int]:
    """The lines of the code objects compiled from the file at path."""
    with open(path, encoding="utf-8") as source:
        return code_lines(compile(source.read(), str(path), "exec", dont_inherit=True))


class LineTrace:
    """Records the lines that run in the .py files under one directory."""

    def __init__(self, root: Path):
        self.root = Path(root).resolve()
        self.hits: dict[str, set[int]] = {}
        # One local tracer per traced file, or None for a file outside root.
        self._tracers: dict[str, object] = {}
        self._previous = (None, None)

    def _local_tracer(self, filename: str):
        if filename not in self._tracers:
            tracer = None
            path = Path(filename).resolve()
            if path.suffix == ".py" and path.is_relative_to(self.root):
                hits = self.hits.setdefault(str(path), set())

                def tracer(frame, event, arg):
                    hits.add(frame.f_lineno)
                    return tracer

            self._tracers[filename] = tracer
        return self._tracers[filename]

    def _trace(self, frame, event, arg):
        tracer = self._local_tracer(frame.f_code.co_filename)
        if tracer is not None:
            # The call event's line is the function's first line.
            tracer(frame, event, arg)
        return tracer

    def start(self) -> None:
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._trace)
        sys.settrace(self._trace)

    def stop(self) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])

    def unreached(self) -> dict[str, list[int]]:
        """Each module under root, by its path relative to root, with the
        sorted lines of its code objects that never ran."""
        found = {}
        for path in sorted(self.root.rglob("*.py")):
            missed = source_lines(path) - self.hits.get(str(path), set())
            found[path.relative_to(self.root).as_posix()] = sorted(missed)
        return found


def package_root() -> Path:
    """The directory of the k3fm package, found without importing it."""
    spec = importlib.util.find_spec(PACKAGE)
    if spec is None or not spec.submodule_search_locations:
        raise pytest.UsageError(f"linetrace: package {PACKAGE!r} is not importable")
    return Path(next(iter(spec.submodule_search_locations)))


_trace: LineTrace | None = None


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # The earliest hook a plugin named with -p receives: tracing starts
    # before any conftest or test module imports k3fm.
    global _trace
    _trace = LineTrace(package_root())
    _trace.start()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _trace is None:
        return
    _trace.stop()
    unreached = _trace.unreached()
    cache = getattr(config, "cache", None)  # None under -p no:cacheprovider
    if cache is not None:
        cache.set(CACHE_KEY, unreached)
    write = terminalreporter.write_line
    terminalreporter.write_sep("-", f"line trace of {PACKAGE}: unreached lines per module")
    for module, lines in unreached.items():
        write(f"{module:<16} {len(lines):>4}")
    write(f"{'total':<16} {sum(map(len, unreached.values())):>4}")
    write(
        "Child processes are not traced: __main__.py and the BrokenPipeError "
        "branch of cli.main read as unreached."
    )
    if cache is not None:
        write(f"Lines: python -m pytest --cache-show {CACHE_KEY}")
