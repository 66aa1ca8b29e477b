"""Cold-start gate: the CLI loads no code-introspection modules.

dataclasses imports inspect, which imports ast, dis and tokenize; together
with @dataclass's generated methods they cost a fresh process about a
third of a bare interpreter start.  Nothing in src/k3fm may import them,
checked statically, and a real command in a fresh interpreter must end
without any of them loaded.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "k3fm"
BANNED = ("dataclasses", "inspect", "ast", "dis")
MODULES = sorted(SOURCE.rglob("*.py"))


def banned_imports(source: str) -> list[str]:
    """Each import of a banned module in source, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] in BANNED]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_imports_no_introspection(path):
    assert banned_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source", ["import dataclasses", "from dataclasses import dataclass", "import inspect as i", "import ast, json"]
)
def test_gate_flags_each_import(source):
    assert banned_imports(source)


def test_gate_ignores_relative_imports():
    assert banned_imports("from . import record\nfrom .ast import x") == []


def test_fresh_cli_run_loads_no_introspection():
    script = (
        "import sys, k3fm.cli\n"
        "status = k3fm.cli.main(['pic1', '--lsq', '4'])\n"
        f"print(sorted(set({BANNED!r}) & set(sys.modules)))\n"
        "sys.exit(status)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("K3FM_FORMAT", None)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    report, loaded = done.stdout.rsplit("\n", 2)[:2]
    assert json.loads(report)["ok"] is True
    assert loaded == "[]"
