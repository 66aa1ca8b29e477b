"""Cold-start gate: the CLI loads no code-introspection modules.

dataclasses imports inspect, which imports ast, dis and tokenize; together
with @dataclass's generated methods they cost a fresh process about a
third of a bare interpreter start.  Nothing in src/k3fm may import them,
checked statically, and each command run through the `python -m k3fm`
entry point in a fresh interpreter must end without any of them loaded.

The same runs pin which k3fm modules each command loads: the package
imports its modules on first use and cli imports a library module where a
command calls it, so a fresh process loads only what its command reads.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from k3fm.cli import _COMMANDS

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


SURFACES = ROOT / "surfaces"
REFLEXIVE = str(SURFACES / "reflexive.json")
TYPE_I = str(SURFACES / "reflexive-type-i.json")
# Every command loads these k3fm modules: the package, cli and what cli
# imports at its top.
BASE = {"k3fm", "k3fm.cli", "k3fm.errors", "k3fm.lattice", "k3fm.linalg", "k3fm.record", "k3fm.surface"}
# transform and the k3fm modules it imports beyond BASE
TRANSFORM = {"k3fm.kernel", "k3fm.mukai", "k3fm.transform"}

# (argv, exit status, the k3fm modules the run loads beyond BASE)
FRESH_RUNS = {
    "surface-validate": (["surface-validate", "--surface", REFLEXIVE], 0, set()),
    "surface-validate-reflexive": (
        ["surface-validate", "--surface", REFLEXIVE, "--reflexive"],
        0,
        {"k3fm.reflexive"},
    ),
    "chi": (["chi", "--surface", REFLEXIVE, "--class", "l+2h"], 0, set()),
    "chi-unknown-class": (["chi", "--surface", REFLEXIVE, "--class", "q"], 2, set()),
    "kernel-check": (
        ["kernel-check", "--surface", REFLEXIVE, "--a=-h", "--b", "3l+7h", "--c", "l+h", "--d", "2l+5h"],
        0,
        {"k3fm.kernel"},
    ),
    "transform-apply": (
        ["transform-apply", "--builder", "no-cohomology", "--ch", "1,0,0"],
        0,
        TRANSFORM,
    ),
    "transform-crosscheck": (["transform-crosscheck", "--builder", "no-cohomology"], 0, TRANSFORM),
    "pic1": (["pic1", "--lsq", "4"], 0, {"k3fm.pic1", *TRANSFORM}),
    "reflexive-decompose": (["reflexive-decompose", "--surface", TYPE_I], 0, {"k3fm.reflexive"}),
    "reflexive-classify": (["reflexive-classify", "--surface", TYPE_I], 0, {"k3fm.reflexive"}),
    "reflexive-kernel": (
        ["reflexive-kernel", "--variant", "nondegenerate"],
        0,
        {"k3fm.reflexive", *TRANSFORM},
    ),
    # The subparser offers --variant, whose choices reflexive defines.
    "hilb-moduli": (
        ["hilb-moduli", "--n", "2", "--flavor", "no-cohomology"],
        0,
        {"k3fm.moduli", "k3fm.reflexive", *TRANSFORM},
    ),
    "strata": (
        ["strata", "--surface", REFLEXIVE, "--l", "l", "--m", "h", "--h", "h", "--z", "5"],
        0,
        {"k3fm.moduli", "k3fm.mukai"},
    ),
    "primitive-check": (
        ["primitive-check", "--surface", REFLEXIVE, "--h", "h", "--n", "2"],
        0,
        {"k3fm.moduli", "k3fm.mukai"},
    ),
    # No command: the full parser reads every subparser's choices.
    "no-command": ([], 2, {"k3fm.moduli", "k3fm.reflexive", *TRANSFORM}),
}


def test_fresh_runs_cover_every_command():
    assert {argv[0] for argv, _, _ in FRESH_RUNS.values() if argv} == set(_COMMANDS)


@pytest.mark.parametrize("case", list(FRESH_RUNS))
def test_fresh_cli_run_loads_only_what_its_command_reads(case):
    """The command runs as `python -m k3fm` does: through __main__, with its
    arguments in sys.argv, so main(argv=None) reads them there.  It must
    load exactly its k3fm modules and no introspection module."""
    argv, status, extra = FRESH_RUNS[case]
    script = (
        "import json, runpy, sys\n"
        f"sys.argv = ['k3fm', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('k3fm', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    status = done.code\n"
        "k3fm = sorted(m for m in sys.modules if m == 'k3fm' or m.startswith('k3fm.'))\n"
        f"print(json.dumps([k3fm, sorted(set({BANNED!r}) & set(sys.modules))]))\n"
        "sys.exit(status)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("K3FM_FORMAT", None)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == status, done.stderr
    assert done.stderr == ""
    report, loaded = done.stdout.rsplit("\n", 2)[:2]
    assert json.loads(report)["ok"] is (status == 0)
    k3fm_modules, banned = json.loads(loaded)
    assert k3fm_modules == sorted(BASE | extra)
    assert banned == []
