"""Static gate: no float ever enters the package's source.

Every module of src/k3fm is parsed with ast and may not contain a float
or complex literal, any use of the names float or complex, or an import
from math, cmath, statistics or decimal other than the integer functions
lcm, gcd and isqrt.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "k3fm"
INEXACT_MODULES = {"math", "cmath", "statistics", "decimal"}
INTEGER_FUNCTIONS = {"lcm", "gcd", "isqrt"}


def float_uses(source: str) -> list[str]:
    """Each line of source that lets a float in, with the reason."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append(f"line {node.lineno}: {type(node.value).__name__} literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            found.append(f"line {node.lineno}: use of {node.id}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in INEXACT_MODULES:
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module in INEXACT_MODULES:
            for alias in node.names:
                if alias.name not in INTEGER_FUNCTIONS:
                    found.append(f"line {node.lineno}: from {node.module} import {alias.name}")
    return found


MODULES = sorted(SOURCE.rglob("*.py"))


def test_modules_are_found():
    assert SOURCE / "linalg.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_float(path):
    assert float_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source",
    [
        "x = 0.5",
        "x = 2j",
        "x = float(y)",
        "ok = isinstance(y, complex)",
        "import math",
        "import decimal as d",
        "from math import sqrt",
        "from statistics import mean",
        "from fractions import Fraction\nfrom math import lcm, log",
    ],
)
def test_gate_flags_each_way_in(source):
    assert float_uses(source)


def test_gate_allows_integer_functions():
    assert float_uses("from math import gcd, isqrt, lcm\nx = 1 // 2") == []
