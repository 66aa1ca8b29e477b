"""The benchmark's tracer names each layer by an attribute path into k3fm.

bench/tracing.py wraps every TARGETS entry by looking it up at run time, so
a renamed function would break `--trace 1`.  The file is read as text and
its TARGETS literal evaluated; nothing under bench/ is imported or written.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def trace_targets():
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(name, ast.Name) and name.id == "TARGETS" for name in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} defines no TARGETS")


def resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_trace_targets_resolve_to_k3fm_callables():
    targets = trace_targets()
    assert targets
    assert all(module.split(".")[0] == "k3fm" for module, _, _ in targets)
    assert [layer for module, path, layer in targets if not resolves(module, path)] == []
