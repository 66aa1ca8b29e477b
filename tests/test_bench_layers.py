"""The benchmark reaches k3fm only through names this tree still provides.

bench/tracing.py wraps every TARGETS entry by looking it up at run time, so
a renamed function would break `--trace 1`; the workloads read `k3fm.<name>`
attributes and call `k3fm.<callable>(...)` with positional arguments and
keywords, so a removed name, keyword or positional parameter would fail the
benchmark run rather than a test.  Every bench/*.py is read as text and
parsed; nothing under bench/ is imported or written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import k3fm

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


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


def k3fm_path(node):
    """The names read after k3fm in `k3fm.x.y` or `self.k3fm.x.y`, else ()."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.reverse()
    if isinstance(node, ast.Name) and node.id == "k3fm":
        return tuple(parts)
    if parts[:1] == ["k3fm"]:
        return tuple(parts[1:])
    return ()


def lookup(path):
    """The object k3fm.<path> names, importing submodules as `import` would;
    None where a name does not resolve."""
    owner = k3fm
    for part in path:
        if not hasattr(owner, part) and inspect.ismodule(owner):
            try:
                importlib.import_module(f"{owner.__name__}.{part}")
            except ModuleNotFoundError:
                return None
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def bench_trees():
    """(file name, parsed module) for every bench/*.py."""
    for source in sorted(BENCH.glob("*.py")):
        yield source.name, ast.parse(source.read_text(), filename=str(source))


def bench_uses():
    """(where, path, keywords) for every k3fm attribute read in bench/*.py;
    keywords are those of the call the read is the callee of, if any."""
    uses = []
    for name, tree in bench_trees():
        called = {
            id(node.func): [kw.arg for kw in node.keywords if kw.arg is not None]
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        for node in ast.walk(tree):
            path = k3fm_path(node) if isinstance(node, ast.Attribute) else ()
            if path:
                uses.append((f"{name}:{node.lineno}", path, called.get(id(node), [])))
    return uses


def bench_calls():
    """(where, path, call) for every call of a k3fm callable in bench/*.py."""
    for name, tree in bench_trees():
        for node in ast.walk(tree):
            path = k3fm_path(node.func) if isinstance(node, ast.Call) else ()
            if path:
                yield f"{name}:{node.lineno}", path, node


def accepts(target, keyword):
    if target is None:
        return False
    params = inspect.signature(target).parameters.values()
    return any(
        p.kind is p.VAR_KEYWORD or (p.name == keyword and p.kind is not p.POSITIONAL_ONLY)
        for p in params
    )


def test_bench_reads_only_names_k3fm_provides():
    uses = bench_uses()
    assert uses
    assert [(where, ".".join(path)) for where, path, _ in uses if lookup(path) is None] == []


def test_bench_passes_only_keywords_k3fm_accepts():
    calls = [(where, path, kws) for where, path, kws in bench_uses() if kws]
    assert calls
    rejected = [
        (where, ".".join(path), kw)
        for where, path, kws in calls
        for kw in kws
        if not accepts(lookup(path), kw)
    ]
    assert rejected == []


def test_bench_calls_bind_to_k3fm_signatures():
    """Every k3fm.<callable>(...) call binds its count of positional
    arguments and its keywords to the callable's signature.  Calls that
    unpack *args or **kwargs are skipped, and so are exception classes,
    which have no signature."""
    checked, unbound = [], []
    for where, path, call in bench_calls():
        target = lookup(path)
        if (
            any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)
            or (inspect.isclass(target) and issubclass(target, BaseException))
        ):
            continue
        checked.append(where)
        try:
            inspect.signature(target).bind(*call.args, **{kw.arg: kw for kw in call.keywords})
        except (TypeError, ValueError) as exc:
            unbound.append((where, ".".join(path), str(exc)))
    assert checked
    assert unbound == []
