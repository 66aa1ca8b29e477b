"""Per-layer tracing from outside the program.

Tracer wraps public functions and methods of k3fm and rebinds each wrapper
in every k3fm module namespace that holds the original, so a call made
through `from .lattice import intersect` in another module is traced too.
Each wrapper keeps a call count and a self time: its duration minus the
time covered by traced calls it made, taken from a stack of open spans.
k3fm itself carries no tracing code.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

# (module, attribute path, layer name); the layer name is what the metrics use.
TARGETS = (
    ("k3fm.transform", "from_kernel", "transform.from_kernel"),
    ("k3fm.transform", "kernel_action_vector", "transform.kernel_action_vector"),
    ("k3fm.transform", "is_mukai_isometry", "transform.is_mukai_isometry"),
    ("k3fm.transform", "euler_gram", "transform.euler_gram"),
    ("k3fm.transform", "CohTransform.determinant", "transform.CohTransform.determinant"),
    ("k3fm.transform", "CohTransform.inverse", "transform.CohTransform.inverse"),
    ("k3fm.transform", "CohTransform.apply_vector", "transform.CohTransform.apply_vector"),
    ("k3fm.transform", "crosscheck_specialized", "transform.crosscheck_specialized"),
    ("k3fm.lattice", "intersect", "lattice.intersect"),
    ("k3fm.lattice", "DivisorClass.__init__", "lattice.DivisorClass.new"),
    ("k3fm.mukai", "ch_to_mukai", "mukai.ch_to_mukai"),
    ("k3fm.mukai", "mukai_pairing", "mukai.mukai_pairing"),
    ("k3fm.moduli", "hilb_moduli_vector", "moduli.hilb_moduli_vector"),
    ("k3fm.kernel", "check_sufficient", "kernel.check_sufficient"),
    ("k3fm.reflexive", "validate_reflexive", "reflexive.validate_reflexive"),
    ("k3fm.reflexive", "transform_for", "reflexive.transform_for"),
    ("k3fm.reflexive", "decompose_l2h", "reflexive.decompose_l2h"),
    ("k3fm.reflexive", "classify_type", "reflexive.classify_type"),
    ("k3fm.reflexive", "decompose_brute_force", "reflexive.decompose_brute_force"),
    ("k3fm.cli", "build_parser", "cli.build_parser"),
    ("k3fm.cli", "main", "cli.main"),
    ("k3fm.surface", "load_surface_spec", "surface.load_surface_spec"),
    ("k3fm.surface", "parse_class_expr", "surface.parse_class_expr"),
    ("k3fm.pic1", "solve_constraints", "pic1.solve_constraints"),
    ("k3fm.pic1", "brute_force_oracle", "pic1.brute_force_oracle"),
)

# Measured in a fresh child before any wrapper exists; see trace_child.py.
IMPORT_LAYER = "cli.import"

LAYERS = tuple(layer for _, _, layer in TARGETS) + (IMPORT_LAYER,)


class Tracer:
    """Call counts and self times (ns) per layer, for the calls since the last take()."""

    def __init__(self):
        self.stats = {layer: [0, 0] for layer in LAYERS}
        self._open = []  # time covered by traced children, one entry per open span

    def wrap(self, layer: str, fn):
        stats = self.stats[layer]
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                children = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed - children
                if open_spans:
                    open_spans[-1] += elapsed

        return traced

    def install(self) -> None:
        """Wrap every target and rebind it wherever a k3fm module binds it.

        Targets in modules this process never imported (k3fm.cli in the
        library workloads) stay unwrapped, and their layers read 0.
        """
        modules = [m for name, m in sys.modules.items() if name == "k3fm" or name.startswith("k3fm.")]
        for module_name, path, layer in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            traced = self.wrap(layer, original)
            setattr(owner, attr, traced)
            if outer:
                continue  # a method: the class attribute is the only binding
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)

    def take(self) -> dict[str, tuple[int, int]]:
        """Counts and self times since the last call, then reset them."""
        out = {}
        for layer, stats in self.stats.items():
            out[layer] = (stats[0], stats[1])
            stats[0] = stats[1] = 0
        return out
