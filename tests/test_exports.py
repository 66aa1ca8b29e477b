"""Every name a module exports through __all__ resolves on that module.

The package loads each exported name from its home module on first use;
its surface is the same as when it imported every module eagerly.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import k3fm

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["k3fm"] + [
    f"k3fm.{info.name}"
    for info in pkgutil.iter_modules(k3fm.__path__)
    if not info.name.startswith("_")
]

# The package's __all__, in order, its names grouped by home module.
PACKAGE_ALL = [
    "RejectionError",
    "KernelSpec", "ValidityReport", "check_necessary_det", "check_phiO_identity",
    "check_sufficient", "normalize_twist", "vanishing_covers",
    "DivisorClass", "LatticeMismatchError", "NSLattice", "chi_line", "degree", "intersect",
    "StrataReport", "check_ample_primitive", "es_relation", "hilb_moduli_vector", "strata_chain",
    "ChernCharacter", "MukaiVector", "ch_to_mukai", "chi_sheaf", "euler_chi", "ideal_sheaf_ch",
    "line_bundle_ch", "mukai_pairing", "mukai_to_ch", "point_ch", "sign_normalized", "twist",
    "ExclusionWitness", "Pic1Solution", "brute_force_oracle", "exclusion_witness",
    "existence_test", "select_physical", "solve_constraints", "transform_from_solution",
    "Decomposition", "DecompositionError", "ReflexiveSurface", "ReflexiveViolation", "TypeReport",
    "build_kernel", "classify_type", "component_surface", "decompose_brute_force",
    "decompose_l2h", "hat_classes", "standard_spec", "transform_for", "validate_reflexive",
    "Assumption", "SurfaceSpec", "SurfaceSpecError", "load_surface_spec", "parse_class_expr",
    "surface_spec_from_dict",
    "CohTransform", "crosscheck_specialized", "euler_gram", "from_kernel", "identity_transform",
    "is_mukai_isometry", "kernel_action_vector",
    "__version__",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_all_is_pinned():
    assert k3fm.__all__ == PACKAGE_ALL
    assert set(dir(k3fm)) >= set(PACKAGE_ALL)


@pytest.mark.parametrize("name", PACKAGE_ALL[:-1])
def test_export_is_its_home_module_object(name):
    home = f"k3fm.{k3fm._EXPORTS[name]}"
    value = getattr(k3fm, name)
    assert value.__module__ == home
    assert value is getattr(importlib.import_module(home), name)
    assert vars(k3fm)[name] is value  # kept, so the next read is a dict lookup


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from k3fm import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PACKAGE_ALL)
    assert all(namespace[name] is getattr(k3fm, name) for name in PACKAGE_ALL)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'k3fm' has no attribute 'nope'$"):
        k3fm.nope
    with pytest.raises(ImportError, match="cannot import name 'nope' from 'k3fm'"):
        from k3fm import nope  # noqa: F401


def test_fresh_import_loads_no_submodule():
    script = "import sys, k3fm\nprint(sorted(m for m in sys.modules if m.startswith('k3fm.')))\n"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
