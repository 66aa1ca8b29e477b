"""Exact rank-2 kernel transforms on the cohomology of K3 surfaces.

Everything is integer / Fraction arithmetic: lattices and divisor classes,
Chern characters and Mukai vectors, kernel existence checks, the induced
transform matrices with their Euler-pairing isometry test, the rank-1
constraint solver, reflexive-surface decomposition, and Hilbert-scheme
vector bookkeeping.  The command-line entry point lives in k3fm.cli.

Importing k3fm loads none of its modules.  Each public name is loaded from
its home module, listed in _EXPORTS, the first time it is read (k3fm.X,
from k3fm import X or import *), and kept here, so a process loads only the
modules it reads from: `python -m k3fm <command>` loads the package, cli
and the modules that command calls, when it calls them.
"""

import importlib

__version__ = "0.1.0"

# public name -> the k3fm module that defines it, in __all__ order
_EXPORTS = {
    "RejectionError": "errors",
    "KernelSpec": "kernel",
    "ValidityReport": "kernel",
    "check_necessary_det": "kernel",
    "check_phiO_identity": "kernel",
    "check_sufficient": "kernel",
    "normalize_twist": "kernel",
    "vanishing_covers": "kernel",
    "DivisorClass": "lattice",
    "LatticeMismatchError": "lattice",
    "NSLattice": "lattice",
    "chi_line": "lattice",
    "degree": "lattice",
    "intersect": "lattice",
    "StrataReport": "moduli",
    "check_ample_primitive": "moduli",
    "es_relation": "moduli",
    "hilb_moduli_vector": "moduli",
    "strata_chain": "moduli",
    "ChernCharacter": "mukai",
    "MukaiVector": "mukai",
    "ch_to_mukai": "mukai",
    "chi_sheaf": "mukai",
    "euler_chi": "mukai",
    "ideal_sheaf_ch": "mukai",
    "line_bundle_ch": "mukai",
    "mukai_pairing": "mukai",
    "mukai_to_ch": "mukai",
    "point_ch": "mukai",
    "sign_normalized": "mukai",
    "twist": "mukai",
    "ExclusionWitness": "pic1",
    "Pic1Solution": "pic1",
    "brute_force_oracle": "pic1",
    "exclusion_witness": "pic1",
    "existence_test": "pic1",
    "select_physical": "pic1",
    "solve_constraints": "pic1",
    "transform_from_solution": "pic1",
    "Decomposition": "reflexive",
    "DecompositionError": "reflexive",
    "ReflexiveSurface": "reflexive",
    "ReflexiveViolation": "reflexive",
    "TypeReport": "reflexive",
    "build_kernel": "reflexive",
    "classify_type": "reflexive",
    "component_surface": "reflexive",
    "decompose_brute_force": "reflexive",
    "decompose_l2h": "reflexive",
    "hat_classes": "reflexive",
    "standard_spec": "reflexive",
    "transform_for": "reflexive",
    "validate_reflexive": "reflexive",
    "Assumption": "surface",
    "SurfaceSpec": "surface",
    "SurfaceSpecError": "surface",
    "load_surface_spec": "surface",
    "parse_class_expr": "surface",
    "surface_spec_from_dict": "surface",
    "CohTransform": "transform",
    "crosscheck_specialized": "transform",
    "euler_gram": "transform",
    "from_kernel": "transform",
    "identity_transform": "transform",
    "is_mukai_isometry": "transform",
    "kernel_action_vector": "transform",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    """Import name's home module and keep name here (PEP 562)."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
