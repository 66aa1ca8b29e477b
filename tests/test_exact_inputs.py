"""Every boundary that takes a caller's number applies one rule.

An integer slot takes an int or an integral Fraction; a rational slot takes
an int or a Fraction.  bool, float and str are rejected at both with a
ValueError that shows the value received.
"""

import re
from fractions import Fraction

import pytest

from k3fm import (
    ChernCharacter,
    CohTransform,
    DivisorClass,
    LatticeMismatchError,
    MukaiVector,
    NSLattice,
    Pic1Solution,
    brute_force_oracle,
    check_ample_primitive,
    es_relation,
    existence_test,
    extension_ch,
    hilb_moduli_vector,
    identity_transform,
    ideal_sheaf_ch,
    kernel_action_vector,
    mukai_pairing,
    solve_constraints,
    standard_spec,
    strata_chain,
    transform_for,
    twisted_ideal_ch,
    validate_reflexive,
)
from k3fm import linalg

SPEC = standard_spec()
LATTICE = SPEC.lattice
H, L = SPEC.cls("h"), SPEC.cls("l")
NONDEG = transform_for(validate_reflexive(SPEC), "nondegenerate")
KERNEL = NONDEG.kernel
ROWS = identity_transform(LATTICE).matrix[1:]

# (boundary, call with the value in the slot, a good int, slot is rational)
BOUNDARIES = [
    ("NSLattice gram", lambda v: NSLattice(((2, v), (v, -2))), 1, False),
    ("DivisorClass coords", lambda v: DivisorClass(LATTICE, (v, 0)), 1, False),
    ("CohTransform matrix", lambda v: CohTransform(LATTICE, LATTICE, ((v, 0, 0, 0), *ROWS)), 1, False),
    ("mat_vec", lambda v: linalg.mat_vec(((1, 2),), (v, 0)), 1, True),
    ("apply_vector", lambda v: NONDEG.apply_vector((v, 0, 0, 0)), 1, True),
    ("kernel_action_vector", lambda v: kernel_action_vector(KERNEL, (0, v, 0, 0)), 1, True),
    ("ChernCharacter r", lambda v: ChernCharacter(v, H, Fraction(0)), 1, False),
    ("ChernCharacter t", lambda v: ChernCharacter(1, H, v), 1, True),
    ("MukaiVector r", lambda v: MukaiVector(v, H, Fraction(0)), 1, False),
    ("MukaiVector s", lambda v: MukaiVector(1, H, v), 1, True),
    ("ideal_sheaf_ch n", lambda v: ideal_sheaf_ch(LATTICE, v), 1, False),
    ("twisted_ideal_ch n", lambda v: twisted_ideal_ch(L, v), 1, False),
    ("extension_ch n", lambda v: extension_ch(H, L, v), 1, False),
    ("es_relation", es_relation, 4, False),
    ("strata_chain z", lambda v: strata_chain(L, H, H, v, surface=SPEC), 1, False),
    ("strata_chain a", lambda v: strata_chain(L, H, H, 1, surface=SPEC, a=v), 1, True),
    ("check_ample_primitive", lambda v: check_ample_primitive(2 * H, v, H, surface=SPEC), 2, False),
    ("hilb_moduli_vector n", lambda v: hilb_moduli_vector(NONDEG, v, "reflexive"), 1, False),
    ("existence_test", existence_test, 12, False),
    ("solve_constraints", solve_constraints, 1, False),
    ("brute_force_oracle n", lambda v: brute_force_oracle(v, 30), 1, False),
    ("brute_force_oracle bound", lambda v: brute_force_oracle(0, v), 8, False),
    ("Pic1Solution n", lambda v: Pic1Solution(v, -1, 1, -2, 1), 0, False),
    ("Pic1Solution c", lambda v: Pic1Solution(0, v, 1, -2, 1), -1, False),
]


def bad_values(good, rational):
    values = [True, float(good), str(good)]
    return values if rational else values + [Fraction(1, 2)]


@pytest.mark.parametrize(
    "call, good, rational", [row[1:] for row in BOUNDARIES], ids=[row[0] for row in BOUNDARIES]
)
def test_boundary_applies_the_rule(call, good, rational):
    for bad in bad_values(good, rational):
        with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
            call(bad)
    assert call(Fraction(good)) == call(good)
    if rational:
        call(Fraction(1, 2))


def test_exact_int_messages_and_types():
    assert type(linalg.exact_int(Fraction(4, 2), "x")) is int
    with pytest.raises(ValueError, match=r"^x must be an integer, got 1\.5$"):
        linalg.exact_int(1.5, "x")
    with pytest.raises(ValueError, match=r"^x must be a non-negative integer, got -1$"):
        linalg.exact_int(-1, "x", low=0)
    with pytest.raises(ValueError, match=r"^x must be an integer >= 2, got 1$"):
        linalg.exact_int(1, "x", low=2)
    assert linalg.exact_rational(3, "x") == Fraction(3)
    with pytest.raises(ValueError, match=r"^x must be an integer or a Fraction, got False$"):
        linalg.exact_rational(False, "x")


def test_bool_scalar_is_not_a_multiplier():
    with pytest.raises(TypeError):
        True * H
    with pytest.raises(TypeError):
        H * False


def test_mukai_pairing_rejects_mixed_lattices():
    other = NSLattice(((2,),))
    with pytest.raises(LatticeMismatchError):
        mukai_pairing(MukaiVector(1, H, 0), MukaiVector(1, other.zero(), 0))
