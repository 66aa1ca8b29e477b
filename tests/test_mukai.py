from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3fm import (
    ChernCharacter,
    DivisorClass,
    MukaiVector,
    NSLattice,
    ch_to_mukai,
    chi_line,
    chi_sheaf,
    euler_chi,
    ideal_sheaf_ch,
    intersect,
    line_bundle_ch,
    mukai_pairing,
    mukai_to_ch,
    point_ch,
    sign_normalized,
    twist,
)

from k3fm.cli import _json

from helpers import characters_on, class_on, lattices

REFLEXIVE = NSLattice(((2, 0), (0, -12)))
L = DivisorClass(REFLEXIVE, (0, 1))


def test_structure_sheaf_euler_anchor():
    o = line_bundle_ch(REFLEXIVE.zero())
    assert euler_chi(o, o) == 2


def test_mukai_vector_anchor():
    v = ch_to_mukai(ChernCharacter(2, L, Fraction(-5)))
    assert (v.r, v.f, v.s) == (2, L, Fraction(-3))


def test_half_integer_t_allowed_thirds_rejected():
    ChernCharacter(1, L, Fraction(3, 2))
    with pytest.raises(ValueError, match="denominator"):
        ChernCharacter(1, L, Fraction(1, 3))
    with pytest.raises(ValueError, match="integer"):
        ChernCharacter(Fraction(1, 2), L, Fraction(0))


@given(lattices().flatmap(lambda lat: characters_on(lat)))
def test_mukai_roundtrip(c):
    assert mukai_to_ch(ch_to_mukai(c)) == c


@given(lattices().flatmap(lambda lat: st.tuples(characters_on(lat), characters_on(lat))))
def test_pairing_is_symmetric(pair):
    v, w = map(ch_to_mukai, pair)
    assert mukai_pairing(v, w) == mukai_pairing(w, v)


@st.composite
def mukai_vectors_on(draw, lattice):
    """(r, f, s) with r and s drawn wide and s half-integral half the time."""
    r = draw(st.integers(-50, 50))
    s = Fraction(draw(st.integers(-10**6, 10**6)), draw(st.sampled_from((1, 2))))
    return MukaiVector(r, draw(class_on(lattice, bound=20)), s)


@given(lattices(max_rank=6).flatmap(lambda lat: st.tuples(mukai_vectors_on(lat), mukai_vectors_on(lat))))
def test_pairing_matches_its_formula_in_fractions(pair):
    """The pairing, one Fraction over the product of the s denominators,
    equals f_v.f_w - r_v s_w - r_w s_v in Fraction arithmetic."""
    v, w = pair
    got = mukai_pairing(v, w)
    assert got == Fraction(intersect(v.f, w.f)) - v.r * w.s - w.r * v.s
    assert type(got) is Fraction
    assert type(euler_chi(mukai_to_ch(v), mukai_to_ch(w))) is Fraction


@given(lattices().flatmap(lambda lat: st.tuples(class_on(lat), class_on(lat))))
def test_euler_chi_of_line_bundles_is_riemann_roch(pair):
    a, b = pair
    assert euler_chi(line_bundle_ch(a), line_bundle_ch(b)) == chi_line(b - a)


@given(lattices().flatmap(lambda lat: st.tuples(characters_on(lat), class_on(lat))))
def test_twist_matches_line_bundle_product(pair):
    c, x = pair
    twisted = twist(c, x)
    assert twisted.r == c.r
    assert twisted.f == c.f + c.r * x
    # chi after twisting by x equals euler_chi against O(-x)
    assert chi_sheaf(twisted) == euler_chi(line_bundle_ch(-x), c)


@given(lattices().flatmap(lambda lat: st.tuples(class_on(lat), class_on(lat))))
def test_twist_of_line_bundle(pair):
    a, x = pair
    assert twist(line_bundle_ch(a), x) == line_bundle_ch(a + x)


def test_chi_sheaf_values():
    assert chi_sheaf(point_ch(REFLEXIVE)) == 1
    assert chi_sheaf(ideal_sheaf_ch(REFLEXIVE, 3)) == -1
    assert chi_sheaf(line_bundle_ch(L)) == chi_line(L)


def test_standard_class_constructors():
    assert ideal_sheaf_ch(REFLEXIVE, 2).t == -2
    with pytest.raises(ValueError, match="non-negative"):
        ideal_sheaf_ch(REFLEXIVE, -1)


def test_frac_str_canonical():
    assert _json(Fraction(3, 2)) == "3/2"
    assert _json(Fraction(-10, 4)) == "-5/2"
    assert _json(Fraction(0)) == "0/1"
    assert _json(Fraction(4, -2)) == "-2/1"


@pytest.mark.parametrize(
    "build",
    [
        lambda: ChernCharacter(True, REFLEXIVE.zero(), Fraction(0)),
        lambda: MukaiVector(False, REFLEXIVE.zero(), Fraction(0)),
        lambda: ideal_sheaf_ch(REFLEXIVE, True),
    ],
    ids=["ChernCharacter", "MukaiVector", "ideal_sheaf_ch"],
)
def test_booleans_are_not_integers(build):
    with pytest.raises(ValueError, match="integer"):
        build()


def test_sign_normalized():
    v = MukaiVector(-2, L, Fraction(3))
    w = sign_normalized(v)
    assert w == MukaiVector(2, -L, Fraction(-3))
    assert sign_normalized(w) == w
    zero_r = MukaiVector(0, -L, Fraction(1))
    assert sign_normalized(zero_r) == MukaiVector(0, L, Fraction(-1))
    zero = MukaiVector(0, 0 * L, Fraction(0))
    assert sign_normalized(zero) is zero
