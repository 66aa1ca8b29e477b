import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3fm import (
    DivisorClass,
    LatticeMismatchError,
    NSLattice,
    chi_line,
    degree,
    intersect,
)

from helpers import lattice_with_classes, lattices

REFLEXIVE = NSLattice(((2, 0), (0, -12)))


def test_rejects_empty_gram():
    with pytest.raises(ValueError, match="positive rank"):
        NSLattice(())


def test_rejects_non_square_gram():
    with pytest.raises(ValueError, match="not square"):
        NSLattice(((2, 0), (0,)))


def test_rejects_asymmetric_gram():
    with pytest.raises(ValueError, match="not symmetric"):
        NSLattice(((2, 1), (0, -2)))


def test_rejects_odd_diagonal():
    with pytest.raises(ValueError, match="odd"):
        NSLattice(((1, 0), (0, -2)))


def test_rejects_non_integer_entries():
    with pytest.raises(ValueError, match="integer"):
        NSLattice(((2.0, 0), (0, -2)))


def test_rejects_booleans_as_integers():
    with pytest.raises(ValueError, match="gram entry .* must be an integer, got False"):
        NSLattice(((2, False), (False, -2)))
    with pytest.raises(ValueError, match="divisor coordinate must be an integer, got True"):
        DivisorClass(NSLattice(((2,),)), (True,))


def test_class_length_must_match_rank():
    with pytest.raises(LatticeMismatchError):
        DivisorClass(REFLEXIVE, (1, 0, 0))


def test_classes_on_different_lattices_do_not_mix():
    other = NSLattice(((2,),))
    with pytest.raises(LatticeMismatchError):
        intersect(DivisorClass(REFLEXIVE, (1, 0)), DivisorClass(other, (1,)))


def test_basis_and_zero():
    assert REFLEXIVE.basis(0).coords == (1, 0)
    assert REFLEXIVE.zero().is_zero
    assert REFLEXIVE.cls([2, 1]).coords == (2, 1)


@given(lattice_with_classes(2))
def test_intersection_is_symmetric(data):
    _, x, y = data
    assert intersect(x, y) == intersect(y, x)


@given(lattice_with_classes(3), st.integers(-4, 4))
def test_intersection_is_bilinear(data, k):
    _, x, y, z = data
    assert intersect(x + y, z) == intersect(x, z) + intersect(y, z)
    assert intersect(k * x, z) == k * intersect(x, z)


@given(lattice_with_classes(1))
def test_squares_are_even(data):
    _, x = data
    assert x.square % 2 == 0


@given(lattice_with_classes(2))
def test_class_arithmetic(data):
    _, x, y = data
    assert (x + y) - y == x
    assert -(-x) == x
    assert 2 * x == x + x
    assert 0 * x == x.lattice.zero()


@given(lattices())
def test_chi_of_trivial_class_is_two(lat):
    assert chi_line(lat.zero()) == 2


def test_chi_line_anchor_values():
    h = DivisorClass(REFLEXIVE, (1, 0))
    l = DivisorClass(REFLEXIVE, (0, 1))
    assert chi_line(h) == 3
    assert chi_line(l) == -4
    assert chi_line(l + 2 * h) == 0


@given(lattice_with_classes(2))
def test_chi_line_matches_square_formula(data):
    _, x, y = data
    assert chi_line(x) == 2 + x.square // 2
    # chi(x+y) - chi(x) - chi(y) + 2 == x.y, the polarization identity
    assert chi_line(x + y) - chi_line(x) - chi_line(y) + 2 == intersect(x, y)


@given(lattice_with_classes(2))
def test_degree_is_intersection(data):
    _, x, h = data
    assert degree(x, h) == intersect(x, h)
