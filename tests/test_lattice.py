from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from k3fm import (
    DivisorClass,
    LatticeMismatchError,
    NSLattice,
    chi_line,
    degree,
    intersect,
)
from k3fm.linalg import exact_int

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


@given(lattices(), st.data())
def test_intersect_matches_naive_product(lat, data):
    """x.y = x^T G y summed over every pair of coordinates, zero ones included."""
    coords = st.lists(st.integers(-3, 3), min_size=lat.rank, max_size=lat.rank)
    zeroed = st.lists(st.booleans(), min_size=lat.rank, max_size=lat.rank)
    x, y = (
        DivisorClass(lat, tuple(0 if z else c for c, z in zip(data.draw(coords), data.draw(zeroed))))
        for _ in range(2)
    )
    naive = sum(
        x.coords[i] * lat.gram[i][j] * y.coords[j] for i in range(lat.rank) for j in range(lat.rank)
    )
    assert intersect(x, y) == naive
    assert intersect(lat.zero(), y) == 0


def divisor_class_by_entries(lattice, coords):
    """Reference: every coordinate through exact_int, then the length check;
    the coordinates, or the error's type and text."""
    try:
        converted = tuple(exact_int(c, "divisor coordinate") for c in coords)
        if len(converted) != lattice.rank:
            raise LatticeMismatchError(
                f"coordinate vector has length {len(converted)}, lattice rank is {lattice.rank}"
            )
    except ValueError as error:
        return type(error), str(error)
    return converted


MIXED_COORDS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.integers(-3, 3).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


@given(st.lists(MIXED_COORDS, min_size=1, max_size=3), st.sampled_from((tuple, list, iter)))
@example([2, 1], list)
@example([True, 1], tuple)
@example([Fraction(2, 1), 1], tuple)
def test_divisor_class_matches_per_entry_conversion(values, container):
    """Coordinates of int, bool, integral and non-integral Fraction, as a
    tuple, a list or an iterator, of the right length or not: the class
    stores the entry-by-entry conversion, or raises its error.  A tuple of
    plain ints is stored as the same object."""
    expected = divisor_class_by_entries(REFLEXIVE, values)
    coords = container(values)
    try:
        got = DivisorClass(REFLEXIVE, coords).coords
    except ValueError as error:
        assert (type(error), str(error)) == expected
        return
    assert got == expected
    assert type(got) is tuple and all(type(x) is int for x in got)
    assert (got is coords) == (container is tuple and all(type(x) is int for x in values))


def exact_coords(cls):
    return type(cls.coords) is tuple and all(type(a) is int for a in cls.coords)


@given(lattice_with_classes(2, bound=50), st.integers(-50, 50), lattices())
def test_closed_operations_match_the_validating_constructor(data, k, other):
    """x + y, x - y, -x and k * x skip the constructor's checks but equal the
    class it builds from the textbook coordinates, in a tuple of exact ints;
    mixing lattices still raises unless the Grams are equal."""
    lat, x, y = data
    a, b = x.coords, y.coords
    expected = {
        "add": tuple(s + t for s, t in zip(a, b)),
        "sub": tuple(s - t for s, t in zip(a, b)),
        "neg": tuple(-s for s in a),
        "mul": tuple(k * s for s in a),
    }
    got = {"add": x + y, "sub": x - y, "neg": -x, "mul": k * x}
    for name, cls in got.items():
        assert cls == DivisorClass(lat, expected[name]), name
        assert exact_coords(cls) and cls.lattice is lat, name
    assert x * k == k * x
    twin = NSLattice(lat.gram)
    assert twin is not lat
    y_twin = DivisorClass(twin, b)
    assert x + y_twin == got["add"] and x - y_twin == got["sub"]
    if other.gram != lat.gram:
        z = other.zero()
        for mixed in (lambda: x + z, lambda: x - z, lambda: z + x, lambda: z - x):
            with pytest.raises(LatticeMismatchError, match="^classes belong to different lattices$"):
                mixed()


def test_scalar_multiple_of_an_int_subclass_is_exact():
    class Wide(int):
        def __mul__(self, other):
            product = int.__mul__(self, other)
            return product if product is NotImplemented else Wide(product)

        __rmul__ = __mul__

    x = DivisorClass(REFLEXIVE, (2, -3))
    for product in (Wide(3) * x, x * Wide(3)):
        assert product == DivisorClass(REFLEXIVE, (6, -9)) and exact_coords(product)
    for scalar in (True, Fraction(3), 3.0, "3"):
        with pytest.raises(TypeError):
            scalar * x
