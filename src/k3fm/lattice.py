"""Exact intersection arithmetic on even lattices.

This module models the Neron-Severi lattice of a K3 surface: a free Z-module
of finite rank with an even symmetric integer Gram matrix.  Divisor classes
are integer coordinate vectors in the implied basis.  Everything is computed
in exact integer arithmetic; there are no floats anywhere in this package.

A DivisorClass built through its public constructor (and so through
NSLattice.zero, basis and cls) validates its coordinates: each through
exact_int, as many as the lattice rank.  Sums, differences, negatives and
integer multiples of valid classes on one lattice are valid by closure, so
those four operations build their result with the private DivisorClass._of
and check only that the operands share a lattice.

Geometric properties (ampleness, effectivity, vanishing of cohomology) are
never inferred from the numbers here.  They enter the package only as
declarations attached to a surface description, and the operations that need
them check their numeric necessary conditions and otherwise trust the
declarations.
"""

from __future__ import annotations

from operator import add, mul, neg, sub

from .linalg import exact_int
from .record import Record

__all__ = [
    "LatticeMismatchError",
    "NSLattice",
    "DivisorClass",
    "intersect",
    "degree",
    "chi_line",
]


class LatticeMismatchError(ValueError):
    """Raised when an operation mixes classes from incompatible lattices."""


class NSLattice(Record):
    """A free Z-module with an even symmetric bilinear form, given by its Gram matrix.

    Even means every diagonal entry is even, so every class has even
    self-intersection.  No signature or definiteness condition is imposed.
    """

    __slots__ = ("gram",)

    def __init__(self, gram: tuple[tuple[int, ...], ...]):
        rows = tuple(
            tuple(exact_int(e, f"gram entry ({i},{j})") for j, e in enumerate(row))
            for i, row in enumerate(gram)
        )
        n = len(rows)
        if n == 0:
            raise ValueError("gram matrix must have positive rank")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"gram matrix is not square: row {i} has length {len(row)}, expected {n}")
        for i in range(n):
            if rows[i][i] % 2 != 0:
                raise ValueError(
                    f"gram diagonal entry ({i},{i}) = {rows[i][i]} is odd; an even lattice is required"
                )
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"gram matrix is not symmetric at ({i},{j})")
        self._set(rows)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def zero(self) -> DivisorClass:
        return DivisorClass(self, (0,) * self.rank)

    def basis(self, i: int) -> DivisorClass:
        coords = [0] * self.rank
        coords[i] = 1
        return DivisorClass(self, coords)

    def cls(self, coords) -> DivisorClass:
        return DivisorClass(self, coords)

    def __repr__(self) -> str:
        return f"NSLattice({[list(r) for r in self.gram]})"


class DivisorClass(Record):
    """An integral divisor class: integer coordinates in a fixed NSLattice basis.

    DivisorClass(lattice, coords) validates: each coordinate is converted
    through exact_int into a new tuple, and the length must be the lattice
    rank.  x + y, x - y, -x and k * x are valid by closure and skip those
    checks (see _of); they still require x and y to share a lattice.
    """

    __slots__ = ("lattice", "coords")

    def __init__(self, lattice: NSLattice, coords: tuple[int, ...]):
        coords = tuple(exact_int(c, "divisor coordinate") for c in coords)
        if len(coords) != lattice.rank:
            raise LatticeMismatchError(
                f"coordinate vector has length {len(coords)}, lattice rank is {lattice.rank}"
            )
        # Per-field sets, not _set (see record.py): 8 calls per reflexive-sweep operation
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coords", coords)

    @staticmethod
    def _of(lattice: NSLattice, coords: tuple[int, ...]) -> DivisorClass:
        """A class from coordinates known valid: a tuple of exactly lattice.rank
        plain ints.  Only the closed operations below call it (33 per sweep op)."""
        self = object.__new__(DivisorClass)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coords", coords)
        return self

    def _require_same_lattice(self, other: DivisorClass) -> None:
        # `is` answers all 53 calls per sweep op; without it x + y takes 1.2 us, not 1.0.
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeMismatchError("classes belong to different lattices")

    def __add__(self, other: DivisorClass) -> DivisorClass:
        self._require_same_lattice(other)
        return DivisorClass._of(self.lattice, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: DivisorClass) -> DivisorClass:
        self._require_same_lattice(other)
        return DivisorClass._of(self.lattice, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> DivisorClass:
        return DivisorClass._of(self.lattice, tuple(map(neg, self.coords)))

    def __mul__(self, scalar: int) -> DivisorClass:
        if type(scalar) is not int:
            # bool is an int subclass, but True is not a scalar.
            if type(scalar) is bool or not isinstance(scalar, int):
                return NotImplemented
            scalar = int(scalar)
        return DivisorClass._of(self.lattice, tuple([scalar * a for a in self.coords]))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    @property
    def square(self) -> int:
        return intersect(self, self)

    def __repr__(self) -> str:
        return f"DivisorClass({list(self.coords)})"


def intersect(x: DivisorClass, y: DivisorClass) -> int:
    """Intersection number x.y computed from the Gram matrix."""
    x._require_same_lattice(y)
    coords = y.coords
    return sum(xi * sum(map(mul, row, coords)) for xi, row in zip(x.coords, x.lattice.gram) if xi)


def degree(x: DivisorClass, h: DivisorClass) -> int:
    """Degree of x against the polarization h, i.e. the intersection number x.h."""
    return intersect(x, h)


def chi_line(x: DivisorClass) -> int:
    """Euler characteristic of the line bundle O(x) on a K3 surface: 2 + x.x/2.

    Always an integer because the lattice is even.
    """
    return 2 + intersect(x, x) // 2
