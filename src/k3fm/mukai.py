"""Chern characters, Mukai vectors, and the Euler pairing on a K3 surface.

A Chern character is a triple (r, f, t): integer rank, divisor class f in the
Neron-Severi lattice, and rational degree-four part t whose denominator
divides 2.  The Mukai vector of (r, f, t) is (r, f, t + r); the sign and
normalization conventions used here are pinned by two anchor facts,

    euler_chi(ch(O), ch(O)) = 2          and
    mukai vector of (2, l, -5)  = (2, l, -3),

both exercised in the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import DivisorClass, NSLattice, intersect
from .linalg import exact_int, exact_rational, fraction
from .record import Record

__all__ = [
    "ChernCharacter",
    "MukaiVector",
    "ch_to_mukai",
    "mukai_to_ch",
    "mukai_pairing",
    "euler_chi",
    "chi_sheaf",
    "twist",
    "sign_normalized",
    "line_bundle_ch",
    "point_ch",
    "ideal_sheaf_ch",
]


def _half_rational(value, what: str) -> Fraction:
    q = exact_rational(value, what)
    if q.denominator not in (1, 2):
        raise ValueError(f"{what} must have denominator 1 or 2, got {q}")
    return q


class ChernCharacter(Record):
    """Exact Chern character (r, f, t) of a class on a K3 surface."""

    __slots__ = ("r", "f", "t")

    def __init__(self, r: int, f: DivisorClass, t: Fraction):
        self._set(exact_int(r, "rank"), f, _half_rational(t, "ch_2"))

    @property
    def lattice(self) -> NSLattice:
        return self.f.lattice

    def __repr__(self) -> str:
        return f"ch({self.r}, {list(self.f.coords)}, {self.t})"


class MukaiVector(Record):
    """Mukai vector (r, f, s) with s = ch_2 + r."""

    __slots__ = ("r", "f", "s")

    def __init__(self, r: int, f: DivisorClass, s: Fraction):
        self._set(exact_int(r, "rank"), f, _half_rational(s, "Mukai degree-four part"))

    def __neg__(self) -> MukaiVector:
        return MukaiVector(-self.r, -self.f, -self.s)

    def __repr__(self) -> str:
        return f"v({self.r}, {list(self.f.coords)}, {self.s})"


def ch_to_mukai(c: ChernCharacter) -> MukaiVector:
    """Multiply by the square root of the Todd class: (r, f, t) -> (r, f, t + r)."""
    return MukaiVector(c.r, c.f, c.t + c.r)


def mukai_to_ch(v: MukaiVector) -> ChernCharacter:
    return ChernCharacter(v.r, v.f, v.s - v.r)


def mukai_pairing(v: MukaiVector, w: MukaiVector) -> Fraction:
    """The Mukai pairing <v, w> = f_v.f_w - r_v s_w - r_w s_v.

    With s_v = p/q and s_w = p2/q2 it is one Fraction over q q2, whose
    numerator (f_v.f_w) q q2 - r_v p2 q - r_w p q2 is computed in int.
    """
    p, q = v.s.as_integer_ratio()
    p2, q2 = w.s.as_integer_ratio()
    num = intersect(v.f, w.f) * q * q2 - v.r * p2 * q - w.r * p * q2
    return fraction(num, q * q2)


def euler_chi(a: ChernCharacter, b: ChernCharacter) -> Fraction:
    """chi(A, B) = sum (-1)^i dim Ext^i(A, B) = -<v(A), v(B)>."""
    return -mukai_pairing(ch_to_mukai(a), ch_to_mukai(b))


def chi_sheaf(c: ChernCharacter) -> Fraction:
    """Global Euler characteristic chi(F) = 2r + ch_2 on a K3 surface."""
    return 2 * c.r + c.t


def twist(c: ChernCharacter, x: DivisorClass) -> ChernCharacter:
    """Chern character of F tensored with the line bundle O(x)."""
    new_t = c.t + intersect(c.f, x) + c.r * (intersect(x, x) // 2)
    return ChernCharacter(c.r, c.f + c.r * x, new_t)


def sign_normalized(v: MukaiVector) -> MukaiVector:
    """v or -v, whichever has its first nonzero entry of (r, f, s) positive.

    The tests' reference for the int engine in moduli.hilb_moduli_vector."""
    for entry in (v.r, *v.f.coords, v.s):
        if entry > 0:
            return v
        if entry < 0:
            return -v
    return v


# ---------------------------------------------------------------------------
# standard classes


def line_bundle_ch(l: DivisorClass) -> ChernCharacter:
    """ch of the line bundle O(l): (1, l, l.l/2)."""
    return ChernCharacter(1, l, Fraction(l.square, 2))


def point_ch(lattice: NSLattice) -> ChernCharacter:
    """ch of the structure sheaf of a point: (0, 0, 1)."""
    return ChernCharacter(0, lattice.zero(), Fraction(1))


def ideal_sheaf_ch(lattice: NSLattice, n: int) -> ChernCharacter:
    """ch of the ideal sheaf of n points: (1, 0, -n)."""
    n = exact_int(n, "number of points", low=0)
    return ChernCharacter(1, lattice.zero(), Fraction(-n))
