"""Exact linear algebra over the integers.

Every routine that eliminates rests on one fraction-free Gauss-Jordan
elimination (Bareiss 1968; Cohen, A Course in Computational Algebraic
Number Theory, section 2.2).  Each pivot step updates every column of
every other row, so after it every working entry is, up to sign, a minor
of the input (Sylvester's identity below the pivots, Cramer's rule in the
pivot rows), each division by the previous pivot is exact and the entries
stay integers.  Quotients are taken with //, never /, which would turn two
ints into a float.  rank_factors is the one solver: m = m[:, P] w / p, with
pivots sought in every column, answers every right-hand side carried in m.

Every number a caller passes into the package goes through exact_int (an
int or an integral Fraction) or exact_rational (an int or a Fraction); both
reject bool, float, str and anything else with a ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import mul

__all__ = [
    "Matrix",
    "exact_int",
    "exact_rational",
    "fraction",
    "fraction_vector",
    "integer_matrix",
    "identity",
    "transpose",
    "mat_mul",
    "scaled",
    "mat_vec",
    "det",
    "rank",
    "inverse",
    "rank_factors",
]

Matrix = tuple[tuple[int, ...], ...]


def exact_int(value, what: str, low: int | None = None) -> int:
    """value as an int, if it is an int or an integral Fraction of at least low."""
    if type(value) is int and (low is None or value >= low):
        return value
    if (
        type(value) is not bool
        and isinstance(value, (int, Fraction))
        and value.denominator == 1
        and (low is None or value >= low)
    ):
        return int(value)
    expected = {None: "an integer", 0: "a non-negative integer"}.get(low, f"an integer >= {low}")
    raise ValueError(f"{what} must be {expected}, got {value!r}")


def exact_rational(value, what: str) -> Fraction:
    """value as a Fraction, if it is an int or a Fraction."""
    if type(value) is Fraction:
        return value
    if type(value) is not bool and isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise ValueError(f"{what} must be an integer or a Fraction, got {value!r}")


# Fractions are immutable, so one Fraction(n) serves every caller.  The
# cache holds integral values only, since fractional values are rarely
# reused, and at most _INTEGRAL_BOUND of them: it keeps the first values
# it is asked for and evicts nothing, so past the bound a value is built
# fresh.  Read through the dict's own __getitem__, which calls __missing__
# only on a miss, it costs less per lookup than an lru_cache.  It pays:
# 120 integral values take 4.5 us from it, 50 us fresh (51 calls per sweep op, seed 1),
# and bench/run.py's reflexive-sweep op_p50_ref reads 0.357 with it, 0.647
# with Fraction in its place (medians of 4 alternating pairs, 8 s runs).
_INTEGRAL_BOUND = 2048


class _IntegralCache(dict):
    __slots__ = ()

    def __missing__(self, n):
        value = Fraction(n)
        if len(self) < _INTEGRAL_BOUND:
            self[n] = value
        return value


_integral = _IntegralCache()
_integral_of = _integral.__getitem__


def fraction(n: int, den: int = 1) -> Fraction:
    """n/den as a Fraction, for an int n and a nonzero int den.

    An integral value is taken from a shared cache of Fraction(n), a
    dict that keeps the first 2048 distinct values it is asked for and
    builds any other fresh; any fractional value is built fresh.  Pass
    only int numerators, as exact_int and scaled give them: the cache
    does not tell types apart, so True would be served the Fraction of 1.
    """
    if den == 1:
        return _integral_of(n)
    if n % den:
        return Fraction(n, den)
    return _integral_of(n // den)


def fraction_vector(nums, den: int = 1) -> tuple[Fraction, ...]:
    """The Fractions n/den for the ints n in nums, each as fraction builds it."""
    if den == 1:
        return tuple(map(_integral_of, nums))
    return tuple(map(fraction, nums, repeat(den)))


def integer_matrix(rows) -> Matrix:
    """The rows as new int tuples, each entry through exact_int."""
    return tuple(tuple(exact_int(x, "matrix entry") for x in row) for row in rows)


def identity(n: int) -> Matrix:
    """The n x n identity, each row joined from two runs of zeros around a one."""
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def transpose(m) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a, b) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def scaled(v) -> tuple[list[int], int]:
    """Integer numerators of a rational vector over its common denominator.

    A vector of exact ints (no bool, no subclass) is its own numerators
    over 1, without a check per entry: the sweep's 64-point grid takes 11 us, not 360 us.
    """
    v = list(v)
    if set(map(type, v)) <= {int}:
        return v, 1
    v = [exact_rational(x, "vector entry") for x in v]
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def mat_vec(m, v) -> tuple[Fraction, ...]:
    """Exact product of an integer matrix and a rational vector."""
    nums, den = scaled(v)
    return fraction_vector((sum(map(mul, row, nums)) for row in m), den)


def _int_rows(m) -> list[list[int]]:
    """m's rows as new int lists, each entry through exact_int.

    Lists, not integer_matrix's tuples: the elimination works in place,
    and freed tuples of a length nothing else builds stay on CPython's
    tuple free list for the life of the process (as tuples, the
    crosscheck's rows left 2156 8- and 9-tuples there after 12
    reflexive-sweep rounds, about 0.5 MB of peak RSS)."""
    return [[exact_int(x, "matrix entry") for x in row] for row in m]


def _square_rows(m) -> list[list[int]]:
    """m's rows as int lists; ValueError unless m is square and not empty."""
    rows = _int_rows(m)
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square and non-empty")
    return rows


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of rows, in place.

    Pivots are sought in the first ncols columns; any further columns (a
    right-hand side) are carried along.  Each pivot step updates every
    column of every other row, those left of the pivot included, so after
    it every entry is, up to sign, a minor of the input.  Returns the
    pivot columns and the sign of the row permutation.  Afterwards, with p
    the last pivot, pivot row i is p times row i of the reduced row
    echelon form (p at its own pivot column, 0 at the others), and every
    other row is zero in the first ncols columns.
    """
    n = len(rows)
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        k = len(pivots)
        found = next((r for r in range(k, n) if rows[r][col]), None)
        if found is None:
            continue
        if found != k:
            rows[k], rows[found] = rows[found], rows[k]
            sign = -sign
        top = rows[k]
        p = top[col]
        for i, row in enumerate(rows):
            if i != k:
                f = row[col]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(col)
    return pivots, sign


def _eliminate_det(rows: list[list[int]], n: int) -> int:
    """Eliminate on the leading n x n block and return its determinant."""
    pivots, sign = _eliminate(rows, n)
    return sign * rows[n - 1][n - 1] if len(pivots) == n else 0


def det(m) -> int:
    return _eliminate_det(_square_rows(m), len(m))


def rank(m) -> int:
    """The rank of m, its number of pivots in rank_factors, which refuses
    any m that is not a non-empty rectangular integer matrix."""
    return len(rank_factors(m)[0])


def inverse(m) -> Matrix:
    """Integral inverse of a matrix of determinant +-1.

    Any other determinant raises ValueError naming it: the inverse would
    not be integral.
    """
    n = len(m)
    rows = [row + list(unit) for row, unit in zip(_square_rows(m), identity(n))]
    d = _eliminate_det(rows, n)
    if d not in (1, -1):
        raise ValueError(
            f"matrix has determinant {d}; only determinant +-1 has an integral inverse"
        )
    # Row i carries p times row i of the inverse, and p = +-1 is its own inverse.
    p = rows[n - 1][n - 1]
    return tuple(tuple(p * x for x in row[n:]) for row in rows)


def rank_factors(m) -> tuple[tuple[int, ...], list[list[int]], int]:
    """A rank factorization of m from one elimination, pivots in every column.

    m is a non-empty rectangular integer matrix, each entry through
    exact_int; anything else raises ValueError.  Returns (P, w, p): the
    pivot columns P in increasing order, the pivot rows w, one int list
    per pivot, and the last pivot p, a nonzero int (1 when m is zero), with

        m = m[:, P] w / p.

    w / p is the nonzero part of m's reduced row echelon form and the
    columns m[:, P] are independent, so m x = 0 exactly when w x = 0, and a
    column of m lies in the span of the columns left of it exactly when it
    is not a pivot.
    """
    rows = _int_rows(m)
    if not rows or not rows[0] or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("matrix must be non-empty and rectangular")
    pivots, _ = _eliminate(rows, len(rows[0]))
    p = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
    return tuple(pivots), rows[: len(pivots)], p
