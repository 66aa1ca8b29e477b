"""Exact linear algebra over the integers.

Every routine that eliminates rests on one fraction-free Gauss-Jordan
elimination (Bareiss 1968; Cohen, A Course in Computational Algebraic
Number Theory, section 2.2).  After each pivot step every working entry is,
up to sign, a minor of the input (Sylvester's identity below the pivots,
Cramer's rule in the pivot rows), so each division by the previous pivot
is exact and the entries stay integers.  Quotients are taken with //,
never /, which would turn two ints into a float.

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
    "solve",
    "solve_columns",
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
# only on a miss, it costs less per lookup than an lru_cache.
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
    """The rows as int tuples, each entry through exact_int.

    A row that is already a tuple of exact ints (no bool, no subclass) is
    kept as it is, without a pass over its entries; every other row is
    converted entry by entry.
    """
    return tuple(
        row
        if type(row) is tuple and set(map(type, row)) <= {int}
        else tuple(exact_int(x, "matrix entry") for x in row)
        for row in rows
    )


def identity(n: int) -> Matrix:
    """The n x n identity, each row joined from two runs of zeros around a one."""
    return tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n))


def transpose(m) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a, b) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def scaled(v) -> tuple[list[int], int]:
    """Integer numerators of a rational vector over its common denominator."""
    v = [exact_rational(x, "vector entry") for x in v]
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def mat_vec(m, v) -> tuple[Fraction, ...]:
    """Exact product of an integer matrix and a rational vector."""
    nums, den = scaled(v)
    return fraction_vector((sum(map(mul, row, nums)) for row in m), den)


def _square_rows(m) -> list[list[int]]:
    rows = [list(row) for row in integer_matrix(m)]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix is not square")
    return rows


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of rows, in place.

    Pivots are sought in the first ncols columns; any further columns (a
    right-hand side) are carried along.  Returns the pivot columns and the
    sign of the row permutation.  Afterwards, with p the last pivot (a
    minor of the input), the carried columns of pivot row i hold p times
    row i of the solution, and every other row is zero in the first ncols
    columns.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
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
        for row in rows:
            if row is not top:
                f = row[col]
                for j in range(col, width):
                    row[j] = (p * row[j] - f * top[j]) // prev
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
    rows = [list(row) for row in integer_matrix(m)]
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[0])


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


def solve_columns(a, b) -> tuple[Matrix, Matrix, int] | None:
    """Solve a x = b for every column of b with one elimination of [a | b].

    a is an integer matrix and b a rational matrix with as many rows.
    Returns None when the columns of a are dependent.  Otherwise returns
    (x, r, d): integer matrices x and r with b's columns, and a nonzero
    int d, the last pivot times the common denominator of b.  Column j of
    b lies in the span of a's columns exactly when column j of r is zero,
    and its solution is then column j of x over d.  Both are linear in
    the columns: for a rational vector v, b v lies in the span exactly
    when r v = 0, and the solution is x v / d.  Empty or ragged input
    raises ValueError.
    """
    a, b = integer_matrix(a), tuple(map(tuple, b))
    ncols, width = len(a[0]) if a else 0, len(b[0]) if b else 0
    if (
        not ncols
        or not width
        or len(b) != len(a)
        or any(len(row) != ncols for row in a)
        or any(len(row) != width for row in b)
    ):
        raise ValueError("solve needs a non-empty rectangular matrix and right-hand side")
    nums, den = scaled([x for row in b for x in row])
    rows = [[*row, *nums[i * width : (i + 1) * width]] for i, row in enumerate(a)]
    if len(_eliminate(rows, ncols)[0]) < ncols:
        return None
    x, r = (tuple(tuple(row[ncols:]) for row in part) for part in (rows[:ncols], rows[ncols:]))
    return x, r, rows[ncols - 1][ncols - 1] * den


def solve(a, b) -> tuple[Fraction, ...] | None:
    """The rational x with a x = b, for an integer matrix a and rational b.

    The one-column case of solve_columns.  Returns None when the columns
    of a are dependent or b is not in their span.
    """
    found = solve_columns(a, [(x,) for x in b])
    if found is None:
        return None
    x, r, d = found
    if any(row[0] for row in r):
        return None
    return fraction_vector((row[0] for row in x), d)
