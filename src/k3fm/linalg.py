"""Exact linear algebra over the integers.

Every routine that eliminates rests on one fraction-free Gauss-Jordan
elimination (Bareiss 1968; Cohen, A Course in Computational Algebraic
Number Theory, section 2.2).  After each pivot step every working entry is,
up to sign, a minor of the input (Sylvester's identity below the pivots,
Cramer's rule in the pivot rows), so each division by the previous pivot
is exact and the entries stay integers.  Quotients are taken with //,
never /, which would turn two ints into a float.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

__all__ = [
    "Matrix",
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
]

Matrix = tuple[tuple[int, ...], ...]


def _integer(x) -> int:
    if type(x) is int:
        return x
    q = Fraction(x)
    if q.denominator != 1:
        raise ValueError(f"matrix entry {q} is not an integer")
    return q.numerator


def integer_matrix(rows) -> Matrix:
    """The rows as int tuples; integral Fractions convert, others raise ValueError."""
    return tuple(tuple(_integer(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m) -> Matrix:
    return tuple(zip(*m))


def mat_mul(a, b) -> Matrix:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def scaled(v) -> tuple[list[int], int]:
    """Integer numerators of a rational vector over its common denominator."""
    v = [Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def mat_vec(m, v) -> tuple[Fraction, ...]:
    """Exact product of an integer matrix and a rational vector."""
    nums, den = scaled(v)
    return tuple(Fraction(sum(map(mul, row, nums)), den) for row in m)


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


def solve(a, b) -> tuple[Fraction, ...] | None:
    """The rational x with a x = b, for an integer matrix a and rational b.

    Returns None when the columns of a are dependent or b is not in their
    span.
    """
    nums, den = scaled(b)
    ncols = len(a[0])
    rows = [list(row) + [x] for row, x in zip(integer_matrix(a), nums)]
    pivots, _ = _eliminate(rows, ncols)
    if len(pivots) < ncols or any(row[ncols] for row in rows[ncols:]):
        return None
    p = rows[ncols - 1][ncols - 1]
    return tuple(Fraction(row[ncols], p * den) for row in rows[:ncols])
