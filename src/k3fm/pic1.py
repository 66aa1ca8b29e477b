"""Rank-2 transforms over a rank-1 ample lattice: existence and solver.

Existence requires the generator's square to be 4 mod 8; writing it as
4(2n+1) fixes z = 2n+3 and the transform matrix in scalar coordinates
(r, coefficient of the generator, ch2) is

    [[z,     -lsq,   2  ],
     [c,      x,    -1  ],
     [alpha,  y*lsq, z-4]]

subject to four integer constraints: the matrix sends (2, 1, z-4) to
(0, 0, 1) (rows two and three; row one is an identity), the self-pairing
of the image of the trivial class is preserved (eq_oo below), and the
rank of the round trip of the trivial class is 1.  Exactly two integral
solutions exist.  A Pic1Solution is its five unknowns n, c, x, alpha and
y, checked by these four residuals alone; lsq, z, the matrix and its
determinant are derived from them.  solve_constraints derives both
closed-form solutions; brute_force_oracle re-finds them by scanning c and
solving the remaining unknowns exactly, then checking every constraint,
so the oracle shares no closed-form algebra with the solver.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import NSLattice
from .linalg import det, exact_int
from .record import Record
from .transform import CohTransform

__all__ = [
    "Pic1Solution",
    "ExclusionWitness",
    "existence_test",
    "residuals",
    "solve_constraints",
    "select_physical",
    "exclusion_witness",
    "brute_force_oracle",
    "transform_from_solution",
]


class Pic1Solution(Record):
    """One integer solution of the rank-1 constraint system: its five unknowns.

    Pic1Solution(n, c, x, alpha, y) takes each unknown as an exact integer,
    n non-negative so that lsq = 4(2n+1) is positive, and is checked by the
    four constraint residuals alone; lsq, z, the matrix and its determinant
    are derived from the unknowns, once, and are fields only so that
    reports show them, in the order of __slots__.  The closed forms follow,
    as z = 2n+3 is never 2: row2 gives x, then oo and rank_rt give
    (z-2)((z+2c)^2 - 1) = 0, fixing alpha and y; rows two and three of the
    residuals are the image of (2, 1, z-4).
    """

    __slots__ = ("n", "lsq", "z", "c", "x", "alpha", "y", "matrix", "det")

    def __init__(self, n: int, c: int, x: int, alpha: int, y: int):
        n = exact_int(n, "n", low=0)
        c, x, alpha, y = map(exact_int, (c, x, alpha, y), ("c", "x", "alpha", "y"))
        if any(residuals(n, c, x, alpha, y)):
            raise ValueError("constraint residuals do not vanish")
        lsq, z = 4 * (2 * n + 1), 2 * n + 3
        matrix = ((z, -lsq, 2), (c, x, -1), (alpha, y * lsq, z - 4))
        self._set(n, lsq, z, c, x, alpha, y, matrix, det(matrix))


class ExclusionWitness(Record):
    """Slope obstruction against the determinant -1 solution.

    The excluded transform would force a locally-free object of slope
    (n+2)/(2n+3) * lsq sitting inside objects of slope lsq/2, violating
    stability of exceptional bundles over a rank-1 Picard lattice.
    """

    __slots__ = ("slope", "threshold", "excluded")

    def __init__(self, slope: Fraction, threshold: Fraction, excluded: bool):
        self._set(slope, threshold, excluded)


def existence_test(lsq: int) -> int | None:
    """n with lsq = 4(2n+1) when lsq is 4 mod 8, else None.

    The generator of a rank-1 ample even lattice has positive even square;
    anything else is an input error, not a negative answer.
    """
    lsq = exact_int(lsq, "lsq")
    if lsq <= 0 or lsq % 2 != 0:
        raise ValueError(f"lsq must be a positive even integer, got {lsq}")
    if lsq % 8 != 4:
        return None
    return (lsq - 4) // 8


def residuals(n: int, c: int, x: int, alpha: int, y: int):
    """The four constraint residuals; all zero exactly at a solution."""
    lsq = 4 * (2 * n + 1)
    z = 2 * n + 3
    row2 = 2 * c + x - (z - 4)
    row3 = 2 * alpha + y * lsq + (z - 4) ** 2 - 1
    oo = 2 * z * alpha - 4 * c * c * (z - 2) + 2 * z * z - 2
    rank_rt = 2 * alpha + 4 * c * (z - 2) + z * (z - 4) + 4 * z - 1
    return (row2, row3, oo, rank_rt)


def _closed_form(n: int, c: int) -> Pic1Solution:
    """x = z-4-2c, alpha = 2c(2+c) and y = c+2, with z = 2n+3."""
    return Pic1Solution(n, c, 2 * n - 1 - 2 * c, 2 * c * (2 + c), c + 2)


def solve_constraints(n: int) -> tuple[Pic1Solution, Pic1Solution]:
    """Both closed-form solutions, c = -n-1 first, then c = -n-2."""
    n = exact_int(n, "n", low=0)
    return (_closed_form(n, -n - 1), _closed_form(n, -n - 2))


def select_physical(pair: tuple[Pic1Solution, Pic1Solution]) -> Pic1Solution:
    """The determinant +1 solution; the other is excluded by stability."""
    for sol in pair:
        if sol.det == 1:
            return sol
    raise ValueError("no determinant +1 solution in the pair")


def exclusion_witness(pair: tuple[Pic1Solution, Pic1Solution]) -> ExclusionWitness:
    """Rational slope witness excluding the determinant -1 solution."""
    n = pair[0].n
    lsq = pair[0].lsq
    slope = Fraction(n + 2, 2 * n + 3) * lsq
    threshold = Fraction(lsq, 2)
    return ExclusionWitness(slope=slope, threshold=threshold, excluded=slope > threshold)


# The largest bound brute_force_oracle scans: 2 * 10^6 + 1 values of c.
MAX_ORACLE_BOUND = 10**6


def brute_force_oracle(n: int, bound: int) -> list[Pic1Solution]:
    """Independent search for all constraint solutions.

    Scans c over [-bound, bound] (descending, matching solve_constraints
    order) and, for each c, derives x linearly, alpha by exact division
    from the pairing constraint and y by exact division from the third
    image row, discarding candidates with non-integral alpha or |x| above
    the bound; every surviving candidate is re-checked against all four
    residuals.  alpha and y are derived rather than scanned because they
    grow quadratically in n while the interesting range of c and x is
    linear; the derivation is exact, so no solution with |c|, |x| within
    the bound can be missed.  A bound below 4n + 8 is inconclusive and one
    above MAX_ORACLE_BOUND too long to scan: both are ValueErrors.

    y = num_y / lsq with num_y = 1 - (z-4)^2 - 2 alpha is integral whenever
    alpha is.  With w = z - 2 = 2n+1, z num_y = w(-w^2 + 4w + 13 - 4c^2).
    w is odd, so gcd(w, z) = 1 and w divides num_y; w^2 = 1 mod 8 makes
    the bracket 0 mod 4, and z is odd, so 4 divides num_y.  Hence
    lsq = 4w divides num_y.
    """
    n = exact_int(n, "n", low=0)
    bound = exact_int(bound, "bound")
    if bound < 4 * n + 8:
        raise ValueError(
            f"bound {bound} is inconclusive for n = {n}; need at least {4 * n + 8}"
        )
    if bound > MAX_ORACLE_BOUND:
        raise ValueError(f"bound {bound} is more than the {MAX_ORACLE_BOUND} allowed")
    lsq = 4 * (2 * n + 1)
    z = 2 * n + 3
    found = []
    for c in range(bound, -bound - 1, -1):
        x = z - 4 - 2 * c
        if abs(x) > bound:
            continue
        num_alpha = 2 - 2 * z * z + 4 * c * c * (z - 2)
        if num_alpha % (2 * z) != 0:
            continue
        alpha = num_alpha // (2 * z)
        y = (1 - (z - 4) ** 2 - 2 * alpha) // lsq
        if any(residuals(n, c, x, alpha, y)):
            continue
        found.append(Pic1Solution(n, c, x, alpha, y))
    return found


def transform_from_solution(sol: Pic1Solution) -> CohTransform:
    """Lift a scalar solution to a transform over the rank-1 lattice."""
    return CohTransform(NSLattice(((sol.lsq,),)), sol.matrix, labels=(("n", sol.n),))
