"""Independent integer arithmetic for the benchmark's correctness checks.

Nothing here imports k3fm.  Each check recomputes a fact from the Gram
matrix and the generated inputs and compares it with what k3fm returned,
so a fault in k3fm cannot also hide in the check.  A failed check raises
CheckFailed with a message naming the fact that did not hold.
"""

from __future__ import annotations

from fractions import Fraction


class CheckFailed(AssertionError):
    """A result of k3fm contradicts the benchmark's own computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def as_int_vector(values) -> list[int]:
    out = []
    for x in values:
        q = Fraction(x)
        require(q.denominator == 1, f"entry {q} is not an integer")
        out.append(q.numerator)
    return out


def as_int_matrix(rows) -> list[list[int]]:
    return [as_int_vector(row) for row in rows]


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(m, v):
    return [sum(x * y for x, y in zip(row, v)) for row in m]


def bareiss_det(m) -> int:
    """Determinant of an integer matrix by fraction-free elimination (Bareiss 1968)."""
    a = [list(row) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def dot(gram, x, y) -> int:
    return sum(xi * sum(g * yj for g, yj in zip(row, y)) for xi, row in zip(x, gram))


def euler_gram(gram) -> list[list[int]]:
    """Euler pairing on (r, f, t): chi = 2rr' + rt' + r't - f.f'.

    It follows from chi(A, B) = -<v(A), v(B)> with v = (r, f, t + r) and
    the Mukai pairing <v, w> = f.f' - r s' - r' s.
    """
    k = len(gram)
    n = k + 2
    e = [[0] * n for _ in range(n)]
    e[0][0] = 2
    e[0][n - 1] = e[n - 1][0] = 1
    for i in range(k):
        for j in range(k):
            e[1 + i][1 + j] = -gram[i][j]
    return e


def comb(*terms) -> list[int]:
    """The integer combination sum of coefficient * vector over (coefficient, vector) terms."""
    return [sum(c * v[i] for c, v in terms) for i in range(len(terms[0][1]))]


def hat_classes(h, l):
    """(lhat, hhat) = (5l + 12h, 2l + 5h)."""
    return comb((5, l), (12, h)), comb((2, l), (5, h))


def reflexive_kernel(variant: str, h, l=None, d1=None, d2=None) -> list[list[int]]:
    """The documented kernel (a, b, c, d) of a reflexive surface, d1 of lower degree.

    nondegenerate: (-h, 3l+7h, l+h, 2l+5h); type I: (d1-h, h-d1, d2-h, h-d2);
    type II: (d1-h, d2-2d1+h, d2-h, h-d1).
    """
    if variant == "nondegenerate":
        return [comb((-1, h)), comb((3, l), (7, h)), comb((1, l), (1, h)), comb((2, l), (5, h))]
    if variant == "I":
        return [comb((1, d1), (-1, h)), comb((-1, d1), (1, h)), comb((1, d2), (-1, h)), comb((-1, d2), (1, h))]
    return [comb((1, d1), (-1, h)), comb((1, d2), (-2, d1), (1, h)), comb((1, d2), (-1, h)), comb((-1, d1), (1, h))]


def kernel_matrix(gram, a, b, c, d) -> list[list[int]]:
    """Matrix of ch(F) -> chi(F.A) ch(B) + chi(F.C) ch(D) - ch(F.C.D) on (r, f, t).

    On a K3 surface chi(F.L) = 2r + t + f.x + r x^2/2 for L = O(x), and
    ch(F.O(x)) = (r, f + r x, t + f.x + r x^2/2).  The lattice is even, so
    every entry is an integer.
    """
    k = len(gram)
    e = [ci + di for ci, di in zip(c, d)]
    half = {name: dot(gram, v, v) // 2 for name, v in (("a", a), ("b", b), ("c", c), ("d", d), ("e", e))}
    cols = []
    for j in range(k + 2):
        vec = [int(i == j) for i in range(k + 2)]
        r, f, t = vec[0], vec[1:-1], vec[-1]
        chi_a = 2 * r + t + dot(gram, f, a) + r * half["a"]
        chi_c = 2 * r + t + dot(gram, f, c) + r * half["c"]
        ch0 = chi_a + chi_c - r
        ch1 = [chi_a * b[i] + chi_c * d[i] - (f[i] + r * e[i]) for i in range(k)]
        ch2 = chi_a * half["b"] + chi_c * half["d"] - (t + dot(gram, f, e) + r * half["e"])
        cols.append([ch0, *ch1, ch2])
    return transpose(cols)


def check_isometry_matrix(gram, matrix, det, inverse) -> None:
    """M^T E M = E, det M = +-1 and M M^-1 = I, all in integers."""
    m = as_int_matrix(matrix)
    e = euler_gram(gram)
    require(mat_mul(mat_mul(transpose(m), e), m) == e, "M^T E M != E")
    own = bareiss_det(m)
    require(own in (1, -1), f"det M = {own}, expected +-1")
    require(Fraction(det) == own, f"determinant() = {det}, Bareiss gives {own}")
    inv = as_int_matrix(inverse)
    require(mat_mul(m, inv) == identity(len(m)), "M M^-1 != I")


def check_decomposition(gram, h, l, d1, d2) -> None:
    """d1 + d2 = l + 2h, d1^2 = d2^2 = -2 and d1.d2 = 0."""
    require(comb((1, d1), (1, d2)) == comb((1, l), (2, h)), "d1 + d2 != l + 2h")
    require(dot(gram, d1, d1) == -2 and dot(gram, d2, d2) == -2, "d1^2 or d2^2 != -2")
    require(dot(gram, d1, d2) == 0, "d1.d2 != 0")


def mukai_self_pairing(gram, r: int, f, s) -> Fraction:
    """<v, v> = f.f - 2rs for v = (r, f, s)."""
    return dot(gram, f, f) - 2 * r * Fraction(s)
