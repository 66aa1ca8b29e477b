"""rank20-isometry: build, test and invert one kernel transform at Picard rank 20.

Each operation gets a fresh lattice U + E8(-1)^2 + A1(-1)^2 (signature
(1, 19), the largest Picard rank of a K3 surface) under a seeded
unimodular change of basis, so no two operations share a lattice and a
cache keyed on the lattice never hits.  The kernel is (a, b, a - m, b + m)
with m the sum of the two A1(-1) generators, m^2 = -4, declared without
cohomology.  One operation is from_kernel, is_mukai_isometry, determinant
and inverse; the check recomputes the matrix from the kernel and tests
M^T E M = E, det M = +-1 and M M^-1 = I in integers.
"""

from __future__ import annotations

import checks
from inprocess import InProcess

E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7))


def base_gram() -> list[list[int]]:
    """U + E8(-1) + E8(-1) + A1(-1) + A1(-1); the A1 generators are the last two."""
    n = 20
    g = [[0] * n for _ in range(n)]
    g[0][1] = g[1][0] = 1
    for offset in (2, 10):
        for i in range(8):
            g[offset + i][offset + i] = -2
        for i, j in E8_EDGES:
            g[offset + i][offset + j] = g[offset + j][offset + i] = 1
    g[18][18] = g[19][19] = -2
    return g


def unimodular_pair(rng, n: int):
    """P = L U from random unit triangular factors, and its integer inverse."""
    lower = checks.identity(n)
    upper = checks.identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = rng.choice((-1, 0, 0, 1))
            upper[j][i] = rng.choice((-1, 0, 0, 1))
    p = checks.mat_mul(lower, upper)
    return p, checks.mat_mul(_unit_triangular_inverse(upper), _unit_triangular_inverse(lower))


def _unit_triangular_inverse(t):
    """Inverse of a unit triangular integer matrix, column by column."""
    n = len(t)
    lower = all(t[i][j] == 0 for i in range(n) for j in range(i + 1, n))
    order = range(n) if lower else range(n - 1, -1, -1)
    inv = [[0] * n for _ in range(n)]
    for col in range(n):
        x = [0] * n
        for i in order:
            x[i] = int(i == col) - sum(t[i][j] * x[j] for j in range(n) if j != i)
        for i in range(n):
            inv[i][col] = x[i]
    return inv


class Rank20Isometry(InProcess):
    name = "rank20-isometry"
    REF_REPS = 8  # about 40 ms per sample, a sixth of an operation

    def __init__(self, k3fm, rng, workdir):
        super().__init__(k3fm, rng, workdir)
        self.gram0 = base_gram()

    def make_case(self):
        """A fresh lattice and valid kernel; the change of basis x_old = P x_new."""
        k3fm, rng = self.k3fm, self.rng
        p, p_inv = unimodular_pair(rng, 20)
        gram = checks.mat_mul(checks.mat_mul(checks.transpose(p), self.gram0), p)
        m = checks.mat_vec(p_inv, [0] * 18 + [1, 1])
        a = [rng.choice((-1, 0, 1)) for _ in range(20)]
        b = [rng.choice((-1, 0, 1)) for _ in range(20)]
        lattice = k3fm.NSLattice(tuple(map(tuple, gram)))
        named = (("m", lattice.cls(m)), ("a", lattice.cls(a)), ("b", lattice.cls(b)))
        spec = k3fm.SurfaceSpec(lattice, named, (k3fm.Assumption("no_cohomology", "m"),))
        ca, cb, cm = (spec.cls(x) for x in ("a", "b", "m"))
        kernel = k3fm.KernelSpec(
            a=ca, b=cb, c=ca - cm, d=cb + cm,
            declared_vanishing=spec.declared("no_cohomology"), source=spec, target=spec,
        )
        c = [x - y for x, y in zip(a, m)]
        d = [x + y for x, y in zip(b, m)]
        return {"kernel": kernel, "gram": gram, "abcd": (a, b, c, d)}

    def round(self):
        return [self.make_case()]

    warm_up_cases = round

    def run(self, case):
        k3fm = self.k3fm
        t = k3fm.from_kernel(case["kernel"])
        isometry = k3fm.is_mukai_isometry(t)
        det = t.determinant()
        inv = t.inverse()
        return t, isometry, det, inv

    def check(self, case, result) -> bool:
        t, isometry, det, inv = result
        checks.require(isometry is True, "is_mukai_isometry returned False for a valid kernel")
        gram = case["gram"]
        own = checks.kernel_matrix(gram, *case["abcd"])
        checks.require(checks.as_int_matrix(t.matrix) == own, "matrix differs from the kernel action")
        checks.check_isometry_matrix(gram, t.matrix, det, inv.matrix)
        return True
