"""The induced linear action of a rank-2 kernel on Chern characters.

The normative computation is the pushforward formula

    ch(Phi F) = chi(F*A) ch(B) + chi(F*C) ch(D) - ch(F*C*D),

kernel_action_vector evaluates it term by term with mukai's twist,
chi_sheaf and line_bundle_ch; it is the reference that the tests compare
from_kernel's matrix against, and from_kernel shares no code with it.
from_kernel builds the same map in closed form, as a matrix in int:
chi(F*A) and chi(F*C) are linear forms and the twist by c+d is a fixed
matrix.  Every specialized closed-form block for a particular kernel
family is written separately, as the matrix of its displayed formula in
the classes CLOSED_FORMS names for it, and crosscheck_specialized compares
it with this engine as a matrix identity; where a block disagrees, the
difference is reported, never patched into either side.  The difference
is linear in the grid point, and so are its (hhat, lhat) coordinates
delta_hat: one elimination of [H | Delta_mid] per crosscheck
(linalg.solve_columns) gives them at every point.  The engine, the
difference and the hat coordinates of every grid point come from one
integer pass over the whole grid, so no point runs a product or a solve
of its own; each entry is then built from integer numerators, with the
integral Fractions shared through linalg.fraction.

Transforms are stored as integer matrices (integral on an even lattice)
acting on rational coordinate vectors (rank, NS-basis coefficients, ch2).
A kernel transform M = B alpha^T + D gamma^T - T_e is a rank-two update of
the twist T_e, so from_kernel keeps those factors, and they serve its
determinant and inverse in O(n^2) (matrix determinant lemma and Woodbury
identity) and its isometry test in O(n); every other transform uses the
Bareiss elimination of linalg, and its isometry test is the product
M^T E M = E itself (Huybrechts, Fourier-Mukai Transforms in Algebraic
Geometry, 2006, ch. 5).
The Euler pairing in these coordinates has Gram matrix

    [[2, 0, 1],
     [0, -G, 0],
     [1, 0, 0]]

and a transform is an equivalence-induced map only if it preserves it;
is_mukai_isometry checks this exactly, and its docstring proves the
factored test for both ranks of the form pair (alpha, gamma).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product, repeat
from operator import add, mul, sub

from . import linalg
from .kernel import KernelSpec
from .lattice import DivisorClass, NSLattice, intersect
from .linalg import Matrix, integer_matrix, mat_mul, transpose
from .mukai import ChernCharacter, chi_sheaf, line_bundle_ch, twist

__all__ = [
    "Matrix",
    "euler_gram",
    "CohTransform",
    "identity_transform",
    "kernel_action_vector",
    "from_kernel",
    "compose",
    "is_mukai_isometry",
    "DiffEntry",
    "DiffReport",
    "CLOSED_FORMS",
    "closed_form_matrix",
    "crosscheck_specialized",
    "default_grid",
]

def euler_gram(lattice: NSLattice) -> Matrix:
    """Gram matrix of the Euler pairing in coordinates (r, f, ch2)."""
    zeros = (0,) * lattice.rank
    middle = tuple((0, *(-x for x in row), 0) for row in lattice.gram)
    return ((2, *zeros, 1), *middle, (1, *zeros, 0))


@dataclass(frozen=True)
class CohTransform:
    """An integer matrix acting on (r, f, ch2) coordinate vectors.

    Construction converts every entry to int once; a non-integral entry
    raises ValueError.

    shift_parity records whether the underlying functor carries an odd
    homological shift; the matrix already contains any resulting signs.
    numerically_valid is False when the originating kernel fails the
    lattice-level existence conditions (the action is still well defined).
    For a kernel transform it is the paper's exact condition, a + b = c + d
    and (a - c)^2 = -4, which differs from is_mukai_isometry only on a
    degenerate Gram: there a + b - c - d may also lie in the radical.
    kernel and labels are provenance for reporting and closed-form lookups
    and do not take part in equality.  _rank_two, set only by from_kernel
    without phi, holds the factors of the matrix, from which determinant(),
    inverse() and is_mukai_isometry are computed without an n x n product;
    no other transform carries it, and shifted() keeps kernel but drops it.
    """

    source: NSLattice
    target: NSLattice
    matrix: Matrix
    shift_parity: int = 0
    numerically_valid: bool = True
    kernel: KernelSpec | None = field(default=None, compare=False)
    labels: tuple[tuple[str, object], ...] = field(default=(), compare=False)
    _rank_two: _RankTwoUpdate | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", integer_matrix(self.matrix))
        object.__setattr__(self, "labels", tuple(self.labels))
        rows, cols = self.target.rank + 2, self.source.rank + 2
        if len(self.matrix) != rows or any(len(r) != cols for r in self.matrix):
            raise ValueError(f"transform matrix must be {rows}x{cols} for these lattices")

    @property
    def label_map(self) -> dict:
        return dict(self.labels)

    def determinant(self) -> int:
        if self.source != self.target:
            raise ValueError("determinant requires equal source and target lattices")
        if self._rank_two is not None:
            return self._rank_two.determinant()
        return linalg.det(self.matrix)

    def inverse(self) -> "CohTransform":
        """The inverse map; ValueError unless the determinant is +-1."""
        if self._rank_two is not None:
            matrix = self._rank_two.inverse()
        else:
            matrix = linalg.inverse(self.matrix)
        return CohTransform(
            source=self.target,
            target=self.source,
            matrix=matrix,
            shift_parity=self.shift_parity,
            numerically_valid=self.numerically_valid,
        )

    def shifted(self, k: int = 1) -> "CohTransform":
        """Compose with a homological shift [k]: odd k negates the action."""
        if k % 2 == 0:
            return self
        neg = tuple(tuple(-x for x in row) for row in self.matrix)
        return CohTransform(
            source=self.source,
            target=self.target,
            matrix=neg,
            shift_parity=(self.shift_parity + 1) % 2,
            numerically_valid=self.numerically_valid,
            kernel=self.kernel,
            labels=self.labels,
        )

    def apply_vector(self, vec) -> tuple[Fraction, ...]:
        if len(vec) != self.source.rank + 2:
            raise ValueError("coordinate vector has the wrong length for the source lattice")
        return linalg.mat_vec(self.matrix, vec)

    def apply(self, c: ChernCharacter) -> ChernCharacter:
        if c.lattice != self.source:
            raise ValueError("character does not live on the transform's source lattice")
        out = self.apply_vector(ch_vector(c))
        return vector_to_ch(self.target, out)


def ch_vector(c: ChernCharacter) -> tuple[Fraction, ...]:
    return (Fraction(c.r), *(Fraction(x) for x in c.f.coords), c.t)


def vector_to_ch(lattice: NSLattice, vec: tuple[Fraction, ...]) -> ChernCharacter:
    r = vec[0]
    if r.denominator != 1:
        raise ValueError(f"rank component {r} is not an integer")
    coords = vec[1:-1]
    if any(x.denominator != 1 for x in coords):
        raise ValueError("first-Chern-class coordinates are not integral")
    return ChernCharacter(
        int(r), DivisorClass(lattice, tuple(int(x) for x in coords)), vec[-1]
    )


def identity_transform(lattice: NSLattice) -> CohTransform:
    return CohTransform(lattice, lattice, linalg.identity(lattice.rank + 2))


def kernel_action_vector(kernel: KernelSpec, vec) -> tuple[Fraction, ...]:
    """Image of the coordinate vector (r, f, t) under the kernel's map.

    The pushforward formula chi(F*A) ch(B) + chi(F*C) ch(D) - ch(F*C*D),
    read term by term off mukai's twist, chi_sheaf and line_bundle_ch.
    The vector is scaled to integer numerators over one denominator first,
    so that F is a character with integral rank and class; both sides are
    linear in F, so dividing the image by that denominator is exact.  It
    shares no code with from_kernel, which it is the reference for.
    """
    lat = kernel.lattice
    nums, den = linalg.scaled(vec)
    if len(nums) != lat.rank + 2:
        raise ValueError("coordinate vector has the wrong length for the kernel lattice")
    r, *f, t = nums
    sheaf = ChernCharacter(r, DivisorClass(lat, f), Fraction(t))
    chi_a = chi_sheaf(twist(sheaf, kernel.a))
    chi_c = chi_sheaf(twist(sheaf, kernel.c))
    terms = zip(
        ch_vector(line_bundle_ch(kernel.b)),
        ch_vector(line_bundle_ch(kernel.d)),
        ch_vector(twist(sheaf, kernel.c + kernel.d)),
    )
    return tuple((chi_a * x + chi_c * y - z) / den for x, y, z in terms)


def _half_square(x, gx) -> int:
    """x^2/2 from x and G x; exact because the lattice is even."""
    return sum(map(mul, x, gx)) // 2


def _twist(x, gx, half_x2) -> Matrix:
    """T_x, the twist by the class x: rows (1, 0, 0), (x_i, unit_i, 0) and
    (x^2/2, (G x)^T, 1)."""
    return (
        (1, *(0,) * len(x), 0),
        *((xi, *unit, 0) for xi, unit in zip(x, linalg.identity(len(x)))),
        (half_x2, *gx, 1),
    )


@dataclass(frozen=True)
class _RankTwoUpdate:
    """The factors of a kernel transform M = U V^T - T_e.

    u holds the columns B = (1, b, b^2/2) and D = (1, d, d^2/2), the
    characters ch(B) and ch(D), and eu their images E B = (2 + b^2/2, -G b, 1)
    and E D under the Euler form; v holds the linear forms
    alpha = (2 + a^2/2, G a, 1) and gamma = (2 + c^2/2, G c, 1), which give
    chi(F*A) and chi(F*C); T_e twists by e = c + d, with ge = G e and
    half_e2 = e^2/2.  T_{-e} = T_e^{-1} acts on a vector in O(n), so with
    the 2x2 matrix K = I - V^T T_{-e} U the matrix determinant lemma gives
    det M = (-1)^n det K, and the Woodbury identity (Hager, SIAM Review 31,
    1989) gives M^{-1} = -T_{-e} - (T_{-e} U K^{-1}) (V^T T_{-e}), all in
    int and in O(n^2).  is_isometry tests M^T E M = E in O(n); the proof is
    in is_mukai_isometry.
    """

    u: tuple[tuple[int, ...], tuple[int, ...]]
    eu: tuple[tuple[int, ...], tuple[int, ...]]
    v: tuple[tuple[int, ...], tuple[int, ...]]
    e: tuple[int, ...]
    ge: tuple[int, ...]
    half_e2: int

    def matrix(self) -> Matrix:
        (big_b, big_d), (alpha, gamma) = self.u, self.v
        return tuple(
            tuple(bi * x + di * y - z for x, y, z in zip(alpha, gamma, row))
            for bi, di, row in zip(big_b, big_d, _twist(self.e, self.ge, self.half_e2))
        )

    def _untwist(self, x) -> tuple[int, ...]:
        """T_{-e} x: r, f - r e, t - (G e).f + r e^2/2."""
        r, *f, t = x
        return (
            r,
            *(fi - r * ei for fi, ei in zip(f, self.e)),
            t - sum(map(mul, self.ge, f)) + r * self.half_e2,
        )

    def _twist_form(self, y, sign: int) -> tuple[int, ...]:
        """The linear form y^T T_{sign e}, as a row: y^T T_{-e} for sign -1,
        (T_e^T y)^T for sign 1."""
        p, *q, s = y
        return (
            p + sign * sum(map(mul, self.e, q)) + s * self.half_e2,
            *(qi + sign * s * gi for qi, gi in zip(q, self.ge)),
            s,
        )

    def _k(self):
        """T_{-e} U as two columns, K = I - V^T T_{-e} U, and det K."""
        w = tuple(map(self._untwist, self.u))
        (k00, k01), (k10, k11) = (
            tuple(int(i == j) - sum(map(mul, form, col)) for j, col in enumerate(w))
            for i, form in enumerate(self.v)
        )
        return w, ((k00, k01), (k10, k11)), k00 * k11 - k01 * k10

    def determinant(self) -> int:
        # n = rank + 2, so (-1)^n = (-1)^rank.
        return (-1) ** len(self.e) * self._k()[2]

    def inverse(self) -> Matrix:
        """M^{-1}; ValueError, as linalg.inverse raises it, unless det M = +-1."""
        (w0, w1), ((k00, k01), (k10, k11)), det_k = self._k()
        if det_k not in (1, -1):
            raise ValueError(
                f"matrix has determinant {self.determinant()}; "
                "only determinant +-1 has an integral inverse"
            )
        # The columns of T_{-e} U K^{-1}, with K^{-1} = det K * adj K because
        # det K = +-1 is its own inverse, and the rows of V^T T_{-e}.
        p0 = tuple(det_k * (k11 * x - k10 * y) for x, y in zip(w0, w1))
        p1 = tuple(det_k * (k00 * y - k01 * x) for x, y in zip(w0, w1))
        r0, r1 = (self._twist_form(y, -1) for y in self.v)
        untwist = _twist(tuple(-x for x in self.e), tuple(-x for x in self.ge), self.half_e2)
        return tuple(
            tuple(-z - pi * x - qi * y for x, y, z in zip(r0, r1, row))
            for pi, qi, row in zip(p0, p1, untwist)
        )

    def euler_defect(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The columns of R = V S - 2 P, with S = U^T E U and P = T_e^T E U,
        so that 2 (M^T E M - E) = V R^T + R V^T; O(n)."""
        (big_b, big_d), (eb, ed), (alpha, gamma) = self.u, self.eu, self.v
        s00, s01, s11 = (sum(map(mul, x, y)) for x, y in ((big_b, eb), (big_b, ed), (big_d, ed)))
        p0, p1 = (self._twist_form(y, 1) for y in self.eu)
        return (
            tuple(x * s00 + y * s01 - 2 * z for x, y, z in zip(alpha, gamma, p0)),
            tuple(x * s01 + y * s11 - 2 * z for x, y, z in zip(alpha, gamma, p1)),
        )

    def is_isometry(self) -> bool:
        """M^T E M = E, in O(n) from the factors; the proof is in
        is_mukai_isometry."""
        alpha, gamma = self.v
        r0, r1 = self.euler_defect()
        i = next((i for i, (x, y) in enumerate(zip(alpha, gamma)) if x != y), None)
        if i is None:
            return not any(map(add, r0, r1))
        # A = adj(V_2) R_2 for the rows i and last, where V_2 = [[alpha_i, gamma_i], [1, 1]].
        a00, a01 = r0[i] - gamma[i] * r0[-1], r1[i] - gamma[i] * r1[-1]
        a10, a11 = alpha[i] * r0[-1] - r0[i], alpha[i] * r1[-1] - r1[i]
        if a00 or a11 or a01 + a10:
            return False
        delta = alpha[i] - gamma[i]
        return all(
            delta * q0 == y * a10 and delta * q1 == x * a01
            for x, y, q0, q1 in zip(alpha, gamma, r0, r1)
        )


def from_kernel(
    kernel: KernelSpec,
    labels: tuple = (),
    *,
    target: NSLattice | None = None,
    phi: Matrix | None = None,
) -> CohTransform:
    """Build the transform matrix in closed form, in int.

    Read as matrices, the term-by-term evaluation of kernel_action_vector
    is M = B alpha^T + D gamma^T - T_e (see _RankTwoUpdate for the
    factors).  Every x^2/2 is an integer because the lattice is even.
    kernel_action_vector stays the reference the tests check this matrix
    against.  Without phi the factors are kept on the transform, and its
    determinant and inverse come from them.  G a, G b, G c and G d are
    row dot products with the Gram, and numerically_valid (a + b = c + d
    and (a - c)^2 / 2 = -2) is read from them and the coordinates, so
    without phi no matrix product is formed and no DivisorClass is built.
    numerically_valid agrees with is_mukai_isometry except on a degenerate
    Gram, where the isometry also admits a + b - c - d in the radical;
    numerically_valid keeps the paper's equality.

    phi, when given, is an isometry matrix taking source NS coordinates to
    target NS coordinates (phi^T G_target phi = G_source) and is applied as
    the block-diagonal extension fixing the rank and ch2 coordinates.  The
    kernel's four classes are auto-attached as labels a, b, c, d when no
    relattice identification is involved.
    """
    lat = kernel.lattice
    a, b, c, d = (x.coords for x in (kernel.a, kernel.b, kernel.c, kernel.d))
    e = tuple(map(add, c, d))
    ga, gb, gc, gd = (tuple(sum(map(mul, row, x)) for row in lat.gram) for x in (a, b, c, d))
    ge = tuple(map(add, gc, gd))
    hb, hd = _half_square(b, gb), _half_square(d, gd)
    update = _RankTwoUpdate(
        u=((1, *b, hb), (1, *d, hd)),
        eu=((2 + hb, *(-x for x in gb), 1), (2 + hd, *(-x for x in gd), 1)),
        v=((2 + _half_square(a, ga), *ga, 1), (2 + _half_square(c, gc), *gc, 1)),
        e=e,
        ge=ge,
        half_e2=_half_square(e, ge),
    )
    matrix = update.matrix()

    tgt = lat
    if phi is not None:
        if target is None:
            raise ValueError("phi requires an explicit target lattice")
        tgt = target
        phi = integer_matrix(phi)
        if len(phi) != tgt.rank or any(len(row) != lat.rank for row in phi):
            raise ValueError("phi has the wrong shape for the given lattices")
        if mat_mul(mat_mul(transpose(phi), tgt.gram), phi) != lat.gram:
            raise ValueError("phi is not an isometry of the divisor lattices")
        # The block-diagonal extension fixes the rank and ch2 rows.
        matrix = (matrix[0], *mat_mul(phi, matrix[1:-1]), matrix[-1])
        update = None
    elif target is not None:
        if target != lat:
            raise ValueError("target lattice differs from the kernel lattice; supply phi")
        tgt = target

    auto = ()
    if phi is None:
        auto = (("a", kernel.a), ("b", kernel.b), ("c", kernel.c), ("d", kernel.d))
    valid = tuple(map(add, a, b)) == e and _half_square(map(sub, a, c), map(sub, ga, gc)) == -2
    return CohTransform(
        source=lat,
        target=tgt,
        matrix=matrix,
        numerically_valid=valid,
        kernel=kernel,
        labels=auto + tuple(labels),
        _rank_two=update,
    )


def compose(outer: CohTransform, inner: CohTransform) -> CohTransform:
    """outer after inner, with no labels: the classes a closed-form block
    reads from labels belong to one kernel, not to a composite."""
    if inner.target != outer.source:
        raise ValueError("inner transform's target lattice differs from outer's source")
    return CohTransform(
        source=inner.source,
        target=outer.target,
        matrix=mat_mul(outer.matrix, inner.matrix),
        shift_parity=(outer.shift_parity + inner.shift_parity) % 2,
        numerically_valid=outer.numerically_valid and inner.numerically_valid,
    )


def is_mukai_isometry(t: CohTransform) -> bool:
    """Whether the transform preserves the Euler pairing exactly.

    The defining identity is M^T E_target M = E_source (Huybrechts 2006,
    ch. 5), equivalent by bilinearity to agreement of euler_chi on all
    pairs; a transform without factors is tested by exactly that product.

    A kernel transform with its factors, M = U V^T - T_e (see
    _RankTwoUpdate), is tested in O(n) integer operations and forms no
    n x n product.  A twist preserves the Euler form, T_e^T E T_e = E, so
    with the 2x2 symmetric S = U^T E U and the n x 2 P = T_e^T E U,

        M^T E M - E = V S V^T - V P^T - P V^T = (V R^T + R V^T) / 2,

    where R = V S - 2 P has integer columns, each O(n) from E B, E D and
    T_e^T y.  Both forms in V end in 1, so V has rank 1 or 2:

    - alpha = gamma (rank 1, e.g. a = c): V R^T + R V^T = alpha q^T + q alpha^T
      with q = R_0 + R_1.  Its last column is alpha q_last + q, whose last
      entry is 2 q_last; so it vanishes iff q_last = 0 and then q = 0, that
      is iff R_0 + R_1 = 0.
    - alpha_i != gamma_i for some row i (rank 2): the rows i and last of V
      form V_2 with det V_2 = delta = alpha_i - gamma_i != 0, so
      L = adj(V_2) / delta applied to those rows is a left inverse of V,
      L V = I.  If R = V A with A antisymmetric, V R^T + R V^T =
      V (A^T + A) V^T = 0.  Conversely, if X = V R^T + R V^T = 0, then
      L X L^T = A^T + A for A = L R, so A is antisymmetric, and
      X L^T = V A^T + R, so R = V A.  In integers: adj(V_2) R_2 = delta A
      is antisymmetric and delta R = V (delta A) row by row.

    Every other transform (phi, compose, shifted, inverse results, pic1,
    hand-built matrices) takes the product.
    """
    if t._rank_two is not None:
        return t._rank_two.is_isometry()
    m = t.matrix
    return mat_mul(transpose(m), mat_mul(euler_gram(t.target), m)) == euler_gram(t.source)


# Closed-form blocks.  Each takes the lattice and the classes CLOSED_FORMS
# names for it, in that order, and returns the (k+2)x(k+2) matrix of a
# specialized displayed formula for one kernel family.  They are crosscheck
# targets only; the engine above is never defined through them.


def _form(r, x: DivisorClass, t) -> tuple:
    """The row (r, (G x)^T, t): the linear form r*rank + f.x + t*ch2."""
    return (r, *(sum(map(mul, row, x.coords)) for row in x.lattice.gram), t)


def _block(rank_row, ch2_row, *terms) -> Matrix:
    """Rank row, divisor rows sum(x (x) row for x, row in terms) - I_f, ch2 row."""
    n = len(rank_row)
    middle = tuple(
        tuple(sum(x.coords[i] * row[j] for x, row in terms) - (j == i + 1) for j in range(n))
        for i in range(n - 2)
    )
    return (rank_row, *middle, ch2_row)


def closed_form_general(lattice, a, b, c, d) -> Matrix:
    """Fully general block in the four kernel classes; each x^2/2 is exact
    because the lattice is even."""
    ha, hb, hc, hd = (x.square // 2 for x in (a, b, c, d))
    return _block(
        _form(ha + hc + 3, a + c, 2),
        _form(
            ha * hb + 2 * hb + hc * hd - hc + hd - intersect(c, d),
            hb * a + (hd - 1) * c - d,
            hb + hd - 1,
        ),
        (b, _form(ha + 2, a, 1)),
        (d, _form(hc + 1, c, 1)),
        (c, _form(-1, lattice.zero(), 0)),
    )


def closed_form_no_cohomology(lattice, m) -> Matrix:
    """Block for the kernel (0, 0, m, -m) built on a no-cohomology class m."""
    return _block(_form(1, m, 2), _form(0, -2 * m, -3), (m, _form(0, -m, -1)))


def closed_form_reflexive_nondegenerate(lattice, l, h, lhat, hhat) -> Matrix:
    """Block for the non-degenerate reflexive kernel, in the hat classes."""
    return _block(
        _form(-1, l, 2),
        _form(0, -2 * l, -5),
        (hhat, _form(0, l + 2 * h, 0)),
        (lhat, _form(0, h, -1)),
    )


def closed_form_reflexive_type_i(lattice, l, h, d1, d2) -> Matrix:
    """Block for the type I degenerate kernel, in l, h and the components."""
    return _block(
        _form(-1, l, 2),
        _form(0, -2 * l, -5),
        (l, _form(0, l - h, -1)),
        (h, _form(0, -2 * h, 0)),
        (d1, _form(0, -d1, 0)),
        (d2, _form(0, -d2, 0)),
    )


def closed_form_reflexive_type_ii(lattice, l, h, d1, d2) -> Matrix:
    """Block for the type II degenerate kernel; deg(d1) = 1 is assumed."""
    return _block(
        _form(-1, l, 2),
        _form(0, -2 * l, -5),
        (h, _form(0, l, 2)),
        (d2, _form(0, d1, 1)),
        (d1, _form(0, -(2 * d1 + d2), -3)),
    )


def closed_form_picard_rank_one(lattice, n) -> Matrix:
    """Rank-1 block in scalar coordinates (r, coefficient of l, ch2)."""
    if lattice.rank != 1:
        raise ValueError("this formula applies to rank-1 lattices only")
    lsq = lattice.gram[0][0]
    return _block(
        (2 * n + 3, lsq, 2),
        (2 * (n * n - 1), (n - 1) * lsq, 2 * n - 1),
        (lattice.basis(0), (n + 1, 4 * n + 2, 1)),
    )


CLOSED_FORMS = {
    "general": (closed_form_general, ("a", "b", "c", "d")),
    "no_cohomology": (closed_form_no_cohomology, ("m",)),
    "reflexive_nondegenerate": (
        closed_form_reflexive_nondegenerate,
        ("l", "h", "lhat", "hhat"),
    ),
    "reflexive_type_i": (closed_form_reflexive_type_i, ("l", "h", "d1", "d2")),
    "reflexive_type_ii": (closed_form_reflexive_type_ii, ("l", "h", "d1", "d2")),
    "picard_rank_one": (closed_form_picard_rank_one, ("n",)),
}


def closed_form_matrix(t: CohTransform, formula_id: str) -> Matrix:
    """The named block's matrix, of the classes the transform labels."""
    block, names = CLOSED_FORMS[formula_id]
    found = t.label_map
    missing = [name for name in names if name not in found]
    if missing:
        raise ValueError(f"transform is missing labels {missing} required by this formula")
    return block(t.source, *(found[name] for name in names))


@dataclass(frozen=True)
class DiffEntry:
    input: tuple[Fraction, ...]
    engine: tuple[Fraction, ...]
    closed_form: tuple[Fraction, ...]
    delta: tuple[Fraction, ...]
    delta_hat: tuple[Fraction, Fraction] | None = None


@dataclass(frozen=True)
class DiffReport:
    formula_id: str
    points: int
    entries: tuple[DiffEntry, ...]

    @property
    def agree(self) -> bool:
        return not self.entries


def default_grid(lattice: NSLattice) -> tuple[tuple[int, ...], ...]:
    """Small deterministic grid of (r, f, t) coordinate vectors."""
    span = {1: 2, 2: 2}.get(lattice.rank, 1)
    fspan = {1: 3, 2: 2}.get(lattice.rank, 1)
    rts = range(-span, span + 1)
    fvals = range(-fspan, fspan + 1)
    return tuple(
        (r, *f, t) for f in product(fvals, repeat=lattice.rank) for r in rts for t in rts
    )


def _times(row, matrix) -> list[int]:
    """row times matrix: the sum, over the nonzero entries a of the row,
    of a times the matching row of the matrix."""
    total = [0] * len(matrix[0])
    for a, mrow in zip(row, matrix):
        if a:
            total = list(map(add, total, map(mul, repeat(a), mrow)))
    return total


def crosscheck_specialized(t: CohTransform, formula_id: str, grid=None) -> DiffReport:
    """Compare the transform's action against a named closed-form block.

    The block's matrix C is built once from the classes the transform
    labels, and the grid is scanned with the integer matrix Delta = C - M.
    Each grid point x is scaled once to integer numerators n over a
    denominator v (an integral point is its own numerators), and the
    numerators are the columns of one integer matrix N.  M, Delta and,
    where the hats are labelled, the rows X and R below are stacked and
    multiplied by N in one integer pass over the grid, so no point runs a
    product of its own.  A point is a disagreement exactly where Delta n
    is nonzero; it is recorded with the engine value M n / v, the
    closed-form value (M n + Delta n) / v and their difference Delta n / v,
    each Fraction built from ints by linalg.fraction_vector, which shares
    the integral ones.  For reflexive formulas, when the transform names
    hhat and lhat, the divisor part of the difference is also expressed in
    their basis H.  That map is linear in x, so [H | Delta_mid] is
    eliminated once per crosscheck (linalg.solve_columns) into solution
    rows X, residual rows R and a denominator d: delta_hat is X n / (d v)
    where R n = 0, and None where the difference leaves the span of H or
    H is degenerate.  Every entry is built here, eagerly.  An empty entry
    list means exact agreement on the grid.  The block is square on the
    source lattice, so a transform onto another lattice raises ValueError.
    """
    if formula_id not in CLOSED_FORMS:
        raise ValueError(
            f"unknown formula id {formula_id!r}; known: {sorted(CLOSED_FORMS)}"
        )
    if t.source != t.target:
        raise ValueError("crosscheck requires equal source and target lattices")
    if grid is None:
        grid = default_grid(t.source)
    if any(len(point) != t.source.rank + 2 for point in grid):
        raise ValueError("coordinate vector has the wrong length for the source lattice")
    closed = closed_form_matrix(t, formula_id)
    delta_matrix = tuple(
        tuple(x - y for x, y in zip(crow, mrow)) for crow, mrow in zip(closed, t.matrix)
    )
    if not grid or not any(map(any, delta_matrix)):
        return DiffReport(formula_id=formula_id, points=len(grid), entries=())
    stack = (*t.matrix, *delta_matrix)
    labels = t.label_map
    hat_map = None
    if "hhat" in labels and "lhat" in labels:
        hats = transpose((labels["hhat"].coords, labels["lhat"].coords))
        hat_map = linalg.solve_columns(hats, delta_matrix[1:-1])
    if hat_map is not None:
        x_rows, r_rows, d = hat_map
        stack += (*x_rows, *r_rows)
    points, dens = zip(
        *((point, 1) if all(type(x) is int for x in point) else linalg.scaled(point) for point in grid)
    )
    # N: one row per coordinate, one column per point.
    numerators = tuple(zip(*points))
    n = len(t.matrix)
    entries = []
    for nums, vden, values in zip(points, dens, zip(*(_times(row, numerators) for row in stack))):
        diff = values[n : 2 * n]
        if not any(diff):
            continue
        engine = values[:n]
        delta_hat = None
        if hat_map is not None and not any(values[2 * n + 2 :]):
            delta_hat = linalg.fraction_vector(values[2 * n : 2 * n + 2], d * vden)
        entries.append(
            DiffEntry(
                input=linalg.fraction_vector(nums, vden),
                engine=linalg.fraction_vector(engine, vden),
                closed_form=linalg.fraction_vector(map(add, engine, diff), vden),
                delta=linalg.fraction_vector(diff, vden),
                delta_hat=delta_hat,
            )
        )
    return DiffReport(formula_id=formula_id, points=len(grid), entries=tuple(entries))
