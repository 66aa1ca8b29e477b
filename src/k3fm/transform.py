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
of its own.  The report is then built column by column: each row of
integer results is cut to the disagreeing points and turned into
Fractions in one map (the integral ones shared through linalg.fraction),
and the rows are zipped into the entries.

Transforms are stored as integer matrices (integral on an even lattice)
acting on rational coordinate vectors (rank, NS-basis coefficients, ch2)
of one lattice.  A rank-2 transform of this kind exists only when Y is
isomorphic to X (the paper's negative-twisted-determinant theorem), so
each transform maps its lattice to itself and carries that one lattice.
A kernel transform M = B alpha^T + D gamma^T - T_e is a rank-two update of
the twist T_e, so from_kernel keeps those factors, and they serve its
determinant and inverse in O(n^2) (matrix determinant lemma and Woodbury
identity); every other transform uses the Bareiss elimination of linalg.
The Euler pairing in these coordinates has Gram matrix

    [[2, 0, 1],
     [0, -G, 0],
     [1, 0, 0]]

and a transform is an equivalence-induced map only if it preserves it,
M^T E M = E (Huybrechts, Fourier-Mukai Transforms in Algebraic Geometry,
2006, ch. 5).  is_mukai_isometry tests that product on every transform
without factors.  A kernel transform is an isometry exactly when
(a - c)^2 = -4 and G (a + b - c - d) = 0, a lemma that its docstring
proves; from_kernel decides it in O(n) from the Gram products it forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, product, repeat
from operator import add, mul, sub

from . import linalg
from .kernel import KernelSpec, check_sufficient
from .lattice import DivisorClass, NSLattice, intersect
from .linalg import Matrix, integer_matrix, mat_mul, transpose
from .mukai import ChernCharacter, chi_sheaf, line_bundle_ch, twist
from .record import Record

__all__ = [
    "Matrix",
    "euler_gram",
    "CohTransform",
    "identity_transform",
    "kernel_action_vector",
    "from_kernel",
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


class CohTransform(Record):
    """An integer matrix acting on (r, f, ch2) coordinate vectors of one
    lattice: every transform maps its lattice to itself.

    Construction converts every entry to int once; a non-integral entry
    raises ValueError, and the matrix must be (rank+2)x(rank+2).
    kernel and labels are provenance for reporting, numerically_valid and
    closed-form lookups, and do not take part in equality; an inverse
    carries neither.  _rank_two, set only by from_kernel, holds the
    factors of the matrix, from which determinant() and inverse() are
    computed without an n x n product, and the isometry lemma's verdict,
    which is_mukai_isometry returns; no other transform carries it.
    """

    __slots__ = ("source", "matrix", "kernel", "labels", "_rank_two")
    _compare = ("source", "matrix")

    def __init__(
        self,
        source: NSLattice,
        matrix: Matrix,
        kernel: KernelSpec | None = None,
        labels: tuple[tuple[str, object], ...] = (),
        _rank_two: _RankTwoUpdate | None = None,
    ):
        matrix = integer_matrix(matrix)
        n = source.rank + 2
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError(f"transform matrix must be {n}x{n} for this lattice")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "_rank_two", _rank_two)

    @property
    def label_map(self) -> dict:
        return dict(self.labels)

    @property
    def numerically_valid(self) -> bool:
        """Whether the kernel, if any, passes the lattice conditions of
        check_sufficient, a + b = c + d and (a - c)^2 = -4 (the action is
        well defined either way).  It differs from is_mukai_isometry only
        on a degenerate Gram: there a + b - c - d may also lie in the radical."""
        return self.kernel is None or check_sufficient(self.kernel).verdict != "fails"

    def determinant(self) -> int:
        if self._rank_two is not None:
            return self._rank_two.determinant()
        return linalg.det(self.matrix)

    def inverse(self) -> "CohTransform":
        """The inverse map; ValueError unless the determinant is +-1."""
        if self._rank_two is not None:
            matrix = self._rank_two.inverse()
        else:
            matrix = linalg.inverse(self.matrix)
        return CohTransform(self.source, matrix)

    def apply_vector(self, vec) -> tuple[Fraction, ...]:
        if len(vec) != self.source.rank + 2:
            raise ValueError("coordinate vector has the wrong length for the source lattice")
        return linalg.mat_vec(self.matrix, vec)

    def apply(self, c: ChernCharacter) -> ChernCharacter:
        if c.lattice != self.source:
            raise ValueError("character does not live on the transform's source lattice")
        return vector_to_ch(self.source, self.apply_vector(ch_vector(c)))


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
    return CohTransform(lattice, linalg.identity(lattice.rank + 2))


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


class _RankTwoUpdate(Record):
    """The factors of a kernel transform M = U V^T - T_e.

    u holds the columns B = (1, b, b^2/2) and D = (1, d, d^2/2), the
    characters ch(B) and ch(D); v holds the linear forms
    alpha = (2 + a^2/2, G a, 1) and gamma = (2 + c^2/2, G c, 1), which give
    chi(F*A) and chi(F*C); T_e twists by e = c + d, with ge = G e and
    half_e2 = e^2/2.  T_{-e} = T_e^{-1} acts on a vector in O(n), so with
    the 2x2 matrix K = I - V^T T_{-e} U the matrix determinant lemma gives
    det M = (-1)^n det K, and the Woodbury identity (Hager, SIAM Review 31,
    1989) gives M^{-1} = -T_{-e} - (T_{-e} U K^{-1}) (V^T T_{-e}), all in
    int and in O(n^2).  With chi(x) = 2 + x^2/2, the Euler characteristic
    of O(x), and s = a + b - c - d,

        K = [[-1 - s^2/2, -chi(a - c)], [-chi(b - d), -1]],

    so det M = (-1)^n (1 + s^2/2 - chi(a - c) chi(b - d)).  isometry is the
    verdict of the lemma proved in is_mukai_isometry,
    (a - c)^2 = -4 and G (a + b - c - d) = 0.
    """

    __slots__ = ("u", "v", "e", "ge", "half_e2", "isometry")

    def __init__(
        self,
        u: tuple[tuple[int, ...], tuple[int, ...]],
        v: tuple[tuple[int, ...], tuple[int, ...]],
        e: tuple[int, ...],
        ge: tuple[int, ...],
        half_e2: int,
        isometry: bool,
    ):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "ge", ge)
        object.__setattr__(self, "half_e2", half_e2)
        object.__setattr__(self, "isometry", isometry)

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

    def _twist_form(self, y) -> tuple[int, ...]:
        """The linear form y^T T_{-e}, as a row."""
        p, *q, s = y
        return (
            p - sum(map(mul, self.e, q)) + s * self.half_e2,
            *(qi - s * gi for qi, gi in zip(q, self.ge)),
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
        r0, r1 = map(self._twist_form, self.v)
        untwist = _twist(tuple(-x for x in self.e), tuple(-x for x in self.ge), self.half_e2)
        return tuple(
            tuple(-z - pi * x - qi * y for x, y, z in zip(r0, r1, row))
            for pi, qi, row in zip(p0, p1, untwist)
        )


def from_kernel(kernel: KernelSpec, labels: tuple = ()) -> CohTransform:
    """Build the transform matrix in closed form, in int.

    Read as matrices, the term-by-term evaluation of kernel_action_vector
    is M = B alpha^T + D gamma^T - T_e (see _RankTwoUpdate for the
    factors).  Every x^2/2 is an integer because the lattice is even.
    kernel_action_vector stays the reference the tests check this matrix
    against.  The factors are kept on the transform, and its determinant
    and inverse come from them; its isometry verdict is the lemma of
    is_mukai_isometry, read off G a, ..., G d in O(n).  G a, G b, G c and
    G d are row dot products with the Gram, so no matrix product is formed
    and no DivisorClass is built.

    The kernel's four classes are attached as labels a, b, c, d, ahead of
    the given labels.
    """
    lat = kernel.lattice
    a, b, c, d = (x.coords for x in (kernel.a, kernel.b, kernel.c, kernel.d))
    e = tuple(map(add, c, d))
    ga, gb, gc, gd = (tuple(sum(map(mul, row, x)) for row in lat.gram) for x in (a, b, c, d))
    ge = tuple(map(add, gc, gd))
    # The lemma of is_mukai_isometry: (a - c)^2 = -4 and G a + G b = G e.
    square_ac = sum(map(mul, map(sub, a, c), map(sub, ga, gc)))
    update = _RankTwoUpdate(
        u=((1, *b, _half_square(b, gb)), (1, *d, _half_square(d, gd))),
        v=((2 + _half_square(a, ga), *ga, 1), (2 + _half_square(c, gc), *gc, 1)),
        e=e,
        ge=ge,
        half_e2=_half_square(e, ge),
        isometry=square_ac == -4 and tuple(map(add, ga, gb)) == ge,
    )
    auto = (("a", kernel.a), ("b", kernel.b), ("c", kernel.c), ("d", kernel.d))
    return CohTransform(
        source=lat,
        matrix=update.matrix(),
        kernel=kernel,
        labels=auto + tuple(labels),
        _rank_two=update,
    )


def is_mukai_isometry(t: CohTransform) -> bool:
    """Whether the transform preserves the Euler pairing exactly.

    The defining identity is M^T E M = E (Huybrechts 2006, ch. 5), with E
    the Euler Gram of the transform's lattice, equivalent by bilinearity to
    agreement of euler_chi on all pairs; a transform without factors
    (inverse results, pic1, hand-built matrices) is tested by exactly that
    product, against one Euler Gram.

    A kernel transform with its factors is an isometry exactly when

        (a - c)^2 = -4  and  G (a + b - c - d) = 0,

    the lattice shadow of the paper's criterion chi(O(a - c)) = 0 (Huybrechts
    2006, ch. 5, 10).  from_kernel reads it in O(n) off G a, ..., G d, so
    no n x n product is formed.  Proof: write l_x = ch O(x) = (1, x, x^2/2),
    e = c + d and chi for the Euler form, which is symmetric, is preserved
    by every twist and has chi(l_x, l_y) = 2 + (x - y)^2/2.  Then

        T_{-e} M = chi(l_{-a}, .) l_{b-e} + chi(l_{-c}, .) l_{-c} - I,

    and since chi(l_x, l_x) = 2 the terms in chi(l_{-c}, .) cancel in

        chi(M v, M w) - chi(v, w) = phi(v) psi(w) + psi(v) phi(w),

    where phi = chi(l_{-a}, .) is nonzero, its last entry being 1, and
    psi = chi(z, .) with z = l_{-a} + kappa l_{-c} - l_{b-e} and
    kappa = 2 + (b - d)^2/2.  Taking v with phi(v) != 0 shows that this
    symmetric form vanishes iff psi = 0, so M is an isometry iff E z = 0.
    The last entry of E z is kappa; when kappa = 0 its middle is
    G (a + b - c - d), and once that vanishes the first, a^2/2 - (b - e)^2/2,
    vanishes too, because b - e = (a + b - c - d) - a.  Likewise, with
    a + b - c - d in the radical, (b - d)^2 = (a - c)^2, so kappa = 0 iff
    (a - c)^2 = -4.
    """
    if t._rank_two is not None:
        return t._rank_two.isometry
    m = t.matrix
    e = euler_gram(t.source)
    return mat_mul(transpose(m), mat_mul(e, m)) == e


# Closed-form blocks.  Each takes the lattice and the classes CLOSED_FORMS
# names for it, in that order, and returns the (k+2)x(k+2) matrix of a
# specialized displayed formula for one kernel family.  They are crosscheck
# targets only; the engine above is never defined through them.


def _form(r, x: DivisorClass, t) -> tuple:
    """The row (r, (G x)^T, t): the linear form r*rank + f.x + t*ch2."""
    return (r, *(sum(map(mul, row, x.coords)) for row in x.lattice.gram), t)


def _block(rank_row, ch2_row, *terms) -> Matrix:
    """Rank row, divisor rows sum(x (x) row for x, row in terms) - I_f, ch2 row.

    Divisor row i is _times of the terms' i-th coordinates and their rows."""
    classes, rows = zip(*terms)
    middle = []
    for i, column in enumerate(zip(*(x.coords for x in classes))):
        row = _times(column, rows)
        row[i + 1] -= 1
        middle.append(tuple(row))
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


class DiffEntry(Record):
    __slots__ = ("input", "engine", "closed_form", "delta", "delta_hat")

    def __init__(
        self,
        input: tuple[Fraction, ...],
        engine: tuple[Fraction, ...],
        closed_form: tuple[Fraction, ...],
        delta: tuple[Fraction, ...],
        delta_hat: tuple[Fraction, Fraction] | None = None,
    ):
        object.__setattr__(self, "input", input)
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "closed_form", closed_form)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "delta_hat", delta_hat)


class DiffReport(Record):
    __slots__ = ("formula_id", "points", "entries")

    def __init__(self, formula_id: str, points: int, entries: tuple[DiffEntry, ...]):
        self._set(formula_id, points, entries)

    @property
    def agree(self) -> bool:
        return not self.entries


# The most points default_grid builds: rank 10 needs 9 * 3^10 = 531441,
# rank 11 would need 9 * 3^11 = 1594323.
MAX_GRID_POINTS = 10**6


def default_grid(lattice: NSLattice) -> tuple[tuple[int, ...], ...]:
    """Small deterministic grid of (r, f, t) coordinate vectors; ValueError
    if it would have more than MAX_GRID_POINTS points."""
    span = {1: 2, 2: 2}.get(lattice.rank, 1)
    fspan = {1: 3, 2: 2}.get(lattice.rank, 1)
    size = (2 * fspan + 1) ** lattice.rank * (2 * span + 1) ** 2
    if size > MAX_GRID_POINTS:
        raise ValueError(
            f"the default grid of a rank-{lattice.rank} lattice has {size} points, "
            f"more than the {MAX_GRID_POINTS} allowed"
        )
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
    labels, and the grid, any iterable of points, is scanned with the
    integer matrix Delta = C - M.  A grid of plain ints is its own
    numerators; otherwise every point x is scaled to integer numerators n
    over a denominator v by linalg.scaled, which rejects any entry that is
    not an int or a Fraction.  The numerators are the columns of one
    integer matrix N.  M, Delta and, where the hats are labelled, the rows
    X and R below are stacked and multiplied by N in one integer pass over
    the grid, so no point runs a product of its own.  A point is a
    disagreement exactly where Delta n is nonzero; it is recorded with the
    engine value M n / v, the closed-form value (M n + Delta n) / v and
    their difference Delta n / v.  The report is built column by column:
    each row of products is cut to the disagreeing points once and turned
    into Fractions by linalg.fraction, which shares the integral ones, and
    the rows are then zipped into the entries.  For reflexive formulas,
    when the transform names hhat and lhat, the divisor part of the
    difference is also expressed in their basis H.  That map is linear in
    x, so [H | Delta_mid] is eliminated once per crosscheck
    (linalg.solve_columns) into solution rows X, residual rows R and a
    denominator d: delta_hat is X n / (d v) where R n = 0, and None where
    the difference leaves the span of H or H is degenerate.  Every entry
    is built here, eagerly, in grid order.  An empty entry list means
    exact agreement on the grid.  The block is built on the transform's
    one lattice, so C and M always have the same shape.
    """
    if formula_id not in CLOSED_FORMS:
        raise ValueError(
            f"unknown formula id {formula_id!r}; known: {sorted(CLOSED_FORMS)}"
        )
    grid = default_grid(t.source) if grid is None else tuple(grid)
    if not set(map(len, grid)) <= {t.source.rank + 2}:
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
    # N: one row per coordinate, one column per point, and the points'
    # denominators: one int for a grid of plain ints, else one per point.
    if set(map(type, chain.from_iterable(grid))) <= {int}:
        numerators, dens = tuple(zip(*grid)), 1
    else:
        points, dens = zip(*map(linalg.scaled, grid))
        numerators = tuple(zip(*points))
    n = len(t.matrix)
    products = [_times(row, numerators) for row in stack]
    engine, delta = products[:n], products[n : 2 * n]
    mask = tuple(map(any, zip(*delta)))

    def fractions(rows, den):
        """The rows cut to the disagreeing points, as Fractions over den
        (one int, or one per point), zipped into one tuple per point."""
        if type(den) is int:
            return zip(*(linalg.fraction_vector(compress(row, mask), den) for row in rows))
        den = tuple(compress(den, mask))
        return zip(*(map(linalg.fraction, compress(row, mask), den) for row in rows))

    delta_hats = repeat(None)
    if hat_map is not None:
        hat_dens = d * dens if type(dens) is int else [d * v for v in dens]
        delta_hats = fractions(products[2 * n : 2 * n + 2], hat_dens)
        if r_rows:
            outside = map(any, zip(*(compress(row, mask) for row in products[2 * n + 2 :])))
            delta_hats = [None if off else x for x, off in zip(delta_hats, outside)]
    entries = map(
        DiffEntry,
        fractions(numerators, dens),
        fractions(engine, dens),
        fractions((map(add, e, x) for e, x in zip(engine, delta)), dens),
        fractions(delta, dens),
        delta_hats,
    )
    return DiffReport(formula_id=formula_id, points=len(grid), entries=tuple(entries))
