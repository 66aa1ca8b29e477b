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
Delta is linear in the grid point, and so are its (hhat, lhat)
coordinates delta_hat: one elimination of [H | Delta_mid] per crosscheck
(linalg.rank_factors) factors Delta's divisor rows through their rank,
at most 2 on the reflexive blocks, and gives delta_hat at every point.
The grid is scaled once, to integer numerators over one denominator, and
the difference comes first: the grid meets only the r factor rows and
Delta's nonzero end rows, which find the disagreeing points, and the
difference, the engine values and the hat coordinates are formed on those
columns only, so no point runs a product or a solve of its own.  The
report is built column by column: each row of integer results is turned
into Fractions in one map (the integral ones shared through
linalg.fraction), and the rows are zipped into the entries.

Transforms are stored as integer matrices (integral on an even lattice)
acting on rational coordinate vectors (rank, NS-basis coefficients, ch2)
of one lattice.  A rank-2 transform of this kind exists only when Y is
isomorphic to X (the paper's negative-twisted-determinant theorem), so
each transform maps its lattice to itself and carries that one lattice.
A kernel transform M = B alpha^T + D gamma^T - T_e is a rank-two update of
the twist T_e by e = c + d.  from_kernel keeps those factors exactly on
an isometry, the case of an equivalence, where the determinant is
(-1)^rank and the inverse is the dual kernel's transform, its factors
read off the stored ones in O(n) (see _RankTwoUpdate); every other
transform uses the Bareiss elimination of linalg.  M and M^-1 are both
built row by row from their factors in O(n^2), with the twist's few
nonzero entries subtracted in place, so no twist matrix is formed.
The Euler pairing in these coordinates has Gram matrix

    [[2, 0, 1],
     [0, -G, 0],
     [1, 0, 0]]

and a transform is an equivalence-induced map only if it preserves it,
M^T E M = E (Huybrechts, Fourier-Mukai Transforms in Algebraic Geometry,
2006, ch. 5).  is_mukai_isometry tests that product on every transform
without a kernel.  A kernel transform is an isometry exactly when
(a - c)^2 = -4 and G (a + b - c - d) = 0, a lemma that its docstring
proves; from_kernel decides it in O(n) from the Gram products it forms.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress, product, repeat
from math import gcd
from operator import add, mul, neg, sub

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
    raises ValueError, and the matrix must be (rank+2)x(rank+2).  labels
    name classes for closed-form lookups and assert nothing about the
    matrix.  kernel and _rank_two are written only by from_kernel, through
    _of, so a transform has a kernel exactly when its matrix is that
    kernel's action on the kernel's lattice; every other transform, an
    inverse included, has neither.  _rank_two holds the factors of the
    matrix exactly when the kernel is an isometry, so the determinant is
    (-1)^rank and inverse() builds the dual kernel's matrix without an
    n x n product (see _RankTwoUpdate); every other transform takes the
    Bareiss path.  kernel, labels and _rank_two are provenance and do not
    take part in equality.
    """

    __slots__ = ("source", "matrix", "kernel", "labels", "_rank_two")
    _compare = ("source", "matrix")

    def __init__(
        self, source: NSLattice, matrix: Matrix, labels: tuple[tuple[str, object], ...] = ()
    ):
        matrix = integer_matrix(matrix)
        n = source.rank + 2
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError(f"transform matrix must be {n}x{n} for this lattice")
        self._set(source, matrix, None, tuple(labels), None)

    @classmethod
    def _of(cls, source, matrix, kernel=None, labels=(), rank_two=None) -> CohTransform:
        """A transform without __init__'s checks; the only writer of kernel
        and _rank_two.  Only from_kernel, which passes the kernel, its lattice
        and, on an isometry, the factors, and the factored inverse(), which
        passes neither, call it: _rank_two_rows builds both matrices from
        int factors, so by closure of int arithmetic each is a tuple of
        source.rank + 2 tuples of as many plain ints."""
        self = object.__new__(cls)
        self._set(source, matrix, kernel, labels, rank_two)
        return self

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
            return (-1) ** self.source.rank
        return linalg.det(self.matrix)

    def inverse(self) -> "CohTransform":
        """The inverse map; ValueError unless the determinant is +-1."""
        if self._rank_two is not None:
            return CohTransform._of(self.source, self._rank_two.inverse())
        return CohTransform(self.source, linalg.inverse(self.matrix))

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
    return ChernCharacter(vec[0], DivisorClass(lattice, vec[1:-1]), vec[-1])


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


def _rank_two_rows(x, y, e, ge, half_e2) -> Matrix:
    """The rows of X Y^T - T_e for int columns x, rows y and the class e,
    given with ge = G e and half_e2 = e^2/2.

    T_e has rows (1, 0, 0), (e_i, unit_i, 0) and (e^2/2, (G e)^T, 1);
    those entries are subtracted in place from each row of X Y^T, which is
    one list comprehension.  A row whose coefficient in x0 or x1 is 0
    skips that product; about a third of the rows have one when the
    kernel's classes have entries in {-1, 0, 1}.
    """
    (x0, x1), (y0, y1) = x, y
    column = (0, *e, half_e2)
    rows = []
    for i, (p, q, c) in enumerate(zip(x0, x1, column)):
        if not p:
            row = [q * t for t in y1]
        elif not q:
            row = [p * s for s in y0]
        else:
            row = [p * s + q * t for s, t in zip(y0, y1)]
        row[0] -= c
        row[i] -= 1
        rows.append(row)
    last = rows[-1]
    last[1:-1] = map(sub, last[1:-1], ge)
    return tuple(map(tuple, rows))


class _RankTwoUpdate(Record):
    """The factors of an isometric kernel transform M = U V^T - T_e.

    Write l_x = ch O(x) = (1, x, x^2/2), E for the Euler Gram and
    chi(x) = 2 + x^2/2 for the Euler characteristic of O(x).  u holds the
    columns l_b and l_d, the characters ch(B) and ch(D); v holds the
    linear forms alpha = E l_{-a} = (2 + a^2/2, G a, 1) and
    gamma = E l_{-c}, which give chi(F*A) and chi(F*C); T_e twists by
    e = c + d, with ge = G e and half_e2 = e^2/2.  Two twist identities:

      - T_e l_x = l_{x+e}: T_e maps (1, x, x^2/2) to
        (1, x + e, x^2/2 + e.x + e^2/2), whose last entry is (x + e)^2/2.
      - T_{-e}^T E = E T_e: a twist preserves the Euler pairing
        (Huybrechts 2006, ch. 5), T_{-e}^T E T_{-e} = E; multiply on the
        right by T_{-e}^{-1} = T_e.

    So T_{-e} U = (l_{b-e}, l_{-c}) and V^T T_{-e} = (E l_{e-a}, E l_d)^T,
    and with chi(l_x, l_y) = l_x^T E l_y = 2 + (x - y)^2/2 and
    s = a + b - c - d, the 2x2 matrix of the matrix determinant lemma is
    K = I - V^T T_{-e} U = [[-1 - s^2/2, -chi(a - c)], [-chi(b - d), -1]].

    from_kernel keeps the factors only on an isometry, (a - c)^2 = -4 and
    G s = 0 (the lemma of is_mukai_isometry).  There s^2 = 0 and
    (b - d)^2 = (a - c)^2, as b - d = s - (a - c), so K = -I.  Hence
    det M = (-1)^n det K = (-1)^rank, and M^{-1} = (T_{-e} U)(V^T T_{-e})
    - T_{-e}: multiplied out, with V^T T_{-e} U = I - K = 2I, the product
    is I.  That is the transform of the dual kernel (-b, b - e, -d, -c),
    again an isometry, as the inverse of an equivalence is an equivalence
    (Huybrechts 2006, ch. 5): it twists by -e, and its forms E l_b and
    E l_d equal E l_{e-a} and E l_d, since e - a = b - s with G s = 0.
    inverse() reads those factors off u, v and e in O(n); _rank_two_rows
    builds M and M^{-1} in int, with no twist matrix.
    """

    __slots__ = ("u", "v", "e", "ge", "half_e2")

    def __init__(
        self,
        u: tuple[tuple[int, ...], tuple[int, ...]],
        v: tuple[tuple[int, ...], tuple[int, ...]],
        e: tuple[int, ...],
        ge: tuple[int, ...],
        half_e2: int,
    ):
        self._set(u, v, e, ge, half_e2)

    def matrix(self) -> Matrix:
        return _rank_two_rows(self.u, self.v, self.e, self.ge, self.half_e2)

    def inverse(self) -> Matrix:
        """M^{-1} = (T_{-e} U)(V^T T_{-e}) - T_{-e}, the dual kernel's matrix."""
        e, ge, half_e2 = self.e, self.ge, self.half_e2
        (_, *b, half_b2), (_, *d, half_d2) = self.u
        (chi_a, *ga, _), (chi_c, *gc, _) = self.v
        # T_{-e} U = (l_{b-e}, l_{-c}) and V^T T_{-e} = (E l_{e-a}, E l_d)^T,
        # with c = e - d and G d = G e - G c.
        x = (
            (1, *map(sub, b, e), half_b2 - sum(map(mul, b, ge)) + half_e2),
            (1, *map(sub, d, e), chi_c - 2),
        )
        y = (
            (chi_a - sum(map(mul, e, ga)) + half_e2, *map(sub, ga, ge), 1),
            (2 + half_d2, *map(sub, gc, ge), 1),
        )
        return _rank_two_rows(x, y, tuple(map(neg, e)), tuple(map(neg, ge)), half_e2)


def from_kernel(kernel: KernelSpec, labels: tuple = ()) -> CohTransform:
    """Build the transform matrix in closed form, in int.

    Read as matrices, the term-by-term evaluation of kernel_action_vector
    is M = B alpha^T + D gamma^T - T_e (see _RankTwoUpdate for the
    factors).  Every x^2/2 is an integer because the lattice is even.
    kernel_action_vector stays the reference the tests check this matrix
    against.  M is built row by row from the factors, without a twist
    matrix or a re-check of its ints.  The factors are kept on the
    transform exactly when the isometry lemma of is_mukai_isometry holds,
    read off the Gram products in O(n); otherwise its determinant and
    inverse take the Bareiss path.  Three Gram products G a, G c and G e
    are row dot products with the Gram, and a fourth, G s with
    s = a + b - c - d, is formed only when s != 0 (a product of a zero
    class is the class itself); G b = G e - G a + G s and G d = G e - G c
    follow in O(n).  No matrix product is formed and no DivisorClass is
    built.

    The kernel's four classes are attached as labels a, b, c, d, ahead of
    the given labels.  This is the only way a transform gets a kernel: the
    result's kernel is the given one, its source the kernel's lattice.
    """
    lat = kernel.lattice
    a, b, c, d = (x.coords for x in (kernel.a, kernel.b, kernel.c, kernel.d))
    e = tuple(map(add, c, d))
    s = tuple(map(sub, map(add, a, b), e))
    ga, gc, ge, gs = (
        tuple(sum(map(mul, row, x)) for row in lat.gram) if any(x) else x for x in (a, c, e, s)
    )
    gb = tuple(map(add, map(sub, ge, ga), gs))
    gd = tuple(map(sub, ge, gc))
    square_ac = sum(map(mul, map(sub, a, c), map(sub, ga, gc)))
    update = _RankTwoUpdate(
        u=((1, *b, _half_square(b, gb)), (1, *d, _half_square(d, gd))),
        v=((2 + _half_square(a, ga), *ga, 1), (2 + _half_square(c, gc), *gc, 1)),
        e=e,
        ge=ge,
        half_e2=_half_square(e, ge),
    )
    # The lemma of is_mukai_isometry: (a - c)^2 = -4 and G s = 0.
    isometry = square_ac == -4 and not any(gs)
    auto = (("a", kernel.a), ("b", kernel.b), ("c", kernel.c), ("d", kernel.d))
    return CohTransform._of(
        lat, update.matrix(), kernel, auto + tuple(labels), update if isometry else None
    )


def is_mukai_isometry(t: CohTransform) -> bool:
    """Whether the transform preserves the Euler pairing exactly.

    The defining identity is M^T E M = E (Huybrechts 2006, ch. 5), with E
    the Euler Gram of the transform's lattice, equivalent by bilinearity to
    agreement of euler_chi on all pairs; a transform without a kernel
    (inverse results, pic1, hand-built matrices) is tested by exactly that
    product, against one Euler Gram.

    A kernel transform is an isometry exactly when

        (a - c)^2 = -4  and  G (a + b - c - d) = 0,

    the lattice shadow of the paper's criterion chi(O(a - c)) = 0 (Huybrechts
    2006, ch. 5, 10).  from_kernel reads it in O(n) off its Gram products
    and keeps the factors exactly when it holds, so the verdict is whether
    the transform has them, and no n x n product is formed.  Proof: write
    l_x = ch O(x) = (1, x, x^2/2), e = c + d, s = a + b - c - d and chi
    for the Euler form, which is symmetric, is preserved by every twist
    and has chi(l_x, l_y) = 2 + (x - y)^2/2.  Then

        T_{-e} M = chi(l_{-a}, .) l_{b-e} + chi(l_{-c}, .) l_{-c} - I.

    If: (a - c)^2 = -4 gives chi(l_{-a}, l_{-c}) = 0, so T_{-e} M =
    -R_{l(-a)} R_{l(-c)} + chi(l_{-a}, .) n, with R_v(w) = w - chi(v, w) v
    the reflection in a v with chi(v, v) = 2 and n = l_{b-e} - l_{-a} =
    (0, s, s^2/2 - a.s), which G s = 0 puts in the kernel of E.
    Reflections and twists are isometries, so M is one.

    Only if: since chi(l_x, l_x) = 2 the terms in chi(l_{-c}, .) cancel in

        chi(M v, M w) - chi(v, w) = phi(v) psi(w) + psi(v) phi(w),

    where phi = chi(l_{-a}, .) is nonzero, its last entry being 1, and
    psi = chi(z, .) with z = l_{-a} + kappa l_{-c} - l_{b-e} and
    kappa = 2 + (b - d)^2/2.  Taking v with phi(v) != 0 shows that this
    symmetric form vanishes only if psi = 0, that is E z = 0.  The last
    entry of E z is kappa, so kappa = 0; then its middle is G s, so
    G s = 0; and then (b - d)^2 = (a - c)^2, as b - d = s - (a - c), so
    (a - c)^2 = -4.
    """
    if t.kernel is not None:
        return t._rank_two is not None
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
    """The named block's matrix, of the classes the transform labels.

    ValueError for a formula id that CLOSED_FORMS does not name, and for a
    transform that lacks one of the labels the block reads."""
    try:
        block, names = CLOSED_FORMS[formula_id]
    except KeyError:
        raise ValueError(
            f"unknown formula id {formula_id!r}; known: {sorted(CLOSED_FORMS)}"
        ) from None
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
        # Per-field sets, not _set (see record.py): 52.5 entries per reflexive-sweep op (seed 1)
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
    of a times the matching row of the matrix, starting from the first
    such term; a coefficient 1 adds the row itself, with no product.  A
    zero row gives a row of zeros."""
    total = None
    for a, mrow in zip(row, matrix):
        if not a:
            continue
        if total is None:
            total = list(mrow) if a == 1 else [a * y for y in mrow]
        elif a == 1:
            total = list(map(add, total, mrow))
        else:
            total = [x + a * y for x, y in zip(total, mrow)]
    return [0] * len(matrix[0]) if total is None else total


def crosscheck_specialized(t: CohTransform, formula_id: str, grid=None) -> DiffReport:
    """Compare the transform's action against a named closed-form block.

    The block's matrix C is built once from the classes the transform
    labels, and the grid, any iterable of points, is scanned with the
    integer matrix Delta = C - M.  The grid is scaled once, as one flat
    vector, by linalg.scaled, which rejects any entry that is not an int
    or a Fraction: its numerators are the columns n of one integer matrix
    N, over one denominator v.  A grid of plain ints, as the default grid
    and the sweep's, is its own numerators over v = 1; on a rational grid
    every point shares the lcm of all its denominators.

    The divisor rows Delta_mid of the difference are factored once per
    crosscheck, behind the hat basis H = [hhat lhat] when the transform
    names both classes: linalg.rank_factors eliminates B = [H | Delta_mid]
    into its pivot columns P, pivot rows W and last pivot p, and W's
    Delta part W_Delta and p are divided by their gcd, signed as p, so
    that p > 0 and integral values are over 1.  Then

        Delta_mid n = B[:, P] (W_Delta n) / p,

    so the grid meets only the r rows of W_Delta, r the rank of B (2 or 3
    on the sweep's reflexive surfaces, where Delta has rank 1 or 2), and
    Delta's rank and ch2 rows, each multiplied directly unless it is
    zero, as both are on every reflexive block.  The columns B[:, P] are
    independent, so a point is a disagreement exactly where one of those
    products is nonzero.  N and the products are cut to those points once,
    and Delta_mid n, the engine values M n and the hat coordinates are
    formed there only.  Each disagreement is recorded with the engine
    value M n / v, the closed-form value (M n + Delta n) / v and their
    difference Delta n / v.  When H's two columns are both pivots, the
    rows of W_Delta at them give X n and the others R n: Delta_mid n lies
    in the span of H exactly where R n = 0, and delta_hat is X n / (p v)
    there and None elsewhere.  It is None everywhere when H is absent or
    its columns are dependent.

    The report is built column by column: every row is turned into
    Fractions by linalg.fraction, which shares the integral ones, and the
    rows are zipped into the entries.  Every entry is built here, eagerly,
    in grid order.  An empty entry list means exact agreement on the grid.
    The block is built on the transform's one lattice, so C and M always
    have the same shape.

    On reflexive.transform_for's transforms, in their labels, Delta (r, f, t)
    is (0, D, 0) with D = 2 (h.f - t) lhat (nondegenerate),
    (l.f)(l - h) - 2 (h.f)(l + 2h) (type I) or (h.f)(d2 - 3 d1) (type II).
    """
    closed = closed_form_matrix(t, formula_id)
    grid = default_grid(t.source) if grid is None else tuple(grid)
    width = t.source.rank + 2
    if not set(map(len, grid)) <= {width}:
        raise ValueError("coordinate vector has the wrong length for the source lattice")
    delta_matrix = tuple(
        tuple(x - y for x, y in zip(crow, mrow)) for crow, mrow in zip(closed, t.matrix)
    )
    # N: one row per coordinate, one column per point, over one denominator.
    flat, v = linalg.scaled(chain.from_iterable(grid))
    numerators = [flat[j::width] for j in range(width)]
    labels = t.label_map
    hats = ()
    if "hhat" in labels and "lhat" in labels:
        hats = (labels["hhat"].coords, labels["lhat"].coords)
    # Delta_mid = B[:, P] W_Delta / p for B = [H | Delta_mid], with W_Delta
    # and p divided by their gcd: the grid meets only W_Delta's rows and
    # Delta's nonzero end rows.
    b = [[*(x[i] for x in hats), *row] for i, row in enumerate(delta_matrix[1:-1])]
    pivots, w, p = linalg.rank_factors(b)
    g = gcd(p, *chain.from_iterable(row[len(hats):] for row in w))
    g = g if p > 0 else -g
    p //= g
    factors = [_times([x // g for x in row[len(hats):]], numerators) for row in w]
    first, last = (
        _times(row, numerators) if any(row) else None for row in (delta_matrix[0], delta_matrix[-1])
    )
    mask = tuple(map(any, zip(*factors, *(row for row in (first, last) if row is not None))))
    zeros = [0] * sum(mask)

    def cut(row):
        """The row at the disagreeing points; None stands for a zero row."""
        return zeros if row is None else list(compress(row, mask))

    def times(row, matrix):
        return _times(row, matrix) if any(row) else zeros

    numerators = list(map(cut, numerators))
    factors = list(map(cut, factors))
    middle = []
    for brow in b:
        row = times([brow[j] for j in pivots], factors)
        middle.append(row if p == 1 else [x // p for x in row])
    delta = [cut(first), *middle, cut(last)]
    engine = [times(row, numerators) for row in t.matrix]

    def fractions(rows, den=v):
        """The rows as Fractions over den, zipped into one tuple per point."""
        return zip(*(linalg.fraction_vector(row, den) for row in rows))

    delta_hats = repeat(None)
    if hats and pivots[:2] == (0, 1):
        delta_hats = fractions(factors[:2], p * v)
        if len(factors) > 2:
            outside = map(any, zip(*factors[2:]))
            delta_hats = [None if off else x for x, off in zip(delta_hats, outside)]
    entries = map(
        DiffEntry,
        fractions(numerators),
        fractions(engine),
        fractions(map(add, e, x) for e, x in zip(engine, delta)),
        fractions(delta),
        delta_hats,
    )
    return DiffReport(formula_id=formula_id, points=len(grid), entries=tuple(entries))
