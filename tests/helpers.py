"""Shared strategies and fixture builders for the test suite."""

from fractions import Fraction

from hypothesis import strategies as st

from k3fm import ChernCharacter, DivisorClass, KernelSpec, NSLattice
from k3fm.linalg import mat_mul


@st.composite
def lattices(draw, max_rank=4, entry_bound=4):
    """Random even symmetric Gram matrices of rank 1..max_rank."""
    rank = draw(st.integers(1, max_rank))
    diag = [2 * draw(st.integers(-entry_bound // 2 - 1, entry_bound // 2 + 1)) for _ in range(rank)]
    off = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            off[(i, j)] = draw(st.integers(-entry_bound, entry_bound))
    gram = tuple(
        tuple(diag[i] if i == j else off[(min(i, j), max(i, j))] for j in range(rank))
        for i in range(rank)
    )
    return NSLattice(gram)


def class_on(lattice, bound=3):
    return st.tuples(*(st.integers(-bound, bound) for _ in range(lattice.rank))).map(
        lambda coords: DivisorClass(lattice, coords)
    )


@st.composite
def lattice_with_classes(draw, count, max_rank=4, bound=3):
    lat = draw(lattices(max_rank=max_rank))
    cls = [draw(class_on(lat, bound=bound)) for _ in range(count)]
    return (lat, *cls)


@st.composite
def characters_on(draw, lattice, r_bound=3, t_bound=5):
    r = draw(st.integers(-r_bound, r_bound))
    f = draw(class_on(lattice))
    t = Fraction(draw(st.integers(-2 * t_bound, 2 * t_bound)), 2)
    return ChernCharacter(r, f, t)


@st.composite
def kernels(draw, max_rank=3, bound=3):
    lat = draw(lattices(max_rank=max_rank))
    a, b, c, d = (draw(class_on(lat, bound=bound)) for _ in range(4))
    return KernelSpec(a=a, b=b, c=c, d=d)


# Lattices that contain a square -4 class, for kernel-shape tests.
SQUARE_MINUS_4 = [
    (NSLattice(((-4,),)), (1,)),
    (NSLattice(((2, 0), (0, -12))), (2, 1)),
    (NSLattice(((2, 1), (1, -4))), (0, 1)),
    (NSLattice(((0, 2), (2, 0))), (1, -1)),
]


def grid_vectors(lattice, r_bound=3, f_bound=3, t_bound=5):
    """Deterministic exhaustive (r, f, t) integer grid for small ranks."""
    rs = range(-r_bound, r_bound + 1)
    ts = range(-t_bound, t_bound + 1)
    fs = [()]
    for _ in range(lattice.rank):
        fs = [prefix + (v,) for prefix in fs for v in range(-f_bound, f_bound + 1)]
    return [(r, *f, t) for r in rs for f in fs for t in ts]


@st.composite
def unimodular_pairs(draw, n, max_steps=8):
    """An n x n integer matrix P of determinant +-1 and its inverse Q.

    P is a product of elementary matrices, each a shear I + s E_ij (i != j)
    or the negation of one coordinate; Q multiplies their inverses in the
    reverse order, so Q P = I holds by construction, with no elimination.
    """
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [row[:] for row in p]
    for _ in range(draw(st.integers(0, max_steps))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            # P <- P N and Q <- N Q, with N = N^-1 negating coordinate i.
            for row in p:
                row[i] = -row[i]
            q[i] = [-x for x in q[i]]
            continue
        s = draw(st.sampled_from((-2, -1, 1, 2)))
        # P <- P (I + s E_ij) adds s times column i to column j;
        # Q <- (I - s E_ij) Q subtracts s times row j from row i.
        for row in p:
            row[j] += s * row[i]
        q[i] = [x - s * y for x, y in zip(q[i], q[j])]
    return tuple(map(tuple, p)), tuple(map(tuple, q))


def conjugated(q, m, p):
    """diag(1, q, 1) m diag(1, p, 1), for the coordinates (r, f, ch2)."""

    def extended(x):
        n = len(x)
        return ((1, *(0,) * n, 0), *((0, *row, 0) for row in x), (0, *(0,) * n, 1))

    return mat_mul(mat_mul(extended(q), m), extended(p))


def fraction_solve(a, b):
    """Reference: Gauss-Jordan over Fraction on [a | b] for one column b.

    "dependent" when the columns of a are, None when b is outside their
    span, else the solution.  It shares no code with linalg's elimination.
    """
    m = len(a[0])
    rows = [[*map(Fraction, row), Fraction(x)] for row, x in zip(a, b)]
    for j in range(m):
        k = next((i for i in range(j, len(rows)) if rows[i][j]), None)
        if k is None:
            return "dependent"
        rows[j], rows[k] = rows[k], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for i, row in enumerate(rows):
            if i != j and row[j]:
                rows[i] = [x - row[j] * y for x, y in zip(row, rows[j])]
    if any(row[m] for row in rows[m:]):
        return None
    return tuple(row[m] for row in rows[:m])


def raised(compute):
    """The type and text of the error compute raises."""
    try:
        compute()
    except Exception as error:
        return type(error), str(error)
    raise AssertionError("no error raised")


# A rank-6 non-degenerate reflexive surface: the standard reflexive lattice
# (h^2 = 2, l^2 = -12) plus four orthogonal (-2)-classes, with l+2h declared
# to have no cohomology.  Its default crosscheck grid has 9 * 3^6 = 6561 points.
RANK_6_REFLEXIVE = {
    "rank": 6,
    "gram": [[x if i == j else 0 for j in range(6)] for i, x in enumerate((2, -12, -2, -2, -2, -2))],
    "classes": {"h": [1, 0, 0, 0, 0, 0], "l": [0, 1, 0, 0, 0, 0], "l2h": [2, 1, 0, 0, 0, 0]},
    "assumptions": [
        {"kind": "ample", "class": "h"},
        {"kind": "no_cohomology", "class": "l2h"},
    ],
}
