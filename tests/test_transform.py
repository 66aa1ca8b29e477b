import functools
import operator
import random
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from k3fm import (
    ChernCharacter,
    DivisorClass,
    KernelSpec,
    NSLattice,
    ch_to_mukai,
    crosscheck_specialized,
    euler_chi,
    euler_gram,
    from_kernel,
    identity_transform,
    intersect,
    is_mukai_isometry,
    kernel_action_vector,
    linalg,
    load_surface_spec,
    mukai_pairing,
    standard_spec,
    transform_for,
    validate_reflexive,
)
from k3fm import lattice as lattice_module
from k3fm import transform
from k3fm.cli import BUILDERS, _builder_transform, build_parser
from k3fm.linalg import det, identity, inverse, mat_mul, mat_vec, rank, solve, transpose
from k3fm.surface import Assumption, SurfaceSpec
from k3fm.transform import (
    CLOSED_FORMS,
    CohTransform,
    DiffEntry,
    DiffReport,
    ch_vector,
    closed_form_matrix,
    default_grid,
    vector_to_ch,
)

from helpers import (
    SQUARE_MINUS_4,
    characters_on,
    class_on,
    conjugated,
    grid_vectors,
    kernels,
    lattices,
    raised,
    unimodular_pairs,
)

REFLEXIVE = NSLattice(((2, 0), (0, -12)))
H = DivisorClass(REFLEXIVE, (1, 0))
L = DivisorClass(REFLEXIVE, (0, 1))
LHAT = 5 * L + 12 * H
HHAT = 2 * L + 5 * H


def nondeg_transform():
    return transform_for(validate_reflexive(standard_spec()), "nondegenerate")


def no_cohomology_transform(lattice, coords):
    m = DivisorClass(lattice, coords)
    zero = lattice.zero()
    kernel = KernelSpec(a=zero, b=zero, c=m, d=-m, declared_vanishing=(m,))
    return from_kernel(kernel, labels=(("m", m),))


def test_euler_gram_shape():
    g = euler_gram(REFLEXIVE)
    assert g[0][0] == 2 and g[0][3] == 1 and g[3][0] == 1 and g[3][3] == 0
    assert g[1][1] == -2 and g[2][2] == 12 and g[1][2] == 0


def test_euler_gram_reproduces_pairing():
    g = euler_gram(REFLEXIVE)
    a = ChernCharacter(2, L + H, Fraction(-3))
    b = ChernCharacter(-1, 3 * H, Fraction(5, 2))
    va, vb = ch_vector(a), ch_vector(b)
    value = sum(va[i] * g[i][j] * vb[j] for i in range(4) for j in range(4))
    assert value == -mukai_pairing(ch_to_mukai(a), ch_to_mukai(b))


def test_identity_transform_fixes_everything():
    t = identity_transform(REFLEXIVE)
    c = ChernCharacter(3, L - H, Fraction(1, 2))
    assert t.apply(c) == c
    assert is_mukai_isometry(t)


def test_vector_to_ch_integrality():
    with pytest.raises(ValueError, match="rank"):
        vector_to_ch(REFLEXIVE, (Fraction(1, 2), 0, 0, 0))
    with pytest.raises(ValueError, match="integral"):
        vector_to_ch(REFLEXIVE, (1, Fraction(1, 2), 0, 0))
    c = vector_to_ch(REFLEXIVE, (1, 0, 2, Fraction(3, 2)))
    assert c == ChernCharacter(1, 2 * L, Fraction(3, 2))


@given(kernels())
def test_matrix_reproduces_kernel_action(k):
    t = from_kernel(k)
    for vec in grid_vectors(k.lattice, r_bound=1, f_bound=1, t_bound=1):
        assert t.apply_vector(vec) == kernel_action_vector(k, vec)


@given(kernels(), st.data())
def test_matrix_reproduces_kernel_action_on_rational_vectors(k, data):
    """kernel_action_vector scales a rational vector to integers and divides
    the image back: it agrees with the matrix on any denominators."""
    entry = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    vec = tuple(data.draw(entry) for _ in range(k.lattice.rank + 2))
    assert from_kernel(k).apply_vector(vec) == kernel_action_vector(k, vec)


@given(kernels())
def test_action_is_additive(k):
    grid = grid_vectors(k.lattice, r_bound=1, f_bound=1, t_bound=1)
    u, v = grid[1], grid[-2]
    w = tuple(a + b for a, b in zip(u, v))
    lhs = kernel_action_vector(k, w)
    rhs = tuple(
        a + b
        for a, b in zip(kernel_action_vector(k, u), kernel_action_vector(k, v))
    )
    assert lhs == rhs


@given(kernels())
def test_general_closed_form_matches_engine_everywhere(k):
    """The fully general displayed block is an expansion of the engine."""
    t = from_kernel(k)
    report = crosscheck_specialized(t, "general")
    assert report.agree, report.entries[0]


def test_no_cohomology_closed_form_exact():
    for lattice, coords in SQUARE_MINUS_4:
        t = no_cohomology_transform(lattice, coords)
        report = crosscheck_specialized(t, "no_cohomology")
        assert report.points > 0
        assert report.agree


def test_no_cohomology_transform_is_isometry_and_fixes_unit():
    for lattice, coords in SQUARE_MINUS_4:
        t = no_cohomology_transform(lattice, coords)
        assert t.numerically_valid
        assert is_mukai_isometry(t)
        unit = ChernCharacter(1, lattice.zero(), Fraction(0))
        assert t.apply(unit) == unit


def test_nondegenerate_reflexive_diff_is_frozen():
    """Engine vs specialized block: ch0, ch2 agree; ch1 differs by 2(f.h - t) lhat."""
    t = nondeg_transform()
    block = closed_form_matrix(t, "reflexive_nondegenerate")
    for vec in grid_vectors(REFLEXIVE, r_bound=2, f_bound=2, t_bound=2):
        engine = t.apply_vector(vec)
        closed = mat_vec(block, vec)
        f = DivisorClass(REFLEXIVE, vec[1:-1])
        factor = 2 * (intersect(f, H) - vec[-1])
        expected_delta = (0, factor * LHAT.coords[0], factor * LHAT.coords[1], 0)
        delta = tuple(c - e for c, e in zip(closed, engine))
        assert delta == expected_delta


def test_nondegenerate_reflexive_crosscheck_reports_hat_coordinates():
    t = nondeg_transform()
    report = crosscheck_specialized(t, "reflexive_nondegenerate")
    assert not report.agree
    for entry in report.entries:
        f = DivisorClass(REFLEXIVE, tuple(int(x) for x in entry.input[1:-1]))
        factor = 2 * (intersect(f, H) - entry.input[-1])
        assert entry.delta[0] == 0 and entry.delta[-1] == 0
        assert entry.delta_hat == (0, factor)


def degenerate_transform(variant):
    from k3fm import component_surface

    if variant == "type-i":
        rs = component_surface(("c1", "c2"), {"c1": 2, "c2": 2})
    else:
        rs = component_surface(("c1", "c2"), {"c1": 1, "c2": 3})
    return rs, transform_for(rs, variant)


def test_type_i_diff_is_frozen():
    rs, t = degenerate_transform("type-i")
    labels = t.label_map
    l, h, d1, d2 = labels["l"], labels["h"], labels["d1"], labels["d2"]
    lat = rs.spec.lattice
    block = closed_form_matrix(t, "reflexive_type_i")
    for vec in grid_vectors(lat, r_bound=1, f_bound=1, t_bound=1):
        engine = t.apply_vector(vec)
        closed = mat_vec(block, vec)
        f = DivisorClass(lat, vec[1:-1])
        expected_f = intersect(f, l) * (l - h) - 2 * intersect(f, h) * (l + 2 * h)
        delta = tuple(c - e for c, e in zip(closed, engine))
        assert delta[0] == 0 and delta[-1] == 0
        assert delta[1:-1] == tuple(Fraction(x) for x in expected_f.coords)


def test_type_ii_diff_is_frozen():
    rs, t = degenerate_transform("type-ii")
    labels = t.label_map
    h, d1, d2 = labels["h"], labels["d1"], labels["d2"]
    lat = rs.spec.lattice
    block = closed_form_matrix(t, "reflexive_type_ii")
    for vec in grid_vectors(lat, r_bound=1, f_bound=1, t_bound=1):
        engine = t.apply_vector(vec)
        closed = mat_vec(block, vec)
        f = DivisorClass(lat, vec[1:-1])
        expected_f = intersect(f, h) * (d2 - 3 * d1)
        delta = tuple(c - e for c, e in zip(closed, engine))
        assert delta[0] == 0 and delta[-1] == 0
        assert delta[1:-1] == tuple(Fraction(x) for x in expected_f.coords)


def test_kernel_transforms_are_isometries():
    transforms = [nondeg_transform()]
    for lattice, coords in SQUARE_MINUS_4:
        transforms.append(no_cohomology_transform(lattice, coords))
    for variant in ("type-i", "type-ii"):
        transforms.append(degenerate_transform(variant)[1])
    for t in transforms:
        assert t.numerically_valid
        assert is_mukai_isometry(t)


@given(st.data())
def test_isometry_preserves_euler_chi(data):
    # Integral ch2 keeps the image integral, so apply() stays defined.
    t = nondeg_transform()
    ints = st.integers(min_value=-4, max_value=4)

    def draw_character():
        coords = (data.draw(ints), data.draw(ints))
        return ChernCharacter(
            data.draw(ints), DivisorClass(REFLEXIVE, coords), Fraction(data.draw(ints))
        )

    a, b = draw_character(), draw_character()
    assert euler_chi(t.apply(a), t.apply(b)) == euler_chi(a, b)


def test_invalid_kernel_is_flagged_but_still_linear():
    k = KernelSpec(a=H, b=H, c=L, d=L)  # a+b != c+d
    t = from_kernel(k)
    assert not t.numerically_valid
    vec = (1, 0, 0, 0)
    assert t.apply_vector(vec) == kernel_action_vector(k, vec)


def test_compose_and_inverse():
    t = nondeg_transform()
    ti = t.inverse()
    assert mat_mul(ti.matrix, t.matrix) == identity_transform(REFLEXIVE).matrix
    c = ChernCharacter(2, 3 * H - L, Fraction(-7))
    assert ti.apply(t.apply(c)) == c


def assert_integer_matrices(t):
    assert all(type(x) is int for row in t.matrix for x in row)
    assert all(type(x) is int for row in euler_gram(t.source) for x in row)


@pytest.mark.parametrize("builder", BUILDERS)
def test_builder_matrices_are_integral(builder):
    argv = ["transform-apply", "--builder", builder, "--ch", "0"]
    if builder == "pic1":
        argv += ["--lsq", "12"]
    assert_integer_matrices(_builder_transform(build_parser().parse_args(argv)))


@given(kernels())
def test_kernel_matrices_are_integral(k):
    t = from_kernel(k)
    assert_integer_matrices(t)
    if t.determinant() in (1, -1):
        assert_integer_matrices(t.inverse())


def test_non_integral_entry_is_rejected():
    rows = ((1, 0, 0), (0, Fraction(1, 2), 0), (0, 0, 1))
    lattice = NSLattice(((-4,),))
    with pytest.raises(ValueError, match=r"matrix entry must be an integer, got Fraction\(1, 2\)"):
        CohTransform(lattice, rows)
    integral = CohTransform(lattice, ((Fraction(2, 2), 0, 0), (0, 1, 0), (0, 0, 1)))
    assert integral.matrix == identity_transform(lattice).matrix


@pytest.mark.parametrize(
    "rows",
    [((1, 0, 0), (0, 1, 0)), ((1, 0), (0, 1), (0, 0)), ((1, 0, 0, 0),) * 4],
    ids=["too few rows", "too few columns", "square but too large"],
)
def test_matrix_must_be_square_on_the_lattice(rows):
    with pytest.raises(ValueError, match="must be 3x3 for this lattice"):
        CohTransform(NSLattice(((-4,),)), rows)


@pytest.mark.parametrize("scale", [2, -2])
def test_inverse_needs_unit_determinant(scale):
    lattice = NSLattice(((-4,),))
    t = CohTransform(lattice, ((scale, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert t.determinant() == scale
    with pytest.raises(ValueError, match=f"determinant {scale}"):
        t.inverse()


@st.composite
def valid_kernels(draw, max_rank=5):
    """(a, b, a - m, b + m) with m the last basis class, given square -4."""
    gram = [list(row) for row in draw(lattices(max_rank=max_rank)).gram]
    gram[-1][-1] = -4
    lattice = NSLattice(tuple(map(tuple, gram)))
    m = lattice.basis(lattice.rank - 1)
    a, b = draw(class_on(lattice)), draw(class_on(lattice))
    return KernelSpec(a=a, b=b, c=a - m, d=b + m)


any_kernels = st.one_of(kernels(max_rank=5), valid_kernels())


def outcome(compute):
    """The result of compute(), or the text of the ValueError it raises."""
    try:
        return compute()
    except ValueError as error:
        return str(error)


def assert_factored_matches_bareiss(t):
    assert t._rank_two is not None
    assert t.determinant() == det(t.matrix)
    assert outcome(lambda: t.inverse().matrix) == outcome(lambda: inverse(t.matrix))


@settings(max_examples=200)
@given(any_kernels)
def test_factored_determinant_and_inverse_match_bareiss(k):
    t = from_kernel(k)
    assert_factored_matches_bareiss(t)
    rank = k.lattice.rank
    if t.numerically_valid:
        # With s = a + b - c - d = 0, K = -[[1, chi(a - c)], [chi(b - d), 1]],
        # and (b - d)^2 = (a - c)^2 = -4 makes both chi vanish.
        assert t.determinant() == (-1) ** rank
    # Transforms without factors go through Bareiss and agree with the factors.
    bare = CohTransform(t.source, t.matrix)
    assert bare._rank_two is None
    assert bare.determinant() == t.determinant()
    assert outcome(lambda: bare.inverse().matrix) == outcome(lambda: t.inverse().matrix)
    if t.determinant() in (1, -1):
        ti = t.inverse()
        assert ti._rank_two is None
        assert ti.determinant() == det(ti.matrix) == t.determinant()
        assert ti.inverse().matrix == t.matrix


def ladder_kernel(rank):
    """A seeded valid kernel on an even lattice of the given rank."""
    rng = random.Random(rank)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * rng.randint(-2, 1)
        for j in range(i):
            gram[i][j] = gram[j][i] = rng.randint(-1, 1)
    gram[-1][-1] = -4
    lattice = NSLattice(tuple(map(tuple, gram)))
    m = lattice.basis(rank - 1)
    a, b = (lattice.cls([rng.randint(-1, 1) for _ in range(rank)]) for _ in range(2))
    return KernelSpec(a=a, b=b, c=a - m, d=b + m)


@pytest.mark.parametrize("rank", [1, 2, 4, 8, 12, 20])
def test_factored_path_matches_oracles_on_rank_ladder(rank):
    """Determinant and inverse against Bareiss, the isometry lemma against
    the dense product."""
    valid = ladder_kernel(rank)
    t = from_kernel(valid)
    assert t.determinant() == (-1) ** rank
    assert_factored_matches_bareiss(t)
    assert mat_mul(t.matrix, t.inverse().matrix) == identity(rank + 2)
    # (a - c)^2 = -16 instead of -4: s = a + b - c - d = 0 and
    # chi(a - c) = chi(b - d) = -6, so det K = 1 - 36 = -35.
    m = valid.a - valid.c
    broken = from_kernel(KernelSpec(a=valid.a, b=valid.b, c=valid.a - 2 * m, d=valid.b + 2 * m))
    assert not broken.numerically_valid
    assert broken.determinant() == -35 * (-1) ** rank
    assert_factored_matches_bareiss(broken)
    # a = c: a + b = c + d holds, but (a - c)^2 = 0.
    same = from_kernel(KernelSpec(a=valid.a, b=valid.b, c=valid.a, d=valid.b))
    for u, isometry in ((t, True), (broken, False), (same, False)):
        assert is_mukai_isometry(u) == dense_isometry(u) == isometry


def dense_isometry(t):
    m, e = t.matrix, euler_gram(t.source)
    return mat_mul(mat_mul(transpose(m), e), m) == e


@given(any_kernels, st.data())
def test_isometry_check_matches_dense_product(k, data):
    t = from_kernel(k)
    exact = [t]
    if t.determinant() in (1, -1):
        # The inverse carries no factors: the dense path on a true isometry.
        exact.append(t.inverse())
    if t.numerically_valid:
        assert all(map(is_mukai_isometry, exact))
    size = len(t.matrix)
    entries = st.lists(st.integers(-2, 2), min_size=size, max_size=size)
    candidates = [
        *exact,
        CohTransform(t.source, data.draw(st.lists(entries, min_size=size, max_size=size))),
    ]
    for u in exact:
        i, j = data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))
        rows = [list(row) for row in u.matrix]
        rows[i][j] += data.draw(st.sampled_from((-2, -1, 1, 2)))
        candidates.append(CohTransform(u.source, rows))
    for candidate in candidates:
        assert is_mukai_isometry(candidate) == dense_isometry(candidate)


@pytest.mark.parametrize("scale, isometry", [(1, True), (-1, True), (2, False)])
def test_isometry_check_reads_the_diagonal(scale, isometry):
    # Scaling f by 2 changes only the diagonal entry -G = 4 of M^T E M, to 4 * 2^2.
    lattice = NSLattice(((-4,),))
    t = CohTransform(lattice, ((1, 0, 0), (0, scale, 0), (0, 0, 1)))
    assert is_mukai_isometry(t) == dense_isometry(t) == isometry


LEMMA_SHAPES = ("isometry", "isometry", "near", "same alpha", "free")


@st.composite
def lemma_kernels(draw):
    """Kernels on even lattices of rank 1-5, biased toward the edges of the
    isometry lemma: (a, b, a - m, b + m) with m^2 = -4, the same with d off
    by a basis class, c = a or a plus a radical class (alpha = gamma), and
    free draws.  A degenerate Gram copies row and column 0 into row and
    column 1, so e_0 - e_1 spans a radical."""
    gram = [list(row) for row in draw(lattices(max_rank=5)).gram]
    rank = len(gram)
    shape = draw(st.sampled_from(LEMMA_SHAPES))
    with_m = shape in ("isometry", "near")
    if with_m:
        gram[-1][-1] = -4
    degenerate = rank - with_m > 1 and draw(st.booleans())
    if degenerate:
        for row in gram:
            row[1] = row[0]
        gram[1] = list(gram[0])
    lattice = NSLattice(tuple(map(tuple, gram)))
    a, b = draw(class_on(lattice)), draw(class_on(lattice))
    if with_m:
        m = lattice.basis(rank - 1)
        extra = lattice.basis(0) if shape == "near" else lattice.zero()
        return KernelSpec(a=a, b=b, c=a - m, d=b + m + extra)
    if shape == "same alpha":
        c = a
        if degenerate:
            c += draw(st.integers(-1, 1)) * (lattice.basis(0) - lattice.basis(1))
        return KernelSpec(a=a, b=b, c=c, d=draw(class_on(lattice)))
    return KernelSpec(a=a, b=b, c=draw(class_on(lattice)), d=draw(class_on(lattice)))


@settings(max_examples=300)
@given(lemma_kernels())
def test_kernel_transform_isometry_lemma(k):
    """from_kernel(k) is an isometry iff (a - c)^2 = -4 and a + b - c - d is
    numerically trivial, G (a + b - c - d) = 0.  On a nondegenerate Gram
    that is a + b = c + d, so there the verdict is numerically_valid; a
    degenerate Gram also admits a + b - c - d in its radical."""
    t = from_kernel(k)
    assert t._rank_two is not None
    excess = k.a + k.b - k.c - k.d
    lemma = (k.a - k.c).square == -4 and not any(mat_vec(k.lattice.gram, excess.coords))
    assert is_mukai_isometry(t) == dense_isometry(t) == lemma
    if det(k.lattice.gram) != 0:
        assert t.numerically_valid == lemma


@settings(max_examples=300)
@given(lemma_kernels())
def test_determinant_closed_form(k):
    """det M = (-1)^rho (1 + s^2/2 - chi(a - c) chi(b - d)) with
    s = a + b - c - d and chi(x) = 2 + x^2/2, the determinant of the 2x2
    matrix K in _RankTwoUpdate."""
    t = from_kernel(k)

    def chi(x):
        return 2 + x.square // 2

    s = k.a + k.b - k.c - k.d
    closed = (-1) ** k.lattice.rank * (1 + s.square // 2 - chi(k.a - k.c) * chi(k.b - k.d))
    assert t.determinant() == det(t.matrix) == closed


def test_factored_isometry_forms_no_dense_product(monkeypatch):
    """A kernel transform with its factors is tested without mat_mul or
    euler_gram; transforms without factors still take the dense path."""
    k = ladder_kernel(8)
    t = from_kernel(k)
    others = [
        CohTransform(t.source, t.matrix),
        CohTransform(t.source, mat_mul(t.matrix, t.matrix)),
        t.inverse(),
    ]
    calls = []
    for name in ("mat_mul", "euler_gram"):
        real = getattr(transform, name)
        monkeypatch.setattr(
            transform, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    assert is_mukai_isometry(t)
    assert calls == []
    for other in others:
        assert other._rank_two is None
        calls.clear()
        assert is_mukai_isometry(other)
        assert set(calls) == {"mat_mul", "euler_gram"}


def test_numerically_valid_keeps_the_paper_condition_on_a_degenerate_gram():
    """a + b - c - d = -e_0 lies in the radical of G, so the transform is an
    isometry, yet a + b != c + d: the two verdicts differ, as only a
    degenerate Gram allows."""
    lattice = NSLattice(((0, 0), (0, -4)))
    a, b, c, d = map(lattice.cls, ((1, -3), (-1, 3), (1, -4), (0, 4)))
    t = from_kernel(KernelSpec(a=a, b=b, c=c, d=d))
    assert is_mukai_isometry(t) and dense_isometry(t)
    assert not t.numerically_valid


@settings(max_examples=300)
@given(lemma_kernels())
def test_numerically_valid_matches_class_arithmetic(k):
    """numerically_valid reads check_sufficient on the kernel; it is the
    class-level condition, degenerate Grams included."""
    expected = k.a + k.b == k.c + k.d and (k.a - k.c).square == -4
    assert from_kernel(k).numerically_valid == expected


def test_from_kernel_forms_no_product_and_no_class(monkeypatch):
    """from_kernel calls no mat_mul and no intersect and builds no
    DivisorClass; the counters do see class arithmetic."""
    k = ladder_kernel(8)
    calls = []
    patched = (
        (transform, "mat_mul"),
        (linalg, "mat_mul"),
        (transform, "intersect"),
        (lattice_module, "intersect"),
    )
    for module, name in patched:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    # A class is built either by the validating constructor or, for the
    # closed operations, by _of; the spy counts both.
    real_init = DivisorClass.__init__
    monkeypatch.setattr(
        DivisorClass,
        "__init__",
        lambda self, *args: calls.append("DivisorClass") or real_init(self, *args),
    )
    real_of = DivisorClass._of
    monkeypatch.setattr(
        DivisorClass,
        "_of",
        staticmethod(lambda *args: calls.append("DivisorClass") or real_of(*args)),
    )
    t = from_kernel(k)
    assert calls == []
    assert (k.a - k.c).square == -4
    assert calls == ["DivisorClass", "intersect"]
    assert t.numerically_valid


@given(st.one_of(lemma_kernels(), any_kernels), st.data())
def test_kernel_transform_under_change_of_basis(k, data):
    """A unimodular P with x_old = P x_new and G' = P^T G P: the matrix and
    the inverse are conjugated by diag(1, P, 1), and numerical validity,
    the isometry verdict and the determinant do not change."""
    p, q = data.draw(unimodular_pairs(k.lattice.rank))
    moved_lattice = NSLattice(mat_mul(mat_mul(transpose(p), k.lattice.gram), p))

    def moved(x):
        return moved_lattice.cls(sum(map(operator.mul, row, x.coords)) for row in q)

    t = from_kernel(k)
    u = from_kernel(KernelSpec(a=moved(k.a), b=moved(k.b), c=moved(k.c), d=moved(k.d)))
    assert u.matrix == conjugated(q, t.matrix, p)
    assert u.numerically_valid == t.numerically_valid
    assert is_mukai_isometry(u) == is_mukai_isometry(t)
    assert u.determinant() == t.determinant()
    inverse_t = outcome(lambda: t.inverse().matrix)
    if isinstance(inverse_t, str):
        assert outcome(lambda: u.inverse().matrix) == inverse_t
    else:
        assert u.inverse().matrix == conjugated(q, inverse_t, p)


def crosscheck_by_points(t, formula_id, grid=None):
    """Reference scan: the engine and the block's matrix applied at every grid point."""
    block = closed_form_matrix(t, formula_id)
    if grid is None:
        grid = default_grid(t.source)
    labels = t.label_map
    hats = None
    if "hhat" in labels and "lhat" in labels:
        hats = tuple(zip(labels["hhat"].coords, labels["lhat"].coords))
    entries = []
    for point in grid:
        vec = tuple(Fraction(x) for x in point)
        engine = t.apply_vector(vec)
        closed = mat_vec(block, vec)
        if engine == closed:
            continue
        delta = tuple(x - y for x, y in zip(closed, engine))
        delta_hat = solve(hats, delta[1:-1]) if hats else None
        entries.append(DiffEntry(vec, engine, closed, delta, delta_hat))
    return DiffReport(formula_id=formula_id, points=len(grid), entries=tuple(entries))


@functools.cache
def builder_transform(builder, lsq=12):
    argv = ["transform-crosscheck", "--builder", builder]
    if builder == "pic1":
        argv += ["--lsq", str(lsq)]
    return _builder_transform(build_parser().parse_args(argv))


# Each block with the builders whose transforms it applies to; every
# builder but pic1 goes through from_kernel, which labels a, b, c, d.
BLOCK_BUILDERS = {
    "general": tuple(b for b in BUILDERS if b != "pic1"),
    "no_cohomology": ("no-cohomology",),
    "reflexive_nondegenerate": ("reflexive-nondegenerate",),
    "reflexive_type_i": ("reflexive-type-i",),
    "reflexive_type_ii": ("reflexive-type-ii",),
    "picard_rank_one": ("pic1",),
}


def test_block_builders_cover_every_block():
    assert set(BLOCK_BUILDERS) == set(CLOSED_FORMS)


@pytest.mark.parametrize(
    "builder, formula_id",
    [(b, f) for f, builders in BLOCK_BUILDERS.items() for b in builders],
)
def test_crosscheck_matches_point_scan_on_builders(builder, formula_id):
    t = builder_transform(builder)
    report = crosscheck_specialized(t, formula_id)
    assert report == crosscheck_by_points(t, formula_id)
    assert_fraction_fields(report)


def assert_fraction_fields(report):
    """Every coordinate of every entry is a Fraction, never an int the CLI would print bare."""
    for e in report.entries:
        for field in (e.input, e.engine, e.closed_form, e.delta, e.delta_hat or ()):
            assert all(type(x) is Fraction for x in field)


def mixed_grid(data, lattice, size=12):
    """Points of plain ints, the path the sweep and the CLI take, mixed with
    half-integral points and points whose f-coordinates have denominators 3
    and 6, which are scaled."""
    ints = st.integers(-3, 3)
    integral = st.tuples(*(ints for _ in range(lattice.rank + 2)))
    half = st.tuples(
        ints, *(ints for _ in range(lattice.rank)), ints.map(lambda n: Fraction(n, 2))
    )
    over_3_or_6 = st.builds(Fraction, ints, st.sampled_from((3, 6)))
    rational_f = st.tuples(ints, *(over_3_or_6 for _ in range(lattice.rank)), ints)
    return data.draw(st.lists(st.one_of(integral, half, rational_f), max_size=size))


class Int(int):
    """An int subclass: an exact integer, but not a plain int."""


def test_crosscheck_exact_number_cases():
    """Denominators 3 and 6 make d v differ from point to point in delta_hat;
    an int subclass counts as the int it is, and a bool is refused."""
    t = nondeg_transform()
    third, sixth = Fraction(1, 3), Fraction(-5, 6)
    grid = [
        (1, 0, 0, 0),
        (1, third, 0, 0),
        (0, sixth, 1, 2),
        (2, 1, third, sixth),
        (-1, 2, 0, 1),
    ]
    report = crosscheck_specialized(t, "reflexive_nondegenerate", grid)
    assert report == crosscheck_by_points(t, "reflexive_nondegenerate", grid)
    assert_fraction_fields(report)
    inputs = [e.input for e in report.entries]
    assert inputs == [p for p in (tuple(map(Fraction, p)) for p in grid) if p in inputs]
    assert len(inputs) >= 3 and all(e.delta_hat is not None for e in report.entries)
    assert len({e.delta_hat[1].denominator for e in report.entries}) > 1

    ints = [(1, 0, 0, 0), (-1, 2, 0, 1), (2, -1, 1, 0)]
    subclassed = [(Int(1), 0, 0, 0), (-1, Int(2), 0, 1), tuple(map(Int, ints[2]))]
    plain = crosscheck_specialized(t, "reflexive_nondegenerate", ints)
    assert crosscheck_specialized(t, "reflexive_nondegenerate", subclassed) == plain
    assert_fraction_fields(plain)

    with pytest.raises(ValueError) as raised:
        crosscheck_specialized(t, "reflexive_nondegenerate", [(1, 0, 0, 0), (True, 0, 0, 0)])
    assert str(raised.value) == "vector entry must be an integer or a Fraction, got True"


def test_crosscheck_of_an_iterator_grid_matches_the_tuple_grid():
    t = nondeg_transform()
    grid = default_grid(t.source)
    report = crosscheck_specialized(t, "reflexive_nondegenerate", grid)
    assert not report.agree
    for points in (iter(grid), (point for point in grid), map(list, grid)):
        assert crosscheck_specialized(t, "reflexive_nondegenerate", points) == report


@pytest.mark.parametrize("formula_id", sorted(CLOSED_FORMS))
@settings(max_examples=15)
@given(st.data())
def test_crosscheck_matches_point_scan_on_random_grids(formula_id, data):
    """A drawn grid, its first point alone and the empty grid."""
    builder = data.draw(st.sampled_from(BLOCK_BUILDERS[formula_id]))
    t = builder_transform(builder, lsq=data.draw(st.sampled_from((4, 12, 20, 28))))
    grid = mixed_grid(data, t.source)
    for points in (grid, grid[:1], []):
        report = crosscheck_specialized(t, formula_id, points)
        assert report == crosscheck_by_points(t, formula_id, points)
        assert report.points == len(points)
        assert_fraction_fields(report)


@given(kernels(), st.data())
def test_general_crosscheck_of_mislabelled_kernel_matches_point_scan(k, data):
    # Labelled with other classes, the general block disagrees with the engine.
    t = from_kernel(k)
    labels = tuple((name, data.draw(class_on(k.lattice))) for name in "abcd")
    t = CohTransform(t.source, t.matrix, labels=labels)
    grid = mixed_grid(data, t.source)
    assert crosscheck_specialized(t, "general", grid) == crosscheck_by_points(
        t, "general", grid
    )


# The least lattice rank each kind of (hhat, lhat) pair needs: two independent
# classes need rank 2, a class outside their span needs rank 3.
HAT_PAIR_RANKS = {"independent": 2, "dependent": 1, "partly_outside": 3}


@pytest.mark.parametrize("kind", sorted(HAT_PAIR_RANKS))
@settings(max_examples=40)
@given(st.data())
def test_delta_hat_matches_point_scan(kind, data):
    """delta_hat from the one elimination equals a solve at every point.

    A kernel transform is labelled with other classes a, b, c, d, so the
    general block disagrees with it, and with a (hhat, lhat) pair of the
    given kind.  For partly_outside, hhat is a nonzero column of Delta_mid
    and another column lies outside span(hhat, lhat); the grid holds both
    unit vectors, so one report has entries with and without delta_hat.
    """
    k = data.draw(kernels(max_rank=4).filter(lambda k: k.lattice.rank >= HAT_PAIR_RANKS[kind]))
    lat = k.lattice
    labels = tuple((name, data.draw(class_on(lat))) for name in "abcd")
    t = CohTransform(lat, from_kernel(k).matrix, labels=labels)
    grid = mixed_grid(data, lat)
    if kind == "independent":
        hhat, lhat = data.draw(class_on(lat)), data.draw(class_on(lat))
        assume(rank((hhat.coords, lhat.coords)) == 2)
    elif kind == "dependent":
        u, q, zero = data.draw(class_on(lat)), data.draw(st.integers(-2, 2)), lat.zero()
        hhat, lhat = data.draw(st.sampled_from(((u, q * u), (zero, u), (u, zero), (zero, zero))))
    else:
        block = closed_form_matrix(t, "general")
        columns = transpose(tuple(
            tuple(x - y for x, y in zip(crow, mrow)) for crow, mrow in zip(block[1:-1], t.matrix[1:-1])
        ))
        j = next((j for j, col in enumerate(columns) if any(col)), None)
        assume(j is not None)
        i = next((i for i, col in enumerate(columns) if rank((columns[j], col)) == 2), None)
        assume(i is not None)
        hhat = DivisorClass(lat, columns[j])
        lhat = next(
            e for e in map(lat.basis, range(lat.rank))
            if rank((columns[j], e.coords, columns[i])) == 3
        )
        units = identity(lat.rank + 2)
        grid = [units[j], units[i], *grid]
    t = CohTransform(lat, t.matrix, labels=labels + (("hhat", hhat), ("lhat", lhat)))
    report = crosscheck_specialized(t, "general", grid)
    assert report == crosscheck_by_points(t, "general", grid)
    assert_fraction_fields(report)
    hats = [e.delta_hat for e in report.entries]
    if kind == "dependent":
        assert hats == [None] * len(hats)
    elif kind == "partly_outside":
        assert hats[:2] == [(1, 0), None]


@pytest.mark.parametrize("variant", ["type-i", "type-ii"])
def test_crosscheck_eliminates_once_whatever_the_grid(monkeypatch, variant):
    """At most one elimination per crosscheck: a doubled grid runs no more."""
    _, t = degenerate_transform(variant)
    formula_id = "reflexive_" + variant.replace("-", "_")
    rng = random.Random(64)
    grid = [tuple(rng.randint(-2, 2) for _ in range(t.source.rank + 2)) for _ in range(128)]
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *args: calls.append(args) or eliminate(*args))
    assert not crosscheck_specialized(t, formula_id, grid[:64]).agree
    once = len(calls)
    assert once <= 1
    calls.clear()
    crosscheck_specialized(t, formula_id, grid)
    assert len(calls) == once


@pytest.mark.parametrize("builder", ["reflexive-nondegenerate", "reflexive-type-i"])
def test_repeated_crosscheck_builds_no_new_integral_fraction(builder):
    """The integral Fractions of a report come from linalg's shared cache:
    a second identical crosscheck adds nothing to it, and its integral
    Fractions are the very objects of the first report."""
    t, formula_id = builder_transform(builder), builder.replace("-", "_")
    rng = random.Random(15)
    grid = [tuple(rng.randint(-2, 2) for _ in range(t.source.rank + 2)) for _ in range(64)]
    grid += [(*point[:-1], Fraction(point[-1], 2)) for point in grid[:8]]
    # Start from an empty cache, so that earlier tests cannot have filled it.
    linalg._integral.clear()
    first = crosscheck_specialized(t, formula_id, grid)
    assert not first.agree
    size = len(linalg._integral)
    second = crosscheck_specialized(t, formula_id, grid)
    assert second == first
    assert len(linalg._integral) == size
    for old, new in zip(first.entries, second.entries):
        for field in ("input", "engine", "closed_form", "delta", "delta_hat"):
            for x, y in zip(getattr(old, field) or (), getattr(new, field) or ()):
                if x.denominator == 1:
                    assert x is y, field


@pytest.mark.parametrize("formula_id", sorted(CLOSED_FORMS))
@pytest.mark.parametrize("grid", [None, [(1, 0, Fraction(1, 2))]])
def test_crosscheck_without_labels_raises(formula_id, grid):
    t = identity_transform(NSLattice(((-4,),)))
    with pytest.raises(ValueError, match="missing labels"):
        crosscheck_specialized(t, formula_id, grid)


def test_crosscheck_rejects_wrong_length_points():
    t = nondeg_transform()
    with pytest.raises(ValueError, match="wrong length"):
        crosscheck_specialized(t, "reflexive_nondegenerate", [(0, 0, 0, 0), (1, 0, 0)])


def test_crosscheck_unknown_formula():
    t = nondeg_transform()
    with pytest.raises(ValueError, match="unknown formula"):
        crosscheck_specialized(t, "nonsense")


def test_closed_form_requires_labels():
    lattice, coords = SQUARE_MINUS_4[0]
    t = no_cohomology_transform(lattice, coords)
    with pytest.raises(ValueError, match="missing labels"):
        crosscheck_specialized(t, "reflexive_nondegenerate")


def test_input_errors_of_vectors_characters_and_rank_one_block():
    """The wrong-length and wrong-lattice input errors, pinned as they read."""
    t = nondeg_transform()
    other = NSLattice(((2,),))
    wrong_length = ValueError, "coordinate vector has the wrong length for the source lattice"
    assert raised(lambda: t.apply_vector((1, 0, 0))) == wrong_length
    assert raised(lambda: t.apply_vector((1, 0, 0, 0, 0))) == wrong_length
    character = ChernCharacter(1, other.zero(), Fraction(0))
    assert raised(lambda: t.apply(character)) == (
        ValueError,
        "character does not live on the transform's source lattice",
    )
    assert raised(lambda: kernel_action_vector(t.kernel, (1, 0, 0))) == (
        ValueError,
        "coordinate vector has the wrong length for the kernel lattice",
    )
    assert raised(lambda: transform.closed_form_picard_rank_one(REFLEXIVE, 1)) == (
        ValueError,
        "this formula applies to rank-1 lattices only",
    )


def test_default_grid_sizes():
    assert len(default_grid(NSLattice(((-4,),)))) == 175
    assert len(default_grid(REFLEXIVE)) == 625
    # 3^11 * 9 points: refused before any is built.
    rank_11 = NSLattice(tuple(tuple(-2 * (i == j) for j in range(11)) for i in range(11)))
    with pytest.raises(ValueError, match="rank-11 lattice has 1594323 points"):
        default_grid(rank_11)


def default_grid_by_recursion(lattice):
    """The grid as first written: f coordinates outermost, then r, then t."""
    span = {1: 2, 2: 2}.get(lattice.rank, 1)
    fspan = {1: 3, 2: 2}.get(lattice.rank, 1)
    rs = range(-span, span + 1)
    ts = range(-span, span + 1)
    fvals = range(-fspan, fspan + 1)
    grid = []

    def rec(prefix, depth):
        if depth == lattice.rank:
            for r in rs:
                for t in ts:
                    grid.append((r, *prefix, t))
            return
        for v in fvals:
            rec(prefix + (v,), depth + 1)

    rec((), 0)
    return tuple(grid)


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_default_grid_matches_recursive_construction(rank):
    lattice = NSLattice(tuple(tuple(-2 * (i == j) for j in range(rank)) for i in range(rank)))
    assert default_grid(lattice) == default_grid_by_recursion(lattice)


def changed_basis_spec():
    """A rank-3 non-degenerate surface, (h, l, x) with x^2 = -2 orthogonal,
    written in the basis h + x, l + 2h, x."""
    gram = ((2, 0, 0), (0, -12, 0), (0, 0, -2))
    change = ((1, 2, 0), (0, 1, 0), (1, 0, 1))  # columns: the new basis in (h, l, x)
    lattice = NSLattice(mat_mul(mat_mul(transpose(change), gram), change))
    back = inverse(change)
    h, l = (DivisorClass(lattice, map(int, mat_vec(back, v))) for v in ((1, 0, 0), (0, 1, 0)))
    named = (("h", h), ("l", l), ("l2h", l + 2 * h))
    assumptions = (Assumption("ample", "h"), Assumption("no_cohomology", "l2h"))
    return SurfaceSpec(lattice, named, assumptions)


@pytest.mark.parametrize(
    "spec",
    [
        standard_spec,
        lambda: load_surface_spec(Path(__file__).parent.parent / "surfaces" / "reflexive.json"),
        changed_basis_spec,
    ],
    ids=["standard", "reflexive-json", "changed-basis"],
)
def test_nondegenerate_difference_is_rank_one_matrix(spec):
    # C - M = 2 (0, lhat, 0) (0, (G h)^T, -1): the block differs from the
    # engine by 2(f.h - t) lhat on every vector, not only on sampled ones.
    rs = validate_reflexive(spec())
    t = transform_for(rs, "nondegenerate")
    lhat = t.label_map["lhat"]
    assert lhat == 5 * rs.l + 12 * rs.h
    n = t.source.rank + 2
    closed = closed_form_matrix(t, "reflexive_nondegenerate")
    gh = mat_vec(t.source.gram, rs.h.coords)
    column = (0, *(2 * x for x in lhat.coords), 0)
    row = (0, *gh, -1)
    assert all(
        closed[i][j] - t.matrix[i][j] == column[i] * row[j] for i in range(n) for j in range(n)
    )


BLOCK_CLASS_NAMES = ("a", "b", "c", "d", "m", "l", "h", "lhat", "hhat", "d1", "d2")


def random_block_cases(count=400, seed=2718):
    """Seeded random even lattices of rank 1-5, each with a random class for
    every name a block reads and a random n in 0-9 for the rank-1 block."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(1, 5)
        gram = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            gram[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, rank):
                gram[i][j] = gram[j][i] = rng.randint(-4, 4)
        lattice = NSLattice(tuple(map(tuple, gram)))
        classes = {
            name: DivisorClass(lattice, tuple(rng.randint(-3, 3) for _ in range(rank)))
            for name in BLOCK_CLASS_NAMES
        }
        classes["n"] = rng.randint(0, 9)
        yield lattice, classes


def matrix_text(matrix) -> bytes:
    return (";".join(",".join(str(Fraction(x)) for x in row) for row in matrix) + "\n").encode()


# Recorded from the blocks as first written, which evaluated a formula at one
# coordinate vector: each matrix was assembled from the images of unit vectors.
BLOCK_MATRIX_DIGESTS = {
    "general": (400, "944e4187074de6b88399855a4bd9490f2893aa56acf60c3d390594c8d30c9b50"),
    "no_cohomology": (400, "85c1708b9e6dc56fd7806102316ef171784cb0535c00edc676034808d8aacc16"),
    "reflexive_nondegenerate": (400, "84bfeccc926010f9c238345d3652b3e70e301a256c17a6cb382aec719806aa65"),
    "reflexive_type_i": (400, "d47d851579aa11de330f387d3cc01bba6351a988b34f4b0e94a0e26675d29025"),
    "reflexive_type_ii": (400, "680ad8709c52ccb8bffcf1f76696873b933cf5370079132097532032191b685c"),
    "picard_rank_one": (75, "eb80d742a7f12575312fac27a66c38efa9f269ac4ced5bde1f835498d2b491a4"),
}


def test_block_matrices_match_recorded_digests():
    digests = {formula_id: sha256() for formula_id in CLOSED_FORMS}
    counts = dict.fromkeys(CLOSED_FORMS, 0)
    for lattice, classes in random_block_cases():
        for formula_id, (block, names) in CLOSED_FORMS.items():
            if formula_id == "picard_rank_one" and lattice.rank != 1:
                continue
            digests[formula_id].update(matrix_text(block(lattice, *map(classes.get, names))))
            counts[formula_id] += 1
    found = {f: (counts[f], digests[f].hexdigest()) for f in CLOSED_FORMS}
    assert found == BLOCK_MATRIX_DIGESTS
