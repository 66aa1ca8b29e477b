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
    surface_spec_from_dict,
    transform_for,
    validate_reflexive,
)
from k3fm import lattice as lattice_module
from k3fm import transform
from k3fm.cli import BUILDERS, _builder_transform, build_parser
from k3fm.linalg import det, identity, inverse, mat_mul, mat_vec, rank, transpose
from k3fm.pic1 import existence_test, select_physical, solve_constraints, transform_from_solution
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
    RANK_6_REFLEXIVE,
    SQUARE_MINUS_4,
    characters_on,
    class_on,
    conjugated,
    fraction_solve,
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
    with pytest.raises(ValueError, match="rank must be an integer"):
        vector_to_ch(REFLEXIVE, (Fraction(1, 2), 0, 0, 0))
    with pytest.raises(ValueError, match="divisor coordinate must be an integer"):
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


def test_only_from_kernel_gives_a_transform_a_kernel():
    """The constructor takes no kernel, by keyword or position, on any
    lattice and with any matrix, its kernel's action included; the
    transform built from the same matrix and labels has no kernel."""
    m = NSLattice(((-4,),)).basis(0)
    k = KernelSpec(a=m.lattice.zero(), b=m.lattice.zero(), c=m, d=-m, declared_vanishing=(m,))
    cases = (
        (NSLattice(((2, 0), (0, -12))), identity(4)),
        (NSLattice(((4,),)), identity(3)),
        (m.lattice, identity(3)),
        (m.lattice, from_kernel(k).matrix),
    )
    for lattice, matrix in cases:
        with pytest.raises(TypeError, match="kernel"):
            CohTransform(lattice, matrix, kernel=k)
        with pytest.raises(TypeError):
            CohTransform(lattice, matrix, (), k)
    t = CohTransform(m.lattice, from_kernel(k).matrix, labels=(("m", m),))
    assert t == from_kernel(k) and t.kernel is None and t._rank_two is None


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


def assert_kernel_transform_matches_bareiss(t):
    """A kernel transform has its factors exactly when the dense product
    finds an isometry, and is_mukai_isometry says the same; its determinant
    and inverse, factored or not, match Bareiss, and the matrices
    from_kernel and the factored inverse() build without __init__'s checks
    are (rank+2)x(rank+2) tuples of int that __init__ accepts unchanged."""
    assert (t._rank_two is not None) == dense_isometry(t) == is_mukai_isometry(t)
    assert t.determinant() == det(t.matrix)
    assert outcome(lambda: t.inverse().matrix) == outcome(lambda: inverse(t.matrix))
    assert CohTransform(t.source, t.matrix) == t
    n = t.source.rank + 2
    matrices = [t.matrix]
    if t.determinant() in (1, -1):
        matrices.append(t.inverse().matrix)
    for m in matrices:
        assert type(m) is tuple and len(m) == n
        assert all(type(row) is tuple and len(row) == n for row in m)
        assert all(type(x) is int for row in m for x in row)


@settings(max_examples=200)
@given(any_kernels)
def test_factored_determinant_and_inverse_match_bareiss(k):
    t = from_kernel(k)
    assert_kernel_transform_matches_bareiss(t)
    rank = k.lattice.rank
    if t.numerically_valid:
        # a + b = c + d and (a - c)^2 = -4: an isometry, so K = -I.
        assert t._rank_two is not None
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


@given(any_kernels)
def test_from_kernel_carries_its_kernel_and_nothing_else_does(k):
    """from_kernel's transform carries the very kernel it was built from, on
    the kernel's lattice; its inverse, like every transform built without
    from_kernel, carries none."""
    t = from_kernel(k)
    assert t.kernel is k and t.source is k.lattice
    if t.determinant() in (1, -1):
        assert t.inverse().kernel is None
    bare = CohTransform(t.source, t.matrix, labels=t.labels)
    assert bare.kernel is None
    if bare.determinant() in (1, -1):
        assert bare.inverse().kernel is None
    assert identity_transform(k.lattice).kernel is None


@pytest.mark.parametrize("lsq", [4, 12, 20])
def test_pic1_transforms_carry_no_kernel(lsq):
    sol = select_physical(solve_constraints(existence_test(lsq)))
    t = transform_from_solution(sol)
    assert t.kernel is None and t._rank_two is None
    assert t.inverse().kernel is None


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
    assert_kernel_transform_matches_bareiss(t)
    assert mat_mul(t.matrix, t.inverse().matrix) == identity(rank + 2)
    # (a - c)^2 = -16 instead of -4: s = a + b - c - d = 0 and
    # chi(a - c) = chi(b - d) = -6, so by test_determinant_closed_form
    # det M = (-1)^rank (1 - 36).  No isometry, so no factors: Bareiss.
    m = valid.a - valid.c
    broken = from_kernel(KernelSpec(a=valid.a, b=valid.b, c=valid.a - 2 * m, d=valid.b + 2 * m))
    assert not broken.numerically_valid
    assert broken._rank_two is None
    assert broken.determinant() == -35 * (-1) ** rank
    assert_kernel_transform_matches_bareiss(broken)
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
    isometry lemma: (a, b, a - m, b + m) with m^2 = -4, plus a radical class
    in d on a degenerate Gram (an isometry with a + b != c + d), the same
    with d off by a basis class, c = a or a plus a radical class
    (alpha = gamma), and free draws.  A degenerate Gram copies row and
    column 0 into row and column 1, so e_0 - e_1 spans a radical."""
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
        if shape == "near":
            extra = lattice.basis(0)
        elif degenerate:
            extra = draw(st.integers(-1, 1)) * (lattice.basis(0) - lattice.basis(1))
        else:
            extra = lattice.zero()
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
    excess = k.a + k.b - k.c - k.d
    lemma = (k.a - k.c).square == -4 and not any(mat_vec(k.lattice.gram, excess.coords))
    assert (t._rank_two is not None) == lemma
    assert is_mukai_isometry(t) == dense_isometry(t) == lemma
    if det(k.lattice.gram) != 0:
        assert t.numerically_valid == lemma


@settings(max_examples=300)
@given(lemma_kernels())
def test_determinant_closed_form(k):
    """det M = (-1)^rho (1 + s^2/2 - chi(a - c) chi(b - d)) with
    s = a + b - c - d and chi(x) = 2 + x^2/2, by the matrix determinant
    lemma det M = (-1)^rho det K with the 2x2 matrix K of _RankTwoUpdate."""
    t = from_kernel(k)

    def chi(x):
        return 2 + x.square // 2

    s = k.a + k.b - k.c - k.d
    closed = (-1) ** k.lattice.rank * (1 + s.square // 2 - chi(k.a - k.c) * chi(k.b - k.d))
    assert t.determinant() == det(t.matrix) == closed


def test_factored_isometry_forms_no_dense_product(monkeypatch):
    """A kernel transform is tested without mat_mul or euler_gram, whether
    it has factors or, being no isometry, none; transforms without a kernel
    still take the dense path."""
    k = ladder_kernel(8)
    t = from_kernel(k)
    m = k.a - k.c
    broken = from_kernel(KernelSpec(a=k.a, b=k.b, c=k.a - 2 * m, d=k.b + 2 * m))
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
    assert not is_mukai_isometry(broken)
    assert calls == []
    for other in others:
        assert other._rank_two is None
        calls.clear()
        assert is_mukai_isometry(other)
        assert set(calls) == {"mat_mul", "euler_gram"}


def radical_excess_kernel():
    """a + b - c - d = -e_0, in the radical of the degenerate Gram diag(0, -4)."""
    lattice = NSLattice(((0, 0), (0, -4)))
    a, b, c, d = map(lattice.cls, ((1, -3), (-1, 3), (1, -4), (0, 4)))
    return KernelSpec(a=a, b=b, c=c, d=d)


def test_numerically_valid_keeps_the_paper_condition_on_a_degenerate_gram():
    """a + b - c - d = -e_0 lies in the radical of G, so the transform is an
    isometry, yet a + b != c + d: the two verdicts differ, as only a
    degenerate Gram allows."""
    t = from_kernel(radical_excess_kernel())
    assert is_mukai_isometry(t) and dense_isometry(t)
    assert not t.numerically_valid
    # s != 0 with s^2 = 0: the factored inverse is reached off a + b = c + d.
    assert t.determinant() == 1
    assert_kernel_transform_matches_bareiss(t)
    assert_factors_match_dense_twist(t)
    assert_isometry_facts(t)


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


def test_factored_matrices_build_no_identity_and_no_recheck(monkeypatch):
    """from_kernel and the factored inverse() build no identity or twist
    matrix and re-check no entry; the counters do see the public
    constructor's check, one exact_int per entry, and identity_transform."""
    k = ladder_kernel(8)
    calls = []
    patched = (
        (linalg, "identity"),
        (linalg, "integer_matrix"),
        (transform, "integer_matrix"),
        (linalg, "exact_int"),
    )
    for module, name in patched:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real, name=name: calls.append(name) or real(*args)
        )
    t = from_kernel(k)
    ti = t.inverse()
    assert calls == []
    assert mat_mul(t.matrix, ti.matrix) == identity(10)
    checked = ["integer_matrix", *["exact_int"] * 100]
    CohTransform(t.source, ti.matrix)
    assert calls == checked
    identity_transform(t.source)
    assert calls == [*checked, "identity", *checked]


def dense_untwist(lattice, e):
    """T_{-e} as a dense matrix: (r, f, t) maps to
    (r, f - r e, t - (G e).f + r e^2/2)."""
    ge = mat_vec(lattice.gram, e)
    n = len(e)
    middle = [(-ei, *(int(i == j) for j in range(n)), 0) for i, ei in enumerate(e)]
    half_e2 = sum(map(operator.mul, e, ge)) // 2
    return ((1, *[0] * n, 0), *middle, (half_e2, *(-g for g in ge), 1))


def ch_column(x):
    """l_x = ch O(x) = (1, x, x^2/2), from the class's own square."""
    return (1, *x.coords, x.square // 2)


def assert_factors_match_dense_twist(t):
    """On an isometry K = I - V^T T_{-e} U is -I, and the factors inverse()
    hands to _rank_two_rows are X = T_{-e} U, Y^T = V^T T_{-e} and the
    class -e with G(-e), all against a dense T_{-e}, a dense Gram product
    and U = (l_b, l_d), V = (E l_{-a}, E l_{-c}) written out from the
    kernel's classes.  Off an isometry there are no factors."""
    if t._rank_two is None:
        assert not dense_isometry(t)
        return
    k = t.kernel
    euler = euler_gram(t.source)
    u = transpose((ch_column(k.b), ch_column(k.d)))
    v = transpose([mat_vec(euler, ch_column(-x)) for x in (k.a, k.c)])
    untwist = dense_untwist(t.source, (k.c + k.d).coords)
    k_dense = tuple(
        tuple(int(i == j) - x for j, x in enumerate(row))
        for i, row in enumerate(mat_mul(transpose(v), mat_mul(untwist, u)))
    )
    assert k_dense == ((-1, 0), (0, -1))
    with pytest.MonkeyPatch.context() as patch:
        seen = []
        real = transform._rank_two_rows
        patch.setattr(
            transform, "_rank_two_rows", lambda *args: seen.append(args) or real(*args)
        )
        t.inverse()
    ((x, y, e, ge, half_e2),) = seen
    assert transpose(x) == mat_mul(untwist, u)
    assert y == mat_mul(transpose(v), untwist)
    minus_e = (-(k.c + k.d)).coords
    assert e == minus_e
    assert ge == mat_vec(t.source.gram, minus_e)
    assert half_e2 == (k.c + k.d).square // 2


@settings(max_examples=200)
@given(st.one_of(any_kernels, lemma_kernels()))
def test_k_is_minus_identity_and_inverse_factors_match_a_dense_twist(k):
    assert_factors_match_dense_twist(from_kernel(k))


def dense_reflection(euler, v):
    """s_v(w) = w - chi(v, w) v as a dense matrix, chi(v, w) = v^T E w."""
    form = [sum(map(operator.mul, v, column)) for column in zip(*euler)]
    return tuple(
        tuple(int(i == j) - vi * fj for j, fj in enumerate(form)) for i, vi in enumerate(v)
    )


def reflection_oracle(k):
    """The transform of an isometric kernel as two spherical reflections and
    a twist, M = -T_e s_{l(-a)} s_{l(-c)} + T_e n chi(l_{-a}, .) with
    n = (0, s, 0) and s = a + b - c - d, all dense; it shares no code with
    from_kernel.  chi(l_x, l_x) = 2 makes each s_v a reflection, and
    chi(l_{-a}, l_{-c}) = 2 + (a - c)^2/2 = 0 lets the two commute."""
    lattice = k.lattice
    euler = euler_gram(lattice)
    la, lc = ch_column(-k.a), ch_column(-k.c)
    s = k.a + k.b - k.c - k.d
    n = (0, *s.coords, 0)
    alpha = [sum(map(operator.mul, la, column)) for column in zip(*euler)]
    reflections = mat_mul(dense_reflection(euler, la), dense_reflection(euler, lc))
    inner = tuple(
        tuple(ni * aj - x for aj, x in zip(alpha, row)) for ni, row in zip(n, reflections)
    )
    return mat_mul(dense_untwist(lattice, (-(k.c + k.d)).coords), inner)


def assert_isometry_facts(t):
    """An isometric kernel transform has determinant (-1)^rank, is the
    reflection oracle's matrix, and its inverse is the transform of the dual
    kernel (-b, b - e, -d, -c) with e = c + d, itself factored."""
    k = t.kernel
    e = k.c + k.d
    assert t.determinant() == (-1) ** k.lattice.rank
    assert t.matrix == reflection_oracle(k)
    dual = from_kernel(KernelSpec(a=-k.b, b=k.b - e, c=-k.d, d=-k.c))
    assert dual._rank_two is not None
    assert t.inverse().matrix == dual.matrix
    assert inverse(t.matrix) == dual.matrix


@settings(max_examples=300)
@given(st.one_of(any_kernels, lemma_kernels()))
def test_isometric_kernel_transform_is_reflections_with_dual_inverse(k):
    t = from_kernel(k)
    assume(dense_isometry(t))
    assert_isometry_facts(t)


class CountedGram(tuple):
    """A Gram matrix that records every row read from it."""

    def __new__(cls, gram, reads):
        self = super().__new__(cls, gram)
        self.reads = reads
        return self

    def __iter__(self):
        for row in super().__iter__():
            self.reads.append(row)
            yield row

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


def test_from_kernel_forms_three_gram_products_or_four_when_s_is_nonzero():
    """G a, G c and G e are formed, and G s only when s = a + b - c - d != 0;
    a zero class needs no product.  determinant() and inverse() read no
    Gram row."""
    valid, again = ladder_kernel(20), ladder_kernel(20)
    off = KernelSpec(a=again.a, b=again.b, c=again.c, d=again.d + again.lattice.basis(0))
    m = DivisorClass(NSLattice(((-4,),)), (1,))
    no_cohomology = KernelSpec(a=m.lattice.zero(), b=m.lattice.zero(), c=m, d=-m)
    cases = ((valid, 3), (off, 4), (radical_excess_kernel(), 4), (no_cohomology, 1))
    for k, products in cases:
        reads = []
        object.__setattr__(k.lattice, "gram", CountedGram(k.lattice.gram, reads))
        t = from_kernel(k)
        assert len(reads) == products * k.lattice.rank
        reads.clear()
        assert t.determinant() == det(t.matrix)
        assert outcome(lambda: t.inverse().matrix) == outcome(lambda: inverse(t.matrix))
        assert reads == []


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
    """Reference scan: the engine and the block's matrix applied at every grid
    point, and delta_hat by a Fraction solve of its own at each point, which
    shares no code with linalg's elimination."""
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
        delta_hat = fraction_solve(hats, delta[1:-1]) if hats else None
        if delta_hat == "dependent":
            delta_hat = None
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
    """Points of plain ints, the grids the sweep and the CLI pass, mixed
    with half-integral points and points whose f-coordinates have
    denominators 3, 5, 6 and 7, so that the grid's one denominator differs
    from most points' own."""
    ints = st.integers(-3, 3)
    integral = st.tuples(*(ints for _ in range(lattice.rank + 2)))
    half = st.tuples(
        ints, *(ints for _ in range(lattice.rank)), ints.map(lambda n: Fraction(n, 2))
    )
    over_3_to_7 = st.builds(Fraction, ints, st.sampled_from((3, 5, 6, 7)))
    rational_f = st.tuples(ints, *(over_3_to_7 for _ in range(lattice.rank)), ints)
    return data.draw(st.lists(st.one_of(integral, half, rational_f), max_size=size))


class Int(int):
    """An int subclass: an exact integer, but not a plain int."""


def test_crosscheck_exact_number_cases():
    """Denominators 3 and 6 give the grid one denominator v = 6, and
    delta_hat, over d v, still reduces to different denominators from
    point to point; an int subclass counts as the int it is, and a bool is
    refused."""
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


@pytest.mark.parametrize("builder", ["reflexive-nondegenerate", "reflexive-type-i"])
def test_point_scan_runs_no_elimination(monkeypatch, builder):
    """The reference scan finds delta_hat without linalg's elimination, so it
    does not run the code it checks."""
    t, formula_id = builder_transform(builder), builder.replace("-", "_")
    expected = crosscheck_specialized(t, formula_id)
    assert any(e.delta_hat for e in expected.entries)

    def refuse(*args):
        raise AssertionError("the reference scan ran linalg._eliminate")

    monkeypatch.setattr(linalg, "_eliminate", refuse)
    assert crosscheck_by_points(t, formula_id) == expected


def test_rank_6_crosscheck_matches_point_scan_on_a_rational_grid():
    """On the rank-6 reflexive surface, where the hat classes span only two
    of six divisor coordinates, a grid with denominators 1, 2, 3 and 4 in
    every coordinate gives the point scan's report."""
    t = transform_for(validate_reflexive(surface_spec_from_dict(RANK_6_REFLEXIVE)), "nondegenerate")
    rng = random.Random(6)
    grid = [
        tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 4))) for _ in range(8))
        for _ in range(200)
    ]
    report = crosscheck_specialized(t, "reflexive_nondegenerate", grid)
    assert report == crosscheck_by_points(t, "reflexive_nondegenerate", grid)
    assert_fraction_fields(report)
    assert 0 < len(report.entries) < len(grid)
    assert all(e.delta_hat is not None for e in report.entries)


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


@pytest.mark.parametrize("rational", [False, True])
@pytest.mark.parametrize("size", [64, 128])
def test_crosscheck_scales_the_grid_once(monkeypatch, size, rational):
    """The whole grid goes through linalg.scaled in one call, a grid of
    plain ints as well as a rational one.  The general block has no hat
    classes, so every delta_hat is None."""
    t = CohTransform(
        REFLEXIVE,
        nondeg_transform().matrix,
        labels=(("a", H), ("b", L), ("c", -H), ("d", L)),
    )
    rng = random.Random(size)
    grid = [
        tuple(
            Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) if rational else rng.randint(-2, 2)
            for _ in range(t.source.rank + 2)
        )
        for _ in range(size)
    ]
    calls = []
    scaled = linalg.scaled
    monkeypatch.setattr(linalg, "scaled", lambda v: calls.append(v) or scaled(v))
    report = crosscheck_specialized(t, "general", grid)
    assert not report.agree
    assert len(calls) == 1
    monkeypatch.undo()
    assert report == crosscheck_by_points(t, "general", grid)


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


def test_closed_form_matrix_unknown_formula():
    """An unknown id is a ValueError from the table's reader itself, and the
    crosscheck reports it before it reads a grid too large to build."""
    t = nondeg_transform()
    with pytest.raises(ValueError, match="unknown formula id 'nope'; known: \\['general'"):
        closed_form_matrix(t, "nope")
    wide = identity_transform(NSLattice(tuple(
        tuple(-2 * (i == j) for j in range(11)) for i in range(11)
    )))
    with pytest.raises(ValueError, match="more than the"):
        default_grid(wide.source)
    with pytest.raises(ValueError, match="unknown formula id"):
        crosscheck_specialized(wide, "nope")


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
