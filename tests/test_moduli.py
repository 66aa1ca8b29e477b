from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3fm import (
    Assumption,
    CohTransform,
    DivisorClass,
    KernelSpec,
    MukaiVector,
    NSLattice,
    RejectionError,
    SurfaceSpec,
    check_ample_primitive,
    component_surface,
    degree,
    es_relation,
    from_kernel,
    hilb_moduli_vector,
    identity_transform,
    intersect,
    mukai_pairing,
    standard_spec,
    strata_chain,
    transform_for,
    validate_reflexive,
)
from k3fm.cli import _json
from k3fm.linalg import identity, mat_mul, transpose
from k3fm.moduli import HILB_FLAVORS
from k3fm.mukai import ch_to_mukai, ideal_sheaf_ch, sign_normalized

from helpers import class_on, lattices, unimodular_pairs

WITNESS = NSLattice(((2, 1), (1, -2)))
W_SPEC = SurfaceSpec(
    WITNESS,
    (("h", DivisorClass(WITNESS, (2, 0))), ("p", DivisorClass(WITNESS, (1, 0)))),
    (Assumption("ample", "h"), Assumption("ample", "p")),
)
W_H = W_SPEC.cls("h")


def test_es_relation_values():
    assert es_relation(-8) == 0
    assert es_relation(-4) == 1
    assert es_relation(0) == 2
    assert es_relation(4) == 3
    assert es_relation(8) == 4
    assert es_relation(40) == 12


@pytest.mark.parametrize("bad", [2, -6, 7, -12, -16, "4", 4.0, True])
def test_es_relation_rejects(bad):
    if type(bad) is int:
        assert es_relation(bad) is None
    else:
        with pytest.raises(ValueError):
            es_relation(bad)


@given(st.integers(min_value=0, max_value=200))
def test_es_relation_matches_rank1_stratum_length(n):
    # The solver's z = 2n+3 is the forced length at lsq = 4(2n+1).
    assert es_relation(8 * n + 4) == 2 * n + 3


def test_chain_witness_holds():
    m = DivisorClass(WITNESS, (0, 1))
    l = DivisorClass(WITNESS, (2, -1))
    report = strata_chain(l, m, W_H, 5, surface=W_SPEC, a=1)
    assert report.slopes == (2, 3, 4, 6, 8)
    assert report.verdicts == (True, True, True, True, True)
    assert report.chain_holds
    assert report.independent
    lemma = report.lemma
    assert lemma.in_window
    assert lemma.gap == 6
    assert lemma.gap_holds and lemma.predicate_ok


def test_chain_gap_fails_above_threshold():
    m = DivisorClass(WITNESS, (0, 1))
    l = DivisorClass(WITNESS, (2, -1))
    report = strata_chain(l, m, W_H, 6, surface=W_SPEC, a=1)
    assert report.lemma.gap == 6
    assert not report.lemma.gap_holds
    assert not report.lemma.predicate_ok


def test_gap_predicate_vacuous_outside_window():
    m = DivisorClass(WITNESS, (0, 1))
    l = DivisorClass(WITNESS, (2, -1))
    report = strata_chain(l, m, W_H, 6, surface=W_SPEC, a=2)
    assert not report.lemma.in_window
    assert report.lemma.predicate_ok


def test_chain_requires_declared_polarization():
    m = DivisorClass(WITNESS, (0, 1))
    l = DivisorClass(WITNESS, (2, -1))
    undeclared = SurfaceSpec(WITNESS, (("h", W_H),))
    with pytest.raises(RejectionError, match="not declared ample"):
        strata_chain(l, m, W_H, 5, surface=undeclared)
    with pytest.raises(ValueError, match="must be an integer"):
        strata_chain(l, m, W_H, "5", surface=W_SPEC)


@given(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-3, 8),
    st.integers(0, 3),
)
def test_chain_verdicts_match_direct_inequalities(lc, mc, z, a):
    l = DivisorClass(WITNESS, lc)
    m = DivisorClass(WITNESS, mc)
    report = strata_chain(l, m, W_H, z, surface=W_SPEC, a=a)
    mu_m, mu_l = degree(m, W_H), degree(l, W_H)
    expected = (
        0 < mu_m,
        Fraction(mu_m) < Fraction(mu_l, 2),
        Fraction(mu_l, 2) < mu_l - mu_m,
        mu_l - mu_m < mu_l,
        mu_l <= W_H.square,
    )
    assert report.verdicts == expected
    assert report.slopes[2] == mu_l - mu_m
    in_window = a < mu_m < mu_l - a
    gap = intersect(l, m) - m.square
    assert report.lemma.in_window == in_window
    assert report.lemma.gap == gap
    assert report.lemma.predicate_ok == ((not in_window) or gap > z)


def test_independence_detects_proportional_classes():
    m = DivisorClass(WITNESS, (1, -1))
    l = DivisorClass(WITNESS, (3, -3))
    report = strata_chain(l, m, W_H, 0, surface=W_SPEC)
    assert not report.independent
    zero = strata_chain(WITNESS.zero(), m, W_H, 0, surface=W_SPEC)
    assert not zero.independent


def test_chain_does_not_imply_independence():
    """l = 3m passes the strict slope chain (slopes scale linearly), so the
    independence flag is genuinely separate information."""
    m = DivisorClass(WITNESS, (-1, 3))
    l = 3 * m
    report = strata_chain(l, m, W_H, 0, surface=W_SPEC)
    assert report.slopes == (2, 3, 4, 6, 8)
    assert report.chain_holds
    assert not report.independent


def test_chain_report_dict_shape():
    m = DivisorClass(WITNESS, (0, 1))
    l = DivisorClass(WITNESS, (2, -1))
    data = _json(strata_chain(l, m, W_H, 5, surface=W_SPEC, a=1).to_dict())
    assert data["slopes"] == {
        "mu_m": "2/1",
        "half_mu_l": "3/1",
        "mu_l_minus_m": "4/1",
        "mu_l": "6/1",
        "h_square": "8/1",
    }
    assert data["chain_holds"] is True
    assert data["verdicts"]["mu(l) <= h^2"] is True
    assert data["lemma"]["a"] == "1/1"
    assert data["l_square"] == 2 and data["m_square"] == -2


def ample_line(hsq):
    lattice = NSLattice(((hsq,),))
    h = DivisorClass(lattice, (1,))
    spec = SurfaceSpec(lattice, (("h", h),), (Assumption("ample", "h"),))
    return spec, h


def test_proper_multiple_polarizations_always_excluded():
    for hsq in (2, 4, 6, 8, 10):
        spec, h = ample_line(hsq)
        for n in range(2, 7):
            assert check_ample_primitive(n * h, n, h, surface=spec)


def test_primitive_check_paths():
    spec, h = ample_line(2)
    # lsq = 18 is not divisible by 4: excluded before any length exists.
    assert check_ample_primitive(3 * h, 3, h, surface=spec)
    # lsq = 8: z = 4 dominates the gap 2.
    assert check_ample_primitive(2 * h, 2, h, surface=spec)


def test_primitive_check_input_errors():
    spec, h = ample_line(2)
    with pytest.raises(ValueError, match=">= 2"):
        check_ample_primitive(h, 1, h, surface=spec)
    with pytest.raises(ValueError, match="stated multiple"):
        check_ample_primitive(3 * h, 2, h, surface=spec)
    bare = SurfaceSpec(h.lattice, (("h", h),))
    with pytest.raises(RejectionError, match="not declared ample"):
        check_ample_primitive(2 * h, 2, h, surface=bare)


def no_cohomology_transform():
    lattice = NSLattice(((-4,),))
    m = DivisorClass(lattice, (1,))
    zero = lattice.zero()
    return from_kernel(
        KernelSpec(a=zero, b=zero, c=m, d=-m, declared_vanishing=(m,)),
        labels=(("m", m),),
    ), m


def test_hilb_vectors_no_cohomology_family():
    t, m = no_cohomology_transform()
    for n in range(0, 12):
        v = hilb_moduli_vector(t, n, "no-cohomology")
        if n == 0:
            assert (v.r, v.f.coords, v.s) == (1, (0,), 1)
        else:
            assert (v.r, v.s) == (2 * n - 1, -n - 1)
            assert v.f in (n * m, -(n * m))
        assert mukai_pairing(v, v) == 2 * (n - 1)


def test_hilb_vectors_reflexive_families():
    cases = [
        (transform_for(validate_reflexive(standard_spec()), "nondegenerate"),),
        (transform_for(component_surface(("c1", "c2"), {"c1": 2, "c2": 2}), "type-i"),),
        (transform_for(component_surface(("c1", "c2"), {"c1": 1, "c2": 3}), "type-ii"),),
    ]
    for (t,) in cases:
        pattern = t.kernel.b + t.kernel.d
        assert pattern.square == -12
        for n in range(0, 9):
            v = hilb_moduli_vector(t, n, "reflexive")
            if n == 0:
                assert (v.r, v.s) == (1, 1) and v.f.is_zero
            else:
                assert (v.r, v.s) == (1 + 2 * n, 1 - 3 * n)
                assert v.f in (n * pattern, -(n * pattern))
            assert mukai_pairing(v, v) == 2 * (n - 1)


def test_hilb_pattern_classes():
    nondeg = transform_for(validate_reflexive(standard_spec()), "nondegenerate")
    assert nondeg.kernel.b + nondeg.kernel.d == nondeg.label_map["lhat"]

    type_i = transform_for(component_surface(("c1", "c2"), {"c1": 2, "c2": 2}), "type-i")
    rs_l = type_i.label_map["l"]
    assert type_i.kernel.b + type_i.kernel.d == -rs_l

    type_ii = transform_for(component_surface(("c1", "c2"), {"c1": 1, "c2": 3}), "type-ii")
    d1, d2, h = (type_ii.label_map[k] for k in ("d1", "d2", "h"))
    assert type_ii.kernel.b + type_ii.kernel.d == d2 - 3 * d1 + 2 * h


def test_hilb_flavor_mismatches():
    t, _ = no_cohomology_transform()
    with pytest.raises(RejectionError, match="needs -12"):
        hilb_moduli_vector(t, 2, "reflexive")
    nondeg = transform_for(validate_reflexive(standard_spec()), "nondegenerate")
    with pytest.raises(RejectionError, match="needs -4"):
        hilb_moduli_vector(nondeg, 2, "no-cohomology")


def test_hilb_family_rejection():
    """A kernel whose pattern class has square -4 but whose transform sends
    O to a vector outside the family."""
    spec = standard_spec()
    a = DivisorClass(spec.lattice, (-2, -2))
    t = from_kernel(KernelSpec(a, a, a, DivisorClass(spec.lattice, (0, 1)), source=spec, target=spec))
    with pytest.raises(RejectionError) as err:
        hilb_moduli_vector(t, 0, "no-cohomology")
    assert str(err.value) == (
        "transformed ideal sheaf gives v(37, [-38, -19], -433), "
        "outside the predicted no-cohomology family for n = 0"
    )


def test_hilb_input_errors():
    t, _ = no_cohomology_transform()
    with pytest.raises(ValueError, match="unknown flavor"):
        hilb_moduli_vector(t, 1, "hilbert")
    with pytest.raises(ValueError, match="non-negative"):
        hilb_moduli_vector(t, -1, "no-cohomology")
    with pytest.raises(ValueError, match="no kernel data"):
        hilb_moduli_vector(identity_transform(t.source), 1, "no-cohomology")


# A lattice block carrying a kernel of each flavor's family, in block
# coordinates: (0, 0, m, -m) on m^2 = -4, and the non-degenerate reflexive
# kernel (-h, 3l+7h, l+h, 2l+5h) on h^2 = 2, l^2 = -12.
FAMILY_BLOCKS = {
    "no-cohomology": (((-4,),), ((0,), (0,), (1,), (-1,))),
    "reflexive": (((2, 0), (0, -12)), ((-1, 0), (7, 3), (1, 1), (5, 2))),
}


@st.composite
def hilb_cases(draw):
    """A from_kernel transform on an even lattice of rank 1-6, n and a flavor.

    Half the kernels are four random classes, which the pattern square
    mostly rejects.  The other half put the flavor's family kernel on its
    block, summed with a random lattice or none and conjugated by a random
    unimodular change of basis, and perturb a, c and the split of b + d by
    random classes or not at all: the pattern check then passes, and the
    family check decides.
    """
    flavor = draw(st.sampled_from(HILB_FLAVORS))
    n = draw(st.integers(0, 60))
    if draw(st.booleans()):
        lat = draw(lattices(max_rank=6))
        kernel = KernelSpec(*(draw(class_on(lat)) for _ in range(4)))
        return from_kernel(kernel), n, flavor
    block, classes = FAMILY_BLOCKS[flavor]
    extra = draw(st.one_of(st.none(), lattices(max_rank=6 - len(block))))
    extra = extra.gram if extra is not None else ()
    k, size = len(block), len(block) + len(extra)
    gram = [[0] * size for _ in range(size)]
    for i, row in enumerate(block):
        gram[i][:k] = row
    for i, row in enumerate(extra):
        gram[k + i][k:] = row
    # The basis change P: the Gram becomes P^T G P, a class x becomes Q x.
    p, q = draw(unimodular_pairs(size))
    lat = NSLattice(mat_mul(mat_mul(transpose(p), gram), p))
    a, b, c, d = (
        DivisorClass(lat, tuple(sum(map(mul, row, cls + (0,) * len(extra))) for row in q))
        for cls in classes
    )
    zero = lat.zero()
    x, y, z = (draw(st.one_of(st.just(zero), class_on(lat, bound=2))) for _ in range(3))
    return from_kernel(KernelSpec(a + x, b + z, c + y, d - z)), n, flavor


def textbook_hilb(t, n, flavor):
    """The Hilbert-family check the long way round: T.apply on ch(I_n),
    then ch_to_mukai and sign_normalized, against each family as a
    DivisorClass comparison.  Returns the vector, or the rejection text."""
    g = t.kernel.b + t.kernel.d
    if flavor == "no-cohomology":
        pattern, need, name = -g, -4, "kernel difference class"
    else:
        pattern, need, name = g, -12, "kernel pattern class"
    if pattern.square != need:
        return (
            f"{name} has square {pattern.square}, but the {flavor} family needs {need}"
        )
    v = sign_normalized(ch_to_mukai(t.apply(ideal_sheaf_ch(t.source, n))))
    if n == 0:
        ok = (v.r, v.s) == (1, 1) and v.f.is_zero
    else:
        rs = (2 * n - 1, -n - 1) if flavor == "no-cohomology" else (1 + 2 * n, 1 - 3 * n)
        ok = (v.r, v.s) == rs and v.f in (n * pattern, -(n * pattern))
    if ok:
        return v
    return (
        f"transformed ideal sheaf gives {v!r}, outside the predicted "
        f"{flavor} family for n = {n}"
    )


def kernel_case(gram, classes, n, flavor):
    lat = NSLattice(gram)
    return from_kernel(KernelSpec(*(DivisorClass(lat, x) for x in classes))), n, flavor


@settings(max_examples=300)
@given(hilb_cases())
# Rejected with r = 0, so the sign is read off f's first entry, not off s.
@example(kernel_case(((-4, 0), (0, 2)), ((0, 1), (-1, -1), (0, 2), (0, 1)), 4, "no-cohomology"))
@example(kernel_case(((2, 0), (0, -12)), ((-2, 1), (6, 2), (-1, 0), (6, 3)), 1, "reflexive"))
# Rejected at n = 0 with (r, s) = (1, 1) but f nonzero.
@example(kernel_case(((-4, 0), (0, 2)), ((-2, -2), (0, -2), (1, -2), (-1, 2)), 0, "no-cohomology"))
def test_hilb_two_columns_match_the_textbook_path(case):
    """Phi(I_n) = Phi(O) - n Phi(pt): reading M's first and last columns
    gives what T.apply on ch(I_n) gives, accepted or rejected alike."""
    t, n, flavor = case
    expected = textbook_hilb(t, n, flavor)
    if isinstance(expected, str):
        with pytest.raises(RejectionError) as err:
            hilb_moduli_vector(t, n, flavor)
        assert str(err.value) == expected
    else:
        v = hilb_moduli_vector(t, n, flavor)
        assert v == expected and repr(v) == repr(expected)
        assert type(v.r) is int and type(v.s) is Fraction
        assert set(map(type, v.f.coords)) <= {int}


def test_hilb_sees_only_kernels_from_from_kernel():
    """A hand-built transform cannot carry a kernel, on another lattice or
    with a matrix that is not the kernel's action, so hilb_moduli_vector
    never reads a kernel that its matrix does not come from: a hand-built
    matrix is an input error, never a rejection."""
    t, _ = no_cohomology_transform()
    for lattice, matrix in ((NSLattice(((4,),)), t.matrix), (t.source, identity(3))):
        with pytest.raises(TypeError):
            CohTransform(lattice, matrix, kernel=t.kernel)
        bare = CohTransform(lattice, matrix)
        with pytest.raises(ValueError) as err:
            hilb_moduli_vector(bare, 1, "no-cohomology")
        assert type(err.value) is ValueError
        assert str(err.value) == "transform carries no kernel data; the flavor check needs b and d"
    assert hilb_moduli_vector(t, 1, "no-cohomology") == MukaiVector(1, -t.kernel.c, -2)
    for n in range(1, 4):
        assert hilb_moduli_vector(t, n, "no-cohomology").f.coords in ((n,), (-n,))
