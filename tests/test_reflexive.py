import itertools
import re
from collections import Counter
from operator import mul, sub
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k3fm import (
    Assumption,
    Decomposition,
    DecompositionError,
    DivisorClass,
    NSLattice,
    RejectionError,
    ReflexiveSurface,
    ReflexiveViolation,
    SurfaceSpec,
    build_kernel,
    check_sufficient,
    chi_line,
    classify_type,
    component_surface,
    decompose_brute_force,
    decompose_l2h,
    degree,
    from_kernel,
    hat_classes,
    hilb_moduli_vector,
    intersect,
    is_mukai_isometry,
    load_surface_spec,
    mukai_pairing,
    standard_spec,
    transform_for,
    validate_reflexive,
)
from k3fm import lattice, reflexive
from k3fm.cli import _json
from k3fm.linalg import mat_mul, rank, transpose
from k3fm.reflexive import KERNEL_VARIANTS, _component_spec
from k3fm.transform import closed_form_matrix

from helpers import conjugated, raised, unimodular_pairs

SURFACES = Path(__file__).resolve().parent.parent / "surfaces"


def spec_with_gram(gram):
    lattice = NSLattice(gram)
    named = (
        ("h", DivisorClass(lattice, (1, 0))),
        ("l", DivisorClass(lattice, (0, 1))),
    )
    return SurfaceSpec(lattice, named, (Assumption("ample", "h"),))


def pair_key(dec):
    return tuple(sorted((dec.d1.coords, dec.d2.coords)))


def test_standard_spec_validates():
    rs = validate_reflexive(standard_spec())
    assert not rs.degenerate
    assert rs.h.square == 2 and rs.l.square == -12
    assert intersect(rs.h, rs.l) == 0
    l2h = rs.l2h
    assert l2h.square == -4
    assert chi_line(l2h) == 0
    assert degree(l2h, rs.h) == 4


def test_hat_classes():
    rs = validate_reflexive(standard_spec())
    lhat, hhat = hat_classes(rs)
    assert lhat.coords == (12, 5) and hhat.coords == (5, 2)
    assert hhat.square == 2 and lhat.square == -12
    assert intersect(hhat, lhat) == 0
    assert 5 * hhat - 2 * lhat == rs.h
    assert 5 * lhat - 12 * hhat == rs.l


def test_hat_classes_guard():
    """hat_classes checks nothing: a surface whose hat classes would fail
    the relations, here one with l = h, cannot be built."""
    assert raised(lambda: ReflexiveSurface(standard_spec(), "h", "h")) == (
        ReflexiveViolation,
        '"h^2 = -12" fails: got 2',
    )


@pytest.mark.parametrize(
    "gram, fragment",
    [
        ([[4, 0], [0, -12]], '"h^2 = 2" fails: got 4'),
        ([[2, 0], [0, -10]], '"l^2 = -12" fails: got -10'),
        ([[2, 1], [1, -12]], '"h.l = 0" fails: got 1'),
    ],
)
def test_defining_relation_violations(gram, fragment):
    with pytest.raises(ReflexiveViolation) as err:
        validate_reflexive(spec_with_gram(gram))
    assert fragment in str(err.value)


def test_renamed_classes():
    lattice = NSLattice(((2, 0), (0, -12)))
    named = (
        ("polarization", DivisorClass(lattice, (1, 0))),
        ("fiber", DivisorClass(lattice, (0, 1))),
    )
    spec = SurfaceSpec(lattice, named)
    rs = validate_reflexive(spec, h_name="polarization", l_name="fiber")
    assert rs.h.coords == (1, 0)


def test_declared_component_square_checked():
    base = standard_spec()
    spec = SurfaceSpec(
        base.lattice,
        base.named,
        base.assumptions + (Assumption("irreducible_rational", "l2h"),),
    )
    with pytest.raises(ReflexiveViolation, match="rational curve needs -2"):
        validate_reflexive(spec)


def test_declared_component_degree_checked():
    with pytest.raises(ReflexiveViolation, match="degree >= 1"):
        component_surface(("c1", "c2"), {"c1": 0, "c2": 4})


def independent_curve_spec(curve_count):
    # h, l, plus curves that are not forced to sum to l+2h.
    k = 2 + curve_count
    gram = [[0] * k for _ in range(k)]
    gram[0][0] = 2
    gram[1][1] = -12
    names = [("h", None), ("l", None)]
    assumptions = []
    for i in range(curve_count):
        gram[2 + i][2 + i] = -2
        gram[0][2 + i] = gram[2 + i][0] = 2
        names.append((f"c{i + 1}", None))
        assumptions.append(Assumption("irreducible_rational", f"c{i + 1}"))
    lattice = NSLattice(tuple(tuple(row) for row in gram))
    named = tuple(
        (name, lattice.basis(i)) for i, (name, _) in enumerate(names)
    )
    return SurfaceSpec(lattice, named, tuple(assumptions))


def test_component_count_checked():
    with pytest.raises(ReflexiveViolation, match="between 2 and 4"):
        validate_reflexive(independent_curve_spec(1))


def test_component_sum_checked():
    with pytest.raises(ReflexiveViolation, match="components sum to"):
        validate_reflexive(independent_curve_spec(2))


def test_degenerate_flag_from_effectivity():
    base = standard_spec()
    rs = validate_reflexive(base)
    assert not rs.degenerate
    effective = SurfaceSpec(
        base.lattice,
        base.named,
        (Assumption("ample", "h"), Assumption("effective", "l2h")),
    )
    assert validate_reflexive(effective).degenerate
    assert component_surface(("c1", "c2"), {"c1": 2, "c2": 2}).degenerate


def test_decompose_two_disjoint_components():
    rs = component_surface(("c1", "c2"), {"c1": 2, "c2": 2})
    dec = decompose_l2h(rs)
    assert dec.d1.coords == (0, 1, 0) and dec.d2.coords == (0, 0, 1)
    assert _json(dec) == {"d1": [0, 1, 0], "d2": [0, 0, 1]}
    report = classify_type(rs, dec)
    assert report.surface_type == "I"
    assert (report.deg_d1, report.deg_d2) == (2, 2)
    assert report.e is None


def refused(l_square):
    """What construction raises for a configuration whose degrees sum to 4:
    l^2 = (occurrence sum)^2 - 8 fails to be -12."""
    return ReflexiveViolation, f'"l^2 = -12" fails: got {l_square}'


def test_decompose_two_meeting_components_rejected():
    """(c1+c2)^2 = -2: no surface has two meeting components."""
    assert raised(
        lambda: component_surface(("c1", "c2"), {"c1": 2, "c2": 2}, {("c1", "c2"): 1})
    ) == refused(-10)


def test_decompose_three_components_type_i():
    rs = component_surface(
        ("a", "b", "c"), {"a": 1, "b": 1, "c": 2}, {("a", "b"): 1}
    )
    dec = decompose_l2h(rs)
    assert degree(dec.d1, rs.h) == 2 and degree(dec.d2, rs.h) == 2
    assert classify_type(rs, dec).surface_type == "I"


def test_decompose_three_components_type_ii():
    rs = component_surface(
        ("a", "b", "c"), {"a": 1, "b": 1, "c": 2}, {("b", "c"): 1}
    )
    dec = decompose_l2h(rs)
    report = classify_type(rs, dec)
    assert report.surface_type == "II"
    assert (report.deg_d1, report.deg_d2) == (1, 3)
    e = report.e
    assert e == rs.h - report.d1
    assert e.square == -2
    assert degree(e, rs.h) == 1
    assert intersect(report.d1, e) == 3


def test_decompose_three_rejections():
    """A repeated component and three disjoint ones are refused at
    construction; a negative product is the case analysis's to reject."""
    assert raised(lambda: component_surface(("a", "a", "b"), {"a": 1, "b": 2})) == refused(-18)
    assert raised(
        lambda: component_surface(("a", "b", "c"), {"a": 1, "b": 1, "c": 2})
    ) == refused(-14)

    negative = component_surface(
        ("a", "b", "c"),
        {"a": 1, "b": 1, "c": 2},
        {("a", "b"): -1, ("a", "c"): 1, ("b", "c"): 1},
    )
    with pytest.raises(DecompositionError, match="meet in -1 < 0"):
        decompose_l2h(negative)


def test_decompose_four_two_pairs():
    rs = component_surface(
        ("a", "b", "c", "d"),
        {"a": 1, "b": 1, "c": 1, "d": 1},
        {("a", "b"): 1, ("c", "d"): 1},
    )
    dec = decompose_l2h(rs)
    assert dec.d1 == rs.spec.cls("a") + rs.spec.cls("b")
    assert dec.d2 == rs.spec.cls("c") + rs.spec.cls("d")
    assert classify_type(rs, dec).surface_type == "I"


def test_decompose_four_with_repeated_component():
    rs = component_surface(
        ("u", "u", "v", "w"),
        {"u": 1, "v": 1, "w": 1},
        {("u", "v"): 1, ("u", "w"): 1},
    )
    dec = decompose_l2h(rs)
    u, v, w = rs.spec.cls("u"), rs.spec.cls("v"), rs.spec.cls("w")
    assert {dec.d1, dec.d2} == {u + v, u + w}


def test_decompose_four_isolated_component():
    rs = component_surface(
        ("a", "b", "c", "d"),
        {"a": 1, "b": 1, "c": 1, "d": 1},
        {("a", "b"): 1, ("b", "c"): 1},
    )
    dec = decompose_l2h(rs)
    d = rs.spec.cls("d")
    assert dec.d1 == d
    assert dec.d2 == rs.l2h - d
    assert classify_type(rs, dec).surface_type == "II"


def test_decompose_four_rejections():
    """A tripled component, two doubled ones and four disjoint ones are
    refused at construction; two components meeting twice are the
    two-set rule's to reject."""
    assert raised(lambda: component_surface(("u", "u", "u", "v"), {"u": 1, "v": 1})) == refused(-28)
    assert raised(lambda: component_surface(("u", "u", "v", "v"), {"u": 1, "v": 1})) == refused(-24)

    crossing = component_surface(
        ("a", "b", "c", "d"),
        {"a": 1, "b": 1, "c": 1, "d": 1},
        {("a", "b"): 2},
    )
    with pytest.raises(DecompositionError, match=r"\(c_i\+c_j\)\^2 <= -2"):
        decompose_l2h(crossing)

    assert raised(
        lambda: component_surface(("a", "b", "c", "d"), {"a": 1, "b": 1, "c": 1, "d": 1})
    ) == refused(-16)


def test_decompose_requires_components():
    rs = validate_reflexive(standard_spec())
    with pytest.raises(DecompositionError, match="no irreducible rational components"):
        decompose_l2h(rs)


@pytest.mark.parametrize(
    "config, message",
    [
        ((("c1",), {"c1": 4}), '"l^2 = -12" fails: got -10'),
        ((tuple("abcde"), dict.fromkeys("abcde", 1)), '"l^2 = -12" fails: got -22'),
    ],
)
def test_decompose_guards(config, message):
    """decompose_l2h has no check of the component count: one or five
    components are refused at construction."""
    assert raised(lambda: component_surface(*config)) == (ReflexiveViolation, message)


def restricted_growth_strings(n):
    """The occurrence patterns of n components up to relabelling: each label
    is at most one more than the largest label before it."""
    strings = [(0,)]
    for _ in range(n - 1):
        strings = [s + (k,) for s in strings for k in range(max(s) + 2)]
    return strings


def enumerated_configurations():
    """Every configuration of 2 to 4 occurrences whose components have degree
    >= 1, summing to 4 over the occurrences, and products 0..4 between
    distinct components, that has (l+2h)^2 = -4: yields (occurrences,
    degrees, products, surface), the surface from component_surface."""
    for n in (2, 3, 4):
        for labels in restricted_growth_strings(n):
            names = "uvwx"[: max(labels) + 1]
            occurrences = "".join(names[i] for i in labels)
            mult = [labels.count(i) for i in range(len(names))]
            pairs = list(itertools.combinations(range(len(names)), 2))
            for degrees in itertools.product(range(1, 5), repeat=len(names)):
                if sum(map(mul, mult, degrees)) != 4:
                    continue
                for products in itertools.product(range(5), repeat=len(pairs)):
                    # (l+2h)^2 from the multiplicities, before any lattice is built.
                    square = -2 * sum(m * m for m in mult) + 2 * sum(
                        p * mult[i] * mult[j] for p, (i, j) in zip(products, pairs)
                    )
                    if square != -4:
                        continue
                    rs = component_surface(
                        tuple(occurrences),
                        dict(zip(names, degrees)),
                        {(names[i], names[j]): p for p, (i, j) in zip(products, pairs)},
                    )
                    yield occurrences, degrees, products, rs


ENUMERATED = list(enumerated_configurations())

# The configurations that "(c_i+c_j)^2 <= -2" rejects although
# decompose_brute_force finds a numerical decomposition: in each, two
# distinct components meet twice.  Rows are (occurrences, degrees of the
# distinct components, their products in pair order uv, uw, ..., wx).
RULE_REJECTS_DECOMPOSABLE = {
    ("uuvw", (1, 1, 1), (0, 2, 0)),
    ("uuvw", (1, 1, 1), (2, 0, 0)),
    ("uvuw", (1, 1, 1), (0, 2, 0)),
    ("uvuw", (1, 1, 1), (2, 0, 0)),
    ("uvvw", (1, 1, 1), (0, 0, 2)),
    ("uvvw", (1, 1, 1), (2, 0, 0)),
    ("uvwu", (1, 1, 1), (0, 2, 0)),
    ("uvwu", (1, 1, 1), (2, 0, 0)),
    ("uvwv", (1, 1, 1), (0, 0, 2)),
    ("uvwv", (1, 1, 1), (2, 0, 0)),
    ("uvww", (1, 1, 1), (0, 0, 2)),
    ("uvww", (1, 1, 1), (0, 2, 0)),
    ("uvwx", (1, 1, 1, 1), (0, 0, 0, 0, 0, 2)),
    ("uvwx", (1, 1, 1, 1), (0, 0, 0, 0, 2, 0)),
    ("uvwx", (1, 1, 1, 1), (0, 0, 0, 2, 0, 0)),
    ("uvwx", (1, 1, 1, 1), (0, 0, 2, 0, 0, 0)),
    ("uvwx", (1, 1, 1, 1), (0, 2, 0, 0, 0, 0)),
    ("uvwx", (1, 1, 1, 1), (2, 0, 0, 0, 0, 0)),
}


def test_case_analysis_over_the_whole_finite_space():
    """Each of the 69 configurations decomposes within the brute force, or
    is rejected by the two-set rule; the rule's rejections that the brute
    force can decompose are exactly the stated table."""
    verdicts = Counter()
    decomposable_rejects = set()
    for occurrences, degrees, products, rs in ENUMERATED:
        oracle = {pair_key(found) for found in decompose_brute_force(rs)}
        try:
            dec = decompose_l2h(rs)
        except DecompositionError as error:
            assert str(error).startswith('"(c_i+c_j)^2 <= -2" fails for components ')
            verdicts["rejected"] += 1
            if oracle:
                decomposable_rejects.add((occurrences, degrees, products))
            continue
        assert pair_key(dec) in oracle
        verdicts[classify_type(rs, dec).surface_type] += 1
    assert verdicts == {"I": 13, "II": 20, "rejected": 36}
    assert decomposable_rejects == RULE_REJECTS_DECOMPOSABLE


def ampleness_witnesses(rs):
    """The pairs of distinct components c, c' (occurrence numbers i < j)
    whose delta = h - c - c' has h.delta = 0 and delta^2 = -2 or
    delta^2 > 0, with k = c.c': by Riemann-Roch +-delta would be an
    effective class of degree 0, or delta would break the Hodge index
    theorem, so no K3 surface carries the pair."""
    found = []
    for (i, c), (j, c2) in itertools.combinations(enumerate(rs.curves, start=1), 2):
        delta = rs.h - c - c2
        if c != c2 and intersect(rs.h, delta) == 0 and (delta.square == -2 or delta.square > 0):
            assert delta.square == 2 * intersect(c, c2) - 6
            found.append((i, j, intersect(c, c2)))
    return found


def test_two_set_rule_rejects_exactly_the_configurations_ampleness_excludes():
    """Each of the 36 configurations the two-set rule rejects has a pair
    that ampleness or the Hodge index theorem excludes (30 meeting twice,
    6 four times), and the message names its first such pair; none of the
    33 admitted configurations has one."""
    meetings = Counter()
    for *_, rs in ENUMERATED:
        witnesses = ampleness_witnesses(rs)
        try:
            decompose_l2h(rs)
        except DecompositionError as error:
            i, j, k = witnesses[0]
            assert str(error) == f'"(c_i+c_j)^2 <= -2" fails for components {i}, {j}: got {2 * k - 4}'
            meetings[k] += 1
        else:
            assert witnesses == []
            meetings["admitted"] += 1
    assert meetings == {2: 30, 4: 6, "admitted": 33}


def brute_force_by_classes(rs):
    """decompose_brute_force as it was written on DivisorClass arithmetic: a
    reference for the coordinate search's result list, order and dedup."""
    if not rs.curves:
        raise DecompositionError(
            "no irreducible rational components are declared; "
            "decomposition requires the degenerate case data"
        )
    curves = rs.curves
    n = len(curves)
    seen = set()
    found = []
    for mask in range(1, 1 << n):
        if mask == (1 << n) - 1:
            continue
        d1 = rs.spec.lattice.zero()
        d2 = rs.spec.lattice.zero()
        for i in range(n):
            if mask & (1 << i):
                d1 = d1 + curves[i]
            else:
                d2 = d2 + curves[i]
        if d1.square != -2 or d2.square != -2 or intersect(d1, d2) != 0:
            continue
        key = tuple(sorted((d1.coords, d2.coords)))
        if key in seen:
            continue
        seen.add(key)
        a, b = sorted((d1, d2), key=lambda dc: dc.coords)
        found.append(Decomposition(d1=a, d2=b))
    found.sort(key=lambda dec: (dec.d1.coords, dec.d2.coords))
    return found


def test_brute_force_matches_class_search_over_the_finite_space():
    assert len(ENUMERATED) == 69
    for *_, rs in ENUMERATED:
        assert decompose_brute_force(rs) == brute_force_by_classes(rs)
    for rs in ADMITTED:
        assert decompose_brute_force(rs) == brute_force_by_classes(rs)
    rs = validate_reflexive(standard_spec())
    for search in (decompose_brute_force, brute_force_by_classes):
        with pytest.raises(DecompositionError, match="^no irreducible rational components"):
            search(rs)


@st.composite
def component_configurations(draw):
    """Arguments of component_surface: one to four occurrences of up to four
    names, degrees 0..3 and products -1..2, consistent or not.  The search
    reads only the multiplicities and the products; the products' range
    keeps a few draws decomposable at all."""
    occurrences = tuple(draw(st.lists(st.sampled_from("uvwx"), min_size=1, max_size=4)))
    names = sorted(set(occurrences))
    degrees = {name: draw(st.integers(0, 3)) for name in names}
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1 :]]
    products = {pair: draw(st.integers(-1, 2)) for pair in pairs}
    return occurrences, degrees, products


def consistent(occurrences, degrees, products):
    """Whether a configuration has 2 to 4 occurrences, degrees >= 1 summing
    to 4 and an occurrence sum of square -4: the surfaces that exist."""
    mult = Counter(occurrences)
    square = -2 * sum(m * m for m in mult.values()) + 2 * sum(
        p * mult[u] * mult[v] for (u, v), p in products.items()
    )
    return (
        2 <= len(occurrences) <= 4
        and min(degrees.values()) >= 1
        and sum(m * degrees[u] for u, m in mult.items()) == 4
        and square == -4
    )


@st.composite
def consistent_configurations(draw):
    """Arguments of component_surface that a surface carries.

    2 to 4 occurrences, degrees >= 1 whose sum over the occurrences is 4, and
    products with sum_{u<v} p_uv m_u m_v = sum_u m_u^2 - 2, which is the
    occurrence sum having square -4.  Every such configuration has two names
    that occur once: with one name, or multiplicities (2, 1), (3, 1) or
    (2, 2), the one product would be 3/2, 8/3 or 6/4.  So u and v occur
    once, x may occur twice, and every product is drawn but that of (u, v),
    which takes the remainder.
    """
    singles = "uvwx"[: draw(st.integers(2, 4))]
    doubled = "xx" if len(singles) == 2 and draw(st.booleans()) else ""
    occurrences = tuple(draw(st.permutations(singles + doubled)))
    mult = Counter(occurrences)
    names = sorted(mult)
    solutions = [
        ds
        for ds in itertools.product(range(1, 5), repeat=len(names))
        if sum(mult[u] * d for u, d in zip(names, ds)) == 4
    ]
    degrees = dict(zip(names, draw(st.sampled_from(solutions))))
    pairs = list(itertools.combinations(names, 2))
    products = {pair: draw(st.integers(-2, 4)) for pair in pairs[1:]}
    rest = sum(p * mult[u] * mult[v] for (u, v), p in products.items())
    products[pairs[0]] = sum(m * m for m in mult.values()) - 2 - rest
    return occurrences, degrees, products


@settings(max_examples=300)
@given(component_configurations())
def test_drawn_configurations_are_refused_exactly_when_inconsistent(config):
    """A draw of any configuration is refused at construction unless it is
    consistent, and then it builds."""
    if not consistent(*config):
        with pytest.raises(ReflexiveViolation):
            component_surface(*config)
    else:
        component_surface(*config)


@settings(max_examples=300)
@given(consistent_configurations())
def test_brute_force_matches_class_search_on_drawn_configurations(config):
    """On a drawn consistent configuration the searches agree, and
    decompose_l2h finds one of their splits or rejects by the two-set rule
    or a negative product."""
    assert consistent(*config)
    rs = component_surface(*config)
    found = decompose_brute_force(rs)
    assert found == brute_force_by_classes(rs)
    for dec in found:
        assert dec.d1.lattice is rs.spec.lattice
        assert all(type(a) is int for a in dec.d1.coords + dec.d2.coords)
    try:
        dec = decompose_l2h(rs)
    except DecompositionError as error:
        assert re.fullmatch(
            r'"\(c_i\+c_j\)\^2 <= -2" fails for components \d, \d: got \d+'
            r"|distinct components \d and \d meet in -\d+ < 0",
            str(error),
        )
    else:
        assert pair_key(dec) in {pair_key(other) for other in found}


def test_case_analysis_reads_no_intersect(monkeypatch):
    """decompose_l2h reads one product matrix: on every admitted
    configuration it calls intersect, which DivisorClass.square also calls,
    zero times."""
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return intersect(x, y)

    monkeypatch.setattr(lattice, "intersect", counted)
    monkeypatch.setattr(reflexive, "intersect", counted)
    outcomes = Counter()
    for rs in ADMITTED + [rs for *_, rs in ENUMERATED]:
        try:
            decompose_l2h(rs)
        except DecompositionError:
            outcomes["rejected"] += 1
        else:
            outcomes["admitted"] += 1
    assert outcomes == {"admitted": 39, "rejected": 36}
    assert calls == []


ADMITTED = [
    component_surface(("c1", "c2"), {"c1": 2, "c2": 2}),
    component_surface(("a", "b", "c"), {"a": 1, "b": 1, "c": 2}, {("a", "b"): 1}),
    component_surface(("a", "b", "c"), {"a": 1, "b": 1, "c": 2}, {("b", "c"): 1}),
    component_surface(
        ("a", "b", "c", "d"),
        {"a": 1, "b": 1, "c": 1, "d": 1},
        {("a", "b"): 1, ("c", "d"): 1},
    ),
    component_surface(
        ("u", "u", "v", "w"),
        {"u": 1, "v": 1, "w": 1},
        {("u", "v"): 1, ("u", "w"): 1},
    ),
    component_surface(
        ("a", "b", "c", "d"),
        {"a": 1, "b": 1, "c": 1, "d": 1},
        {("a", "b"): 1, ("b", "c"): 1},
    ),
]


@pytest.mark.parametrize("rs", ADMITTED)
def test_finish_rejects_a_perturbed_product_matrix(rs, monkeypatch):
    """No surface reaches _finish's rejection.  With P_11 of the product
    matrix P = (C G) C^T lowered by 2, every case still picks its split and
    the half holding the first curve fails its square."""
    products = []

    def perturbed(a, b):
        product = mat_mul(a, b)
        products.append(product)
        if len(products) == 2:
            product = ((product[0][0] - 2, *product[0][1:]), *product[1:])
        return product

    monkeypatch.setattr(reflexive, "mat_mul", perturbed)
    assert raised(lambda: decompose_l2h(rs)) == (
        DecompositionError,
        "case analysis produced an invalid decomposition; "
        "the declared intersection data is inconsistent",
    )


@pytest.mark.parametrize("rs", ADMITTED)
def test_case_analysis_contained_in_brute_force(rs):
    dec = decompose_l2h(rs)
    assert dec.d1 + dec.d2 == rs.l2h
    assert dec.d1.square == -2 and dec.d2.square == -2
    assert intersect(dec.d1, dec.d2) == 0
    keys = {pair_key(found) for found in decompose_brute_force(rs)}
    assert pair_key(dec) in keys


# Configurations with an occurrence sum of square other than -4, each with
# the l^2 that construction reports.
REJECTED = [
    ((("c1", "c2"), {"c1": 2, "c2": 2}, {("c1", "c2"): 1}), -10),
    ((("a", "a", "b"), {"a": 1, "b": 2}, None), -18),
    ((("u", "u", "u", "v"), {"u": 1, "v": 1}, None), -28),
    ((("a", "b", "c", "d"), {"a": 1, "b": 1, "c": 1, "d": 1}, None), -16),
]


def test_construction_refuses_rejected_configurations():
    for config, l_square in REJECTED:
        assert raised(lambda: component_surface(*config)) == refused(l_square)


def test_classify_type_orders_halves_by_degree():
    rs = component_surface(("c1", "c2"), {"c1": 1, "c2": 3})
    dec = decompose_l2h(rs)
    ordered = classify_type(rs, dec)
    assert ordered.surface_type == "II"
    assert (ordered.deg_d1, ordered.deg_d2) == (1, 3)
    assert classify_type(rs, Decomposition(dec.d2, dec.d1)) == ordered


def test_four_distinct_components_meeting_negatively_are_rejected():
    rs = component_surface(
        ("a", "b", "c", "d"),
        {"a": 1, "b": 1, "c": 1, "d": 1},
        {("a", "b"): -1, ("a", "c"): 1, ("a", "d"): 1, ("b", "c"): 1},
    )
    assert (rs.l + 2 * rs.h).square == -4
    with pytest.raises(DecompositionError, match=r"^distinct components 1 and 2 meet in -1 < 0$"):
        decompose_l2h(rs)


def moved_spec(spec, p, q):
    """spec in the basis with x_old = P x_new: Gram P^T G P and each class Q x."""
    lattice = NSLattice(mat_mul(mat_mul(transpose(p), spec.lattice.gram), p))
    named = tuple(
        (name, lattice.cls(sum(map(mul, row, dc.coords)) for row in q)) for name, dc in spec.named
    )
    return SurfaceSpec(lattice, named, spec.assumptions)


def reflexive_verdicts(spec, old):
    """Every reflexive verdict on spec, each class given as old(coords), its
    coordinates in the original basis, and each rejection by type and text."""

    def outcome(compute):
        try:
            return compute()
        except RejectionError as error:
            return type(error).__name__, str(error)

    def pair(dec):
        return frozenset((old(dec.d1.coords), old(dec.d2.coords)))

    rs = outcome(lambda: validate_reflexive(spec))
    if isinstance(rs, tuple):
        return rs
    verdicts = {"degenerate": rs.degenerate}
    if rs.curves:
        dec = outcome(lambda: decompose_l2h(rs))
        verdicts["brute_force"] = {pair(found) for found in decompose_brute_force(rs)}
        verdicts["decomposition"] = dec if isinstance(dec, tuple) else pair(dec)
        if not isinstance(dec, tuple):
            report = outcome(lambda: classify_type(rs, dec))
            verdicts["type"] = report if isinstance(report, tuple) else (
                report.surface_type, report.deg_d1, report.deg_d2
            )
    for variant in KERNEL_VARIANTS:
        t = outcome(lambda: transform_for(rs, variant))
        if isinstance(t, tuple):
            verdicts[variant] = t
            continue
        vectors = [hilb_moduli_vector(t, n, "reflexive") for n in range(4)]
        verdicts[variant] = check_sufficient(t.kernel).verdict, [
            (v.r, v.s, old(v.f.coords), mukai_pairing(v, v)) for v in vectors
        ]
    return verdicts


BASIS_CASES = [
    standard_spec(),
    *(load_surface_spec(path) for path in sorted(SURFACES.glob("*.json"))),
    *(rs.spec for rs in ADMITTED),
    *(_component_spec(*config) for config, _ in REJECTED),
    component_surface(
        ("a", "b", "c"),
        {"a": 1, "b": 1, "c": 2},
        {("a", "b"): -1, ("a", "c"): 1, ("b", "c"): 1},
    ).spec,
    component_surface(
        ("a", "b", "c", "d"), {"a": 1, "b": 1, "c": 1, "d": 1}, {("a", "b"): 2}
    ).spec,
]


@pytest.mark.parametrize("spec", BASIS_CASES)
@settings(max_examples=20)
@given(data=st.data())
def test_reflexive_pipeline_under_change_of_basis(spec, data):
    """A unimodular P with x_old = P x_new and G' = P^T G P changes no
    verdict, type, degree, rank, degree-four part or self-pairing, and maps
    every decomposition and every Hilbert-scheme class f by P."""
    p, q = data.draw(unimodular_pairs(spec.lattice.rank))
    moved = moved_spec(spec, p, q)
    assert reflexive_verdicts(moved, lambda x: tuple(sum(map(mul, row, x)) for row in p)) == (
        reflexive_verdicts(spec, tuple)
    )


def reflexive_delta(spec):
    """The kernel variant of a reflexive surface, its transform M, and
    Delta = C - M for the variant's closed-form block C."""
    rs = validate_reflexive(spec)
    variant = "nondegenerate"
    if rs.degenerate:
        variant = {"I": "type-i", "II": "type-ii"}[classify_type(rs, decompose_l2h(rs)).surface_type]
    t = transform_for(rs, variant)
    closed = closed_form_matrix(t, "reflexive_" + variant.replace("-", "_"))
    return variant, t, tuple(tuple(map(sub, crow, mrow)) for crow, mrow in zip(closed, t.matrix))


def pairing_row(x, ch2=0):
    """The row of the linear form (r, f, t) -> x.f + ch2 t."""
    return (0, *(sum(map(mul, row, x.coords)) for row in x.lattice.gram), ch2)


def stated_difference(t, variant):
    """The stated Delta, in the classes t labels: the matrix of
    (r, f, t) -> (0, sum of x (row . (r, f, t)), 0) over its terms (x, row).

        nondegenerate  (0, 2 (h.f - t) lhat, 0)
        type I         (0, (l.f)(l - h) - 2 (h.f)(l + 2h), 0)
        type II        (0, (h.f)(d2 - 3 d1), 0)
    """
    labels = t.label_map
    h, l = labels["h"], labels["l"]
    if variant == "nondegenerate":
        terms = [(2 * labels["lhat"], pairing_row(h, -1))]
    elif variant == "type-i":
        terms = [(l - h, pairing_row(l)), (-2 * (l + 2 * h), pairing_row(h))]
    else:
        terms = [(labels["d2"] - 3 * labels["d1"], pairing_row(h))]
    width = t.source.rank + 2
    zero = (0,) * width
    middle = tuple(
        tuple(sum(x.coords[i] * row[j] for x, row in terms) for j in range(width))
        for i in range(t.source.rank)
    )
    return (zero, *middle, zero)


DELTA_RANKS = {"nondegenerate": 1, "type-i": 2, "type-ii": 1}
DELTA_CASES = [
    standard_spec(),
    *(load_surface_spec(path) for path in sorted(SURFACES.glob("*.json"))),
    *(rs.spec for rs in ADMITTED),
]


@pytest.mark.parametrize("spec", DELTA_CASES)
@settings(max_examples=20)
@given(data=st.data())
def test_closed_form_difference_rank_and_change_of_basis(spec, data):
    """Delta = C - M has rank 1 on nondegenerate and type II surfaces and
    rank 2 on type I, and a unimodular P (x_old = P x_new) conjugates it
    by diag(1, P, 1)."""
    variant, _, delta = reflexive_delta(spec)
    assert rank(delta) == DELTA_RANKS[variant]
    p, q = data.draw(unimodular_pairs(spec.lattice.rank))
    moved_variant, _, moved = reflexive_delta(moved_spec(spec, p, q))
    assert moved_variant == variant
    assert rank(moved) == DELTA_RANKS[variant]
    assert moved == conjugated(q, delta, p)


@pytest.mark.parametrize("spec", DELTA_CASES)
@settings(max_examples=20)
@given(data=st.data())
def test_closed_form_difference_is_the_stated_identity(spec, data):
    """Delta = C - M is the stated matrix in h, l, lhat, d1 and d2, in the
    given basis and in one drawn with a unimodular P."""
    p, q = data.draw(unimodular_pairs(spec.lattice.rank))
    for case in (spec, moved_spec(spec, p, q)):
        variant, t, delta = reflexive_delta(case)
        assert delta == stated_difference(t, variant)


def test_closed_form_difference_is_the_stated_identity_over_the_finite_space():
    """On each of the 33 decomposable configurations of the enumerated space."""
    variants = Counter()
    for *_, rs in ENUMERATED:
        try:
            decompose_l2h(rs)
        except DecompositionError:
            continue
        variant, t, delta = reflexive_delta(rs.spec)
        assert delta == stated_difference(t, variant)
        variants[variant] += 1
    assert variants == {"type-i": 13, "type-ii": 20}


def test_brute_force_exact_for_two_components():
    rs = component_surface(("c1", "c2"), {"c1": 2, "c2": 2})
    found = decompose_brute_force(rs)
    assert [pair_key(dec) for dec in found] == [((0, 0, 1), (0, 1, 0))]


def test_classify_rejects_degree_patterns():
    rs = component_surface(("c1", "c2"), {"c1": 2, "c2": 2})
    c1, c2, h = rs.spec.cls("c1"), rs.spec.cls("c2"), rs.h
    with pytest.raises(ReflexiveViolation, match="positive degree"):
        classify_type(rs, Decomposition(d1=c1 - h, d2=c2 + h))
    with pytest.raises(ReflexiveViolation, match=r"\(2, 4\) is impossible"):
        classify_type(rs, Decomposition(d1=c1, d2=c2 + h))
    # Degrees (1, 3), but d1 = c2 - h is no (-2)-class: e = 2h - c2 has square -6.
    type_ii = component_surface(("c1", "c2"), {"c1": 1, "c2": 3})
    c2 = type_ii.spec.cls("c2")
    with pytest.raises(ReflexiveViolation, match=r'^"e\^2 = -2" fails for e = h - d_1: got -6$'):
        classify_type(type_ii, Decomposition(d1=c2 - type_ii.h, d2=c2))


def test_component_surface_needs_every_degree():
    with pytest.raises(ValueError) as err:
        component_surface(("a", "b"), {"a": 2})
    assert type(err.value) is ValueError
    assert str(err.value) == "missing degrees for components ['b']"


def test_type_ii_halves_off_a_square_2_polarization_are_refused():
    """Degrees (1, 3) and e = h - d1 of square -2, but h^2 = 4, so h.e = 3.
    classify_type does not check h.e = 1, as no such surface can be built."""
    lattice = NSLattice(((4, 1, 3), (1, -4, 0), (3, 0, -2)))
    h, d1, d2 = map(lattice.basis, range(3))
    spec = SurfaceSpec(lattice, (("h", h), ("l", d1 + d2 - 2 * h)), (Assumption("ample", "h"),))
    assert (h - d1).square == -2 and degree(h - d1, h) == 3
    assert raised(lambda: ReflexiveSurface(spec)) == (ReflexiveViolation, '"h^2 = 2" fails: got 4')


def test_nondegenerate_kernel():
    rs = validate_reflexive(standard_spec())
    k = build_kernel(rs, "nondegenerate")
    assert k.a == -rs.h
    assert k.b == 3 * rs.l + 7 * rs.h
    assert k.c == rs.l + rs.h
    assert k.d == 2 * rs.l + 5 * rs.h
    assert k.declared_vanishing == (rs.l2h,)
    assert check_sufficient(k).verdict == "sufficient"


def test_nondegenerate_kernel_refused_on_degenerate_surface():
    rs = component_surface(("c1", "c2"), {"c1": 2, "c2": 2})
    with pytest.raises(ReflexiveViolation, match="declares it effective"):
        build_kernel(rs, "nondegenerate")


def test_kernel_variant_must_match_pattern():
    type_i = component_surface(("c1", "c2"), {"c1": 2, "c2": 2})
    type_ii = component_surface(("c1", "c2"), {"c1": 1, "c2": 3})
    with pytest.raises(ReflexiveViolation, match="type-ii kernel does not apply"):
        build_kernel(type_i, "type-ii")
    with pytest.raises(ReflexiveViolation, match="type-i kernel does not apply"):
        build_kernel(type_ii, "type-i")
    with pytest.raises(ValueError, match="unknown kernel variant"):
        build_kernel(type_i, "type-iii")


def test_type_kernels_shapes():
    type_i = component_surface(("c1", "c2"), {"c1": 2, "c2": 2})
    k1 = build_kernel(type_i, "type-i")
    assert k1.a == -k1.b and k1.c == -k1.d
    assert (k1.a - k1.c).square == -4

    type_ii = component_surface(("c1", "c2"), {"c1": 1, "c2": 3})
    k2 = build_kernel(type_ii, "type-ii")
    d1, d2, h = type_ii.spec.cls("c1"), type_ii.spec.cls("c2"), type_ii.h
    assert k2.a == d1 - h
    assert k2.b == d2 - 2 * d1 + h
    assert k2.c == d2 - h
    assert k2.d == h - d1
    assert k2.a + k2.b == k2.c + k2.d
    assert (k2.a - k2.c).square == -4


def test_transforms_fix_unit_up_to_shift():
    surfaces = {
        "nondegenerate": validate_reflexive(standard_spec()),
        "type-i": component_surface(("c1", "c2"), {"c1": 2, "c2": 2}),
        "type-ii": component_surface(("c1", "c2"), {"c1": 1, "c2": 3}),
    }
    for variant, rs in surfaces.items():
        t = transform_for(rs, variant)
        assert t.numerically_valid
        assert is_mukai_isometry(t)
        n = rs.spec.lattice.rank + 2
        unit = (1,) + (0,) * (n - 1)
        image = t.apply_vector(unit)
        assert image == (-1,) + (0,) * (n - 1)


def test_transform_labels():
    rs = validate_reflexive(standard_spec())
    t = transform_for(rs, "nondegenerate")
    assert set(t.label_map) == {"a", "b", "c", "d", "h", "l", "lhat", "hhat"}
    type_ii = component_surface(("c1", "c2"), {"c1": 1, "c2": 3})
    t2 = transform_for(type_ii, "type-ii")
    assert {"d1", "d2"} <= set(t2.label_map)
    assert degree(t2.label_map["d1"], type_ii.h) == 1


def test_bundled_surface_files():
    nondeg = validate_reflexive(load_surface_spec(SURFACES / "reflexive.json"))
    assert not nondeg.degenerate

    type_i = validate_reflexive(load_surface_spec(SURFACES / "reflexive-type-i.json"))
    assert type_i.degenerate
    report = classify_type(type_i, decompose_l2h(type_i))
    assert report.surface_type == "I"

    type_ii = validate_reflexive(load_surface_spec(SURFACES / "reflexive-type-ii.json"))
    report = classify_type(type_ii, decompose_l2h(type_ii))
    assert report.surface_type == "II"
    assert report.e is not None
