from operator import attrgetter
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3fm import (
    DivisorClass,
    KernelSpec,
    NSLattice,
    RejectionError,
    build_kernel,
    check_necessary_det,
    check_phiO_identity,
    check_sufficient,
    chi_line,
    load_surface_spec,
    normalize_twist,
    parse_class_expr,
    validate_reflexive,
    vanishing_covers,
)
from k3fm import kernel as kernel_module
from k3fm.cli import (
    _builder_transform,
    _cmd_kernel_check,
    _default_no_cohomology_spec,
    _json,
    build_parser,
)
from k3fm.reflexive import KERNEL_VARIANTS

from helpers import SQUARE_MINUS_4, class_on, kernels, lattice_with_classes, lattices

SURFACES = Path(__file__).resolve().parent.parent / "surfaces"
REFLEXIVE_FILE = str(SURFACES / "reflexive.json")
REFLEXIVE = NSLattice(((2, 0), (0, -12)))
H = DivisorClass(REFLEXIVE, (1, 0))
L = DivisorClass(REFLEXIVE, (0, 1))
L2H = L + 2 * H


def nondegenerate_kernel(declared=(L2H,)):
    return KernelSpec(
        a=-H, b=3 * L + 7 * H, c=L + H, d=2 * L + 5 * H, declared_vanishing=declared
    )


def test_classes_must_share_a_lattice():
    other = NSLattice(((-4,),))
    m = DivisorClass(other, (1,))
    with pytest.raises(ValueError, match="kernel class c lives on a different lattice"):
        KernelSpec(a=H, b=H, c=m, d=m)
    with pytest.raises(ValueError, match="declared vanishing class lives on a different lattice"):
        KernelSpec(a=H, b=H, c=H, d=H, declared_vanishing=(H, m))


def test_sufficient_verdict_with_declaration():
    report = check_sufficient(nondegenerate_kernel())
    assert report.ab_equals_cd
    assert report.ac_square == -4
    assert report.chi_ac == 0
    assert report.vanishing_declared
    assert report.verdict == "sufficient"
    # the dual difference carries the same numeric facts
    assert report.bd_square == -4
    assert report.chi_bd == 0


def test_numerically_consistent_without_declaration():
    report = check_sufficient(nondegenerate_kernel(declared=()))
    assert report.verdict == "numerically-consistent"


def test_fails_when_sum_condition_breaks():
    k = KernelSpec(a=-H, b=3 * L + 7 * H, c=L + H, d=2 * L + 4 * H)
    report = check_sufficient(k)
    assert not report.ab_equals_cd
    assert report.verdict == "fails"


def test_fails_when_difference_square_is_wrong():
    k = KernelSpec(a=H, b=L - H, c=-H, d=L + H)  # a+b == c+d but (a-c)^2 = 8
    report = check_sufficient(k)
    assert report.ab_equals_cd
    assert report.ac_square == 8
    assert report.verdict == "fails"


def test_vanishing_covers_both_signs():
    k = nondegenerate_kernel()
    assert vanishing_covers(k, L2H)
    assert vanishing_covers(k, -L2H)
    assert not vanishing_covers(k, H)


def test_report_serialization_shape():
    data = _json(check_sufficient(nondegenerate_kernel()).to_dict())
    assert data["verdict"] == "sufficient"
    assert data["sum_condition"]["holds"] is True
    assert data["difference_condition"]["square"] == -4
    assert data["dual_difference"]["b_minus_d"] == [2, 1]


def test_normalize_twist_moves_kernel_to_origin():
    k = nondegenerate_kernel()
    nk = normalize_twist(k)
    assert nk.a.is_zero and nk.b.is_zero
    assert nk.c == k.c - k.a == L2H
    assert nk.d == k.d - k.b == -L2H
    assert check_sufficient(nk).verdict == "sufficient"


@given(kernels())
def test_normalize_twist_preserves_conditions(k):
    before = check_sufficient(k)
    after = check_sufficient(normalize_twist(k))
    assert before.ab_equals_cd == after.ab_equals_cd
    assert before.ac_square == after.ac_square


def test_determinant_condition_for_reflexive_kernel():
    k = nondegenerate_kernel()
    assert check_necessary_det(k)
    assert check_necessary_det(normalize_twist(k))
    # both sides of the identity equal -8l - 20h here
    lhs = (chi_line(k.c) - 1) * k.d
    assert lhs == -8 * L - 20 * H


def test_determinant_condition_fails_off_family():
    k = KernelSpec(a=H, b=L, c=H + L, d=L - H)
    assert not check_necessary_det(k)


@pytest.mark.parametrize("lattice,coords", SQUARE_MINUS_4)
@given(data=st.data())
def test_determinant_condition_holds_for_every_valid_kernel(lattice, coords, data):
    # Not only at a = b = 0: the kernel is normalized inside the check.
    m = DivisorClass(lattice, coords)
    a, b = data.draw(class_on(lattice)), data.draw(class_on(lattice))
    assert check_necessary_det(KernelSpec(a=a, b=b, c=a - m, d=b + m))


@given(lattice_with_classes(3))
def test_determinant_condition_under_the_sum_condition(drawn):
    _, a, b, c = drawn
    k = KernelSpec(a=a, b=b, c=c, d=a + b - c)
    assert check_necessary_det(k) == ((a - c).square == -4 or a == c)


@pytest.mark.parametrize("lattice,coords", SQUARE_MINUS_4)
def test_phi_o_identity_accepts_the_exact_shape(lattice, coords):
    m = DivisorClass(lattice, coords)
    zero = lattice.zero()
    good = KernelSpec(a=zero, b=zero, c=m, d=-m, declared_vanishing=(m,))
    assert check_phiO_identity(good)
    # declaration via the dual class also counts
    dual = KernelSpec(a=zero, b=zero, c=m, d=-m, declared_vanishing=(-m,))
    assert check_phiO_identity(dual)


@pytest.mark.parametrize("lattice,coords", SQUARE_MINUS_4)
def test_phi_o_identity_rejects_near_misses(lattice, coords):
    m = DivisorClass(lattice, coords)
    zero = lattice.zero()
    assert not check_phiO_identity(
        KernelSpec(a=zero, b=zero, c=m, d=-m)  # no declaration
    )
    assert not check_phiO_identity(
        KernelSpec(a=m, b=-m, c=zero, d=zero, declared_vanishing=(m,))  # a, b nonzero
    )
    assert not check_phiO_identity(
        KernelSpec(a=zero, b=zero, c=m, d=m, declared_vanishing=(m,))  # c+d != 0
    )
    assert not check_phiO_identity(
        KernelSpec(a=zero, b=zero, c=2 * m, d=-2 * m, declared_vanishing=(2 * m,))
    )


@given(kernels(max_rank=2))
def test_phi_o_identity_requires_all_conditions(k):
    accepted = check_phiO_identity(k)
    shape_ok = (
        k.a.is_zero
        and k.b.is_zero
        and (k.c + k.d).is_zero
        and k.c.square == -4
        and vanishing_covers(k, k.c)
    )
    assert accepted == shape_ok


# KernelSpec.on: the one place that builds a kernel on a surface.  Each
# test below builds, by hand, the kernel that a former call site built,
# and compares every field, source and target included, which == ignores.
all_fields = attrgetter(*KernelSpec.__slots__)


def by_hand(spec, a, b, c, d, vanishing=()):
    declared = (*spec.declared("no_cohomology"), *vanishing)
    return KernelSpec(a, b, c, d, declared_vanishing=declared, source=spec, target=spec)


def test_on_puts_the_surface_declarations_first_then_the_extras():
    spec = load_surface_spec(REFLEXIVE_FILE)
    h, l = spec.cls("h"), spec.cls("l")
    classes = (-h, 3 * l + 7 * h, l + h, 2 * l + 5 * h)
    k = KernelSpec.on(spec, *classes, vanishing=(h, l))
    assert all_fields(k) == all_fields(by_hand(spec, *classes, (h, l)))
    assert k.declared_vanishing == (spec.cls("l2h"), h, l)
    assert k.source is k.target is spec
    bare = KernelSpec.on(spec, *classes)
    assert bare.declared_vanishing == (spec.cls("l2h"),)
    assert bare.source is bare.target is spec


@pytest.mark.parametrize(
    "argv",
    [[], ["--surface", REFLEXIVE_FILE, "--m-class", "l+2h"]],
    ids=["default surface", "reflexive.json l+2h"],
)
def test_no_cohomology_builder_kernel_is_on_its_surface(argv):
    args = build_parser().parse_args(["transform-crosscheck", "--builder", "no-cohomology", *argv])
    k = _builder_transform(args).kernel
    spec = _default_no_cohomology_spec() if not argv else load_surface_spec(REFLEXIVE_FILE)
    m = parse_class_expr(spec, "m" if not argv else "l+2h")
    zero = spec.lattice.zero()
    assert all_fields(k) == all_fields(by_hand(spec, zero, zero, m, -m))
    assert k.declared_vanishing == (m,)
    assert k.source is k.target


def test_kernel_check_kernel_is_on_its_surface(monkeypatch):
    """kernel-check's kernel carries the surface's declarations, then each
    --vanishing class in the order given."""
    seen = []

    def recording(kernel):
        seen.append(kernel)
        return check_sufficient(kernel)

    monkeypatch.setattr(kernel_module, "check_sufficient", recording)
    argv = [
        "kernel-check", "--surface", REFLEXIVE_FILE,
        "--a=-h", "--b", "3l+7h", "--c", "l+h", "--d", "2l+5h",
        "--vanishing", "h", "--vanishing", "l-h",
    ]
    status, payload = _cmd_kernel_check(build_parser().parse_args(argv))
    assert status == 0 and payload["report"]["verdict"] == "sufficient"
    k = seen[0]
    spec = load_surface_spec(REFLEXIVE_FILE)
    h, l = spec.cls("h"), spec.cls("l")
    expected = by_hand(spec, -h, 3 * l + 7 * h, l + h, 2 * l + 5 * h, (h, l - h))
    assert all_fields(k) == all_fields(expected)
    assert k.declared_vanishing == (spec.cls("l2h"), h, l - h)
    assert k.source is k.target


def test_reflexive_kernels_are_on_their_surface():
    """build_kernel, for every variant on every bundled surface: the variant
    the surface admits is built on it, and the others are rejected."""
    built = []
    for path in sorted(SURFACES.glob("*.json")):
        rs = validate_reflexive(load_surface_spec(path))
        for variant in KERNEL_VARIANTS:
            try:
                k = build_kernel(rs, variant)
            except RejectionError:
                continue
            built.append((path.name, variant))
            assert all_fields(k) == all_fields(by_hand(rs.spec, k.a, k.b, k.c, k.d))
            assert k.source is k.target is rs.spec
    assert built == [
        ("reflexive-type-i.json", "type-i"),
        ("reflexive-type-ii.json", "type-ii"),
        ("reflexive.json", "nondegenerate"),
    ]


def test_on_refuses_classes_from_another_lattice():
    """The no-cohomology kernel (0, 0, m, -m) of Gram (-4) is not on
    reflexive-type-i.json, which declares no no_cohomology class, so no
    declared class's lattice trips __init__'s check; on refuses it, and a
    declaring surface refuses it with the same message."""
    m = NSLattice(((-4,),)).basis(0)
    zero = m.lattice.zero()
    for name in ("reflexive-type-i.json", "reflexive.json"):
        spec = load_surface_spec(SURFACES / name)
        with pytest.raises(ValueError, match="different lattice from the surface's"):
            KernelSpec.on(spec, zero, zero, m, -m)
