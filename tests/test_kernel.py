import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3fm import (
    DivisorClass,
    KernelSpec,
    NSLattice,
    check_necessary_det,
    check_phiO_identity,
    check_sufficient,
    chi_line,
    normalize_twist,
    vanishing_covers,
)

from k3fm.cli import _json

from helpers import SQUARE_MINUS_4, class_on, kernels, lattice_with_classes, lattices

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
