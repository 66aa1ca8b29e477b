"""Rank-2 transform kernels and their existence conditions.

A kernel is described by four divisor classes (a, b, c, d) on a common
lattice.  The induced map on Chern characters is well defined for any such
quadruple, but the transform only arises from an actual equivalence when
the quadruple satisfies arithmetic constraints:

  (1) a + b == c + d,
  (2) (a - c)^2 == -4  (equivalently chi of the line bundle a-c is 0),
  (3) the class a - c (up to sign) carries a declared cohomology-vanishing
      assumption,
  (4) the same facts for b - d, which follow from (1)-(3).

check_sufficient evaluates these and reports a verdict.  Conditions (1)
and (2) are decidable from the lattice alone; (3) is geometric input that
must be declared on the surface, so the verdict distinguishes "sufficient"
(all four) from "numerically-consistent" (lattice conditions hold, no
declaration) and "fails".  It is the one place that decides (1) and (2);
check_phiO_identity and CohTransform.numerically_valid read its verdict.
"""

from __future__ import annotations

from .lattice import DivisorClass, chi_line
from .record import Record
from .surface import SurfaceSpec

__all__ = [
    "KernelSpec",
    "ValidityReport",
    "vanishing_covers",
    "check_sufficient",
    "check_necessary_det",
    "normalize_twist",
    "check_phiO_identity",
]


class KernelSpec(Record):
    """The four classes cutting out a rank-2 kernel, plus optional context.

    declared_vanishing lists classes whose line bundles are declared to have
    no cohomology; it feeds condition (3) of check_sufficient.  source and
    target are context only and take no part in equality.  A kernel on a
    surface is built by on, the one place that writes that context and
    reads the surface's no-cohomology declarations; normalize_twist copies
    it from the kernel it twists.
    """

    __slots__ = ("a", "b", "c", "d", "declared_vanishing", "source", "target")
    _compare = ("a", "b", "c", "d", "declared_vanishing")

    def __init__(
        self,
        a: DivisorClass,
        b: DivisorClass,
        c: DivisorClass,
        d: DivisorClass,
        declared_vanishing: tuple[DivisorClass, ...] = (),
        source: SurfaceSpec | None = None,
        target: SurfaceSpec | None = None,
    ):
        declared_vanishing = tuple(declared_vanishing)
        lat = a.lattice
        for name, dc in (("b", b), ("c", c), ("d", d)):
            if dc.lattice != lat:
                raise ValueError(f"kernel class {name} lives on a different lattice")
        for dc in declared_vanishing:
            if dc.lattice != lat:
                raise ValueError("declared vanishing class lives on a different lattice")
        self._set(a, b, c, d, declared_vanishing, source, target)

    @classmethod
    def on(cls, spec: SurfaceSpec, a, b, c, d, vanishing=()) -> KernelSpec:
        """The kernel (a, b, c, d) from the surface spec to itself: source and
        target are spec, and the declared vanishing is the surface's
        no_cohomology declarations in order, then the given classes.
        ValueError unless the classes live on the surface's lattice."""
        if a.lattice != spec.lattice:
            raise ValueError("kernel classes live on a different lattice from the surface's")
        return cls(a, b, c, d, (*spec.declared("no_cohomology"), *vanishing), spec, spec)

    @property
    def lattice(self):
        return self.a.lattice

    def to_dict(self) -> dict:
        """The four classes by name, raw; cli._json encodes them."""
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


class ValidityReport(Record):
    """Outcome of the existence check for a kernel quadruple."""

    __slots__ = (
        "ab_equals_cd", "ab", "cd", "ac", "ac_square", "chi_ac",
        "ac_square_ok", "vanishing_declared", "bd", "bd_square", "chi_bd", "verdict",
    )

    def __init__(
        self,
        ab_equals_cd: bool,
        ab: tuple[int, ...],
        cd: tuple[int, ...],
        ac: tuple[int, ...],
        ac_square: int,
        chi_ac: int,
        ac_square_ok: bool,
        vanishing_declared: bool,
        bd: tuple[int, ...],
        bd_square: int,
        chi_bd: int,
        verdict: str,
    ):
        self._set(
            ab_equals_cd, ab, cd, ac, ac_square, chi_ac,
            ac_square_ok, vanishing_declared, bd, bd_square, chi_bd, verdict,
        )

    def to_dict(self) -> dict:
        """The JSON shape of the report, in raw values that cli._json encodes."""
        return {
            "sum_condition": {
                "holds": self.ab_equals_cd,
                "a_plus_b": self.ab,
                "c_plus_d": self.cd,
            },
            "difference_condition": {
                "holds": self.ac_square_ok,
                "a_minus_c": self.ac,
                "square": self.ac_square,
                "chi": self.chi_ac,
            },
            "vanishing_declared": self.vanishing_declared,
            "dual_difference": {
                "b_minus_d": self.bd,
                "square": self.bd_square,
                "chi": self.chi_bd,
            },
            "verdict": self.verdict,
        }


def vanishing_covers(kernel: KernelSpec, x: DivisorClass) -> bool:
    """Whether x or -x carries a declared cohomology-vanishing assumption.

    Vanishing of all cohomology of a line bundle is preserved under
    dualizing on a surface with trivial canonical class, so a declaration
    for either sign covers both.
    """
    return any(v == x or v == -x for v in kernel.declared_vanishing)


def check_sufficient(kernel: KernelSpec) -> ValidityReport:
    """Evaluate the existence conditions for a kernel quadruple."""
    ab = kernel.a + kernel.b
    cd = kernel.c + kernel.d
    ac = kernel.a - kernel.c
    bd = kernel.b - kernel.d
    sum_ok = ab == cd
    ac_sq = ac.square
    ac_ok = ac_sq == -4
    declared = vanishing_covers(kernel, ac)
    if sum_ok and ac_ok and declared:
        verdict = "sufficient"
    elif sum_ok and ac_ok:
        verdict = "numerically-consistent"
    else:
        verdict = "fails"
    return ValidityReport(
        ab_equals_cd=sum_ok,
        ab=ab.coords,
        cd=cd.coords,
        ac=ac.coords,
        ac_square=ac_sq,
        chi_ac=chi_line(ac),
        ac_square_ok=ac_ok,
        vanishing_declared=declared,
        bd=bd.coords,
        bd_square=bd.square,
        chi_bd=chi_line(bd),
        verdict=verdict,
    )


def check_necessary_det(kernel: KernelSpec) -> bool:
    """Determinant constraint every valid kernel satisfies.

    (chi(c) - 1) * d == c - chi(a) * b on the kernel twisted to a = b = 0,
    that is (chi(x) - 1) (d - b) == x for x = c - a.  Under a + b = c + d
    it reads chi(x) x = 0, so it holds exactly when (a - c)^2 = -4 or
    a = c.  This is a necessary condition; it does not by itself certify
    existence.  It stays apart from check_sufficient because kernel-check
    reports it for every kernel, and where the sum condition fails it is
    an independent fact: (0, 0, x, x) with x^2 = 0 and x != 0 satisfies
    it, while a + b != c + d.
    """
    x = kernel.c - kernel.a
    return (chi_line(x) - 1) * (kernel.d - kernel.b) == x


def normalize_twist(kernel: KernelSpec) -> KernelSpec:
    """Twist away the first line bundle so that a and b become trivial.

    Twisting both sides by the inverse of the first summand sends
    (a, b, c, d) to (0, 0, c - a, d - b) and does not change validity or
    the induced transform up to composition with line-bundle twists.
    """
    zero = kernel.lattice.zero()
    return KernelSpec(
        a=zero,
        b=zero,
        c=kernel.c - kernel.a,
        d=kernel.d - kernel.b,
        declared_vanishing=kernel.declared_vanishing,
        source=kernel.source,
        target=kernel.target,
    )


def check_phiO_identity(kernel: KernelSpec) -> bool:
    """Whether the kernel has the exact shape (0, 0, m, -m) with m^2 == -4
    and declared vanishing for m.

    Kernels of this shape send the structure sheaf to a sheaf with the
    Chern character of a line bundle and are the model case for transforms
    fixing the trivial class.  With a = b = 0, "sufficient" is that shape:
    the sum condition is c + d = 0, so d = -m for m = c; (a - c)^2 = m^2;
    and vanishing_covers accepts either sign, so a declaration for
    a - c = -m is one for m.
    """
    return (
        kernel.a.is_zero
        and kernel.b.is_zero
        and check_sufficient(kernel).verdict == "sufficient"
    )
