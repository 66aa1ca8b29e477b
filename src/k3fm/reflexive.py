"""Surfaces carrying classes h, l with h^2 = 2, l^2 = -12, h.l = 0.

The distinguished combination l+2h has square -4 and degree 4 against h;
whether it is effective (the degenerate case) is declared input, as are
its irreducible rational components.  The decomposition procedure
decompose_l2h implements a complete case analysis over the declared
components (two to four curves, possibly with one repeated), producing
d1 + d2 = l + 2h with d1^2 = d2^2 = -2 and d1.d2 = 0, and rejecting the
configurations the analysis shows impossible by naming the violated
identity.  decompose_brute_force is the independent oracle: it tries
every sub-multiset sum and keeps those meeting the same invariants.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul, sub

from .errors import RejectionError
from .kernel import KernelSpec
from .lattice import DivisorClass, NSLattice, degree, intersect
from .linalg import mat_mul, transpose
from .record import Record
from .surface import Assumption, SurfaceSpec
from .transform import CohTransform, from_kernel

__all__ = [
    "ReflexiveViolation",
    "DecompositionError",
    "ReflexiveSurface",
    "Decomposition",
    "TypeReport",
    "validate_reflexive",
    "hat_classes",
    "decompose_l2h",
    "decompose_brute_force",
    "classify_type",
    "build_kernel",
    "transform_for",
    "standard_spec",
    "component_surface",
    "KERNEL_VARIANTS",
]

KERNEL_VARIANTS = ("nondegenerate", "type-i", "type-ii")


class ReflexiveViolation(RejectionError):
    """A required intersection-number relation fails."""


class DecompositionError(RejectionError):
    """The declared component configuration admits no valid decomposition."""


class ReflexiveSurface(Record):
    """A surface together with its resolved h, l classes and declared data.

    validate_reflexive and component_surface are the two constructors, and
    they establish the component invariants that decomposition relies on:
    every declared curve has square -2 and the curves sum to l+2h.
    validate_reflexive checks them on declared data; component_surface
    meets them by construction (its curves are basis classes of square -2,
    and l is defined as their sum minus 2h).  Constructing the class
    directly skips both.  decompose_l2h does not check them again: its
    case analysis reads the curves' intersection matrix, and its proofs
    that two patterns cannot occur rest on each curve having square -2.
    _finish guards every split it returns, so a surface that breaks the
    invariants is rejected, never given a wrong decomposition.
    """

    __slots__ = ("spec", "h", "l", "degenerate", "curves")

    def __init__(
        self,
        spec: SurfaceSpec,
        h: DivisorClass,
        l: DivisorClass,
        degenerate: bool,
        curves: tuple[DivisorClass, ...] = (),
    ):
        self._set(spec, h, l, degenerate, curves)

    @property
    def l2h(self) -> DivisorClass:
        return self.l + 2 * self.h


class Decomposition(Record):
    __slots__ = ("d1", "d2")

    def __init__(self, d1: DivisorClass, d2: DivisorClass):
        self._set(d1, d2)


class TypeReport(Record):
    """Degree classification of a decomposition, ordered deg(d1) <= deg(d2).

    Pattern (2, 2) is type I; (1, 3) is type II, which additionally forces
    h = d1 + e for a degree-1 curve class e with e^2 = -2 and d1.e = 3.
    """

    __slots__ = ("surface_type", "d1", "d2", "deg_d1", "deg_d2", "e")

    def __init__(
        self,
        surface_type: str,
        d1: DivisorClass,
        d2: DivisorClass,
        deg_d1: int,
        deg_d2: int,
        e: DivisorClass | None = None,
    ):
        self._set(surface_type, d1, d2, deg_d1, deg_d2, e)

    def to_dict(self) -> dict:
        """The JSON shape of the report, in raw values that cli._json encodes."""
        data = {
            "type": self.surface_type,
            "d1": self.d1,
            "d2": self.d2,
            "deg_d1": self.deg_d1,
            "deg_d2": self.deg_d2,
        }
        if self.e is not None:
            data["e"] = self.e
        return data


def validate_reflexive(spec: SurfaceSpec, h_name: str = "h", l_name: str = "l") -> ReflexiveSurface:
    """Check the defining relations and collect the declared geometry.

    Degeneracy cannot be computed from the lattice; it is read from an
    effectivity declaration on l+2h or from declared irreducible rational
    components (which imply effectivity of their sum).
    """
    h = spec.cls(h_name)
    l = spec.cls(l_name)
    hs = h.square
    if hs != 2:
        raise ReflexiveViolation(f'"{h_name}^2 = 2" fails: got {hs}')
    ls = l.square
    if ls != -12:
        raise ReflexiveViolation(f'"{l_name}^2 = -12" fails: got {ls}')
    hl = intersect(h, l)
    if hl != 0:
        raise ReflexiveViolation(f'"{h_name}.{l_name} = 0" fails: got {hl}')

    l2h = l + 2 * h
    curves = spec.declared("irreducible_rational")
    for i, c in enumerate(curves, start=1):
        if c.square != -2:
            raise ReflexiveViolation(
                f"declared component {i} has square {c.square}; a rational curve needs -2"
            )
        if degree(c, h) < 1:
            raise ReflexiveViolation(
                f"declared component {i} has degree {degree(c, h)}; "
                f"an irreducible curve on a polarized surface needs degree >= 1"
            )
    if curves:
        if not 2 <= len(curves) <= 4:
            raise ReflexiveViolation(
                f"{len(curves)} components declared; deg(l+2h) = 4 allows between 2 and 4"
            )
        total = spec.lattice.zero()
        for c in curves:
            total = total + c
        if total != l2h:
            raise ReflexiveViolation(
                f"declared components sum to {list(total.coords)}, "
                f"but l+2h = {list(l2h.coords)}"
            )
    degenerate = bool(curves) or spec.declares("effective", l2h)
    return ReflexiveSurface(spec=spec, h=h, l=l, degenerate=degenerate, curves=curves)


def hat_classes(rs: ReflexiveSurface) -> tuple[DivisorClass, DivisorClass]:
    """The dual pair (lhat, hhat) = (5l+12h, 2l+5h).

    They satisfy the same three relations as (l, h); this is implied by
    the defining relations and re-checked here as a consistency guard.
    """
    lhat = 5 * rs.l + 12 * rs.h
    hhat = 2 * rs.l + 5 * rs.h
    if hhat.square != 2 or lhat.square != -12 or intersect(hhat, lhat) != 0:
        raise ReflexiveViolation("hat classes fail the defining relations")
    return lhat, hhat


def _check_components(rs: ReflexiveSurface):
    if not rs.curves:
        raise DecompositionError(
            "no irreducible rational components are declared; "
            "decomposition requires the degenerate case data"
        )
    return rs.curves


def _finish(rs: ReflexiveSurface, p, s) -> Decomposition:
    """d1 sums the curves at the indices in s, d2 the rest; d1^2 = d2^2 = -2
    and d1.d2 = 0 are checked as sums over p, then d1 + d2 = l+2h."""
    t = [i for i in range(len(p)) if i not in s]
    if [sum(p[i][j] for i in a for j in b) for a, b in ((s, s), (t, t), (s, t))] == [-2, -2, 0]:
        d1, d2 = (reduce(add, map(rs.curves.__getitem__, part)) for part in (s, t))
        if d1 + d2 == rs.l2h:
            return Decomposition(d1=d1, d2=d2)
    raise DecompositionError(
        "case analysis produced an invalid decomposition; the declared "
        "intersection data is inconsistent"
    )


def decompose_l2h(rs: ReflexiveSurface) -> Decomposition:
    """Split l+2h into d1 + d2 with d1^2 = d2^2 = -2 and d1.d2 = 0.

    The case analysis reads one integer matrix, P = C G C^T, the products
    of the n declared curves (one row of C per occurrence).  Each case
    names the set S of occurrences summing to d1; d2 sums the others, and
    _finish checks the split on P.  As each P_ii = -2 and the curves sum
    to l+2h, -4 = (l+2h)^2 = -2n + 2 sum_{i<j} P_ij, so the products over
    i<j sum to n-2 (the sum identity, which each case checks):

      n=2: the two components are disjoint; S is the first.
      n=3: a repeated component would force a half-integer product, so
           the components are distinct and exactly one pair meets once;
           S is the third component.
      n=4: a component repeated three times, or two doubled components,
           are impossible; each two-set sum must have square <= -2,
           capping products of distinct components at 1.  A doubled u
           with v, w gives S = {u, v}; four distinct components form two
           disjoint meeting pairs (S is the first) or leave one component
           disjoint from all others (S is that one).

    No input reaches a doubled u meeting v, w otherwise: the products of
    distinct components lie in {0, 1} and P_uu = -2, so the checked sum reads
    -2 + 2(P_uv + P_uw) + P_vw = 2, forcing P_uv = P_uw = 1, P_vw = 0.
    Nor four distinct components in neither pattern: products in {0, 1}
    summing to 2 make exactly two meeting pairs, disjoint or sharing a
    component and leaving the fourth disjoint from all.  Both proofs need
    only the checks before them and P_ii = -2; on a surface built without
    that invariant, _finish rejects the split.

    The two-set rule is taken as given, not derived.  Of the 69
    configurations that validate with nonnegative products it rejects 36;
    in 18 of those, each with two distinct components meeting twice,
    decompose_brute_force still finds a numerical decomposition.
    """
    curves = _check_components(rs)
    n = len(curves)
    if not 2 <= n <= 4:
        raise DecompositionError(f"{n} components declared; expected between 2 and 4")
    rows = [c.coords for c in curves]
    p = mat_mul(mat_mul(rows, rs.spec.lattice.gram), transpose(rows))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = sum(p[i][j] for i, j in pairs)

    def require_nonnegative():
        for i, j in pairs:
            if rows[i] != rows[j] and p[i][j] < 0:
                raise DecompositionError(
                    f"distinct components {i + 1} and {j + 1} meet in {p[i][j]} < 0"
                )

    if n == 2:
        if total != 0:
            raise DecompositionError(
                f'"c_1.c_2 = 0" fails: got {total}; (l+2h)^2 = -4 forces disjoint halves'
            )
        return _finish(rs, p, {0})

    if n == 3:
        if len(set(rows)) < 3:
            raise DecompositionError(
                'a repeated component among three forces "c.c\' = 3/2", '
                "which no integer pairing satisfies"
            )
        if total != 1:
            raise DecompositionError(
                f'"c_1.c_2 + c_2.c_3 + c_3.c_1 = 1" fails: got {total}'
            )
        require_nonnegative()
        (i, j) = next((i, j) for i, j in pairs if p[i][j] == 1)
        return _finish(rs, p, {0, 1, 2} - {i, j})

    mult = [rows.count(row) for row in rows]
    if max(mult) >= 3:
        raise DecompositionError(
            'a component repeated three times forces "3c_1.c_4 = 8", '
            "which no integer pairing satisfies"
        )
    if mult.count(2) == 4:
        raise DecompositionError(
            'two doubled components force "c_1.c_3 = 3/2", '
            "which no integer pairing satisfies"
        )
    for i, j in pairs:
        sq = p[i][i] + p[j][j] + 2 * p[i][j]
        if sq > -2:
            raise DecompositionError(
                f'"(c_i+c_j)^2 <= -2" fails for components {i + 1}, {j + 1}: got {sq}'
            )
    if total != 2:
        raise DecompositionError(
            f'"sum of c_i.c_j over i<j = 2" fails: got {total}'
        )
    require_nonnegative()
    if 2 in mult:
        return _finish(rs, p, {mult.index(2), mult.index(1)})
    edges = [(i, j) for i, j in pairs if p[i][j] == 1]
    if len(edges) == 2 and not set(edges[0]) & set(edges[1]):
        return _finish(rs, p, set(edges[0]))
    return _finish(rs, p, {i for i in range(4) if not any(p[i][j] for j in range(4) if j != i)})


def decompose_brute_force(rs: ReflexiveSurface) -> list[Decomposition]:
    """All valid decompositions by exhaustive sub-multiset search.

    For every proper nonempty set of the declared occurrences, d1 sums
    their coordinates and d2 = (sum of all occurrences) - d1; the split is
    kept when d1^2 = d2^2 = -2 and d1.d2 = 0 on the Gram matrix.  Each
    unordered pair appears once, as (d1, d2) with d1.coords <= d2.coords,
    and the list is sorted by coordinates.  The search works on coordinate
    tuples and builds classes only for the pairs it returns.

    It is the oracle for decompose_l2h, so it shares none of its
    reasoning: no curve product matrix, no case analysis, no _finish.
    Where the case analysis rejects a configuration on a rule it takes as
    given, this search may still find a numerical decomposition.
    """
    curves = _check_components(rs)
    lattice = rs.spec.lattice
    gram = lattice.gram
    rows = [c.coords for c in curves]
    n = len(rows)
    total = sum(curves, lattice.zero()).coords

    def gram_times(x):
        return [sum(map(mul, row, x)) for row in gram]

    seen = set()
    for mask in range(1, (1 << n) - 1):
        d1 = tuple(map(sum, zip(*(rows[i] for i in range(n) if mask >> i & 1))))
        d2 = tuple(map(sub, total, d1))
        g1 = gram_times(d1)
        if (
            sum(map(mul, d1, g1)) == -2
            and sum(map(mul, d2, g1)) == 0
            and sum(map(mul, d2, gram_times(d2))) == -2
        ):
            seen.add((d1, d2) if d1 <= d2 else (d2, d1))
    return [
        Decomposition(d1=DivisorClass(lattice, a), d2=DivisorClass(lattice, b))
        for a, b in sorted(seen)
    ]


def classify_type(rs: ReflexiveSurface, dec: Decomposition) -> TypeReport:
    """Order the halves by degree and classify the pattern (2,2) or (1,3).

    Type II needs no check of d1.e = 3 for e = h - d1: with h.d1 = 1,
    h.e = h^2 - 1 = 1 gives h^2 = 2, then e^2 = h^2 - 2 + d1^2 = -2 gives
    d1^2 = -2, so d1.e = h.d1 - d1^2 = 3.
    """
    d1, d2 = dec.d1, dec.d2
    if degree(d1, rs.h) > degree(d2, rs.h):
        d1, d2 = d2, d1
    deg1, deg2 = degree(d1, rs.h), degree(d2, rs.h)
    if deg1 < 1:
        raise ReflexiveViolation(
            f"deg(d_1) = {deg1}; an effective component needs positive degree"
        )
    if (deg1, deg2) == (2, 2):
        return TypeReport("I", d1, d2, deg1, deg2)
    if (deg1, deg2) == (1, 3):
        e = rs.h - d1
        if e.square != -2:
            raise ReflexiveViolation(f'"e^2 = -2" fails for e = h - d_1: got {e.square}')
        if degree(e, rs.h) != 1:
            raise ReflexiveViolation(f'"h.e = 1" fails: got {degree(e, rs.h)}')
        return TypeReport("II", d1, d2, deg1, deg2, e=e)
    raise ReflexiveViolation(
        f"degree pattern ({deg1}, {deg2}) is impossible: deg(l+2h) = 4 "
        "splits only as 2+2 or 1+3"
    )


def build_kernel(rs: ReflexiveSurface, variant: str) -> KernelSpec:
    """The kernel quadruple for the requested transform family.

    nondegenerate: (-h, 3l+7h, l+h, 2l+5h); requires a surface not
    declared degenerate, since it rests on l+2h having no cohomology.
    type-i / type-ii: built from the decomposition halves ordered by
    degree; the variant must match the surface's degree pattern.
    """
    if variant not in KERNEL_VARIANTS:
        raise ValueError(f"unknown kernel variant {variant!r}; expected {KERNEL_VARIANTS}")
    h, l = rs.h, rs.l
    if variant == "nondegenerate":
        if rs.degenerate:
            raise ReflexiveViolation(
                "the non-degenerate kernel requires l+2h without cohomology, "
                "but the surface declares it effective"
            )
        classes = (-h, 3 * l + 7 * h, l + h, 2 * l + 5 * h)
    else:
        report = classify_type(rs, decompose_l2h(rs))
        wanted = "I" if variant == "type-i" else "II"
        if report.surface_type != wanted:
            raise ReflexiveViolation(
                f"surface decomposes with degree pattern ({report.deg_d1}, {report.deg_d2}), "
                f"type {report.surface_type}; the {variant} kernel does not apply"
            )
        d1, d2 = report.d1, report.d2
        if variant == "type-i":
            classes = (d1 - h, h - d1, d2 - h, h - d2)
        else:
            classes = (d1 - h, d2 - 2 * d1 + h, d2 - h, h - d1)
    return KernelSpec(
        *classes,
        declared_vanishing=rs.spec.declared("no_cohomology"),
        source=rs.spec,
        target=rs.spec,
    )


def transform_for(rs: ReflexiveSurface, variant: str) -> CohTransform:
    """Kernel transform with the surface's named classes attached as labels."""
    kernel = build_kernel(rs, variant)
    lhat, hhat = hat_classes(rs)
    labels = [("h", rs.h), ("l", rs.l), ("lhat", lhat), ("hhat", hhat)]
    if variant != "nondegenerate":
        # Both degenerate kernels have a = d1 - h and c = d2 - h.
        labels += [("d1", kernel.a + rs.h), ("d2", kernel.c + rs.h)]
    return from_kernel(kernel, labels=tuple(labels))


def standard_spec() -> SurfaceSpec:
    """The minimal non-degenerate model: basis (h, l), no effective l+2h."""
    lattice = NSLattice(((2, 0), (0, -12)))
    named = (
        ("h", DivisorClass(lattice, (1, 0))),
        ("l", DivisorClass(lattice, (0, 1))),
        ("l2h", DivisorClass(lattice, (2, 1))),
    )
    assumptions = (Assumption("ample", "h"), Assumption("no_cohomology", "l2h"))
    return SurfaceSpec(lattice, named, assumptions)


def component_surface(
    occurrences: tuple[str, ...],
    degrees: dict[str, int],
    products: dict[tuple[str, str], int] | None = None,
) -> ReflexiveSurface:
    """Degenerate surface built from a declared component configuration.

    occurrences lists component names in order, with repetition meaning a
    repeated class; degrees gives each distinct component's degree against
    h; products gives pairwise intersection numbers between distinct
    components (unordered name pairs, default 0).  The basis is (h, the
    distinct components); l is defined as the occurrence sum minus 2h, so
    the configuration is reflexive-consistent exactly when the occurrence
    sum has square -4 and degree 4.
    """
    products = dict(products or {})
    names: list[str] = []
    for name in occurrences:
        if name not in names:
            names.append(name)
    missing = [name for name in names if name not in degrees]
    if missing:
        raise ValueError(f"missing degrees for components {missing}")

    def product(u: str, v: str) -> int:
        return products.get((u, v), products.get((v, u), 0))

    k = len(names)
    gram = [[0] * (k + 1) for _ in range(k + 1)]
    gram[0][0] = 2
    for i, u in enumerate(names, start=1):
        gram[0][i] = gram[i][0] = degrees[u]
        gram[i][i] = -2
        for j, v in enumerate(names, start=1):
            if i < j:
                gram[i][j] = gram[j][i] = product(u, v)
    lattice = NSLattice(tuple(tuple(row) for row in gram))

    h = DivisorClass(lattice, (1,) + (0,) * k)
    classes = {name: lattice.basis(i) for i, name in enumerate(names, start=1)}
    total = lattice.zero()
    for name in occurrences:
        total = total + classes[name]
    l = total - 2 * h

    named = [("h", h), ("l", l), ("l2h", total)]
    named += [(name, classes[name]) for name in names]
    assumptions = [Assumption("ample", "h"), Assumption("effective", "l2h")]
    assumptions += [Assumption("irreducible_rational", name) for name in occurrences]
    spec = SurfaceSpec(lattice, tuple(named), tuple(assumptions))
    curves = tuple(classes[name] for name in occurrences)
    return ReflexiveSurface(spec=spec, h=h, l=l, degenerate=True, curves=curves)
