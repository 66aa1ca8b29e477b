"""Surfaces carrying classes h, l with h^2 = 2, l^2 = -12, h.l = 0.

The distinguished combination l+2h has square -4 and degree 4 against h;
whether it is effective (the degenerate case) is declared input, as are
its irreducible rational components.  A ReflexiveSurface checks these
relations and the component declarations when it is built, and no other
function checks them again.  decompose_l2h implements a complete case
analysis over the declared components (two to four curves, possibly with
one repeated), producing d1 + d2 = l+2h with d1^2 = d2^2 = -2 and
d1.d2 = 0; it rejects only what the lattice data alone cannot exclude:
two distinct components meeting too often, or negatively.
decompose_brute_force is the independent oracle: it tries every
sub-multiset sum and keeps those meeting the same invariants.
build_kernel and transform_for import kernel and transform when called,
so validating, decomposing and classifying a surface loads neither.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul, sub

from .errors import RejectionError
from .lattice import DivisorClass, NSLattice, degree, intersect
from .linalg import mat_mul, transpose
from .record import Record
from .surface import Assumption, SurfaceSpec

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
    """A surface spec with its h, l classes, valid by construction.

    ReflexiveSurface(spec, h_name="h", l_name="l") resolves the two named
    classes and checks, in this order: h^2 = 2, l^2 = -12, h.l = 0; every
    declared irreducible rational component has square -2 and degree at
    least 1 against h; there are two to four of them; and they sum to l+2h.
    The first failure raises ReflexiveViolation naming it.  curves are the
    declared components in declaration order, and degenerate records an
    effectivity declaration on l+2h or declared components (which imply
    it): degeneracy cannot be computed from the lattice.  These fields are
    derived once, as Pic1Solution derives its own, so every surface that
    exists satisfies the relations, and hat_classes, decompose_l2h and
    classify_type rely on them without checking again.
    """

    __slots__ = ("spec", "h", "l", "degenerate", "curves")

    def __init__(self, spec: SurfaceSpec, h_name: str = "h", l_name: str = "l"):
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
    """ReflexiveSurface(spec, h_name, l_name): the defining relations and the
    declared geometry, checked; see ReflexiveSurface for the checks."""
    return ReflexiveSurface(spec, h_name, l_name)


def hat_classes(rs: ReflexiveSurface) -> tuple[DivisorClass, DivisorClass]:
    """The dual pair (lhat, hhat) = (5l+12h, 2l+5h).

    They satisfy the same three relations as (l, h), which every surface
    meets: hhat^2 = 4(-12) + 25(2) = 2, lhat^2 = 25(-12) + 144(2) = -12 and
    hhat.lhat = 10(-12) + 60(2) = 0, each h.l term vanishing.
    """
    return 5 * rs.l + 12 * rs.h, 2 * rs.l + 5 * rs.h


def _check_components(rs: ReflexiveSurface):
    if not rs.curves:
        raise DecompositionError(
            "no irreducible rational components are declared; "
            "decomposition requires the degenerate case data"
        )
    return rs.curves


def _finish(rs: ReflexiveSurface, p, s) -> Decomposition:
    """d1 sums the curves at the indices in s, d2 the rest.

    d1^2 = d2^2 = -2 and d1.d2 = 0 are checked as sums over p: the one
    post-condition of the case analysis, which no valid surface fails.
    d1 + d2 = l+2h needs no check: s and the rest partition the curves,
    and the surface's constructor checked that they sum to l+2h.
    """
    t = [i for i in range(len(p)) if i not in s]
    if [sum(p[i][j] for i in a for j in b) for a, b in ((s, s), (t, t), (s, t))] != [-2, -2, 0]:
        raise DecompositionError(
            "case analysis produced an invalid decomposition; the declared "
            "intersection data is inconsistent"
        )
    d1, d2 = (reduce(add, map(rs.curves.__getitem__, part)) for part in (s, t))
    return Decomposition(d1=d1, d2=d2)


def decompose_l2h(rs: ReflexiveSurface) -> Decomposition:
    """Split l+2h into d1 + d2 with d1^2 = d2^2 = -2 and d1.d2 = 0.

    The case analysis reads one integer matrix, P = C G C^T, the products
    of the n declared curves (one row of C per occurrence).  Each case
    names the set S of occurrences summing to d1; d2 sums the others, and
    _finish checks the split on P.  The surface guarantees 2 <= n <= 4,
    each P_ii = -2, degrees >= 1 and that the curves sum to l+2h, so
    -4 = (l+2h)^2 = -2n + 2 sum_{i<j} P_ij: the products over i<j sum to
    n-2 (the sum identity), and the degrees, summing to h.(l+2h) = 4, are
    all 1 when n = 4.

      n=2: P_12 = 0, so the two components are disjoint; S is the first.
      n=3: a repeated component would need -2 + 2 P_ab = 1 (a, a, b) or
           -6 = 1 (a, a, a); so the components are distinct, and once
           their products are checked nonnegative, exactly one pair of
           the three, summing to 1, meets once.  S is the third component.
      n=4: a component repeated four times gives -12 = 2, three times
           3 P_uv = 8, and two doubled ones 4 P_uv = 6.  Each two-set sum
           must have square <= -2 (the two-set rule below), capping
           products of distinct components at 1.  A doubled u with v, w
           then reads -2 + 2(P_uv + P_uw) + P_vw = 2, forcing
           P_uv = P_uw = 1, P_vw = 0, and S = {u, v}.  Four distinct
           components have products in {0, 1} summing to 2: two meeting
           pairs, disjoint (S is the first) or sharing a component and
           leaving the fourth disjoint from all others (S is that one).

    The two-set rule holds on every K3 surface.  Take distinct components
    c, c' of degree 1 meeting k times and delta = h - c - c'; then
    h.delta = 0 and delta^2 = 2k - 6.  For k = 2, delta^2 = -2, so by
    Riemann-Roch delta or -delta is effective, of degree 0 against the
    ample h: impossible.  For k >= 4, delta^2 > 0 with delta orthogonal to
    h contradicts the Hodge index theorem.  For k = 3 write x, y for the
    other two occurrences; the sum identity leaves the other five products
    a total of -1 when x, y are distinct from c, c' and each other, forces
    2 c.y + c'.y = -2 when x = c (and likewise for c'), and
    c.x + c'.x = 1/2 when x = y: a pair of distinct irreducible curves
    meeting negatively, or no integer solution.  So the rule rejects only
    configurations that no K3 surface carries, although in 18
    of the 69 configurations with products 0..4, each with two distinct
    components meeting twice, the numbers alone admit a split that
    decompose_brute_force finds.  See Huybrechts, Lectures on K3 Surfaces
    (2016), ch. 2 and 8.
    """
    curves = _check_components(rs)
    n = len(curves)
    rows = [c.coords for c in curves]
    p = mat_mul(mat_mul(rows, rs.spec.lattice.gram), transpose(rows))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def require_nonnegative():
        for i, j in pairs:
            if rows[i] != rows[j] and p[i][j] < 0:
                raise DecompositionError(
                    f"distinct components {i + 1} and {j + 1} meet in {p[i][j]} < 0"
                )

    if n == 2:
        return _finish(rs, p, {0})

    if n == 3:
        require_nonnegative()
        (i, j) = next((i, j) for i, j in pairs if p[i][j] == 1)
        return _finish(rs, p, {0, 1, 2} - {i, j})

    for i, j in pairs:
        sq = p[i][i] + p[j][j] + 2 * p[i][j]
        if sq > -2:
            raise DecompositionError(
                f'"(c_i+c_j)^2 <= -2" fails for components {i + 1}, {j + 1}: got {sq}'
            )
    require_nonnegative()
    mult = [rows.count(row) for row in rows]
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
    Where the case analysis rejects a configuration by the two-set rule,
    which rests on ampleness and not on the numbers alone, this search may
    still find a numerical decomposition.
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

    The halves are any Decomposition a caller passes, so deg(d1) >= 1 and,
    for type II, e^2 = -2 for e = h - d1 are checked.  Neither h.e = 1 nor
    d1.e = 3 needs a check: h.e = h^2 - h.d1 = 2 - 1 = 1, and
    e^2 = h^2 - 2 h.d1 + d1^2 = -2 gives d1^2 = -2, so d1.e = h.d1 - d1^2 = 3.
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
    from .kernel import KernelSpec

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
    from .transform import from_kernel

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
    distinct components) and l is defined as the occurrence sum minus 2h.
    The surface is built through validate_reflexive, so an inconsistent
    configuration raises ReflexiveViolation.  With degrees summing to 4, h.l
    is 0 and l^2 = (occurrence sum)^2 - 8, so the configuration is
    consistent exactly when the occurrence sum has square -4 and every
    degree is at least 1; otherwise the message names "l^2 = -12" or the
    first component of degree below 1.
    """
    return validate_reflexive(_component_spec(occurrences, degrees, products))


def _component_spec(occurrences, degrees, products) -> SurfaceSpec:
    """The surface spec component_surface validates, consistent or not."""
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
    return SurfaceSpec(lattice, tuple(named), tuple(assumptions))
