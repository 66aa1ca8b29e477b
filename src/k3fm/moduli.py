"""Slope stratification predicates and Hilbert-scheme vector bookkeeping.

Slopes are degrees against a declared polarization h.  The chain report
evaluates the five-member inequality chain

    0 < mu(M) < mu(L)/2 < mu(L M^*) < mu(L) <= h^2

exactly, the destabilizing-gap predicate

    a < mu(M) < mu(L) - a  implies  l.m - m^2 > z

for a caller-supplied window bound a and stratum length z, and whether
l and m are independent in the lattice.  The length z is always an
explicit argument: it counts points on strata the lattice cannot see.

hilb_moduli_vector sends the ideal sheaf of n points through a kernel
transform and checks the resulting Mukai vector against the closed-form
family predicted for that kernel flavor.  The action on cohomology is
linear (Huybrechts, Fourier-Mukai Transforms in Algebraic Geometry, 2006,
ch. 5) and ch(I_n) = (1, 0, -n) = ch(O) - n ch(pt), so

    Phi(I_n) = Phi(O) - n Phi(pt):

the image is the transform matrix's first column minus n times its last,
affine in n, and so is each predicted family.  hilb_moduli_vector reads
those two columns in int arithmetic instead of applying the transform to
a Chern character.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RejectionError
from .lattice import DivisorClass, degree, intersect
from .linalg import exact_int, exact_rational, fraction, rank
from .mukai import MukaiVector
from .record import Record
from .surface import SurfaceSpec

__all__ = [
    "LemmaReport",
    "StrataReport",
    "es_relation",
    "strata_chain",
    "check_ample_primitive",
    "hilb_moduli_vector",
    "HILB_FLAVORS",
]

HILB_FLAVORS = ("no-cohomology", "reflexive")


class LemmaReport(Record):
    """Destabilizing-gap predicate at window bound a.

    predicate_ok is the implication value: vacuously true outside the
    window, and equal to gap_holds inside it.
    """

    __slots__ = ("a", "in_window", "gap", "gap_holds", "predicate_ok")

    def __init__(self, a: Fraction, in_window: bool, gap: int, gap_holds: bool, predicate_ok: bool):
        self._set(a, in_window, gap, gap_holds, predicate_ok)


class StrataReport(Record):
    """Exact slope chain evaluation for classes l, m against polarization h."""

    __slots__ = ("l", "m", "h", "z", "slopes", "verdicts", "independent", "lemma")

    def __init__(
        self,
        l: DivisorClass,
        m: DivisorClass,
        h: DivisorClass,
        z: int,
        slopes: tuple[Fraction, Fraction, Fraction, Fraction, Fraction],
        verdicts: tuple[bool, bool, bool, bool, bool],
        independent: bool,
        lemma: LemmaReport | None = None,
    ):
        self._set(l, m, h, z, slopes, verdicts, independent, lemma)

    @property
    def chain_holds(self) -> bool:
        return all(self.verdicts)

    def to_dict(self) -> dict:
        """The JSON shape of the report, in raw values that cli._json encodes."""
        names = ("mu_m", "half_mu_l", "mu_l_minus_m", "mu_l", "h_square")
        comparisons = (
            "0 < mu(m)",
            "mu(m) < mu(l)/2",
            "mu(l)/2 < mu(l-m)",
            "mu(l-m) < mu(l)",
            "mu(l) <= h^2",
        )
        data = {
            "l": self.l,
            "m": self.m,
            "h": self.h,
            "z": self.z,
            "l_square": self.l.square,
            "m_square": self.m.square,
            "slopes": dict(zip(names, self.slopes)),
            "verdicts": dict(zip(comparisons, self.verdicts)),
            "chain_holds": self.chain_holds,
            "independent": self.independent,
        }
        if self.lemma is not None:
            data["lemma"] = self.lemma
        return data


def es_relation(lsq: int) -> int | None:
    """Forced zero-locus length of a rank-2 section: z = (lsq + 8) / 4.

    Defined only for lsq divisible by 4 and at least -8; outside that
    range no section configuration is compatible, and the result is None.
    """
    lsq = exact_int(lsq, "class square")
    if lsq % 4 != 0 or lsq < -8:
        return None
    return (lsq + 8) // 4


def strata_chain(
    l: DivisorClass,
    m: DivisorClass,
    h: DivisorClass,
    z: int,
    *,
    surface: SurfaceSpec,
    a=None,
) -> StrataReport:
    """Evaluate the slope chain, independence, and the optional gap predicate."""
    z = exact_int(z, "stratum length z")
    if not surface.declares("ample", h):
        raise RejectionError(
            "h is not declared ample on this surface; slopes need a polarization"
        )
    mu_m = Fraction(degree(m, h))
    mu_l = Fraction(degree(l, h))
    half = mu_l / 2
    mu_diff = mu_l - mu_m
    hsq = Fraction(h.square)
    slopes = (mu_m, half, mu_diff, mu_l, hsq)
    verdicts = (
        0 < mu_m,
        mu_m < half,
        half < mu_diff,
        mu_diff < mu_l,
        mu_l <= hsq,
    )
    lemma = None
    if a is not None:
        bound = exact_rational(a, "window bound a")
        in_window = bound < mu_m < mu_l - bound
        gap = intersect(l, m) - m.square
        gap_holds = gap > z
        lemma = LemmaReport(
            a=bound,
            in_window=in_window,
            gap=gap,
            gap_holds=gap_holds,
            predicate_ok=(not in_window) or gap_holds,
        )
    return StrataReport(
        l=l, m=m, h=h, z=z, slopes=slopes, verdicts=verdicts,
        independent=rank((l.coords, m.coords)) == 2, lemma=lemma,
    )


def check_ample_primitive(l: DivisorClass, n: int, h: DivisorClass, *, surface: SurfaceSpec) -> bool:
    """Exclusion test for a polarization that is a proper multiple l = n*h.

    Substitutes m = h into the destabilizing gap l.m - m^2 > z with z the
    forced zero-locus length for l^2.  Returns True when the system is
    inconsistent, i.e. the configuration is excluded; an l^2 with no
    zero-locus length (es_relation gives None) is excluded outright.
    """
    n = exact_int(n, "multiplier n", low=2)
    if l != n * h:
        raise ValueError("l is not the stated multiple of h")
    if not surface.declares("ample", h):
        raise RejectionError(
            "h is not declared ample on this surface; the test applies to polarizations"
        )
    z = es_relation(l.square)
    gap = intersect(l, h) - h.square
    return z is None or not gap > z


def hilb_moduli_vector(T: CohTransform, n: int, flavor: str) -> MukaiVector:
    """Mukai vector of the transformed ideal sheaf of n points, sign-normalized.

    The kernel's b+d column determines the expected vector family:
    flavor "no-cohomology" expects a square -4 difference class m with
    output ±(2n-1, n*m, -n-1); flavor "reflexive" expects a square -12
    class g with output ±(1+2n, n*g, 1-3n).  A transform whose kernel
    does not fit the flavor, or whose output leaves the family, is
    rejected.  n = 0 is the structure sheaf, where both families give
    ±(1, 0, 1).

    Since ch(I_n) = ch(O) - n ch(pt) and the action is linear,
    Phi(I_n) = Phi(O) - n Phi(pt): the image (r, f, t) is M[:, 0] -
    n M[:, -1], read in int, and its Mukai vector is (r, f, t + r).  The
    sign rule is sign_normalized's: the first nonzero entry of (r, f, s)
    is positive.  The result equals sign_normalized(ch_to_mukai(
    T.apply(ideal_sheaf_ch(T.source, n)))), with s a Fraction.  This int rule
    is the engine and sign_normalized its reference, which the tests compare;
    sharing one rule measured slower three times (8.3 -> 10.7 us per call).
    """
    if flavor not in HILB_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {HILB_FLAVORS}")
    n = exact_int(n, "number of points", low=0)
    if T.kernel is None:
        raise ValueError("transform carries no kernel data; the flavor check needs b and d")

    g = T.kernel.b + T.kernel.d
    if flavor == "no-cohomology":
        pattern = -g
        if pattern.square != -4:
            raise RejectionError(
                f"kernel difference class has square {pattern.square}, "
                "but the no-cohomology family needs -4"
            )
    else:
        pattern = g
        if pattern.square != -12:
            raise RejectionError(
                f"kernel pattern class has square {pattern.square}, "
                "but the reflexive family needs -12"
            )

    r, *f, t = [row[0] - n * row[-1] for row in T.matrix]
    s = t + r
    for entry in (r, *f, s):
        if entry:
            if entry < 0:
                r, f, s = -r, [-x for x in f], -s
            break
    f = tuple(f)

    if flavor == "no-cohomology":
        expected_rs = (2 * n - 1, -n - 1)
    else:
        expected_rs = (1 + 2 * n, 1 - 3 * n)
    if expected_rs[0] < 0:
        # Normalized as the image is; only n = 0 here: -(1, 1).
        expected_rs = (-expected_rs[0], -expected_rs[1])
    nm = tuple(n * x for x in pattern.coords)
    v = MukaiVector(r, DivisorClass(T.source, f), fraction(s))
    if (r, s) != expected_rs or f not in (nm, tuple(-x for x in nm)):
        raise RejectionError(
            f"transformed ideal sheaf gives {v!r}, outside the predicted "
            f"{flavor} family for n = {n}"
        )
    return v
