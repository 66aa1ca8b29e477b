"""Surface descriptions: a lattice, named divisor classes, and declared geometry.

A SurfaceSpec is the unit of input for the command line tool and for every
operation that needs geometric context.  Geometric properties that cannot be
read off the Gram matrix (ampleness, effectivity, irreducibility of rational
curves, vanishing of cohomology) are supplied as explicit declarations and
are never inferred.

The JSON file format:

    {
      "rank": 2,
      "gram": [[2, 0], [0, -12]],
      "classes": {"h": [1, 0], "l": [0, 1], "l2h": [2, 1]},
      "assumptions": [
        {"kind": "ample", "class": "h"},
        {"kind": "no_cohomology", "class": "l2h"}
      ]
    }

Class expressions accepted by the CLI are integer linear combinations of
declared class names, e.g. "l+2h" or "3l+7h", or bare coordinate vectors
such as "2,1".  Whitespace is ignored.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .lattice import DivisorClass, NSLattice
from .record import Record

__all__ = [
    "ASSUMPTION_KINDS",
    "Assumption",
    "SurfaceSpec",
    "SurfaceSpecError",
    "surface_spec_from_dict",
    "load_surface_spec",
    "parse_class_expr",
]

ASSUMPTION_KINDS = ("ample", "effective", "irreducible_rational", "no_cohomology")


class SurfaceSpecError(ValueError):
    """A surface description violates a structural invariant: an input error."""


class Assumption(Record):
    """A declared geometric property of a named class."""

    __slots__ = ("kind", "class_name")

    def __init__(self, kind: str, class_name: str):
        if kind not in ASSUMPTION_KINDS:
            raise SurfaceSpecError(
                f"unknown assumption kind {kind!r}; expected one of {ASSUMPTION_KINDS}"
            )
        self._set(kind, class_name)


class SurfaceSpec(Record):
    """An even lattice with named classes and declared geometric assumptions."""

    __slots__ = ("lattice", "named", "assumptions")

    def __init__(
        self,
        lattice: NSLattice,
        named: tuple[tuple[str, DivisorClass], ...],
        assumptions: tuple[Assumption, ...] = (),
    ):
        named = tuple(named)
        assumptions = tuple(assumptions)
        seen = set()
        for name, dc in named:
            if name in seen:
                raise SurfaceSpecError(f"class {name!r} is declared twice")
            seen.add(name)
            if dc.lattice != lattice:
                raise SurfaceSpecError(f"class {name!r} does not live on the surface lattice")
        for a in assumptions:
            if a.class_name not in seen:
                raise SurfaceSpecError(
                    f"assumption {a.kind!r} refers to undeclared class {a.class_name!r}"
                )
        self._set(lattice, named, assumptions)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.named)

    def cls(self, name: str) -> DivisorClass:
        for key, dc in self.named:
            if key == name:
                return dc
        raise SurfaceSpecError(f"unknown class {name!r}; declared classes: {list(self.names)}")

    def declared(self, kind: str) -> tuple[DivisorClass, ...]:
        """Classes carrying a declaration of the given kind, in declaration order.

        Repeated declarations are kept: multiplicity of declared curves is
        meaningful input.
        """
        return tuple(self.cls(a.class_name) for a in self.assumptions if a.kind == kind)

    def declares(self, kind: str, dc: DivisorClass) -> bool:
        return any(d == dc for d in self.declared(kind))

    def to_dict(self) -> dict:
        return {
            "rank": self.lattice.rank,
            "gram": [list(row) for row in self.lattice.gram],
            "classes": {name: list(dc.coords) for name, dc in self.named},
            "assumptions": [
                {"kind": a.kind, "class": a.class_name} for a in self.assumptions
            ],
        }


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a repeated key raises SurfaceSpecError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SurfaceSpecError(f"key {key!r} appears twice in one JSON object")
        obj[key] = value
    return obj


def surface_spec_from_dict(data: dict) -> SurfaceSpec:
    """Build and validate a SurfaceSpec from parsed JSON data.

    Every structural invariant is checked eagerly and each failure is named:
    non-square or asymmetric gram, odd diagonal, rank mismatch, malformed or
    wrong-length coordinate vectors, unknown assumption kinds, assumption
    targets that do not exist.
    """
    if not isinstance(data, dict):
        raise SurfaceSpecError("surface description must be a JSON object")
    unknown = set(data) - {"rank", "gram", "classes", "assumptions"}
    if unknown:
        raise SurfaceSpecError(f"unknown surface keys: {sorted(unknown)}")
    try:
        gram_rows = data["gram"]
    except KeyError:
        raise SurfaceSpecError('surface description is missing "gram"') from None
    if not isinstance(gram_rows, list) or not all(isinstance(r, list) for r in gram_rows):
        raise SurfaceSpecError('"gram" must be a list of rows')
    try:
        lattice = NSLattice(tuple(tuple(r) for r in gram_rows))
    except ValueError as exc:
        raise SurfaceSpecError(str(exc)) from None
    rank = data.get("rank", lattice.rank)
    if type(rank) is not int:
        raise SurfaceSpecError(f'"rank" must be an integer, got {rank!r}')
    if rank != lattice.rank:
        raise SurfaceSpecError(f'"rank" is {rank} but the gram matrix has rank {lattice.rank}')

    classes = data.get("classes", {})
    if not isinstance(classes, dict):
        raise SurfaceSpecError('"classes" must be an object mapping names to coordinate lists')
    named = []
    for name, coords in classes.items():
        if not isinstance(coords, list):
            raise SurfaceSpecError(f"class {name!r} must map to a coordinate list")
        try:
            named.append((str(name), DivisorClass(lattice, tuple(coords))))
        except ValueError as exc:
            raise SurfaceSpecError(f"class {name!r}: {exc}") from None

    entries = data.get("assumptions", [])
    if not isinstance(entries, list):
        raise SurfaceSpecError('"assumptions" must be a list')
    assumptions = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"kind", "class"}:
            raise SurfaceSpecError(
                f'assumption {i} must be an object with exactly the keys "kind" and "class"'
            )
        assumptions.append(Assumption(str(entry["kind"]), str(entry["class"])))

    return SurfaceSpec(lattice, tuple(named), tuple(assumptions))


def load_surface_spec(path) -> SurfaceSpec:
    """Read a surface description from a JSON file.

    Parse errors (bad JSON) surface as json.JSONDecodeError with line and
    column; nesting too deep to parse, a key repeated within one object and
    semantic violations surface as SurfaceSpecError.
    """
    text = Path(path).read_text()
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise SurfaceSpecError("surface JSON is nested too deeply to parse") from None
    return surface_spec_from_dict(data)


_COORDS_RE = re.compile(r"^[+-]?\d+(,[+-]?\d+)*$")
_TERM_RE = re.compile(r"([+-]?)(\d*)\*?([A-Za-z_][A-Za-z0-9_]*)")


def parse_class_expr(spec: SurfaceSpec, expr: str) -> DivisorClass:
    """Resolve a class expression against the declared classes.

    Accepts integer linear combinations of class names ("l+2h", "3l+7h",
    "-h", "2*h") and bare coordinate vectors ("2,1").  Whitespace anywhere
    is ignored.
    """
    compact = "".join(expr.split())
    if not compact:
        raise ValueError("empty class expression")
    if _COORDS_RE.match(compact):
        coords = tuple(int(p) for p in compact.split(","))
        if len(coords) != spec.lattice.rank:
            raise ValueError(
                f"coordinate vector {compact!r} has length {len(coords)}, "
                f"lattice rank is {spec.lattice.rank}"
            )
        return DivisorClass(spec.lattice, coords)

    result = spec.lattice.zero()
    pos = 0
    first = True
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if m is None:
            raise ValueError(f"cannot parse class expression {expr!r} at {compact[pos:]!r}")
        sign_s, coeff_s, name = m.groups()
        if not first and sign_s == "":
            raise ValueError(f"missing '+' or '-' before {name!r} in {expr!r}")
        sign = -1 if sign_s == "-" else 1
        coeff = int(coeff_s) if coeff_s else 1
        if name not in spec.names:
            raise ValueError(
                f"unknown class {name!r} in expression {expr!r}; "
                f"declared classes: {list(spec.names)}"
            )
        result = result + sign * coeff * spec.cls(name)
        pos = m.end()
        first = False
    return result
