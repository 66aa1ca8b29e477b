"""The value types' record semantics, one table row per class.

Each row pins the constructor's parameters (names, order, defaults), the
field order the CLI's _json emits, and the fields that == and hash ignore.
Every class is frozen (assigning or deleting an attribute raises
AttributeError), has no instance __dict__ (vars gives a fresh snapshot of
the fields), survives copy, deepcopy and pickle with every field, and
reprs as Name(field=...) without its private fields, unless it defines its
own short repr.
"""

import copy
import inspect
import pickle
from fractions import Fraction

import pytest

from k3fm import (
    Assumption,
    ChernCharacter,
    CohTransform,
    Decomposition,
    DivisorClass,
    ExclusionWitness,
    KernelSpec,
    MukaiVector,
    NSLattice,
    Pic1Solution,
    ReflexiveSurface,
    StrataReport,
    SurfaceSpec,
    TypeReport,
    ValidityReport,
    check_sufficient,
    classify_type,
    component_surface,
    crosscheck_specialized,
    decompose_l2h,
    exclusion_witness,
    from_kernel,
    solve_constraints,
    standard_spec,
    strata_chain,
    transform_for,
    validate_reflexive,
)
from k3fm.cli import _json
from k3fm.moduli import LemmaReport
from k3fm.transform import DiffEntry, DiffReport, _RankTwoUpdate

LATTICE = ((2, 0), (0, -12))


def kernel():
    lattice = NSLattice(((-4,),))
    m = DivisorClass(lattice, (1,))
    spec = SurfaceSpec(lattice, (("m", m),), (Assumption("no_cohomology", "m"),))
    return KernelSpec(lattice.zero(), lattice.zero(), m, -m, (m,), source=spec, target=spec)


def transform():
    k = kernel()
    return from_kernel(k, labels=(("m", k.c),))


def crosscheck():
    return crosscheck_specialized(
        transform_for(validate_reflexive(standard_spec()), "nondegenerate"),
        "reflexive_nondegenerate",
    )


def strata():
    spec = standard_spec()
    l, h = spec.cls("l"), spec.cls("h")
    return strata_chain(l + 3 * h, h, h, 5, surface=spec, a=Fraction(1, 2))


def type_ii():
    rs = component_surface(("c1", "c2"), {"c1": 1, "c2": 3})
    return rs, decompose_l2h(rs)


# class, a factory of equal fresh instances, the constructor's parameters,
# the fields in report order (None: _json writes the coordinate list), and
# the fields that == and hash ignore.
RECORDS = [
    (NSLattice, lambda: NSLattice(LATTICE), "gram", ["gram"], ()),
    (DivisorClass, lambda: DivisorClass(NSLattice(LATTICE), (1, 2)), "lattice coords", None, ()),
    (
        KernelSpec,
        kernel,
        "a b c d declared_vanishing=() source=None target=None",
        ["a", "b", "c", "d", "declared_vanishing", "source", "target"],
        ("source", "target"),
    ),
    (
        ValidityReport,
        lambda: check_sufficient(kernel()),
        "ab_equals_cd ab cd ac ac_square chi_ac ac_square_ok vanishing_declared bd bd_square chi_bd verdict",
        [
            "ab_equals_cd", "ab", "cd", "ac", "ac_square", "chi_ac", "ac_square_ok",
            "vanishing_declared", "bd", "bd_square", "chi_bd", "verdict",
        ],
        (),
    ),
    (
        ChernCharacter,
        lambda: ChernCharacter(2, standard_spec().cls("l"), Fraction(-5)),
        "r f t",
        ["r", "f", "t"],
        (),
    ),
    (
        MukaiVector,
        lambda: MukaiVector(2, standard_spec().cls("l"), Fraction(-3)),
        "r f s",
        ["r", "f", "s"],
        (),
    ),
    (Assumption, lambda: Assumption("ample", "h"), "kind class_name", ["kind", "class_name"], ()),
    (
        SurfaceSpec,
        standard_spec,
        "lattice named assumptions=()",
        ["lattice", "named", "assumptions"],
        (),
    ),
    (
        CohTransform,
        transform,
        "source matrix labels=()",
        ["source", "matrix", "kernel", "labels", "_rank_two"],
        ("kernel", "labels", "_rank_two"),
    ),
    (
        _RankTwoUpdate,
        lambda: transform()._rank_two,
        "u v e ge half_e2",
        ["u", "v", "e", "ge", "half_e2"],
        (),
    ),
    (
        DiffEntry,
        lambda: crosscheck().entries[0],
        "input engine closed_form delta delta_hat=None",
        ["input", "engine", "closed_form", "delta", "delta_hat"],
        (),
    ),
    (
        DiffReport,
        crosscheck,
        "formula_id points entries",
        ["formula_id", "points", "entries"],
        (),
    ),
    (
        LemmaReport,
        lambda: strata().lemma,
        "a in_window gap gap_holds predicate_ok",
        ["a", "in_window", "gap", "gap_holds", "predicate_ok"],
        (),
    ),
    (
        StrataReport,
        strata,
        "l m h z slopes verdicts independent lemma=None",
        ["l", "m", "h", "z", "slopes", "verdicts", "independent", "lemma"],
        (),
    ),
    (
        Pic1Solution,
        lambda: solve_constraints(1)[0],
        "n c x alpha y",
        ["n", "lsq", "z", "c", "x", "alpha", "y", "matrix", "det"],
        (),
    ),
    (
        ExclusionWitness,
        lambda: exclusion_witness(solve_constraints(1)),
        "slope threshold excluded",
        ["slope", "threshold", "excluded"],
        (),
    ),
    (
        ReflexiveSurface,
        lambda: type_ii()[0],
        "spec h_name='h' l_name='l'",
        ["spec", "h", "l", "degenerate", "curves"],
        (),
    ),
    (Decomposition, lambda: type_ii()[1], "d1 d2", ["d1", "d2"], ()),
    (
        TypeReport,
        lambda: classify_type(*type_ii()),
        "surface_type d1 d2 deg_d1 deg_d2 e=None",
        ["surface_type", "d1", "d2", "deg_d1", "deg_d2", "e"],
        (),
    ),
]

# The classes with their own short repr, as the factories above build them.
OWN_REPR = {
    NSLattice: "NSLattice([[2, 0], [0, -12]])",
    DivisorClass: "DivisorClass([1, 2])",
    ChernCharacter: "ch(2, [0, 1], -5)",
    MukaiVector: "v(2, [0, 1], -3)",
}
FIELDS = {cls: fields or ["lattice", "coords"] for cls, _, _, fields, _ in RECORDS}
each_record = pytest.mark.parametrize(
    "cls, make, signature, fields, ignored", RECORDS, ids=[cls.__name__ for cls, *_ in RECORDS]
)


def test_every_value_type_has_a_row():
    assert len(RECORDS) == len({cls for cls, *_ in RECORDS}) == 19


def parameters(cls) -> str:
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    return " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params)


@each_record
def test_constructor_and_report_fields(cls, make, signature, fields, ignored):
    value = make()
    assert type(value) is cls
    assert parameters(cls) == signature
    if fields is None:
        assert _json(value) == list(value.coords)
    else:
        assert list(_json(value)) == fields


@each_record
def test_equality_and_hash_read_exactly_the_compared_fields(cls, make, signature, fields, ignored):
    value = make()
    assert value == make() and hash(value) == hash(make())
    assert value.__eq__(object()) is NotImplemented
    for name in FIELDS[cls]:
        other = make()
        object.__setattr__(other, name, object())
        if name in ignored:
            assert value == other and hash(value) == hash(other), name
        else:
            assert value != other and hash(value) != hash(other), name


@each_record
def test_frozen(cls, make, signature, fields, ignored):
    value = make()
    for name in (*FIELDS[cls], "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == make()


@each_record
def test_no_instance_dict(cls, make, signature, fields, ignored):
    value = make()
    assert cls.__dictoffset__ == 0
    snapshot = vars(value)
    assert list(snapshot) == FIELDS[cls]
    assert all(snapshot[name] is getattr(value, name) for name in FIELDS[cls])
    snapshot[FIELDS[cls][0]] = None
    assert value == make()


@each_record
@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))], ids=["copy", "deepcopy", "pickle"]
)
def test_copy_and_pickle_keep_every_field(clone, cls, make, signature, fields, ignored):
    value = make()
    twin = clone(value)
    assert type(twin) is cls and twin == value
    assert all(getattr(twin, name) == getattr(value, name) for name in FIELDS[cls])
    with pytest.raises(AttributeError):
        setattr(twin, FIELDS[cls][0], None)


@each_record
def test_repr_shows_public_fields(cls, make, signature, fields, ignored):
    value = make()
    if cls in OWN_REPR:
        assert repr(value) == OWN_REPR[cls]
        return
    shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in FIELDS[cls] if not name.startswith("_"))
    assert repr(value) == f"{cls.__qualname__}({shown})"

