import json

import pytest

from k3fm import (
    Assumption,
    DivisorClass,
    NSLattice,
    SurfaceSpec,
    SurfaceSpecError,
    load_surface_spec,
    parse_class_expr,
    surface_spec_from_dict,
    validate_reflexive,
)

from helpers import raised

REFLEXIVE_DATA = {
    "rank": 2,
    "gram": [[2, 0], [0, -12]],
    "classes": {"h": [1, 0], "l": [0, 1], "l2h": [2, 1]},
    "assumptions": [
        {"kind": "ample", "class": "h"},
        {"kind": "no_cohomology", "class": "l2h"},
    ],
}


def test_loads_reflexive_description():
    spec = surface_spec_from_dict(REFLEXIVE_DATA)
    assert spec.lattice.rank == 2
    assert spec.cls("h").coords == (1, 0)
    assert spec.declares("ample", spec.cls("h"))
    assert spec.declared("no_cohomology") == (spec.cls("l2h"),)


def test_rank_is_optional_but_checked():
    data = dict(REFLEXIVE_DATA)
    del data["rank"]
    assert surface_spec_from_dict(data).lattice.rank == 2
    data["rank"] = 3
    with pytest.raises(SurfaceSpecError, match='"rank" is 3'):
        surface_spec_from_dict(data)


def test_rejects_odd_diagonal():
    data = dict(REFLEXIVE_DATA, gram=[[1, 0], [0, -2]])
    with pytest.raises(SurfaceSpecError, match="odd"):
        surface_spec_from_dict(data)


def test_rejects_asymmetric_gram():
    data = dict(REFLEXIVE_DATA, gram=[[2, 1], [0, -2]])
    with pytest.raises(SurfaceSpecError, match="symmetric"):
        surface_spec_from_dict(data)


def test_rejects_missing_gram():
    with pytest.raises(SurfaceSpecError, match='missing "gram"'):
        surface_spec_from_dict({"classes": {}})


def test_rejects_unknown_keys():
    data = dict(REFLEXIVE_DATA, extra=1)
    with pytest.raises(SurfaceSpecError, match="unknown surface keys"):
        surface_spec_from_dict(data)


def test_rejects_wrong_length_class():
    data = dict(REFLEXIVE_DATA, classes={"h": [1, 0, 0]})
    with pytest.raises(SurfaceSpecError, match="'h'"):
        surface_spec_from_dict(data)


def test_rejects_unknown_assumption_target():
    data = dict(
        REFLEXIVE_DATA,
        assumptions=[{"kind": "ample", "class": "q"}],
    )
    with pytest.raises(SurfaceSpecError, match="'q'"):
        surface_spec_from_dict(data)


def test_rejects_unknown_assumption_kind():
    data = dict(
        REFLEXIVE_DATA,
        assumptions=[{"kind": "very_ample", "class": "h"}],
    )
    with pytest.raises(SurfaceSpecError, match="very_ample"):
        surface_spec_from_dict(data)


def test_rejects_malformed_assumption_entry():
    data = dict(REFLEXIVE_DATA, assumptions=[{"kind": "ample"}])
    with pytest.raises(SurfaceSpecError, match="assumption 0"):
        surface_spec_from_dict(data)


def test_rejects_duplicate_class_names():
    lat = NSLattice(((2,),))
    h = DivisorClass(lat, (1,))
    with pytest.raises(SurfaceSpecError, match="twice"):
        SurfaceSpec(lat, (("h", h), ("h", h)))


def test_input_errors_of_named_classes():
    """A class on another lattice, an unknown class name and a class mapped
    to a non-list, pinned as they read."""
    lat = NSLattice(((2,),))
    other = NSLattice(((-2,),))
    assert raised(lambda: SurfaceSpec(lat, (("h", DivisorClass(other, (1,))),))) == (
        SurfaceSpecError,
        "class 'h' does not live on the surface lattice",
    )
    assert raised(lambda: validate_reflexive(surface_spec_from_dict(REFLEXIVE_DATA), h_name="q")) == (
        SurfaceSpecError,
        "unknown class 'q'; declared classes: ['h', 'l', 'l2h']",
    )
    for value in (5, "1", {"0": 1}, None):
        data = dict(REFLEXIVE_DATA, classes={"h": value})
        assert raised(lambda: surface_spec_from_dict(data)) == (
            SurfaceSpecError,
            "class 'h' must map to a coordinate list",
        )


def test_declared_keeps_order_and_multiplicity():
    lat = NSLattice(((2, 2), (2, -2)))
    c1 = DivisorClass(lat, (0, 1))
    h = DivisorClass(lat, (1, 0))
    spec = SurfaceSpec(
        lat,
        (("h", h), ("c1", c1)),
        (
            Assumption("irreducible_rational", "c1"),
            Assumption("irreducible_rational", "c1"),
            Assumption("ample", "h"),
        ),
    )
    assert spec.declared("irreducible_rational") == (c1, c1)


def test_load_surface_spec_roundtrip(tmp_path):
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(REFLEXIVE_DATA))
    spec = load_surface_spec(path)
    assert spec.to_dict() == REFLEXIVE_DATA


def test_load_surface_spec_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_surface_spec(path)


@pytest.fixture
def spec():
    return surface_spec_from_dict(REFLEXIVE_DATA)


def test_parse_class_expr_combinations(spec):
    h, l = spec.cls("h"), spec.cls("l")
    assert parse_class_expr(spec, "l+2h") == l + 2 * h
    assert parse_class_expr(spec, "3l+7h") == 3 * l + 7 * h
    assert parse_class_expr(spec, "-h") == -h
    assert parse_class_expr(spec, "2*h") == 2 * h
    assert parse_class_expr(spec, " l + 2 h ") == l + 2 * h
    assert parse_class_expr(spec, "l2h") == spec.cls("l2h")
    assert parse_class_expr(spec, "l - l") == spec.lattice.zero()


def test_parse_class_expr_coordinates(spec):
    assert parse_class_expr(spec, "2,1") == DivisorClass(spec.lattice, (2, 1))
    assert parse_class_expr(spec, "-1,0") == DivisorClass(spec.lattice, (-1, 0))
    with pytest.raises(ValueError, match="length"):
        parse_class_expr(spec, "1,2,3")


def test_parse_class_expr_errors(spec):
    with pytest.raises(ValueError, match="unknown class 'q'"):
        parse_class_expr(spec, "q+2h")
    with pytest.raises(ValueError, match="empty"):
        parse_class_expr(spec, "  ")
    with pytest.raises(ValueError, match="missing"):
        parse_class_expr(spec, "l*h")
    with pytest.raises(ValueError, match="cannot parse"):
        parse_class_expr(spec, "2+")
