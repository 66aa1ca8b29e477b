"""Command-line interface: surface ingestion, dispatch, machine-readable reports.

Every command emits a single report, JSON by default (keys sorted) or
aligned text via --format / the K3FM_FORMAT environment variable.
Handlers return raw library values; _json is the one place that turns
them into JSON values: a divisor class becomes its coordinate list and a
rational becomes "p/q" in lowest terms with positive denominator.
Exit status: 0 on success, 1 on mathematical rejection, 2 on input error,
3 on an internal error (an exception the library did not mean to raise),
each with its JSON report on stdout and nothing on stderr.

_BUILDER_TABLE is the one place that says which closed-form formula each
builder is crosschecked against and which builder options it reads.  An
option that the command or its builder does not read is an input error.

Each run builds the subparser of the command it names and no other, from
that command's row of _ARGUMENTS, so a fresh process pays for one of the
twelve.  The parse, the --help text and every argument error are still
the full parser's; build_parser says why.

This module imports only errors, lattice, record and surface, which every
command or the report reads.  A handler, and each branch of
_builder_transform, imports the library names it calls when it runs; a
subparser whose choices a library module defines imports that module when
it is built.  So chi and a plain surface-validate load no other k3fm
module, and each command loads only the modules it calls: a fresh process
does not pay to import the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .errors import RejectionError
from .lattice import DivisorClass, NSLattice, chi_line, degree
from .record import Record
from .surface import Assumption, SurfaceSpec, load_surface_spec, parse_class_expr

__all__ = ["main", "BUILDERS"]


class _Builder(Record):
    """A builder's row: formula is the CLOSED_FORMS block transform-crosscheck
    compares it with, reads the builder options (argparse dests) it reads."""

    __slots__ = ("formula", "reads")

    def __init__(self, formula: str, reads: frozenset[str]):
        self._set(formula, reads)


_REFLEXIVE_READS = frozenset({"surface", "variant", "h_name", "l_name"})

_BUILDER_TABLE = {
    "no-cohomology": _Builder("no_cohomology", frozenset({"surface", "m_class"})),
    "reflexive-nondegenerate": _Builder("reflexive_nondegenerate", _REFLEXIVE_READS),
    "reflexive-type-i": _Builder("reflexive_type_i", _REFLEXIVE_READS),
    "reflexive-type-ii": _Builder("reflexive_type_ii", _REFLEXIVE_READS),
    "pic1": _Builder("picard_rank_one", frozenset({"lsq"})),
}

BUILDERS = tuple(_BUILDER_TABLE)
_BUILDER_OPTIONS = sorted(frozenset().union(*(b.reads for b in _BUILDER_TABLE.values())))


# ---------------------------------------------------------------------------
# serialization


def _json(value):
    """The JSON value of a report value.

    DivisorClass is tested before the record rule because it is a record
    itself; any other Record becomes the object of its fields, its
    __slots__ in order.
    """
    if isinstance(value, DivisorClass):
        return list(value.coords)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, dict):
        return {key: _json(item) for key, item in value.items()}
    if isinstance(value, (tuple, list)):
        return [_json(item) for item in value]
    if isinstance(value, Record):
        return {name: _json(getattr(value, name)) for name in value.__slots__}
    return value


def _render_text(payload) -> str:
    pairs: list[tuple[str, str]] = []

    def walk(value, path: str):
        if isinstance(value, dict):
            if not value:
                pairs.append((path, "{}"))
                return
            for key in sorted(value):
                walk(value[key], f"{path}.{key}" if path else str(key))
        elif isinstance(value, list) and any(isinstance(x, (dict, list)) for x in value):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        else:
            pairs.append((path, json.dumps(value)))

    walk(payload, "")
    width = max((len(lhs) for lhs, _ in pairs), default=0)
    return "\n".join(f"{lhs.ljust(width)}  {rhs}" for lhs, rhs in pairs)


def _encode(report: dict, fmt: str) -> str:
    payload = _json(report)
    if fmt == "text":
        return _render_text(payload)
    return json.dumps(payload, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# input helpers


def _parse_ch(lattice: NSLattice, text: str) -> ChernCharacter:
    from .mukai import ChernCharacter

    parts = [p.strip() for p in text.split(",")]
    want = lattice.rank + 2
    if len(parts) != want:
        raise ValueError(
            f"--ch needs {want} comma-separated values (rank, {lattice.rank} divisor "
            f"coordinates, ch2) for this surface, got {len(parts)}"
        )
    try:
        r = int(parts[0])
        coords = tuple(int(p) for p in parts[1:-1])
        t = Fraction(parts[-1])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse --ch value {text!r}: {exc}") from None
    return ChernCharacter(r, DivisorClass(lattice, coords), t)


def _default_no_cohomology_spec() -> SurfaceSpec:
    """Rank-1 stand-in surface whose generator is a declared no-cohomology
    class of square -4; gives the no-cohomology builder a zero-setup home."""
    lattice = NSLattice(((-4,),))
    named = (("m", DivisorClass(lattice, (1,))),)
    return SurfaceSpec(lattice, named, (Assumption("no_cohomology", "m"),))


def _pic1_n(lsq: int) -> int:
    """The n of the rank-1 solution for generator square lsq, or a rejection."""
    from .pic1 import existence_test

    n = existence_test(lsq)
    if n is None:
        raise RejectionError(
            f"no transform exists for generator square {lsq}: it is not 4 mod 8"
        )
    return n


def _reject_given(args, options, why: str):
    """Input error naming the first of options (argparse dests, all
    defaulting to None) that was given a value."""
    for option in options:
        if getattr(args, option, None) is not None:
            raise ValueError(f"--{option.replace('_', '-')} {why}")


def _reflexive_surface(args) -> ReflexiveSurface:
    """validate_reflexive on --surface, with --h-name and --l-name if given."""
    from .reflexive import validate_reflexive

    names = {k: v for k in ("h_name", "l_name") if (v := getattr(args, k)) is not None}
    return validate_reflexive(load_surface_spec(args.surface), **names)


def _builder_transform(args, name: str | None = None) -> CohTransform:
    """The transform of builder name (default args.builder).

    Without --surface each builder works on its own default surface.
    """
    name = name or args.builder
    reads = _BUILDER_TABLE[name].reads
    unread = [option for option in _BUILDER_OPTIONS if option not in reads]
    _reject_given(args, unread, f"is not read by builder {name}")
    if args.surface is None:  # --h-name and --l-name name classes of --surface
        _reject_given(args, ("h_name", "l_name"), f"is read by builder {name} only with --surface")
    if name == "pic1":
        if args.lsq is None:
            raise ValueError("builder pic1 requires --lsq")
        from .pic1 import select_physical, solve_constraints, transform_from_solution

        return transform_from_solution(select_physical(solve_constraints(_pic1_n(args.lsq))))
    if name == "no-cohomology":
        from .kernel import KernelSpec
        from .transform import from_kernel

        if args.surface is None:
            spec = _default_no_cohomology_spec()
        else:
            spec = load_surface_spec(args.surface)
        m = parse_class_expr(spec, "m" if args.m_class is None else args.m_class)
        kernel = KernelSpec(
            a=spec.lattice.zero(),
            b=spec.lattice.zero(),
            c=m,
            d=-m,
            declared_vanishing=spec.declared("no_cohomology"),
            source=spec,
            target=spec,
        )
        return from_kernel(kernel, labels=(("m", m),))
    from .reflexive import component_surface, standard_spec, transform_for, validate_reflexive

    variant = name.removeprefix("reflexive-")
    if args.surface is not None:
        rs = _reflexive_surface(args)
    elif variant == "nondegenerate":
        rs = validate_reflexive(standard_spec())
    elif variant == "type-i":
        rs = component_surface(("c1", "c2"), {"c1": 2, "c2": 2})
    else:
        rs = component_surface(("c1", "c2"), {"c1": 1, "c2": 3})
    return transform_for(rs, variant)


# ---------------------------------------------------------------------------
# command handlers: each returns (exit_status, payload)


def _cmd_surface_validate(args):
    if not args.reflexive:
        _reject_given(args, ("h_name", "l_name"), "is read only with --reflexive")
        return 0, {"surface": load_surface_spec(args.surface).to_dict()}
    from .reflexive import hat_classes

    rs = _reflexive_surface(args)
    lhat, hhat = hat_classes(rs)
    return 0, {
        "surface": rs.spec.to_dict(),
        "reflexive": {
            "h": rs.h,
            "l": rs.l,
            "degenerate": rs.degenerate,
            "curves": rs.curves,
            "l2h": rs.l2h,
            "chi_l2h": chi_line(rs.l2h),
            "deg_l2h": degree(rs.l2h, rs.h),
            "lhat": lhat,
            "hhat": hhat,
        },
    }


def _cmd_chi(args):
    spec = load_surface_spec(args.surface)
    dc = parse_class_expr(spec, args.class_expr)
    return 0, {
        "expr": args.class_expr,
        "class": dc,
        "square": dc.square,
        "chi": chi_line(dc),
    }


def _cmd_kernel_check(args):
    from .kernel import (
        KernelSpec,
        check_necessary_det,
        check_phiO_identity,
        check_sufficient,
        normalize_twist,
    )

    spec = load_surface_spec(args.surface)
    classes = [parse_class_expr(spec, expr) for expr in (args.a, args.b, args.c, args.d)]
    vanishing = [parse_class_expr(spec, expr) for expr in args.vanishing]
    kernel = KernelSpec(
        *classes,
        declared_vanishing=(*spec.declared("no_cohomology"), *vanishing),
        source=spec,
        target=spec,
    )
    report = check_sufficient(kernel)
    normalized = normalize_twist(kernel)
    payload = {
        "kernel": kernel.to_dict(),
        "report": report.to_dict(),
        "determinant_condition": check_necessary_det(kernel),
        "phi_o_identity": check_phiO_identity(normalized),
        "normalized": normalized.to_dict(),
    }
    if report.verdict != "fails":
        return 0, payload
    payload["error"] = {"kind": "rejection", "message": "kernel fails the existence conditions"}
    return 1, payload


def _cmd_transform_apply(args):
    from .mukai import ch_to_mukai
    from .transform import is_mukai_isometry

    t = _builder_transform(args)
    ch_in = _parse_ch(t.source, args.ch)
    ch_out = t.apply(ch_in)
    return 0, {
        "builder": args.builder,
        "input": ch_in,
        "output": ch_out,
        "mukai": ch_to_mukai(ch_out),
        "numerically_valid": t.numerically_valid,
        "isometry": is_mukai_isometry(t),
    }


def _cmd_transform_crosscheck(args):
    from .transform import crosscheck_specialized

    if args.max_entries < 0:
        raise ValueError(f"--max-entries must be non-negative, got {args.max_entries}")
    t = _builder_transform(args)
    formula = args.formula or _BUILDER_TABLE[args.builder].formula
    report = crosscheck_specialized(t, formula)
    shown = report.entries[: args.max_entries]
    return 0, {
        "builder": args.builder,
        "formula": report.formula_id,
        "points": report.points,
        "agree": report.agree,
        "mismatches": len(report.entries),
        "truncated": len(shown) < len(report.entries),
        "entries": shown,
    }


def _cmd_pic1(args):
    from .pic1 import (
        brute_force_oracle,
        exclusion_witness,
        select_physical,
        solve_constraints,
        transform_from_solution,
    )
    from .transform import is_mukai_isometry

    if not args.oracle:
        _reject_given(args, ("bound",), "is read only with --oracle")
    n = _pic1_n(args.lsq)
    pair = solve_constraints(n)
    selected = select_physical(pair)
    witness = exclusion_witness(pair)
    payload = {
        "lsq": args.lsq,
        "n": n,
        "z": selected.z,
        "solutions": pair,
        "selected": selected,
        "matrix": selected.matrix,
        "det": selected.det,
        "isometry": is_mukai_isometry(transform_from_solution(selected)),
        "exclusion": witness,
    }
    if args.oracle:
        bound = args.bound if args.bound is not None else 4 * n + 20
        found = brute_force_oracle(n, bound)
        payload["oracle"] = {
            "bound": bound,
            "solutions": found,
            "agrees": set(pair) == set(found),
        }
    return 0, payload


def _cmd_reflexive_decompose(args):
    from .reflexive import Decomposition, decompose_brute_force, decompose_l2h

    rs = _reflexive_surface(args)
    dec = decompose_l2h(rs)
    payload = {"d1": dec.d1, "d2": dec.d2}
    if args.oracle:
        all_decs = decompose_brute_force(rs)
        # The oracle lists each pair once, ordered by coordinates.
        pair = sorted((dec.d1, dec.d2), key=lambda x: x.coords)
        payload["oracle"] = {
            "decompositions": all_decs,
            "contains_result": Decomposition(*pair) in all_decs,
        }
    return 0, payload


def _cmd_reflexive_classify(args):
    from .reflexive import classify_type, decompose_l2h

    rs = _reflexive_surface(args)
    return 0, classify_type(rs, decompose_l2h(rs)).to_dict()


def _cmd_reflexive_kernel(args):
    from .kernel import check_sufficient
    from .mukai import ChernCharacter
    from .transform import is_mukai_isometry

    t = _builder_transform(args, "reflexive-" + args.variant)
    kernel = t.kernel
    report = check_sufficient(kernel)
    unit = ChernCharacter(1, t.source.zero(), Fraction(0))
    return 0, {
        "variant": args.variant,
        "kernel": kernel.to_dict(),
        "declared_vanishing": kernel.declared_vanishing,
        "report": report.to_dict(),
        "matrix": t.matrix,
        "isometry": is_mukai_isometry(t),
        "structure_sheaf_image": t.apply(unit),
    }


def _cmd_hilb_moduli(args):
    from .moduli import hilb_moduli_vector
    from .mukai import mukai_pairing

    if args.flavor == "no-cohomology":
        name = "no-cohomology"
    else:
        name = "reflexive-" + (args.variant or "nondegenerate")
    v = hilb_moduli_vector(_builder_transform(args, name), args.n, args.flavor)
    return 0, {
        "n": args.n,
        "flavor": args.flavor,
        "vector": v,
        "self_pairing": mukai_pairing(v, v),
    }


def _cmd_strata(args):
    from .moduli import strata_chain

    spec = load_surface_spec(args.surface)
    l = parse_class_expr(spec, args.l)
    m = parse_class_expr(spec, args.m)
    h = parse_class_expr(spec, args.h)
    a = None
    if args.a is not None:
        try:
            a = Fraction(args.a)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse --a value {args.a!r}: {exc}") from None
    report = strata_chain(l, m, h, args.z, surface=spec, a=a)
    return 0, report.to_dict()


def _cmd_primitive_check(args):
    from .moduli import check_ample_primitive, es_relation

    spec = load_surface_spec(args.surface)
    h = parse_class_expr(spec, args.h)
    l = parse_class_expr(spec, args.l) if args.l is not None else args.n * h
    excluded = check_ample_primitive(l, args.n, h, surface=spec)
    lsq = l.square
    return 0, {
        "n": args.n,
        "h": h,
        "l": l,
        "lsq": lsq,
        "z": es_relation(lsq),
        "excluded": excluded,
    }


# ---------------------------------------------------------------------------
# parser and dispatch

# command name -> (help text, handler)
_COMMANDS = {
    "surface-validate": ("load and validate a surface file", _cmd_surface_validate),
    "chi": ("Euler characteristic of a line bundle class", _cmd_chi),
    "kernel-check": ("existence conditions for a kernel quadruple", _cmd_kernel_check),
    "transform-apply": ("apply a built transform to a character", _cmd_transform_apply),
    "transform-crosscheck": (
        "compare a transform against its closed-form block",
        _cmd_transform_crosscheck,
    ),
    "pic1": ("rank-1 existence test and constraint solver", _cmd_pic1),
    "reflexive-decompose": ("split l+2h into two -2 classes", _cmd_reflexive_decompose),
    "reflexive-classify": ("degree pattern of the decomposition", _cmd_reflexive_classify),
    "reflexive-kernel": ("kernel and transform for a variant", _cmd_reflexive_kernel),
    "hilb-moduli": ("Mukai vector of a transformed ideal sheaf", _cmd_hilb_moduli),
    "strata": ("slope inequality chain report", _cmd_strata),
    "primitive-check": ("exclusion test for l = n*h polarizations", _cmd_primitive_check),
}


def _arg(*flags, **kwargs):
    """One add_argument call, as data.  A callable choices is called when
    build_parser makes the call."""
    return flags, kwargs


# The choices a library module defines are read from it when a subparser that
# offers them is built, so a command that offers none loads none of them.
def _closed_forms():
    from .transform import CLOSED_FORMS

    return sorted(CLOSED_FORMS)


def _kernel_variants():
    from .reflexive import KERNEL_VARIANTS

    return KERNEL_VARIANTS


def _hilb_flavors():
    from .moduli import HILB_FLAVORS

    return HILB_FLAVORS


_SURFACE_HELP = "path to a surface JSON file"
_SURFACE = _arg("--surface", required=True, help=_SURFACE_HELP)
_OPTIONAL_SURFACE = _arg("--surface", help=_SURFACE_HELP)
_H_L_NAMES = (
    _arg("--h-name", help="declared name of the degree-2 class"),
    _arg("--l-name", help="declared name of the square -12 class"),
)
_BUILDER_ARGS = (
    _arg("--builder", choices=BUILDERS, required=True),
    _OPTIONAL_SURFACE,
    *_H_L_NAMES,
    _arg(
        "--m-class",
        default=None,
        help="class expression for the no-cohomology builder (default: m)",
    ),
    _arg("--lsq", type=int, default=None, help="generator square for builder pic1"),
)
_FORMAT = _arg(
    "--format",
    choices=("json", "text"),
    default=None,
    help="output format (default: $K3FM_FORMAT or json)",
)

# command name -> its arguments in --help order; _FORMAT follows them in every
# command.  The --vanishing default list is shared by every parse: argparse
# appends to a copy, and _cmd_kernel_check only reads it.
_ARGUMENTS = {
    "surface-validate": (
        _SURFACE,
        _arg("--reflexive", action="store_true", help="also check the h, l relations"),
        *_H_L_NAMES,
    ),
    "chi": (_SURFACE, _arg("--class", dest="class_expr", required=True, help="class expression")),
    "kernel-check": (
        _SURFACE,
        *(_arg(f"--{field}", required=True, help=f"class expression for {field}") for field in "abcd"),
        _arg(
            "--vanishing",
            action="append",
            default=[],
            help="extra declared no-cohomology class (repeatable)",
        ),
    ),
    "transform-apply": (
        *_BUILDER_ARGS,
        _arg("--ch", required=True, help="input character: r,f...,t"),
    ),
    "transform-crosscheck": (
        *_BUILDER_ARGS,
        _arg("--formula", choices=_closed_forms, default=None),
        _arg("--max-entries", type=int, default=5, help="mismatch entries to show"),
    ),
    "pic1": (
        _arg("--lsq", type=int, required=True, help="square of the ample generator"),
        _arg("--oracle", action="store_true", help="run the brute-force search"),
        _arg("--bound", type=int, default=None, help="oracle scan bound"),
    ),
    "reflexive-decompose": (
        _SURFACE,
        *_H_L_NAMES,
        _arg("--oracle", action="store_true", help="also run the exhaustive search"),
    ),
    "reflexive-classify": (_SURFACE, *_H_L_NAMES),
    "reflexive-kernel": (
        _arg("--variant", choices=_kernel_variants, required=True),
        _OPTIONAL_SURFACE,
        *_H_L_NAMES,
    ),
    "hilb-moduli": (
        _arg("--n", type=int, required=True, help="number of points"),
        _arg("--flavor", choices=_hilb_flavors, required=True),
        _OPTIONAL_SURFACE,
        *_H_L_NAMES,
        _arg("--variant", choices=_kernel_variants, default=None),
        _arg("--m-class", default=None, help="no-cohomology class expression"),
    ),
    "strata": (
        _SURFACE,
        _arg("--l", required=True, help="class expression for l"),
        _arg("--m", required=True, help="class expression for m"),
        _arg("--h", required=True, help="class expression for the polarization"),
        _arg("--z", type=int, required=True, help="stratum length"),
        _arg("--a", default=None, help="window bound for the gap predicate"),
    ),
    "primitive-check": (
        _SURFACE,
        _arg("--h", required=True, help="class expression for the ample generator"),
        _arg("--n", type=int, required=True, help="multiplier, at least 2"),
        _arg("--l", default=None, help="class expression for l (default n*h)"),
    ),
}


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on an argument error, so main reports it as input."""

    def error(self, message):
        raise ValueError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The k3fm parser, with the subparser of command only if command names one.

    main passes its first argument.  When that is no command name (there is
    none, an option such as --help, or an unknown word) every subparser is
    built, as --help and the invalid-choice message list them all.  When it
    is one, an argv that starts with it parses exactly as under the full
    parser: the top level has no argument but -h and the subparsers action,
    so argparse hands everything after the name to that one subparser
    either way; the subparser's prog ("k3fm <name>") comes from the usage
    prefix fixed before any subparser is added; and leftover arguments are
    refused by the same top-level parser.
    """
    parser = _Parser(
        prog="k3fm",
        description="Exact computations with rank-2 kernel transforms on K3 lattices.",
    )
    action = parser.add_subparsers(dest="command", required=True)
    for name in (command,) if command in _COMMANDS else _COMMANDS:
        sub = action.add_parser(name, help=_COMMANDS[name][0])
        for flags, kwargs in (*_ARGUMENTS[name], _FORMAT):
            if callable(choices := kwargs.get("choices")):
                kwargs = {**kwargs, "choices": choices()}
            sub.add_argument(*flags, **kwargs)
    return parser


def _resolve_format(args) -> str:
    fmt = args.format or os.environ.get("K3FM_FORMAT") or "json"
    if fmt not in ("json", "text"):
        raise ValueError(f"unsupported output format {fmt!r}; expected json or text")
    return fmt


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = None  # reported as null when the arguments do not parse
    fmt = "json"  # the report of an unsupported format is itself JSON
    error = None
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        command = args.command
        fmt = _resolve_format(args)
        status, payload = _COMMANDS[command][1](args)
        # Encoding raises ValueError too, for an int longer than Python
        # converts to text (4300 digits by default): that is bad input.
        text = _encode({"command": command, "ok": status == 0, **payload}, fmt)
    except RejectionError as exc:
        status, error = 1, {"kind": "rejection", "message": str(exc)}
    except (ValueError, OSError) as exc:
        status, error = 2, {"kind": "input", "message": str(exc)}
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}"
        status, error = 3, {"kind": "internal", "message": message}
    if error is not None:
        text = _encode({"command": command, "ok": False, "error": error}, fmt)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away: point stdout at devnull so the interpreter's
        # final flush cannot fail again, and keep the command's own status.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
