import argparse
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from k3fm import SurfaceSpecError, surface_spec_from_dict, transform
from k3fm.cli import _COMMANDS, BUILDERS, _render_text, build_parser, main
from k3fm.moduli import HILB_FLAVORS
from k3fm.reflexive import KERNEL_VARIANTS
from k3fm.surface import ASSUMPTION_KINDS
from k3fm.transform import CLOSED_FORMS

ROOT = Path(__file__).resolve().parent.parent
REFLEXIVE = str(ROOT / "surfaces" / "reflexive.json")
TYPE_I = str(ROOT / "surfaces" / "reflexive-type-i.json")
TYPE_II = str(ROOT / "surfaces" / "reflexive-type-ii.json")


def run(capsys, *argv, expect=0):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == expect, captured.out + captured.err
    return captured.out


def run_json(capsys, *argv, expect=0):
    return json.loads(run(capsys, *argv, expect=expect))


def test_surface_validate(capsys):
    data = run_json(
        capsys, "surface-validate", "--surface", REFLEXIVE, "--reflexive"
    )
    assert data["command"] == "surface-validate"
    assert data["ok"] is True
    block = data["reflexive"]
    assert block["degenerate"] is False
    assert block["l2h"] == [2, 1]
    assert block["chi_l2h"] == 0
    assert block["deg_l2h"] == 4
    assert block["lhat"] == [12, 5]
    assert block["hhat"] == [5, 2]


def surface_input_error(tmp_path, capsys, surface):
    """Exit 2 with an input report for a surface given as a dict or as raw JSON text."""
    bad = tmp_path / "bad.json"
    bad.write_text(surface if isinstance(surface, str) else json.dumps(surface))
    code = main(["surface-validate", "--surface", str(bad)])
    captured = capsys.readouterr()
    assert code == 2, captured.out + captured.err
    assert "Traceback" not in captured.err
    data = json.loads(captured.out)
    assert data["ok"] is False
    assert data["error"]["kind"] == "input"
    return data["error"]["message"]


def test_surface_validate_rejects_bad_gram(tmp_path, capsys):
    message = surface_input_error(tmp_path, capsys, {
        "rank": 1,
        "gram": [[3]],
        "classes": {"h": [1]},
        "assumptions": [],
    })
    assert "odd" in message


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param("classes", 5, id="classes"),
        pytest.param("assumptions", 5, id="assumptions"),
        pytest.param("gram", 5, id="gram-int"),
        pytest.param("gram", [1, 2], id="gram-flat"),
        pytest.param("gram", "x", id="gram-str"),
    ],
)
def test_surface_validate_rejects_non_container_sections(tmp_path, capsys, key, value):
    surface = {"gram": [[2]], "classes": {"h": [1]}, key: value}
    with pytest.raises(SurfaceSpecError, match=f'"{key}" must be'):
        surface_spec_from_dict(surface)
    message = surface_input_error(tmp_path, capsys, surface)
    assert f'"{key}" must be' in message


def test_surface_validate_rejects_duplicate_keys(tmp_path, capsys):
    text = '{"gram": [[2]], "classes": {"h": [1], "h": [true]}}'
    message = surface_input_error(tmp_path, capsys, text)
    assert "'h' appears twice" in message


def test_surface_validate_rejects_deep_nesting(tmp_path, capsys):
    # Deep enough to exhaust any stack depth the test runner leaves free.
    depth = 100_000
    text = '{"gram": ' + "[" * depth + "]" * depth + "}"
    message = surface_input_error(tmp_path, capsys, text)
    assert "nested too deeply" in message


@pytest.mark.parametrize(
    "surface, what",
    [
        ({"gram": [[2]], "classes": {"h": [True]}}, "class 'h' coordinates"),
        ({"gram": [[2, False], [False, -2]], "classes": {}}, '"gram" entries'),
    ],
)
def test_surface_validate_rejects_booleans(tmp_path, capsys, surface, what):
    message = surface_input_error(tmp_path, capsys, surface)
    assert f"{what} must be integers, not true or false" in message


@pytest.mark.parametrize("rank, shown", [(True, "True"), (1.0, "1.0")])
def test_surface_validate_rejects_non_integer_rank(tmp_path, capsys, rank, shown):
    # Both compare equal to the gram matrix's rank 1.
    surface = {"rank": rank, "gram": [[2]], "classes": {"h": [1]}}
    message = surface_input_error(tmp_path, capsys, surface)
    assert f'"rank" must be an integer, got {shown}' in message


def test_missing_surface_file(capsys):
    data = run_json(
        capsys, "chi", "--surface", str(ROOT / "nope.json"), "--class", "h",
        expect=2,
    )
    assert data["ok"] is False
    assert data["error"]["kind"] == "input"


def test_chi(capsys):
    data = run_json(capsys, "chi", "--surface", REFLEXIVE, "--class", "l+2h")
    assert data["chi"] == 0
    assert data["square"] == -4
    assert data["class"] == [2, 1]
    assert data["expr"] == "l+2h"


def test_chi_unknown_class(capsys):
    data = run_json(
        capsys, "chi", "--surface", REFLEXIVE, "--class", "q+h", expect=2
    )
    assert data["error"]["kind"] == "input"


def test_kernel_check_sufficient(capsys):
    data = run_json(
        capsys,
        "kernel-check", "--surface", REFLEXIVE,
        "--a=-h", "--b", "3l+7h", "--c", "l+h", "--d", "2l+5h",
    )
    assert data["ok"] is True
    assert data["report"]["verdict"] == "sufficient"
    assert data["determinant_condition"] is True
    assert data["phi_o_identity"] is True
    assert data["normalized"]["a"] == [0, 0]
    assert data["normalized"]["c"] == [2, 1]


def test_kernel_check_failing_exits_one(capsys):
    data = run_json(
        capsys,
        "kernel-check", "--surface", REFLEXIVE,
        "--a", "h", "--b", "l", "--c", "h+l", "--d", "l",
        expect=1,
    )
    assert data["ok"] is False
    assert data["report"]["verdict"] == "fails"
    assert data["error"]["kind"] == "rejection"


def test_transform_apply_no_cohomology(capsys):
    data = run_json(
        capsys, "transform-apply", "--builder", "no-cohomology", "--ch", "1,0,0"
    )
    assert data["input"] == data["output"] == {"f": [0], "r": 1, "t": "0/1"}
    assert data["mukai"] == {"f": [0], "r": 1, "s": "1/1"}
    assert data["numerically_valid"] is True
    assert data["isometry"] is True


def test_transform_apply_nondegenerate(capsys):
    data = run_json(
        capsys,
        "transform-apply", "--builder", "reflexive-nondegenerate",
        "--ch", "1,0,0,0",
    )
    assert data["output"] == {"f": [0, 0], "r": -1, "t": "0/1"}


def test_transform_apply_rejects_malformed_character(capsys):
    data = run_json(
        capsys,
        "transform-apply", "--builder", "no-cohomology", "--ch", "1,0",
        expect=2,
    )
    assert data["error"]["kind"] == "input"


@pytest.mark.parametrize("ch", ["1,x,0", "1,0,1/0", "1,0,1/2/3"])
def test_transform_apply_rejects_unparsable_character(capsys, ch):
    """A non-integer coordinate, a zero denominator and a malformed ch2
    each reach _parse_ch's parse failure."""
    data = run_json(
        capsys, "transform-apply", "--builder", "no-cohomology", f"--ch={ch}", expect=2,
    )
    assert data["error"]["kind"] == "input"
    assert data["error"]["message"].startswith(f"cannot parse --ch value {ch!r}: ")


def test_transform_crosscheck_agreeing(capsys):
    data = run_json(
        capsys, "transform-crosscheck", "--builder", "no-cohomology"
    )
    assert data["agree"] is True
    assert data["mismatches"] == 0
    assert data["entries"] == []
    assert data["formula"] == "no_cohomology"


def test_transform_crosscheck_reports_diffs(capsys):
    data = run_json(
        capsys, "transform-crosscheck", "--builder", "reflexive-nondegenerate",
        "--max-entries", "2",
    )
    assert data["agree"] is False
    assert data["points"] == 625
    assert data["mismatches"] == 550
    assert len(data["entries"]) == 2
    assert data["truncated"] is True
    first = data["entries"][0]
    assert set(first) >= {"input", "engine", "closed_form", "delta"}


def test_transform_crosscheck_rejects_negative_max_entries(capsys):
    data = run_json(
        capsys, "transform-crosscheck", "--builder", "reflexive-nondegenerate",
        "--max-entries", "-1",
        expect=2,
    )
    assert data["error"]["kind"] == "input"
    assert "--max-entries" in data["error"]["message"]


def test_pic1_smallest_square(capsys):
    data = run_json(capsys, "pic1", "--lsq", "4")
    assert data["n"] == 0 and data["z"] == 3
    assert data["matrix"] == [[3, -4, 2], [-1, 1, -1], [-2, 4, -1]]
    assert data["det"] == 1
    assert data["isometry"] is True
    assert [s["c"] for s in data["solutions"]] == [-1, -2]
    assert data["exclusion"] == {
        "slope": "8/3",
        "threshold": "2/1",
        "excluded": True,
    }


def test_pic1_oracle(capsys):
    data = run_json(capsys, "pic1", "--lsq", "12", "--oracle")
    assert data["n"] == 1
    oracle = data["oracle"]
    assert oracle["bound"] == 24
    assert oracle["agrees"] is True
    assert len(oracle["solutions"]) == 2


@pytest.mark.parametrize("lsq", ["6", "16", "2"])
def test_pic1_rejects_other_squares(capsys, lsq):
    data = run_json(capsys, "pic1", "--lsq", lsq, expect=1)
    assert data["error"]["kind"] == "rejection"


def test_pic1_invalid_square_is_input_error(capsys):
    data = run_json(capsys, "pic1", "--lsq", "-4", expect=2)
    assert data["error"]["kind"] == "input"


def test_reflexive_decompose_with_oracle(capsys):
    data = run_json(
        capsys, "reflexive-decompose", "--surface", TYPE_I, "--oracle"
    )
    assert data["ok"] is True
    assert data["d1"] == [0, 1, 0]
    assert data["d2"] == [0, 0, 1]
    oracle = data["oracle"]
    assert oracle["contains_result"] is True
    assert len(oracle["decompositions"]) >= 1


def test_reflexive_decompose_rejection(capsys):
    data = run_json(
        capsys, "reflexive-decompose", "--surface", REFLEXIVE, expect=1
    )
    assert data["error"]["kind"] == "rejection"


def test_reflexive_classify(capsys):
    data = run_json(capsys, "reflexive-classify", "--surface", TYPE_II)
    assert data["type"] == "II"
    assert data["deg_d1"] == 1 and data["deg_d2"] == 3
    assert data["e"] == [1, -1, 0]


def test_reflexive_kernel_default_surface(capsys):
    data = run_json(capsys, "reflexive-kernel", "--variant", "nondegenerate")
    assert data["kernel"]["a"] == [-1, 0]
    assert data["report"]["verdict"] == "sufficient"
    assert data["isometry"] is True
    assert data["structure_sheaf_image"] == {"f": [0, 0], "r": -1, "t": "0/1"}
    assert len(data["matrix"]) == 4


def test_reflexive_kernel_type_variants(capsys):
    for variant, path in (("type-i", TYPE_I), ("type-ii", TYPE_II)):
        data = run_json(
            capsys, "reflexive-kernel", "--variant", variant, "--surface", path
        )
        assert data["isometry"] is True
        assert data["structure_sheaf_image"]["r"] == -1


def test_reflexive_kernel_variant_mismatch(capsys):
    data = run_json(
        capsys,
        "reflexive-kernel", "--variant", "type-ii", "--surface", TYPE_I,
        expect=1,
    )
    assert data["error"]["kind"] == "rejection"


def test_hilb_moduli_no_cohomology(capsys):
    data = run_json(
        capsys, "hilb-moduli", "--n", "2", "--flavor", "no-cohomology"
    )
    assert data["vector"] == {"f": [-2], "r": 3, "s": "-3/1"}
    assert data["self_pairing"] == "2/1"


def test_hilb_moduli_reflexive(capsys):
    data = run_json(capsys, "hilb-moduli", "--n", "1", "--flavor", "reflexive")
    assert data["vector"] == {"f": [12, 5], "r": 3, "s": "-2/1"}
    assert data["self_pairing"] == "0/1"


def test_hilb_moduli_rejects_negative_points(capsys):
    data = run_json(
        capsys,
        "hilb-moduli", "--n", "-1", "--flavor", "no-cohomology",
        expect=2,
    )
    assert data["error"]["kind"] == "input"


def test_strata(capsys):
    data = run_json(
        capsys,
        "strata", "--surface", REFLEXIVE,
        "--l", "l2h", "--m", "h", "--h", "h", "--z", "1", "--a", "1/2",
    )
    assert data["slopes"]["mu_m"] == "2/1"
    assert data["slopes"]["mu_l"] == "4/1"
    assert data["chain_holds"] is False
    assert data["verdicts"]["mu(m) < mu(l)/2"] is False
    assert data["lemma"]["a"] == "1/2"
    assert data["independent"] is True


@pytest.mark.parametrize("a", ["1/0", "half"])
def test_strata_rejects_unparsable_a(capsys, a):
    code = main([
        "strata", "--surface", REFLEXIVE,
        "--l", "l2h", "--m", "h", "--h", "h", "--z", "1", "--a", a,
    ])
    captured = capsys.readouterr()
    assert code == 2, captured.out + captured.err
    assert "Traceback" not in captured.err
    data = json.loads(captured.out)
    assert data["error"]["kind"] == "input"
    assert data["error"]["message"].startswith(f"cannot parse --a value {a!r}")


def test_strata_requires_ample(capsys):
    data = run_json(
        capsys,
        "strata", "--surface", REFLEXIVE,
        "--l", "l2h", "--m", "h", "--h", "l", "--z", "1",
        expect=1,
    )
    assert data["error"]["kind"] == "rejection"


def test_primitive_check(capsys):
    data = run_json(
        capsys, "primitive-check", "--surface", REFLEXIVE, "--h", "h", "--n", "2"
    )
    assert data["excluded"] is True
    assert data["lsq"] == 8
    assert data["z"] == 4


def test_primitive_check_off_grid_length(capsys):
    data = run_json(
        capsys, "primitive-check", "--surface", REFLEXIVE, "--h", "h", "--n", "3"
    )
    assert data["excluded"] is True
    assert data["z"] is None


def test_primitive_check_rejects_empty_l(capsys):
    data = run_json(
        capsys, "primitive-check", "--surface", REFLEXIVE, "--h", "h", "--n", "2", "--l", "",
        expect=2,
    )
    assert data["error"] == {"kind": "input", "message": "empty class expression"}


@pytest.mark.parametrize(
    "argv",
    [
        ["transform-apply", "--builder", "no-cohomology", "--m-class", "", "--ch", "1,0,0"],
        ["hilb-moduli", "--n", "1", "--flavor", "no-cohomology", "--m-class", ""],
        ["transform-apply", "--builder", "no-cohomology", "--surface", REFLEXIVE,
         "--m-class", "", "--ch", "1,0,0,0"],
    ],
    ids=["default-surface", "hilb-moduli", "surface-file"],
)
def test_empty_m_class_is_input_error(capsys, argv):
    data = run_json(capsys, *argv, expect=2)
    assert data["error"] == {"kind": "input", "message": "empty class expression"}


def test_text_format(capsys):
    out = run(
        capsys, "pic1", "--lsq", "4", "--format", "text"
    )
    assert "pic1" in out
    assert "det" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_text_format_prints_an_empty_object_as_braces(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    surface = tmp_path / "no-classes.json"
    surface.write_text(json.dumps({"gram": [[2]], "classes": {}}))
    out = run(capsys, "surface-validate", "--surface", str(surface), "--format", "text")
    assert [line.split() for line in out.splitlines() if line.startswith("surface.classes")] == [
        ["surface.classes", "{}"]
    ]


def test_format_env_var(capsys, monkeypatch):
    monkeypatch.setenv("K3FM_FORMAT", "text")
    out = run(capsys, "pic1", "--lsq", "4")
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    # Explicit flag wins over the environment.
    data = run_json(capsys, "pic1", "--lsq", "4", "--format", "json")
    assert data["ok"] is True


def test_invalid_format_env(capsys, monkeypatch):
    monkeypatch.setenv("K3FM_FORMAT", "yaml")
    code = main(["pic1", "--lsq", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out) == {
        "command": "pic1",
        "ok": False,
        "error": {
            "kind": "input",
            "message": "unsupported output format 'yaml'; expected json or text",
        },
    }
    assert captured.err == ""


def test_unknown_command_exits_two(capsys):
    """Every argument error ends in the input envelope, with no command."""
    for argv in (
        [],
        ["frobnicate"],
        ["pic1"],
        ["pic1", "--lsq", "x"],
        ["pic1", "--lsq", "4", "--format", "xml"],
        ["pic1", "--lsq", "4", "--bogus"],
    ):
        data = run_json(capsys, *argv, expect=2)
        assert data["command"] is None and data["ok"] is False
        assert data["error"]["kind"] == "input"
    with pytest.raises(SystemExit) as err:
        main(["--help"])
    assert err.value.code == 0


def test_json_output_is_sorted_and_stable(capsys):
    out1 = run(capsys, "pic1", "--lsq", "4")
    out2 = run(capsys, "pic1", "--lsq", "4")
    assert out1 == out2
    data = json.loads(out1)
    assert list(data) == sorted(data)


@pytest.mark.parametrize(
    "argv",
    [
        # Larger than the pipe buffer: print itself meets the closed pipe.
        ["transform-crosscheck", "--builder", "pic1", "--lsq", "12", "--max-entries", "1000"],
        # Small: the write fails only when stdout is flushed.
        ["pic1", "--lsq", "4"],
    ],
)
def test_closed_stdout_is_not_a_rejection(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("K3FM_FORMAT", None)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "k3fm", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert result.returncode in (0, 2), result.stderr
    assert "Traceback" not in result.stderr
    assert "BrokenPipeError" not in result.stderr


@pytest.mark.parametrize(
    "argv, option, reader",
    [
        (["transform-apply", "--builder", "pic1", "--lsq", "12", "--surface", "missing.json",
          "--ch", "1,0,0"], "--surface", "builder pic1"),
        (["hilb-moduli", "--n", "1", "--flavor", "reflexive", "--m-class", "nonsense-expr"],
         "--m-class", "builder reflexive-nondegenerate"),
        (["hilb-moduli", "--n", "1", "--flavor", "no-cohomology", "--variant", "type-i"],
         "--variant", "builder no-cohomology"),
        (["reflexive-kernel", "--variant", "type-i", "--h-name", "x"],
         "--h-name", "builder reflexive-type-i only with --surface"),
        (["pic1", "--lsq", "4", "--bound", "3"], "--bound", "only with --oracle"),
        (["surface-validate", "--surface", REFLEXIVE, "--h-name", "nonexistent"],
         "--h-name", "only with --reflexive"),
    ],
    ids=[
        "pic1-surface",
        "reflexive-m-class",
        "no-cohomology-variant",
        "reflexive-h-name-without-surface",
        "pic1-bound-without-oracle",
        "surface-validate-h-name-without-reflexive",
    ],
)
def test_unread_option_is_input_error(capsys, argv, option, reader):
    data = run_json(capsys, *argv, expect=2)
    assert data["error"]["kind"] == "input"
    message = data["error"]["message"]
    assert message.startswith(f"{option} is ")
    assert message.endswith(reader)


# One minimal valid invocation of every subcommand.
MINIMAL_ARGV = {
    "surface-validate": ["--surface", REFLEXIVE],
    "chi": ["--surface", REFLEXIVE, "--class", "l+2h"],
    "kernel-check": ["--surface", REFLEXIVE, "--a=-h", "--b", "3l+7h", "--c", "l+h", "--d", "2l+5h"],
    "transform-apply": ["--builder", "no-cohomology", "--ch", "1,0,0"],
    "transform-crosscheck": ["--builder", "no-cohomology"],
    "pic1": ["--lsq", "4"],
    "reflexive-decompose": ["--surface", TYPE_I],
    "reflexive-classify": ["--surface", TYPE_I],
    "reflexive-kernel": ["--variant", "nondegenerate"],
    "hilb-moduli": ["--n", "2", "--flavor", "no-cohomology"],
    "strata": ["--surface", REFLEXIVE, "--l", "l", "--m", "h", "--h", "h", "--z", "5"],
    "primitive-check": ["--surface", REFLEXIVE, "--h", "h", "--n", "2"],
}


def test_minimal_argv_covers_every_command():
    assert set(MINIMAL_ARGV) == set(_COMMANDS)


@pytest.mark.parametrize("command", list(MINIMAL_ARGV))
def test_text_renders_the_json_payload(capsys, monkeypatch, command):
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    argv = [command, *MINIMAL_ARGV[command]]
    status = main([*argv, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == command
    assert payload["ok"] is True
    assert main([*argv, "--format", "text"]) == status == 0
    assert capsys.readouterr().out == _render_text(payload) + "\n"


@pytest.mark.parametrize("command", list(MINIMAL_ARGV))
def test_internal_error_exits_three_with_a_report(capsys, monkeypatch, command):
    """An exception that is neither a rejection nor an input error is a
    bug: exit 3 with an "internal" report on stdout and no traceback."""
    monkeypatch.delenv("K3FM_FORMAT", raising=False)

    def broken(args):
        raise TypeError("unsupported operand")

    help_text, _, arguments = _COMMANDS[command]
    monkeypatch.setitem(_COMMANDS, command, (help_text, broken, arguments))
    assert main([command, *MINIMAL_ARGV[command]]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "command": command,
        "error": {"kind": "internal", "message": "TypeError: unsupported operand"},
        "ok": False,
    }


def test_library_bug_inside_a_handler_is_internal(capsys, monkeypatch):
    """The same for a library function failing under a real handler."""

    def broken(n):
        raise KeyError(n)

    monkeypatch.setattr("k3fm.pic1.solve_constraints", broken)
    assert main(["pic1", "--lsq", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["error"] == {"kind": "internal", "message": "KeyError: 0"}


def test_failed_import_inside_a_handler_is_internal(capsys, monkeypatch):
    """A handler imports the library module it calls when it runs; if that
    import fails, the run still ends in an internal report, not a traceback."""
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    monkeypatch.setitem(sys.modules, "k3fm.pic1", None)
    assert main(["pic1", "--lsq", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "command": "pic1",
        "error": {
            "kind": "internal",
            "message": "ModuleNotFoundError: import of k3fm.pic1 halted; None in sys.modules",
        },
        "ok": False,
    }


def test_failed_import_while_choices_are_built_is_internal(capsys, monkeypatch):
    """The --formula choices are read from k3fm.transform when the subparser
    is built, before the command is known to the report; if that import
    fails, the run ends in an internal report with a null command."""
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    monkeypatch.setitem(sys.modules, "k3fm.transform", None)
    assert main(["transform-crosscheck", "--builder", "pic1", "--lsq", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out) == {
        "command": None,
        "error": {
            "kind": "internal",
            "message": "ModuleNotFoundError: import of k3fm.transform halted; None in sys.modules",
        },
        "ok": False,
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["pic1", "--lsq", str(4 + 8 * 10**2400)],
        ["chi", "--surface", REFLEXIVE, "--class", f"{10**2200}h"],
    ],
    ids=["pic1", "chi"],
)
def test_result_too_long_to_print_is_input_error(capsys, monkeypatch, argv):
    """A result with an int longer than Python converts to text (4300
    digits by default) cannot be encoded: exit 2 with an input report, in
    either format, and nothing on stderr."""
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    data = json.loads(captured.out)
    assert data["command"] == argv[0] and data["ok"] is False
    assert data["error"]["kind"] == "input"
    assert data["error"]["message"].startswith("Exceeds the limit")
    assert main([*argv, "--format", "text"]) == 2
    assert capsys.readouterr().out == _render_text(data) + "\n"


def test_oversized_default_grid_is_input_error(capsys, monkeypatch, tmp_path):
    """The default crosscheck grid of a rank-20 lattice would have 9 * 3^20
    points: its size is checked before any point is built."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the grid was built")

    monkeypatch.setattr(transform, "product", unreachable)
    rank = 20
    gram = [[-2 * (i == j) for j in range(rank)] for i in range(rank)]
    gram[0][0] = -4
    surface = tmp_path / "rank20.json"
    surface.write_text(json.dumps({
        "gram": gram,
        "classes": {"m": [1] + [0] * (rank - 1)},
        "assumptions": [{"kind": "no_cohomology", "class": "m"}],
    }))
    argv = ["transform-crosscheck", "--builder", "no-cohomology", "--surface", str(surface)]
    data = run_json(capsys, *argv, expect=2)
    assert data["error"] == {
        "kind": "input",
        "message": "the default grid of a rank-20 lattice has 31381059609 points, "
        "more than the 1000000 allowed",
    }


@pytest.mark.parametrize(
    "argv, bound",
    [
        (["--lsq", "4", "--bound", "1000001"], 1000001),
        (["--lsq", "8000000004"], 4000000020),  # the default bound, 4n + 20
    ],
)
def test_oversized_oracle_bound_is_input_error(capsys, argv, bound):
    """pic1 --oracle refuses a bound above MAX_ORACLE_BOUND, given or
    default, before it scans: a default bound of 4 * 10^9 would scan for
    over an hour."""
    data = run_json(capsys, "pic1", *argv, "--oracle", expect=2)
    assert data == {
        "command": "pic1",
        "error": {"kind": "input", "message": f"bound {bound} is more than the 1000000 allowed"},
        "ok": False,
    }


# The fuzz vocabulary: each subcommand's options, and values for each
# option, valid and not.  Valued options are passed as --option=value, so a
# value such as -h is never read as the help flag.
FUZZ_BUILDER_OPTIONS = ("--builder", "--surface", "--h-name", "--l-name", "--m-class", "--lsq")
FUZZ_OPTIONS = {
    "surface-validate": ("--surface", "--reflexive", "--h-name", "--l-name"),
    "chi": ("--surface", "--class"),
    "kernel-check": ("--surface", "--a", "--b", "--c", "--d", "--vanishing"),
    "transform-apply": (*FUZZ_BUILDER_OPTIONS, "--ch"),
    "transform-crosscheck": (*FUZZ_BUILDER_OPTIONS, "--formula", "--max-entries"),
    "pic1": ("--lsq", "--oracle", "--bound"),
    "reflexive-decompose": ("--surface", "--h-name", "--l-name", "--oracle"),
    "reflexive-classify": ("--surface", "--h-name", "--l-name"),
    "reflexive-kernel": ("--variant", "--surface", "--h-name", "--l-name"),
    "hilb-moduli": ("--n", "--flavor", "--surface", "--h-name", "--l-name", "--variant", "--m-class"),
    "strata": ("--surface", "--l", "--m", "--h", "--z", "--a"),
    "primitive-check": ("--surface", "--h", "--n", "--l"),
}
FUZZ_NAMES = ("h", "l", "l2h", "m", "c1", "c2")
FUZZ_CLASS_EXPRS = st.sampled_from(
    ("h", "l", "m", "l2h", "c2", "l+2h", "3l+7h", "2l+5h", "l+h", "-h", "h-c1", "1,0", "0,1,0", "q", "2h+", "")
)
FUZZ_INTS = st.sampled_from(("-9", "-2", "0", "1", "2", "3", "4", "12", "20", "x"))
FUZZ_VALUES = {
    **dict.fromkeys(
        ("--class", "--b", "--c", "--d", "--vanishing", "--l", "--m", "--h", "--m-class"), FUZZ_CLASS_EXPRS
    ),
    **dict.fromkeys(("--lsq", "--bound", "--n", "--z", "--max-entries"), FUZZ_INTS),
    **dict.fromkeys(("--h-name", "--l-name"), st.sampled_from((*FUZZ_NAMES, "q"))),
    "--a": st.one_of(FUZZ_CLASS_EXPRS, st.sampled_from(("1/2", "0", "1/0"))),
    "--builder": st.sampled_from((*BUILDERS, "nope")),
    "--ch": st.sampled_from(("1,0,0", "1,0,0,0", "2,1,-1,1/2", "0,0,1,0,0", "1,x", "")),
    "--formula": st.sampled_from((*CLOSED_FORMS, "nope")),
    "--flavor": st.sampled_from((*HILB_FLAVORS, "nope")),
    "--variant": st.sampled_from((*KERNEL_VARIANTS, "nope")),
    "--format": st.sampled_from(("json", "text", "xml")),
}
FUZZ_FLAGS = ("--reflexive", "--oracle")


@st.composite
def fuzz_surfaces(draw):
    """A random rank 1-3 surface: an even symmetric Gram and classes and
    assumptions on a few names, each of which may be missing or ill-sized."""
    rank = draw(st.integers(1, 3))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * draw(st.integers(-6, 1))
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    names = draw(st.lists(st.sampled_from(FUZZ_NAMES), unique=True, max_size=4))
    coords = st.lists(st.integers(-3, 3), min_size=rank - 1, max_size=rank + 1)
    assumptions = st.fixed_dictionaries(
        {"kind": st.sampled_from(ASSUMPTION_KINDS), "class": st.sampled_from(FUZZ_NAMES)}
    )
    return {
        "rank": rank,
        "gram": gram,
        "classes": {name: draw(coords) for name in names},
        "assumptions": draw(st.lists(assumptions, max_size=4)),
    }


FUZZ_SURFACES = st.one_of(
    fuzz_surfaces(),
    st.sampled_from([json.loads(Path(p).read_text()) for p in (REFLEXIVE, TYPE_I, TYPE_II)]),
    st.sampled_from(({"gram": [[2]], "classes": 5}, [], "{", "null")),
)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_fuzz_argv_always_ends_in_a_report(tmp_path, monkeypatch, data):
    """Random argv over the subcommands' vocabulary, with a random surface
    file: exit 0, 1 or 2, a report with an ok key that matches the status,
    and no traceback."""
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    surface = tmp_path / "surface.json"
    drawn = data.draw(FUZZ_SURFACES)
    surface.write_text(drawn if isinstance(drawn, str) else json.dumps(drawn))
    paths = st.sampled_from((str(surface), str(tmp_path / "missing.json"), REFLEXIVE, TYPE_I, TYPE_II))
    values = {**FUZZ_VALUES, "--surface": paths}
    command = data.draw(st.sampled_from((*_COMMANDS, "frobnicate", None)))
    # A minimal valid invocation, perhaps less one token, then random
    # options, mostly the command's own; a later option overrides an earlier.
    argv = [] if command is None else [command, *MINIMAL_ARGV.get(command, ())]
    if len(argv) > 1 and data.draw(st.integers(0, 3)) == 0:
        del argv[data.draw(st.integers(1, len(argv) - 1))]
    own = FUZZ_OPTIONS.get(command, ())
    vocabulary = st.sampled_from((*FUZZ_FLAGS, *values))
    options = st.one_of(st.sampled_from(own), st.sampled_from(own), vocabulary) if own else vocabulary
    for option in data.draw(st.lists(options, max_size=4)):
        argv.append(option if option in FUZZ_FLAGS else f"{option}={data.draw(values[option])}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    assert status in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    try:
        fmt = build_parser().parse_args(argv).format
    except ValueError:
        fmt = None
    if fmt == "text":
        lines = dict(line.split(None, 1) for line in out.getvalue().splitlines())
        assert lines["ok"] == ("true" if status == 0 else "false")
    else:
        assert json.loads(out.getvalue())["ok"] is (status == 0)


def parse_outcome(parser, argv):
    """What parsing argv gives: the Namespace's fields, the ValueError
    message, or the SystemExit code with what was printed (help)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return "namespace", vars(parser.parse_args(argv))
    except ValueError as error:
        return "error", str(error)
    except SystemExit as done:
        return "exit", done.code, out.getvalue()


@pytest.mark.parametrize("command", list(MINIMAL_ARGV))
def test_subcommand_help_is_the_full_parsers(command):
    outcome = parse_outcome(build_parser(command), [command, "-h"])
    assert outcome[:2] == ("exit", 0)
    assert outcome == parse_outcome(build_parser(), [command, "-h"])


@settings(max_examples=300)
@given(st.data())
def test_one_subparser_parses_as_the_full_parser(data):
    """main builds only the named command's subparser: on a minimal valid
    invocation, perhaps less one token, plus random options, flags, help,
    stray command names and values (as --option=value or as a separate
    token), it gives the full parser's result."""
    command = data.draw(st.sampled_from(list(MINIMAL_ARGV)))
    argv = [command, *MINIMAL_ARGV[command]]
    if len(argv) > 1 and data.draw(st.booleans()):
        del argv[data.draw(st.integers(1, len(argv) - 1))]
    values = {**FUZZ_VALUES, "--surface": st.sampled_from((REFLEXIVE, "missing.json"))}
    bare = (*FUZZ_FLAGS, "-h", *_COMMANDS)
    for token in data.draw(st.lists(st.sampled_from((*bare, *values)), max_size=4)):
        if token in bare:
            argv.append(token)
        elif data.draw(st.booleans()):
            argv.append(f"{token}={data.draw(values[token])}")
        else:
            argv += [token, data.draw(values[token])]
    assert parse_outcome(build_parser(command), argv) == parse_outcome(build_parser(), argv)


@pytest.fixture
def added_subparsers(monkeypatch):
    """The names of the subparsers added from here on, in order."""
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return added


@pytest.mark.parametrize("command", list(MINIMAL_ARGV))
def test_a_command_builds_its_own_subparser_only(capsys, monkeypatch, added_subparsers, command):
    monkeypatch.delenv("K3FM_FORMAT", raising=False)
    assert main([command, *MINIMAL_ARGV[command]]) == 0
    assert added_subparsers == [command]


@pytest.mark.parametrize("argv, status", [(["--help"], 0), ([], 2), (["frobnicate"], 2)])
def test_without_a_command_every_subparser_is_built(capsys, added_subparsers, argv, status):
    try:
        got = main(argv)
    except SystemExit as done:
        got = done.code
    assert got == status
    assert added_subparsers == list(_COMMANDS)
