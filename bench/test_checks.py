"""Each correctness check of the benchmark rejects a deliberately corrupted result.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import os
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import k3fm  # noqa: E402

import checks  # noqa: E402
import cli_session  # noqa: E402
import rank20  # noqa: E402
import sweep  # noqa: E402


def test_bareiss_det_matches_known_values():
    assert checks.bareiss_det([[2, 1], [7, 4]]) == 1
    assert checks.bareiss_det([[0, 1], [1, 0]]) == -1
    assert checks.bareiss_det([[1, 2], [2, 4]]) == 0
    assert checks.bareiss_det([[0, 2, 1], [3, 0, 1], [1, 1, 0]]) == 5


@pytest.fixture(scope="module")
def rank20_result():
    workload = rank20.Rank20Isometry(k3fm, random.Random(0), None)
    case = workload.make_case()
    return workload, case, workload.run(case)


def test_rank20_check_accepts_k3fm(rank20_result):
    workload, case, result = rank20_result
    assert workload.check(case, result)


@pytest.mark.parametrize("corrupt", ["matrix", "isometry", "det", "inverse"])
def test_rank20_check_rejects_corruption(rank20_result, corrupt):
    workload, case, (t, isometry, det, inv) = rank20_result
    if corrupt == "matrix":
        rows = [list(r) for r in t.matrix]
        rows[3][5] += 1
        t = SimpleNamespace(matrix=rows)
    elif corrupt == "isometry":
        isometry = False
    elif corrupt == "det":
        det = -det
    else:
        rows = [list(r) for r in inv.matrix]
        rows[0][0] += 1
        inv = SimpleNamespace(matrix=rows)
    with pytest.raises(checks.CheckFailed):
        workload.check(case, (t, isometry, det, inv))


@pytest.fixture(scope="module")
def sweep_results():
    workload = sweep.ReflexiveSweep(k3fm, random.Random(0), None)
    return {case["config"]: (workload, case, workload.run(case)) for case in workload.round()}


def test_sweep_check_accepts_k3fm(sweep_results):
    for workload, case, result in sweep_results.values():
        assert workload.check(case, result)


def _flip_decomposition(result):
    dec = result["dec"]
    result["dec"] = SimpleNamespace(d1=dec.d1, d2=dec.d1)


def _flip_type(result):
    result["report"] = SimpleNamespace(**{**vars(result["report"]), "surface_type": "II"})


def _shift_hilb(result):
    v, pairing = result["hilb"][2]
    result["hilb"][2] = (SimpleNamespace(r=v.r + 1, f=v.f, s=v.s), pairing)


def _shift_delta(result):
    diff = result["diff"]
    entry = diff.entries[0]
    bad = SimpleNamespace(**{**vars(entry), "engine": tuple(x + 1 for x in entry.engine)})
    result["diff"] = SimpleNamespace(points=diff.points, entries=(bad, *diff.entries[1:]))


def _verdict(result):
    result["validity"] = SimpleNamespace(verdict="fails")


def _swap_kernel(result):
    t = result["t"]
    k = t.kernel
    result["t"] = SimpleNamespace(kernel=SimpleNamespace(a=k.c, b=k.d, c=k.a, d=k.b), matrix=t.matrix)


def _empty_oracle(result):
    result["oracle"] = []


@pytest.mark.parametrize("config, corrupt", [
    ("I-3", _flip_decomposition),
    ("I-4d", _flip_type),
    ("II-4", _shift_hilb),
    ("N-5", _shift_delta),
    ("II-2", _verdict),
    ("N-3", _swap_kernel),
    ("II-3", _empty_oracle),
])
def test_sweep_check_rejects_corruption(sweep_results, config, corrupt):
    workload, case, result = sweep_results[config]
    result = dict(result, hilb=list(result["hilb"]))
    corrupt(result)
    with pytest.raises(checks.CheckFailed):
        workload.check(case, result)


def test_sweep_check_rejects_wrong_rejection(sweep_results):
    workload, case, result = sweep_results["X-pair"]
    assert workload.check(case, result)
    with pytest.raises(checks.CheckFailed):
        workload.check(case, k3fm.DecompositionError("some other identity"))
    workload, case, _ = sweep_results["I-2"]
    with pytest.raises(checks.CheckFailed):
        workload.check(case, k3fm.DecompositionError("unexpected"))


@pytest.fixture(scope="module")
def cli():
    workdir = HERE / "out" / f"test-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    session = cli_session.CliSession(k3fm, random.Random(0), workdir)
    yield session, {case[0]: case for case in session.cases}
    shutil.rmtree(workdir)


def _edit(result, edit):
    code, out, err = result
    payload = json.loads(out)
    edit(payload)
    return code, json.dumps(payload), err


@pytest.mark.parametrize("name, edit", [
    ("frozen-pic1", None),
    ("chi", lambda p: p.update(chi=p["chi"] + 1)),
    ("pic1-oracle", lambda p: p["matrix"][0].__setitem__(0, p["matrix"][0][0] + 1)),
    ("hilb-reflexive", lambda p: p.update(self_pairing="99/1")),
    ("crosscheck-nondegenerate", lambda p: p.update(mismatches=p["mismatches"] - 1)),
    ("crosscheck-type-i-0", lambda p: p["entries"][0]["delta"].__setitem__(1, "7/1")),
    ("classify", lambda p: p.update(type="I" if p["type"] == "II" else "II")),
    ("reflexive-kernel", lambda p: p["structure_sheaf_image"].update(r=p["structure_sheaf_image"]["r"] + 1)),
    ("strata", lambda p: p["slopes"].update(mu_m="0/1")),
])
def test_cli_checks_reject_corruption(cli, name, edit):
    session, cases = cli
    case = cases[name]
    result = session.run(case)
    assert session.check(case, result) is True
    if edit is None:
        code, out, err = result
        bad = (code, out.replace("1", "2", 1), err)
    else:
        bad = _edit(result, edit)
    with pytest.raises(checks.CheckFailed):
        session.check(case, bad)


def test_cli_known_fault_counts_as_failed_until_fixed(cli):
    session, cases = cli
    case = cases["classes-5"]
    assert session.check(case, session.run(case)) is False
    assert session.check(case, (1, "", "Traceback (most recent call last):\n  ...\nTypeError")) is False
    fixed = json.dumps({"command": "surface-validate", "ok": False, "error": {"kind": "input", "message": "x"}})
    assert session.check(case, (2, fixed, "")) is True
    with pytest.raises(checks.CheckFailed):
        session.check(case, (2, "not json", ""))


def test_kernel_matrix_matches_k3fm_on_small_lattice():
    gram = [[2, 1], [1, -4]]
    lat = k3fm.NSLattice(tuple(map(tuple, gram)))
    a, b, c, d = ([1, 0], [0, 1], [2, -1], [-1, 2])
    t = k3fm.from_kernel(k3fm.KernelSpec(*(lat.cls(x) for x in (a, b, c, d))))
    assert checks.as_int_matrix(t.matrix) == checks.kernel_matrix(gram, a, b, c, d)
    assert checks.as_int_vector([Fraction(4, 2)]) == [2]
    with pytest.raises(checks.CheckFailed):
        checks.as_int_vector([Fraction(1, 2)])
