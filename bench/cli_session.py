"""cli-session: fresh `python -m k3fm` processes over a fixed cycle.

The cycle of 23 invocations covers all twelve subcommands.  Its inputs are
the three bundled surfaces and surface files generated from the seed during
set-up.  Three invocations must reproduce their frozen bytes; every other
one is checked by properties computed apart from k3fm.  Two malformed
inputs (a truncated file, an unknown class name) must end with exit status
2 and a JSON report.  The surface {"gram": [[2]], "classes": 5} must do the
same; today it ends in a traceback, so it is counted as failed until the
input boundary is fixed.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter_ns

import checks
import sweep

HERE = Path(__file__).resolve().parent

# Sorted by latency, the cycle of 23 ends with one crosscheck of a seeded
# rank-2 surface (625 grid points, about 2.3 plain invocations), then three
# identical crosschecks of the bundled type I surface (243 points, about
# 1.8).  p90 lies inside those three, at a cost that does not depend on the
# seed, and p50 inside the plain invocations.  A heavier p90 group tracked
# the interpreter-start reference worse: its cost is mostly computation.
TYPE_I_CROSSCHECKS = 3


def spawn(argv, env, out: Path, err: Path):
    """Run argv to completion with stdout and stderr in files.

    Returns (exit status, wall ns, peak RSS of this child in KiB).
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = perf_counter_ns()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    elapsed = perf_counter_ns() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss


def _vec(values):
    return [Fraction(x) for x in values]


def _parse(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        raise checks.CheckFailed(f"stdout is not JSON: {out[:200]!r}") from None


def _ok(result, status=0) -> dict:
    code, out, err = result
    checks.require(code == status, f"exit {code}, expected {status}: {err[-300:]}")
    payload = _parse(out)
    checks.require(payload["ok"] is (status == 0), f"ok is {payload['ok']}")
    return payload


def _input_error(result) -> bool:
    code, out, err = result
    checks.require(code == 2, f"exit {code}, expected 2: {err[-300:]}")
    payload = _parse(out)
    checks.require(payload["ok"] is False and payload["error"]["kind"] == "input", "no input-error report")
    return True


def _known_fault(result) -> bool:
    """False (a counted failure) while the fault shows as exit 1; else a normal input-error check."""
    return result[0] != 1 and _input_error(result)


class CliSession:
    name = "cli-session"

    def __init__(self, k3fm, rng, workdir: Path):
        self.root = Path(k3fm.__file__).resolve().parents[2]
        self.workdir = workdir
        self.env = {
            key: value for key, value in os.environ.items()
            if key not in ("PYTHONDONTWRITEBYTECODE", "K3FM_FORMAT", "PYTHONPATH")
        }
        self.env["PYTHONPATH"] = str(self.root / "src")
        self.prefix = [sys.executable, "-m", "k3fm"]
        self.trace_file = workdir / "trace.json"
        self.rss_kib = 0
        self.cases = self._make_cases(rng)

    def _write(self, name: str, data) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    def _make_cases(self, rng):
        bundled = self.root / "surfaces"
        nd2, _ = sweep.surface_dict(rng, "N-2")
        nd3, _ = sweep.surface_dict(rng, "N-3")
        deg_name = rng.choice(("I-3", "II-4", "I-4d"))
        deg, deg_type = sweep.surface_dict(rng, deg_name)
        p2, p3, pdeg = self._write("nd2.json", nd2), self._write("nd3.json", nd3), self._write("deg.json", deg)
        truncated = self.workdir / "truncated.json"
        truncated.write_text(json.dumps(nd3)[:-7])
        fault = self._write("classes5.json", {"gram": [[2]], "classes": 5})
        p, q = rng.randint(1, 3), rng.choice((-3, -2, -1, 1, 2, 3))
        expr = f"{p}h{q:+d}l"
        ch_i = [rng.randint(-3, 3) for _ in range(5)]
        lsq = rng.choice((12, 20, 28, 36))
        n_r, n_m = rng.randint(0, 5), rng.randint(0, 5)
        type_i = json.loads((bundled / "reflexive-type-i.json").read_text())
        type_ii = json.loads((bundled / "reflexive-type-ii.json").read_text())
        frozen = {name: (HERE / "frozen" / f"{name}.json").read_text() for name in ("pic1", "chi", "transform-apply")}
        s = str(bundled)

        def frozen_check(name):
            def check(result):
                checks.require(result[0] == 0 and result[1] == frozen[name], f"{name} drifted from its frozen bytes")
                return True
            return check

        return [
            ("frozen-pic1", ["pic1", "--lsq", "4"], frozen_check("pic1")),
            ("frozen-chi", ["chi", "--surface", f"{s}/reflexive.json", "--class", "l+2h"], frozen_check("chi")),
            ("frozen-apply", ["transform-apply", "--builder", "no-cohomology", "--ch", "1,0,0"],
             frozen_check("transform-apply")),
            ("surface-validate", ["surface-validate", "--surface", p3, "--reflexive"],
             partial(_surface_validate, data=nd3)),
            ("chi", ["chi", "--surface", p3, "--class", expr], partial(_chi, data=nd3, p=p, q=q, expr=expr)),
            ("kernel-check", ["kernel-check", "--surface", p3, "--a=-h", "--b", "3l+7h", "--c", "l+h", "--d", "2l+5h"],
             partial(_kernel_check, data=nd3)),
            ("kernel-reject", ["kernel-check", "--surface", p3, "--a", "h", "--b", "h", "--c", "l", "--d", "l"],
             _kernel_reject),
            ("transform-apply", ["transform-apply", "--builder", "reflexive-type-i", "--surface",
                                 f"{s}/reflexive-type-i.json", "--ch=" + ",".join(map(str, ch_i))],
             partial(_transform_apply, data=type_i, ch=ch_i)),
            *((f"crosscheck-type-i-{i}", ["transform-crosscheck", "--builder", "reflexive-type-i", "--surface",
                                          f"{s}/reflexive-type-i.json"], partial(_crosscheck, **_type_i_crosscheck(type_i)))
              for i in range(TYPE_I_CROSSCHECKS)),
            ("crosscheck-nondegenerate", ["transform-crosscheck", "--builder", "reflexive-nondegenerate",
                                          "--surface", p2], partial(_crosscheck, **_nondegenerate_crosscheck(nd2))),
            ("pic1-oracle", ["pic1", "--lsq", str(lsq), "--oracle"], partial(_pic1, lsq=lsq)),
            ("decompose", ["reflexive-decompose", "--surface", pdeg, "--oracle"], partial(_decompose, data=deg)),
            ("classify", ["reflexive-classify", "--surface", pdeg],
             partial(_classify, data=deg, surface_type=deg_type)),
            ("reflexive-kernel", ["reflexive-kernel", "--variant", "type-ii", "--surface",
                                  f"{s}/reflexive-type-ii.json"], partial(_reflexive_kernel, data=type_ii)),
            ("hilb-reflexive", ["hilb-moduli", "--n", str(n_r), "--flavor", "reflexive", "--surface", p2],
             partial(_hilb, gram=nd2["gram"], n=n_r)),
            ("hilb-no-cohomology", ["hilb-moduli", "--n", str(n_m), "--flavor", "no-cohomology"],
             partial(_hilb, gram=[[-4]], n=n_m)),
            ("strata", ["strata", "--surface", p3, "--l", "l", "--m", "h", "--h", "h", "--z", "5"],
             partial(_strata, data=nd3)),
            ("primitive-check", ["primitive-check", "--surface", p3, "--h", "h", "--n", "2"],
             partial(_primitive, data=nd3)),
            ("truncated-file", ["surface-validate", "--surface", str(truncated)], _input_error),
            ("unknown-class", ["chi", "--surface", p3, "--class", "l+2q"], _input_error),
            # Known fault: an uncaught TypeError exits 1 with a traceback instead of 2.
            ("classes-5", ["surface-validate", "--surface", fault], _known_fault),
        ]

    def warm_up(self):
        """One untimed invocation, so the bytecode caches exist."""
        self.run(self.cases[0])
        self.rss_kib = 0

    def round(self):
        return self.cases

    def run(self, case):
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        code, _, rss = spawn(self.prefix + case[1], self.env, out, err)
        self.rss_kib = max(self.rss_kib, rss)
        return code, out.read_text(), err.read_text()

    def reference(self) -> int:
        """One bare interpreter start, spawned like an operation."""
        _, elapsed, _ = spawn(
            [sys.executable, "-c", "pass"], self.env, self.workdir / "ref.out", self.workdir / "ref.err"
        )
        return elapsed

    def start_tracing(self):
        """Run each command through trace_child.py, which reports its layers in a file."""
        self.prefix = [sys.executable, str(HERE / "trace_child.py")]
        self.env["K3FM_BENCH_TRACE"] = str(self.trace_file)

    def take_layers(self):
        """The layers the last traced child wrote; None if none wrote since the last call."""
        if not self.trace_file.exists():
            return None
        data = json.loads(self.trace_file.read_text())
        self.trace_file.unlink()
        return {layer: tuple(v) for layer, v in data.items()}

    def peak_rss_kib(self) -> int:
        """ru_maxrss of the largest operation child."""
        return self.rss_kib

    def check(self, case, result) -> bool:
        return case[2](result)


def _surface_validate(result, *, data) -> bool:
    payload = _ok(result)
    gram, cls = data["gram"], data["classes"]
    checks.require(payload["surface"]["gram"] == gram and payload["surface"]["classes"] == cls, "surface differs")
    h, l, l2h = cls["h"], cls["l"], cls["l2h"]
    ref = payload["reflexive"]
    want = {
        "h": h, "l": l, "l2h": l2h, "degenerate": False, "curves": [],
        "chi_l2h": 2 + checks.dot(gram, l2h, l2h) // 2, "deg_l2h": checks.dot(gram, l2h, h),
        "lhat": checks.hat_classes(h, l)[0], "hhat": checks.hat_classes(h, l)[1],
    }
    checks.require(ref == want, f"reflexive section {ref} != {want}")
    return True


def _chi(result, *, data, p, q, expr) -> bool:
    payload = _ok(result)
    gram, cls = data["gram"], data["classes"]
    x = [p * a + q * b for a, b in zip(cls["h"], cls["l"])]
    sq = checks.dot(gram, x, x)
    want = {"command": "chi", "ok": True, "expr": expr, "class": x, "square": sq, "chi": 2 + sq // 2}
    checks.require(payload == want, f"chi report {payload} != {want}")
    return True


def _kernel_check(result, *, data) -> bool:
    payload = _ok(result)
    gram, cls = data["gram"], data["classes"]
    h, l = cls["h"], cls["l"]
    a, _, c, _ = checks.reflexive_kernel("nondegenerate", h, l)
    ac = [x - y for x, y in zip(a, c)]
    rep = payload["report"]
    checks.require(rep["verdict"] == "sufficient" and rep["sum_condition"]["holds"], "kernel not sufficient")
    checks.require(rep["difference_condition"]["a_minus_c"] == ac, "a - c differs")
    checks.require(rep["difference_condition"]["square"] == checks.dot(gram, ac, ac) == -4, "(a-c)^2 != -4")
    return True


def _kernel_reject(result) -> bool:
    payload = _ok(result, status=1)
    checks.require(payload["error"]["kind"] == "rejection" and payload["report"]["verdict"] == "fails", "no rejection")
    return True


def _transform_apply(result, *, data, ch) -> bool:
    payload = _ok(result)
    e = checks.euler_gram(data["gram"])
    out = payload["output"]
    image = _vec([out["r"], *out["f"], out["t"]])
    source = _vec(ch)

    def chi(v):
        return sum(x * y for x, y in zip(v, checks.mat_vec(e, v)))

    checks.require(payload["isometry"] is True and payload["numerically_valid"] is True, "not a valid isometry")
    checks.require(chi(image) == chi(source), "chi(v, v) is not preserved")
    mukai = payload["mukai"]
    checks.require(Fraction(mukai["s"]) == image[-1] + image[0] and mukai["f"] == out["f"], "Mukai vector differs")
    return True


def default_grid(rank: int):
    """The CLI's default crosscheck grid, rebuilt: r, t in [-s, s], f in [-fs, fs]^rank."""
    span = {1: 2, 2: 2}.get(rank, 1)
    fspan = {1: 3, 2: 2}.get(rank, 1)
    fs = [()]
    for _ in range(rank):
        fs = [prefix + (v,) for prefix in fs for v in range(-fspan, fspan + 1)]
    return [(r, *f, t) for f in fs for r in range(-span, span + 1) for t in range(-span, span + 1)]


def _crosscheck(result, *, data, kernel, delta=None) -> bool:
    """Grid size, truncation, engine = M x and delta = closed form - engine on the shown entries.

    delta, when given, maps a grid point to its expected delta (None if the
    block agrees there); then the mismatch count is checked as well.
    """
    payload = _ok(result)
    gram = data["gram"]
    grid = default_grid(len(gram))
    checks.require(payload["points"] == len(grid), f"points {payload['points']} != {len(grid)}")
    count = payload["mismatches"]
    if delta is not None:
        differ = sum(delta(x) is not None for x in grid)
        checks.require(count == differ, f"mismatches {count} != {differ}")
    checks.require(payload["truncated"] == (count > 5) and len(payload["entries"]) == min(5, count), "truncation")
    matrix = checks.kernel_matrix(gram, *kernel)
    for entry in payload["entries"]:
        x = checks.as_int_vector(_vec(entry["input"]))
        engine = checks.as_int_vector(_vec(entry["engine"]))
        checks.require(engine == checks.mat_vec(matrix, x), "engine differs from M x")
        checks.require(_vec(entry["delta"]) == [a - b for a, b in zip(_vec(entry["closed_form"]), engine)],
                       "delta is not closed form minus engine")
        if delta is not None:
            checks.require(_vec(entry["delta"]) == delta(x), "unexpected delta")
    return True


def _nondegenerate_crosscheck(data):
    """Check arguments for the non-degenerate block: it differs by 2(f.h - t) lhat, lhat = 5l + 12h."""
    gram, cls = data["gram"], data["classes"]
    h, l = cls["h"], cls["l"]
    lhat, _ = checks.hat_classes(h, l)

    def delta(x):
        s = 2 * (checks.dot(gram, x[1:-1], h) - x[-1])
        return [0, *(s * v for v in lhat), 0] if s else None

    return {"data": data, "kernel": checks.reflexive_kernel("nondegenerate", h, l), "delta": delta}


def _type_i_crosscheck(data):
    """Check arguments for the bundled type I surface: d1 = c1, d2 = c2, both of degree 2."""
    cls = data["classes"]
    return {"data": data, "kernel": checks.reflexive_kernel("I", cls["h"], d1=cls["c1"], d2=cls["c2"])}


def _pic1(result, *, lsq) -> bool:
    payload = _ok(result)
    n = (lsq // 4 - 1) // 2
    z = 2 * n + 3
    m = payload["matrix"]
    checks.require(payload["n"] == n and payload["z"] == z, "n or z differs")
    checks.require(checks.bareiss_det(m) == payload["det"] == 1, "det != 1")
    checks.require(checks.mat_vec(m, [2, 1, z - 4]) == [0, 0, 1], "(2, 1, z-4) is not sent to (0, 0, 1)")
    checks.require(payload["oracle"]["agrees"] is True and payload["isometry"] is True, "oracle or isometry fails")
    return True


def _decompose(result, *, data) -> bool:
    payload = _ok(result)
    gram, cls = data["gram"], data["classes"]
    checks.check_decomposition(gram, cls["h"], cls["l"], payload["d1"], payload["d2"])
    for dec in payload["oracle"]["decompositions"]:
        checks.check_decomposition(gram, cls["h"], cls["l"], dec["d1"], dec["d2"])
    checks.require(payload["oracle"]["contains_result"] is True, "oracle misses the result")
    return True


def _classify(result, *, data, surface_type) -> bool:
    payload = _ok(result)
    gram, cls = data["gram"], data["classes"]
    checks.check_decomposition(gram, cls["h"], cls["l"], payload["d1"], payload["d2"])
    degrees = [checks.dot(gram, payload[k], cls["h"]) for k in ("d1", "d2")]
    checks.require(payload["type"] == surface_type, f"type {payload['type']} != {surface_type}")
    checks.require(degrees == [payload["deg_d1"], payload["deg_d2"]] == {"I": [2, 2], "II": [1, 3]}[surface_type], "degrees")
    return True


def _reflexive_kernel(result, *, data) -> bool:
    payload = _ok(result)
    gram, cls = data["gram"], data["classes"]
    want = checks.reflexive_kernel("II", cls["h"], d1=cls["c1"], d2=cls["c2"])  # degrees 1 and 3
    kernel = [payload["kernel"][k] for k in "abcd"]
    checks.require(kernel == want, f"kernel {kernel} != {want}")
    matrix = checks.kernel_matrix(gram, *kernel)
    checks.require(checks.as_int_matrix(payload["matrix"]) == matrix, "matrix differs from the kernel action")
    checks.require(payload["isometry"] is True, "not an isometry")
    image = payload["structure_sheaf_image"]
    want_image = checks.mat_vec(matrix, [1] + [0] * (len(gram) + 1))
    checks.require(_vec([image["r"], *image["f"], image["t"]]) == want_image, "O image differs from M (1, 0, 0)")
    return True


def _hilb(result, *, gram, n) -> bool:
    payload = _ok(result)
    v = payload["vector"]
    own = checks.mukai_self_pairing(gram, v["r"], v["f"], Fraction(v["s"]))
    checks.require(own == 2 * (n - 1) == Fraction(payload["self_pairing"]), f"self-pairing {own} != 2(n-1)")
    return True


def _strata(result, *, data) -> bool:
    payload = _ok(result)
    gram, cls = data["gram"], data["classes"]
    h, l = cls["h"], cls["l"]
    mu_m, mu_l, hsq = checks.dot(gram, h, h), checks.dot(gram, l, h), checks.dot(gram, h, h)
    half, diff = Fraction(mu_l, 2), mu_l - mu_m
    slopes = {"mu_m": mu_m, "half_mu_l": half, "mu_l_minus_m": diff, "mu_l": mu_l, "h_square": hsq}
    checks.require({k: Fraction(v) for k, v in payload["slopes"].items()} == slopes, "slopes differ")
    verdicts = {
        "0 < mu(m)": 0 < mu_m,
        "mu(m) < mu(l)/2": mu_m < half,
        "mu(l)/2 < mu(l-m)": half < diff,
        "mu(l-m) < mu(l)": diff < mu_l,
        "mu(l) <= h^2": mu_l <= hsq,
    }
    checks.require(payload["verdicts"] == verdicts, "verdicts differ")
    checks.require(payload["chain_holds"] == all(verdicts.values()) and payload["independent"] is True, "chain or independence")
    return True


def _primitive(result, *, data) -> bool:
    payload = _ok(result)
    gram, h = data["gram"], data["classes"]["h"]
    l = [2 * x for x in h]
    lsq = checks.dot(gram, l, l)
    z = (lsq + 8) // 4
    gap = checks.dot(gram, l, h) - checks.dot(gram, h, h)
    checks.require(payload["l"] == l and payload["lsq"] == lsq and payload["z"] == z, "l, lsq or z differs")
    checks.require(payload["excluded"] is (not gap > z), "exclusion verdict differs")
    return True
