"""End-to-end acceptance gate.

Each test evaluates one numbered criterion completely, prints a single
[acceptance N] PASS/FAIL line (visible with pytest -s or in the failure
report), and fails if any sub-check misses.  All comparisons are exact;
no tolerances appear anywhere.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from k3fm import (
    ChernCharacter,
    DivisorClass,
    KernelSpec,
    MukaiVector,
    NSLattice,
    brute_force_oracle,
    build_kernel,
    ch_to_mukai,
    check_necessary_det,
    check_phiO_identity,
    check_sufficient,
    chi_line,
    component_surface,
    decompose_brute_force,
    decompose_l2h,
    degree,
    existence_test,
    from_kernel,
    hat_classes,
    hilb_moduli_vector,
    intersect,
    is_mukai_isometry,
    mukai_pairing,
    normalize_twist,
    sign_normalized,
    solve_constraints,
    standard_spec,
    transform_for,
    transform_from_solution,
    validate_reflexive,
)
from k3fm.errors import RejectionError
from k3fm.kernel import vanishing_covers
from k3fm.linalg import mat_vec
from k3fm.transform import closed_form_matrix, kernel_action_vector

from helpers import SQUARE_MINUS_4

ROOT = Path(__file__).resolve().parent.parent


def report(criterion, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {criterion}] {status} {description}")
    assert not failures, f"criterion {criterion}: " + "; ".join(
        str(f) for f in failures[:10]
    )


def no_cohomology_transform(lattice, coords):
    m = DivisorClass(lattice, coords)
    zero = lattice.zero()
    kernel = KernelSpec(a=zero, b=zero, c=m, d=-m, declared_vanishing=(m,))
    return from_kernel(kernel, labels=(("m", m),))


def reflexive_transforms():
    return {
        "nondegenerate": transform_for(
            validate_reflexive(standard_spec()), "nondegenerate"
        ),
        "type-i": transform_for(
            component_surface(("c1", "c2"), {"c1": 2, "c2": 2}), "type-i"
        ),
        "type-ii": transform_for(
            component_surface(("c1", "c2"), {"c1": 1, "c2": 3}), "type-ii"
        ),
    }


def test_criterion_01_rank1_solver():
    failures = []
    started = time.perf_counter()
    for n in range(0, 51):
        z = 2 * n + 3
        pair = solve_constraints(n)
        if [s.c for s in pair] != [-n - 1, -n - 2]:
            failures.append(f"n={n}: wrong c values {[s.c for s in pair]}")
        if [s.x for s in pair] != [4 * n + 1, 4 * n + 3]:
            failures.append(f"n={n}: wrong x values {[s.x for s in pair]}")
        if sorted(s.det for s in pair) != [-1, 1]:
            failures.append(f"n={n}: determinants {[s.det for s in pair]}")
        for sol in pair:
            image = tuple(
                row[0] * 2 + row[1] * 1 + row[2] * (z - 4) for row in sol.matrix
            )
            if image != (0, 0, 1):
                failures.append(f"n={n}, c={sol.c}: (2,1,z-4) maps to {image}")
        oracle = brute_force_oracle(n, 4 * n + 20)
        if sorted((s.c, s.x, s.alpha, s.y) for s in oracle) != sorted(
            (s.c, s.x, s.alpha, s.y) for s in pair
        ):
            failures.append(f"n={n}: oracle disagrees with the closed forms")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, limit 5s")
    report(
        1,
        "rank-1 solver: both solutions, unit determinants, unit image, "
        f"oracle agreement for n in [0, 50] ({elapsed:.2f}s)",
        failures,
    )


def test_criterion_02_existence_window():
    failures = []
    for lsq in range(2, 402, 2):
        n = existence_test(lsq)
        expected = (lsq - 4) // 8 if lsq % 8 == 4 else None
        if n != expected:
            failures.append(f"lsq={lsq}: got {n}, expected {expected}")
    report(2, "existence holds exactly for squares 4 mod 8 up to 400", failures)


def random_even_lattice(rng, rank):
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = 2 * rng.randint(-3, 3)
        for j in range(i + 1, rank):
            gram[i][j] = gram[j][i] = rng.randint(-4, 4)
    return NSLattice(tuple(tuple(row) for row in gram))


def test_criterion_03_engine_matches_general_block():
    failures = []
    rng = random.Random(31415)
    started = time.perf_counter()
    points = 0
    for _ in range(160):
        rank = rng.randint(1, 4)
        lat = random_even_lattice(rng, rank)

        def rand_dc():
            return DivisorClass(lat, tuple(rng.randint(-3, 3) for _ in range(rank)))

        kernel = KernelSpec(a=rand_dc(), b=rand_dc(), c=rand_dc(), d=rand_dc())
        t = from_kernel(kernel)
        general = closed_form_matrix(t, "general")
        for _ in range(70):
            vec = (
                rng.randint(-3, 3),
                *(rng.randint(-3, 3) for _ in range(rank)),
                Fraction(rng.randint(-10, 10), 2),
            )
            points += 1
            if t.apply_vector(vec) != mat_vec(general, vec):
                failures.append(f"general block mismatch at {vec} on {lat.gram}")
    if points < 10_000:
        failures.append(f"only {points} comparison points, need at least 10000")

    for lat, coords in SQUARE_MINUS_4:
        t = no_cohomology_transform(lat, coords)
        block = closed_form_matrix(t, "no_cohomology")
        for _ in range(500):
            vec = (
                rng.randint(-3, 3),
                *(rng.randint(-3, 3) for _ in range(lat.rank)),
                Fraction(rng.randint(-10, 10), 2),
            )
            if t.apply_vector(vec) != mat_vec(block, vec):
                failures.append(f"no-cohomology block mismatch at {vec}")

    nondeg = reflexive_transforms()["nondegenerate"]
    h = nondeg.label_map["h"]
    lhat = nondeg.label_map["lhat"]
    closed = closed_form_matrix(nondeg, "reflexive_nondegenerate")
    lat = nondeg.source
    for _ in range(1000):
        vec = (
            rng.randint(-3, 3),
            rng.randint(-3, 3),
            rng.randint(-3, 3),
            Fraction(rng.randint(-10, 10), 2),
        )
        engine = nondeg.apply_vector(vec)
        spec = mat_vec(closed, vec)
        f = vec[1:-1]
        factor = 2 * (
            sum(
                f[i] * sum(lat.gram[i][j] * h.coords[j] for j in range(2))
                for i in range(2)
            )
            - vec[-1]
        )
        expected = (
            Fraction(0),
            factor * lhat.coords[0],
            factor * lhat.coords[1],
            Fraction(0),
        )
        delta = tuple(s - e for s, e in zip(spec, engine))
        if delta != expected:
            failures.append(f"nondegenerate delta {delta} != {expected} at {vec}")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, limit 30s")
    report(
        3,
        f"engine equals the general block on {points} random points; "
        "no-cohomology block exact; non-degenerate difference is "
        f"2(f.h - t) lhat throughout ({elapsed:.2f}s)",
        failures,
    )


def test_criterion_04_structure_sheaf_and_point_images():
    failures = []
    for lat, coords in SQUARE_MINUS_4:
        t = no_cohomology_transform(lat, coords)
        unit = (1,) + (0,) * (lat.rank + 1)
        if t.apply_vector(unit) != unit:
            failures.append(f"no-cohomology transform moves the unit on {lat.gram}")

    nondeg = reflexive_transforms()["nondegenerate"]
    unit = (1, 0, 0, 0)
    if nondeg.apply_vector(unit) != (-1, 0, 0, 0):
        failures.append("non-degenerate transform does not send unit to its negative")

    lhat = nondeg.label_map["lhat"]
    point = (0, 0, 0, 1)
    engine_v = ch_to_mukai(
        ChernCharacter(
            2, DivisorClass(nondeg.source, tuple(int(x) for x in nondeg.apply_vector(point)[1:-1])),
            nondeg.apply_vector(point)[-1],
        )
    )
    if (engine_v.r, engine_v.f, engine_v.s) != (2, lhat, Fraction(-3)):
        failures.append(f"engine point image {engine_v} != (2, lhat, -3)")

    closed = mat_vec(closed_form_matrix(nondeg, "reflexive_nondegenerate"), point)
    closed_v = ch_to_mukai(
        ChernCharacter(
            2, DivisorClass(nondeg.source, tuple(int(x) for x in closed[1:-1])), closed[-1]
        )
    )
    if (closed_v.r, closed_v.f, closed_v.s) != (2, -lhat, Fraction(-3)):
        failures.append(f"closed-form point image {closed_v} != (2, -lhat, -3)")
    if sign_normalized(closed_v) != sign_normalized(
        MukaiVector(2, -lhat, Fraction(-3))
    ):
        failures.append("closed-form point image is not (2, -lhat, -3) up to sign")
    delta_f = tuple(c - e for c, e in zip(closed, nondeg.apply_vector(point)))[1:-1]
    if delta_f != tuple(Fraction(-2 * x) for x in lhat.coords):
        failures.append(f"point difference {delta_f} is not -2 lhat")
    report(
        4,
        "unit classes fixed (negated for non-degenerate); point image is "
        "(2, lhat, -3) by the engine and (2, -lhat, -3) by the displayed block, "
        "differing by the frozen 2(f.h - t) lhat",
        failures,
    )


def test_criterion_05_isometries():
    failures = []
    transforms = list(reflexive_transforms().values())
    transforms += [no_cohomology_transform(lat, c) for lat, c in SQUARE_MINUS_4]
    for t in transforms:
        if not is_mukai_isometry(t):
            failures.append(f"kernel transform on {t.source.gram} breaks the pairing")
        if not t.numerically_valid:
            failures.append(f"kernel transform on {t.source.gram} flagged invalid")
    for n in range(0, 51):
        for sol in solve_constraints(n):
            if not is_mukai_isometry(transform_from_solution(sol)):
                failures.append(f"rank-1 matrix n={n}, c={sol.c} breaks the pairing")
    report(
        5,
        "all kernel transforms and rank-1 matrices (n <= 50) preserve the "
        "Euler pairing exactly",
        failures,
    )


def test_criterion_06_hat_class_relations():
    failures = []
    rs = validate_reflexive(standard_spec())
    lhat, hhat = hat_classes(rs)
    checks = [
        (hhat.square, 2, "hhat^2"),
        (lhat.square, -12, "lhat^2"),
        (intersect(hhat, lhat), 0, "hhat.lhat"),
        (chi_line(rs.l2h), 0, "chi(l+2h)"),
        (degree(rs.l2h, rs.h), 4, "deg(l+2h)"),
    ]
    for got, want, label in checks:
        if got != want:
            failures.append(f"{label} = {got}, expected {want}")
    report(6, "hat classes mirror (h, l) and l+2h has chi 0, degree 4", failures)


def degree_assignments(pattern):
    names = len(pattern)
    for degs in itertools.product(range(1, 5), repeat=names):
        if sum(m * d for m, d in zip(pattern, degs)) == 4:
            yield degs


REJECTION_FRAGMENTS = (
    '"l^2 = -12" fails',
    "meet in",
    "(c_i+c_j)^2 <= -2",
)


def test_criterion_07_decomposition_case_analysis():
    failures = []
    started = time.perf_counter()
    patterns = {
        2: [(1, 1), (2,)],
        3: [(1, 1, 1), (2, 1)],
        4: [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)],
    }
    admitted = excluded = 0
    for n, plist in patterns.items():
        for pattern in plist:
            names = [f"g{i}" for i in range(len(pattern))]
            occurrences = tuple(
                name for name, mult in zip(names, pattern) for _ in range(mult)
            )
            index_pairs = [
                (i, j)
                for i in range(len(names))
                for j in range(i + 1, len(names))
            ]
            pairs = [(names[i], names[j]) for i, j in index_pairs]
            for degs in degree_assignments(pattern):
                degrees = dict(zip(names, degs))
                for bits in itertools.product((0, 1), repeat=len(pairs)):
                    # (l+2h)^2 from the multiplicities, before any surface is built.
                    admits = -2 * sum(m * m for m in pattern) + 2 * sum(
                        b * pattern[i] * pattern[j] for b, (i, j) in zip(bits, index_pairs)
                    ) == -4
                    try:
                        rs = component_surface(
                            occurrences, degrees, dict(zip(pairs, bits))
                        )
                        dec = decompose_l2h(rs)
                    except RejectionError as exc:
                        if admits:
                            failures.append(
                                f"{occurrences} degs={degs} bits={bits}: "
                                f"rejected despite square -4: {exc}"
                            )
                        elif not any(f in str(exc) for f in REJECTION_FRAGMENTS):
                            failures.append(f"unrecognized rejection: {exc}")
                        else:
                            excluded += 1
                        continue
                    if not admits:
                        failures.append(
                            f"{occurrences} degs={degs} bits={bits}: decomposed "
                            f"with (l+2h)^2 = {rs.l2h.square}"
                        )
                        continue
                    admitted += 1
                    valid = (
                        dec.d1 + dec.d2 == rs.l2h
                        and dec.d1.square == -2
                        and dec.d2.square == -2
                        and intersect(dec.d1, dec.d2) == 0
                    )
                    if not valid:
                        failures.append(f"{occurrences} bits={bits}: invalid split")
                    keys = {
                        tuple(sorted((d.d1.coords, d.d2.coords)))
                        for d in decompose_brute_force(rs)
                    }
                    if tuple(sorted((dec.d1.coords, dec.d2.coords))) not in keys:
                        failures.append(
                            f"{occurrences} bits={bits}: split missing from oracle"
                        )
    if admitted == 0 or excluded == 0:
        failures.append(f"degenerate enumeration: {admitted} admitted, {excluded} excluded")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, limit 1s")
    report(
        7,
        f"component case analysis: {admitted} admitted configurations decompose "
        f"and agree with the exhaustive oracle, {excluded} are rejected with the "
        f"violated identity named ({elapsed:.2f}s)",
        failures,
    )


def test_criterion_08_hilbert_scheme_vectors():
    failures = []
    for lat, coords in SQUARE_MINUS_4:
        t = no_cohomology_transform(lat, coords)
        m = DivisorClass(lat, coords)
        for n in range(1, 21):
            v = hilb_moduli_vector(t, n, "no-cohomology")
            expected = sign_normalized(
                MukaiVector(2 * n - 1, n * m, Fraction(-n - 1))
            )
            if v not in (
                expected,
                sign_normalized(MukaiVector(2 * n - 1, -(n * m), Fraction(-n - 1))),
            ):
                failures.append(f"no-cohomology n={n} on {lat.gram}: {v}")
            if mukai_pairing(v, v) != 2 * (n - 1):
                failures.append(f"no-cohomology n={n}: self-pairing moved")
    for variant, t in reflexive_transforms().items():
        g = t.kernel.b + t.kernel.d
        for n in range(1, 21):
            v = hilb_moduli_vector(t, n, "reflexive")
            options = (
                sign_normalized(MukaiVector(1 + 2 * n, n * g, Fraction(1 - 3 * n))),
                sign_normalized(MukaiVector(1 + 2 * n, -(n * g), Fraction(1 - 3 * n))),
            )
            if v not in options:
                failures.append(f"{variant} n={n}: {v} outside the family")
            if mukai_pairing(v, v) != 2 * (n - 1):
                failures.append(f"{variant} n={n}: self-pairing moved")
    report(
        8,
        "transformed ideal sheaves land on the predicted Mukai vectors with "
        "self-pairing 2(n-1) for n in [1, 20]",
        failures,
    )


def test_criterion_09_kernel_conditions():
    failures = []
    rs = validate_reflexive(standard_spec())
    kernels = {
        "nondegenerate": build_kernel(rs, "nondegenerate"),
        "type-i": build_kernel(
            component_surface(("c1", "c2"), {"c1": 2, "c2": 2}), "type-i"
        ),
        "type-ii": build_kernel(
            component_surface(("c1", "c2"), {"c1": 1, "c2": 3}), "type-ii"
        ),
    }
    for name, k in kernels.items():
        r = check_sufficient(k)
        if not (r.ab_equals_cd and r.ac_square_ok):
            failures.append(f"{name} kernel fails the existence conditions")
        if r.verdict == "fails":
            failures.append(f"{name} kernel verdict is 'fails'")

    lat0, coords0 = SQUARE_MINUS_4[0]
    m = DivisorClass(lat0, coords0)
    zero = lat0.zero()
    base = KernelSpec(a=zero, b=zero, c=m, d=-m, declared_vanishing=(m,))
    if not check_necessary_det(normalize_twist(base)):
        failures.append("determinant condition fails for the normalized kernel")
    nondeg_normalized = normalize_twist(kernels["nondegenerate"])
    if not check_necessary_det(nondeg_normalized):
        failures.append("determinant condition fails for the reflexive kernel")

    def shape(k):
        return (
            k.a.is_zero
            and k.b.is_zero
            and (k.c + k.d).is_zero
            and k.c.square == -4
            and vanishing_covers(k, k.c)
        )

    rng = random.Random(27182)
    corpus = []
    for lat, coords in SQUARE_MINUS_4:
        mm = DivisorClass(lat, coords)
        zz = lat.zero()
        corpus.append(KernelSpec(zz, zz, mm, -mm, declared_vanishing=(mm,)))
        corpus.append(KernelSpec(zz, zz, -mm, mm, declared_vanishing=(mm,)))
        corpus.append(KernelSpec(zz, zz, mm, -mm))
        corpus.append(KernelSpec(mm, zz, mm, -mm, declared_vanishing=(mm,)))
        corpus.append(
            KernelSpec(zz, zz, 2 * mm, -(2 * mm), declared_vanishing=(2 * mm,))
        )
        for _ in range(40):
            def rand_dc():
                return DivisorClass(
                    lat, tuple(rng.randint(-2, 2) for _ in range(lat.rank))
                )

            declared = tuple(rand_dc() for _ in range(rng.randint(0, 2)))
            corpus.append(
                KernelSpec(
                    rand_dc(), rand_dc(), rand_dc(), rand_dc(),
                    declared_vanishing=declared,
                )
            )
    accepted = 0
    for k in corpus:
        want = shape(k)
        got = check_phiO_identity(k)
        accepted += got
        if got != want:
            failures.append(
                f"unit-image identity: got {got}, shape says {want} for "
                f"({k.a.coords}, {k.b.coords}, {k.c.coords}, {k.d.coords})"
            )
    if accepted < 8:
        failures.append(f"corpus only exercised {accepted} accepting cases")
    report(
        9,
        "all three kernel families satisfy the existence conditions, the "
        "normalized kernels pass the determinant identity, and the unit-image "
        f"check accepts exactly the canonical shape on {len(corpus)} kernels",
        failures,
    )


FROZEN_PIC1 = """{
  "command": "pic1",
  "det": 1,
  "exclusion": {
    "excluded": true,
    "slope": "8/3",
    "threshold": "2/1"
  },
  "isometry": true,
  "lsq": 4,
  "matrix": [
    [
      3,
      -4,
      2
    ],
    [
      -1,
      1,
      -1
    ],
    [
      -2,
      4,
      -1
    ]
  ],
  "n": 0,
  "ok": true,
  "selected": {
    "alpha": -2,
    "c": -1,
    "det": 1,
    "lsq": 4,
    "matrix": [
      [
        3,
        -4,
        2
      ],
      [
        -1,
        1,
        -1
      ],
      [
        -2,
        4,
        -1
      ]
    ],
    "n": 0,
    "x": 1,
    "y": 1,
    "z": 3
  },
  "solutions": [
    {
      "alpha": -2,
      "c": -1,
      "det": 1,
      "lsq": 4,
      "matrix": [
        [
          3,
          -4,
          2
        ],
        [
          -1,
          1,
          -1
        ],
        [
          -2,
          4,
          -1
        ]
      ],
      "n": 0,
      "x": 1,
      "y": 1,
      "z": 3
    },
    {
      "alpha": 0,
      "c": -2,
      "det": -1,
      "lsq": 4,
      "matrix": [
        [
          3,
          -4,
          2
        ],
        [
          -2,
          3,
          -1
        ],
        [
          0,
          0,
          -1
        ]
      ],
      "n": 0,
      "x": 3,
      "y": 0,
      "z": 3
    }
  ],
  "z": 3
}
"""

FROZEN_CHI = """{
  "chi": 0,
  "class": [
    2,
    1
  ],
  "command": "chi",
  "expr": "l+2h",
  "ok": true,
  "square": -4
}
"""

FROZEN_APPLY = """{
  "builder": "no-cohomology",
  "command": "transform-apply",
  "input": {
    "f": [
      0
    ],
    "r": 1,
    "t": "0/1"
  },
  "isometry": true,
  "mukai": {
    "f": [
      0
    ],
    "r": 1,
    "s": "1/1"
  },
  "numerically_valid": true,
  "ok": true,
  "output": {
    "f": [
      0
    ],
    "r": 1,
    "t": "0/1"
  }
}
"""


def test_criterion_10_cli_outputs_are_frozen():
    failures = []
    env = dict(os.environ)
    env.pop("K3FM_FORMAT", None)
    cases = [
        (["pic1", "--lsq", "4"], FROZEN_PIC1),
        (
            ["chi", "--surface", "surfaces/reflexive.json", "--class", "l+2h"],
            FROZEN_CHI,
        ),
        (
            ["transform-apply", "--builder", "no-cohomology", "--ch", "1,0,0"],
            FROZEN_APPLY,
        ),
    ]
    for argv, frozen in cases:
        result = subprocess.run(
            [sys.executable, "-m", "k3fm", *argv],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
        )
        if result.returncode != 0:
            failures.append(f"{argv}: exit {result.returncode}: {result.stderr}")
        elif result.stdout != frozen:
            failures.append(f"{argv}: output drifted from the frozen bytes")
        else:
            json.loads(result.stdout)
    report(
        10,
        "the three documented CLI invocations reproduce their frozen JSON "
        "outputs byte for byte",
        failures,
    )
