import inspect
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3fm import (
    brute_force_oracle,
    crosscheck_specialized,
    exclusion_witness,
    existence_test,
    is_mukai_isometry,
    pic1,
    select_physical,
    solve_constraints,
    transform_from_solution,
)
from k3fm.cli import _json
from k3fm.linalg import det
from k3fm.pic1 import MAX_ORACLE_BOUND, Pic1Solution, residuals


def key(sol):
    return (sol.c, sol.x, sol.alpha, sol.y)


def test_existence_exactly_4_mod_8():
    for lsq in range(2, 402, 2):
        n = existence_test(lsq)
        if lsq % 8 == 4:
            assert n == (lsq - 4) // 8
        else:
            assert n is None


@pytest.mark.parametrize("bad", [0, -4, 3, 7, "4", 4.0, True])
def test_existence_rejects_non_squares(bad):
    with pytest.raises(ValueError):
        existence_test(bad)


def test_both_solutions_closed_forms():
    for n in range(0, 30):
        first, second = solve_constraints(n)
        assert (first.c, first.x, first.det) == (-n - 1, 4 * n + 1, 1)
        assert (second.c, second.x, second.det) == (-n - 2, 4 * n + 3, -1)
        for sol in (first, second):
            assert sol.alpha == 2 * sol.c * (2 + sol.c)
            assert sol.y == sol.c + 2
            assert residuals(n, sol.c, sol.x, sol.alpha, sol.y) == (0, 0, 0, 0)


def test_solution_for_smallest_square():
    sol = select_physical(solve_constraints(0))
    assert sol.lsq == 4 and sol.z == 3
    assert sol.matrix == ((3, -4, 2), (-1, 1, -1), (-2, 4, -1))
    assert sol.det == 1


def test_select_physical_needs_a_determinant_one_solution():
    first, second = solve_constraints(3)
    assert select_physical((second, first)) == first
    with pytest.raises(ValueError, match=r"no determinant \+1 solution in the pair"):
        select_physical((second, second))


def test_solve_constraints_rejects_bad_n():
    for bad in (-1, "2", 1.5, True):
        with pytest.raises(ValueError):
            solve_constraints(bad)


def test_rank_constraint_rejects_three_equation_solution():
    """(c, x, alpha, y) = (1, -3, -2, 1) satisfies every residual except
    the round-trip rank; dropping that equation would admit it."""
    row2, row3, oo, rank_rt = residuals(0, 1, -3, -2, 1)
    assert (row2, row3, oo) == (0, 0, 0)
    assert rank_rt != 0


def test_solution_constructor_validates():
    good = select_physical(solve_constraints(1))
    assert Pic1Solution(1, good.c, good.x, good.alpha, good.y) == good
    with pytest.raises(ValueError, match="constraint residuals do not vanish"):
        Pic1Solution(1, good.c, good.x + 2, good.alpha, good.y)
    with pytest.raises(TypeError):
        Pic1Solution(1, good.c, good.x, good.alpha, good.y, lsq=8)
    with pytest.raises(TypeError):
        Pic1Solution(1, good.c, good.x, good.alpha, good.y, det=-good.det)


def test_solution_rejects_negative_n():
    """n = -1 zeroes all four residuals, but its lsq = 4(2n+1) = -4 is no
    polarization; the constructor rejects it as the solvers do."""
    assert not any(residuals(-1, 0, -3, 0, 2))
    with pytest.raises(ValueError, match=r"^n must be a non-negative integer, got -1$"):
        Pic1Solution(-1, 0, -3, 0, 2)
    assert Pic1Solution(0, -1, 1, -2, 1).lsq == 4


def test_solution_is_its_five_unknowns():
    """The constructor takes n, c, x, alpha and y; lsq, z, matrix and det
    stay fields, so reports keep showing them."""
    assert list(inspect.signature(Pic1Solution).parameters) == ["n", "c", "x", "alpha", "y"]
    assert list(Pic1Solution.__slots__) == [
        "n", "lsq", "z", "c", "x", "alpha", "y", "matrix", "det",
    ]
    sol = Pic1Solution(1, -2, 5, 0, 0)
    assert (sol.lsq, sol.z, sol.det) == (12, 5, 1)
    assert sol.matrix == ((5, -12, 2), (-2, 5, -1), (0, 0, 1))


@given(st.integers(min_value=0, max_value=10**6))
def test_solutions_satisfy_closed_forms(n):
    """What Pic1Solution no longer checks, since its residuals imply it."""
    z = 2 * n + 3
    for sol in solve_constraints(n):
        c = sol.c
        assert sol.x == z - 4 - 2 * c
        assert sol.alpha == 2 * c * (2 + c)
        assert sol.y == c + 2
        assert (z + 2 * c) ** 2 == 1
        image = tuple(2 * row[0] + row[1] + (z - 4) * row[2] for row in sol.matrix)
        assert image == (0, 0, 1)


@given(st.integers(min_value=0, max_value=40))
def test_oracle_agrees_with_closed_forms(n):
    oracle = brute_force_oracle(n, 4 * n + 20)
    assert sorted(key(s) for s in oracle) == sorted(
        key(s) for s in solve_constraints(n)
    )


def test_oracle_rejects_inconclusive_bound():
    with pytest.raises(ValueError, match="inconclusive"):
        brute_force_oracle(3, 4 * 3 + 7)
    assert len(brute_force_oracle(3, 4 * 3 + 8)) == 2


def test_oracle_rejects_a_bound_above_the_cap(monkeypatch):
    """A bound above MAX_ORACLE_BOUND is refused before the scan starts,
    also where 4n + 8, the least conclusive bound, is itself above it."""
    too_many = f"bound {MAX_ORACLE_BOUND + 1} is more than the {MAX_ORACLE_BOUND} allowed"
    with pytest.raises(ValueError, match=too_many):
        brute_force_oracle(0, MAX_ORACLE_BOUND + 1)
    n = 10**9
    with pytest.raises(ValueError, match=f"bound {4 * n + 20} is more than"):
        brute_force_oracle(n, 4 * n + 20)
    monkeypatch.setattr(pic1, "MAX_ORACLE_BOUND", 40)
    assert len(brute_force_oracle(3, 40)) == 2
    with pytest.raises(ValueError, match="bound 41 is more than the 40 allowed"):
        brute_force_oracle(3, 41)


def forced_unknowns(n, c):
    """The x, alpha and y that row2, rank_rt and row3 force at c, exactly."""
    lsq, z = 4 * (2 * n + 1), 2 * n + 3
    alpha = Fraction(1 - 4 * c * (z - 2) - z * (z - 4) - 4 * z, 2)
    return z - 4 - 2 * c, alpha, (1 - (z - 4) ** 2 - 2 * alpha) / lsq


def perturbed_solutions(n, rhs):
    """The c in [-(4n+20), 4n+20] at which the system whose pairing
    constraint has right-hand side rhs, in place of 2, has an integral
    solution; the perturbation shifts the oo residual by 2 - rhs."""
    bound = 4 * n + 20
    found = set()
    for c in range(-bound, bound + 1):
        x, alpha, y = forced_unknowns(n, c)
        row2, row3, oo, rank_rt = residuals(n, c, x, alpha, y)
        assert row2 == row3 == rank_rt == 0
        if alpha.denominator == y.denominator == 1 and oo + 2 - rhs == 0:
            found.add(c)
    return found


def test_perturbed_pairing_constraint_is_inconsistent():
    for n in range(0, 6):
        assert perturbed_solutions(n, 2) == {-n - 1, -n - 2}
        for rhs in (0, 1, 3, 4, 6):
            assert perturbed_solutions(n, rhs) == set()


def test_perturbed_pairing_constraint_solutions():
    """At n = 0 (z = 3) the right-hand sides 2 - (z-2)((z+2c)^2 - 1) are
    consistent: -6 at c = 0 and -3, -22 at c = 1 and -4."""
    assert perturbed_solutions(0, -6) == {0, -3}
    assert perturbed_solutions(0, -22) == {1, -4}


def test_exclusion_witness_always_excludes():
    for n in range(0, 30):
        w = exclusion_witness(solve_constraints(n))
        assert w.slope == Fraction(n + 2, 2 * n + 3) * (8 * n + 4)
        assert w.threshold == Fraction(8 * n + 4, 2)
        assert w.excluded
    w0 = exclusion_witness(solve_constraints(0))
    assert _json(w0) == {"slope": "8/3", "threshold": "2/1", "excluded": True}


def test_transforms_are_isometries_with_unit_determinant():
    for n in range(0, 25):
        for sol in solve_constraints(n):
            t = transform_from_solution(sol)
            assert is_mukai_isometry(t)
            assert t.determinant() == sol.det


def test_displayed_block_differs_by_sign_conjugation():
    """The displayed rank-1 block equals S M S for S = diag(1, -1, 1), so
    the crosscheck difference is the frozen matrix
    [[0, 2 lsq, 0], [2(n+1), 0, 2], [0, 2(n-1) lsq, 0]] applied to the input."""
    for n in (0, 1, 2, 5, 9):
        sol = select_physical(solve_constraints(n))
        t = transform_from_solution(sol)
        report = crosscheck_specialized(t, "picard_rank_one")
        lsq = sol.lsq
        diff = ((0, 2 * lsq, 0), (2 * (n + 1), 0, 2), (0, 2 * (n - 1) * lsq, 0))
        signs = (1, -1, 1)
        conjugated = tuple(
            tuple(signs[i] * sol.matrix[i][j] * signs[j] for j in range(3))
            for i in range(3)
        )
        assert tuple(
            tuple(conjugated[i][j] - sol.matrix[i][j] for j in range(3))
            for i in range(3)
        ) == diff
        for entry in report.entries:
            expected = tuple(
                sum(diff[i][j] * entry.input[j] for j in range(3)) for i in range(3)
            )
            assert entry.delta == expected


def test_to_dict_shape():
    sol = select_physical(solve_constraints(2))
    d = _json(sol)
    assert d["n"] == 2 and d["lsq"] == 20 and d["z"] == 7
    assert d["matrix"][0] == [7, -20, 2]
    assert d["det"] == 1


def test_matrix_helper_consistency():
    m = Pic1Solution(0, -1, 1, -2, 1).matrix
    assert det(m) == 1
