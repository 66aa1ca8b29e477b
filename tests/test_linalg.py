import itertools
from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3fm import linalg

from helpers import fraction_solve

ENTRIES = st.integers(-6, 6)
# hhat = 2l + 5h and lhat = 5l + 12h on the standard reflexive lattice, basis (h, l).
HHAT = (5, 2)
LHAT = (12, 5)


def square_matrices(max_size=5):
    return st.integers(1, max_size).flatmap(
        lambda n: st.lists(
            st.lists(ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def leibniz_det(m):
    """Reference: the sum over permutations, sign from the inversion count."""
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


@st.composite
def unimodular(draw, max_size=5):
    """A permutation with signs, times unit lower and unit upper triangular factors."""
    n = draw(st.integers(1, max_size))
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
    lower = [[int(i == j) or (draw(ENTRIES) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) or (draw(ENTRIES) if j > i else 0) for j in range(n)] for i in range(n)]
    p = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
    return linalg.mat_mul(p, linalg.mat_mul(lower, upper))


def minors_independent(u, v):
    """Reference: two integer vectors are independent iff some 2x2 minor is nonzero."""
    k = len(u)
    return any(u[i] * v[j] - u[j] * v[i] for i in range(k) for j in range(i + 1, k))


@given(square_matrices())
def test_det_matches_leibniz(m):
    got = linalg.det(m)
    assert type(got) is int
    assert got == leibniz_det(m)


def test_det_small_cases():
    assert linalg.det([[2, 1], [7, 4]]) == 1
    assert linalg.det([[0, 1], [1, 0]]) == -1
    assert linalg.det([[1, 2], [2, 4]]) == 0
    assert linalg.det([[0, 2, 1], [3, 0, 1], [1, 1, 0]]) == 5
    with pytest.raises(ValueError, match="square"):
        linalg.det([[1, 2]])


@given(unimodular())
def test_inverse_of_unimodular(m):
    inv = linalg.inverse(m)
    n = len(m)
    assert all(type(x) is int for row in inv for x in row)
    assert linalg.mat_mul(m, inv) == linalg.identity(n)
    assert linalg.mat_mul(inv, m) == linalg.identity(n)


@pytest.mark.parametrize(
    "m, d",
    [([[2, 0], [0, 1]], 2), ([[1, 1], [1, -1]], -2), ([[1, 2], [2, 4]], 0)],
)
def test_inverse_rejects_non_unimodular(m, d):
    with pytest.raises(ValueError, match=f"determinant {d}"):
        linalg.inverse(m)


def test_non_integral_entry_is_rejected():
    with pytest.raises(ValueError, match=r"must be an integer, got Fraction\(1, 2\)"):
        linalg.det([[Fraction(1, 2)]])
    assert linalg.integer_matrix([[Fraction(-4, 2)]]) == ((-2,),)


def column(b):
    """The vector b as a one-column matrix."""
    return [(x,) for x in b]


@given(ENTRIES, ENTRIES, st.integers(1, 4))
def test_solve_columns_recovers_hat_coordinates(alpha, factor, den):
    """A divisor difference alpha*hhat + (factor/den)*lhat, written over den,
    solves back to its coordinates, read as x / (d den)."""
    a = linalg.transpose((HHAT, LHAT))
    b = [den * alpha * x + factor * y for x, y in zip(HHAT, LHAT)]
    x, r, d = linalg.solve_columns(a, column(b))
    assert r == ()
    assert tuple(Fraction(row[0], d * den) for row in x) == (alpha, Fraction(factor, den))


@given(st.data())
def test_solve_columns_recovers_rational_solution(data):
    k = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, k))
    a = data.draw(st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=k, max_size=k))
    x = [Fraction(data.draw(ENTRIES), data.draw(st.integers(1, 4))) for _ in range(m)]
    den = lcm(*(xi.denominator for xi in x))
    b = [sum(ai * xi * den for ai, xi in zip(row, x)) for row in a]
    got = linalg.solve_columns(a, column(b))
    if linalg.rank(a) < m:
        assert got is None
    else:
        nums, r, d = got
        assert not any(row[0] for row in r)
        assert [Fraction(row[0], d * den) for row in nums] == x


def test_solve_columns_outside_span_or_dependent():
    a = ((1, 0), (0, 1), (0, 0))
    assert linalg.solve_columns(a, column((1, 2, 3))) == (((1,), (2,)), ((3,),), 1)
    assert linalg.solve_columns(((1, 2), (2, 4)), column((1, 2))) is None
    assert linalg.solve_columns(a, column((1, 2, 0))) == (((1,), (2,)), ((0,),), 1)


RATIONALS = st.builds(Fraction, ENTRIES, st.integers(1, 4))


@st.composite
def systems(draw):
    """An integer a, possibly rank-deficient, and rational right-hand sides,
    some in the span of its columns and some drawn freely."""
    k = draw(st.integers(1, 5))
    m = draw(st.integers(1, k + 1))
    columns = [draw(st.lists(ENTRIES, min_size=k, max_size=k)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # Make the last column a combination of the others.
        coeffs = draw(st.lists(ENTRIES, min_size=m - 1, max_size=m - 1))
        columns[-1] = [sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(k)]
    a = linalg.transpose(columns)
    rhs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            x = draw(st.lists(RATIONALS, min_size=m, max_size=m))
            rhs.append([sum(ai * xi for ai, xi in zip(row, x)) for row in a])
        else:
            rhs.append(draw(st.lists(RATIONALS, min_size=k, max_size=k)))
    return a, linalg.transpose(rhs)


@given(systems(), st.lists(RATIONALS, min_size=4, max_size=4))
def test_solve_columns_matches_column_by_column(system, v):
    """One elimination of [a | b] answers every column, and every combination
    b v; the rational b goes in as integer numerators over one denominator
    den, so each solution is read over d den."""
    a, b = system
    den = lcm(*(Fraction(x).denominator for row in b for x in row))
    found = linalg.solve_columns(a, [[int(x * den) for x in row] for row in b])
    width = len(b[0])
    bv = [sum(x * y for x, y in zip(row, v)) for row in b]
    references = [fraction_solve(a, col) for col in (*linalg.transpose(b), bv)]
    if references[0] == "dependent":
        assert found is None
        assert linalg.rank(a) < len(a[0])
        return
    x, r, d = found
    assert type(d) is int and d != 0
    assert all(type(e) is int for part in (x, r) for row in part for e in row)
    assert all(len(row) == width for part in (x, r) for row in part)
    assert len(x) == len(a[0]) and len(r) == len(a) - len(a[0])
    for j, ref in enumerate(references[:width]):
        solution = [Fraction(row[j], d * den) for row in x]
        assert ref == (None if any(row[j] for row in r) else tuple(solution))
    # Linear in the columns: b v is in the span exactly where r v = 0.
    rv = [sum(e * y for e, y in zip(row, v)) for row in r]
    xv = tuple(sum(e * y for e, y in zip(row, v)) / (d * den) for row in x)
    assert references[-1] == (None if any(rv) else xv)


@pytest.mark.parametrize(
    "a, b",
    [
        ([], []),
        ([[]], [[1]]),
        ([[1]], [[]]),
        ([[1], [2]], [[1]]),
        ([[1, 2], [3]], [[1], [2]]),
        ([[1], [2]], [[1], [2, 3]]),
    ],
)
def test_solve_columns_rejects_empty_or_ragged_input(a, b):
    with pytest.raises(ValueError, match="non-empty rectangular"):
        linalg.solve_columns(a, b)


def test_solve_columns_takes_integers_only():
    """An integral Fraction in b is the int it equals; a fractional one is
    refused, as a bool, float or string is, before any elimination."""
    a = ((2, 0), (0, 1))
    assert linalg.solve_columns(a, ((Fraction(4, 2),), (3,))) == linalg.solve_columns(a, ((2,), (3,)))
    with pytest.raises(ValueError, match=r"^matrix entry must be an integer, got Fraction\(1, 2\)$"):
        linalg.solve_columns(a, ((Fraction(1, 2),), (3,)))


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(ENTRIES, min_size=k, max_size=k), st.lists(ENTRIES, min_size=k, max_size=k)
)))
def test_rank_of_pair_matches_minors(pair):
    u, v = pair
    assert (linalg.rank((u, v)) == 2) == minors_independent(u, v)


def test_mat_vec_is_exact():
    got = linalg.mat_vec(((1, 2), (3, -4)), (Fraction(1, 2), Fraction(1, 3)))
    assert got == (Fraction(7, 6), Fraction(1, 6))
    assert all(type(x) is Fraction for x in got)


@pytest.mark.parametrize("bad", [True, False, 1.0, "1"])
def test_scaled_rejects_non_exact_entries_among_ints(bad):
    """An all-int vector is its own numerators over 1; a bool, float or
    string among ints is still rejected, by scaled and mat_vec, and by
    solve_columns, which takes integer entries only."""
    assert linalg.scaled(iter((3, -4))) == ([3, -4], 1)
    message = f"^vector entry must be an integer or a Fraction, got {bad!r}$"
    with pytest.raises(ValueError, match=message):
        linalg.scaled([1, bad])
    with pytest.raises(ValueError, match=message):
        linalg.mat_vec(((1, 0), (0, 1)), (bad, 2))
    with pytest.raises(ValueError, match=f"^matrix entry must be an integer, got {bad!r}$"):
        linalg.solve_columns(((1,), (0,)), ((bad,), (2,)))


def integer_matrix_by_entries(rows):
    """Reference: every entry through exact_int, or the ValueError's text."""
    try:
        return tuple(tuple(linalg.exact_int(x, "matrix entry") for x in row) for row in rows)
    except ValueError as error:
        return str(error)


MIXED_ENTRIES = st.one_of(
    ENTRIES,
    st.booleans(),
    ENTRIES.map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
MIXED_ROWS = st.lists(MIXED_ENTRIES, max_size=5).flatmap(
    lambda row: st.sampled_from((tuple(row), list(row)))
)


@given(st.lists(st.one_of(MIXED_ROWS, st.lists(ENTRIES, max_size=5).map(tuple)), max_size=5))
def test_integer_matrix_matches_per_entry_conversion(rows):
    """Rows of int, bool, integral and non-integral Fraction, as tuples and
    lists: the same matrix as entry-by-entry conversion, or the same error."""
    expected = integer_matrix_by_entries(rows)
    try:
        got = linalg.integer_matrix(rows)
    except ValueError as error:
        assert str(error) == expected
        return
    assert got == expected
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in got)


def test_identity_matches_its_definition():
    for n in range(26):
        got = linalg.identity(n)
        assert got == tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert all(type(x) is int for row in got for x in row)


@given(st.integers(-50, 50), st.integers(-12, 12).filter(bool))
def test_fraction_matches_fraction(n, den):
    """fraction and fraction_vector give Fraction(n, den), always of type
    Fraction, from the shared cache or built fresh."""
    got = linalg.fraction(n, den)
    assert got == Fraction(n, den) and type(got) is Fraction
    assert linalg.fraction(n) == Fraction(n) and type(linalg.fraction(n)) is Fraction
    vector = linalg.fraction_vector((n, n + 1, 0), den)
    assert vector == (Fraction(n, den), Fraction(n + 1, den), Fraction(0))
    assert all(type(x) is Fraction for x in vector)


def test_fraction_shares_integral_values():
    """An integral value is one shared Fraction, whatever the denominator it
    was written over; a fractional value is built fresh."""
    assert linalg.fraction(3) is linalg.fraction(6, 2) is linalg.fraction_vector((-9,), -3)[0]
    assert linalg.fraction(1, 3) is not linalg.fraction(1, 3)


def test_integral_fraction_cache_is_bounded():
    """Past its bound the cache keeps nothing more, and every value is still
    the right Fraction."""
    linalg._integral.clear()
    try:
        for n in range(10**6, 10**6 + 5000):
            got = linalg.fraction(n)
            assert got == Fraction(n) and type(got) is Fraction
        assert len(linalg._integral) <= 2048
    finally:
        linalg._integral.clear()
