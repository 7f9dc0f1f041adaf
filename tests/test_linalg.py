"""The row-reduce kernel and its entry points against sympy's matrices.

Matrices are small, with Fraction entries; rows are drawn as combinations
of a few base rows, so rank-deficient, singular and inconsistent systems
come up as often as full-rank ones.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from algebroids.linalg import invert_matrix, matrix_rank, row_reduce, solve_linear
from algebroids.scalar import BaseChart, ScalarField, parse_scalar

ORACLE = settings(max_examples=200, deadline=None, derandomize=True)

entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
weights = st.sampled_from((Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)))


@st.composite
def matrices(draw, rows=None, cols=None):
    """A rows x cols Fraction matrix whose rows combine at most four drawn base rows."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    base = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=4))
    out = []
    for _ in range(rows):
        w = draw(st.lists(weights, min_size=len(base), max_size=len(base)))
        out.append([sum((c * b[j] for c, b in zip(w, base)), Fraction(0)) for j in range(cols)])
    return out


def to_sympy(M):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row] for row in M])


def to_fraction(v):
    return Fraction(int(v.p), int(v.q))


@ORACLE
@given(matrices())
def test_rank_matches_sympy(M):
    assert matrix_rank(M) == to_sympy(M).rank()


@ORACLE
@given(matrices(), st.booleans(), st.data())
def test_solve_matches_sympy(M, consistent, data):
    width = len(M[0])
    if consistent:
        x = data.draw(st.lists(entries, min_size=width, max_size=width))
        rhs = [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in M]
    else:
        rhs = data.draw(st.lists(entries, min_size=len(M), max_size=len(M)))
    A = to_sympy(M)
    aug = A.row_join(to_sympy([[b] for b in rhs]))
    solution = solve_linear(M, rhs, Fraction(0))
    if aug.rank() > A.rank():
        assert solution is None
        return
    assert solution is not None and len(solution) == width
    for row, b in zip(M, rhs):
        assert sum((a * v for a, v in zip(row, solution)), Fraction(0)) == b
    _, pivot_cols = A.rref()
    for j in range(width):
        if j not in pivot_cols:
            assert solution[j] == 0


@ORACLE
@given(st.integers(1, 4).flatmap(lambda n: matrices(rows=n, cols=n)))
def test_inverse_matches_sympy(M):
    n = len(M)
    inverse = invert_matrix(M, Fraction(0), Fraction(1))
    A = to_sympy(M)
    if A.det() == 0:
        assert inverse is None
        return
    expected = A.inv()
    assert inverse == [[to_fraction(expected[i, j]) for j in range(n)] for i in range(n)]


def test_shape_mismatch_and_empty_system():
    with pytest.raises(ValueError):
        solve_linear([[Fraction(1)]], [], Fraction(0))
    assert solve_linear([], [], Fraction(0)) == []
    assert matrix_rank([]) == 0


def test_rational_function_entries():
    chart = BaseChart(("x1", "x2"))
    x1, x2 = (parse_scalar(name, chart) for name in chart.names)
    zero, one = ScalarField.zero(chart), ScalarField.one(chart)
    M = [[x1, one], [one, x2]]
    det = x1 * x2 - one
    assert invert_matrix(M, zero, one) == [[x2 / det, -one / det], [-one / det, x1 / det]]
    singular = [[x1, one], [x1 * x2, x2]]
    assert invert_matrix(singular, zero, one) is None
    assert matrix_rank(singular) == 1
    assert solve_linear(singular, [one, x2], zero) == [one / x1, zero]
    assert solve_linear(singular, [one, one], zero) is None


def test_pivot_is_the_first_unused_row_in_input_order():
    # Column 0 pivots on row 2. A kernel that swapped row 2 to the top
    # would then pivot column 1 on row 1; this one takes row 0.
    rows = [[Fraction(0), Fraction(2)], [Fraction(0), Fraction(1)], [Fraction(3), Fraction(0)]]
    assert row_reduce(rows, 2) == [(2, 0), (0, 1)]
    assert rows == [[0, 1], [0, 0], [1, 0]]
