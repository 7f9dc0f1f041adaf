"""Exact Gaussian elimination over any field-like scalar type.

Entries only need +, -, *, / and truthiness (nonzero test); both
Fraction and ScalarField qualify. One Gauss-Jordan kernel, row_reduce,
serves every entry point.
"""

from __future__ import annotations


def row_reduce(rows: list, width: int) -> list:
    """Gauss-Jordan elimination of `rows` in place over its first `width` columns.

    Rows are never swapped: each column pivots on the first row, in input
    order, that is not yet a pivot row and has a nonzero entry there. The
    pivot row is scaled to a leading 1 and the column is cleared in every
    other row; an entry facing a zero in the pivot row is left alone.
    Returns the (row, column) pivots in column order.
    """
    pivots = []
    used = set()
    for col in range(width):
        pivot = next((r for r in range(len(rows)) if r not in used and rows[r][col]), None)
        if pivot is None:
            continue
        pivots.append((pivot, col))
        used.add(pivot)
        head = rows[pivot][col]
        rows[pivot] = [v / head if v else v for v in rows[pivot]]
        for r in range(len(rows)):
            if r != pivot and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [v - factor * w if w else v for v, w in zip(rows[r], rows[pivot])]
        if len(pivots) == len(rows):
            break
    return pivots


def solve_linear(rows: list, rhs: list, zero):
    """One particular solution of rows*v = rhs with free slots at zero.

    Returns a list, or None when the system is inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError("shape mismatch")
    width = len(rows[0]) if rows else 0
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots = row_reduce(aug, width)
    used = {r for r, _ in pivots}
    if any(row[width] for r, row in enumerate(aug) if r not in used):
        return None
    solution = [zero] * width
    for r, col in pivots:
        solution[col] = aug[r][width]
    return solution


def invert_matrix(M: list, zero, one):
    """Inverse of a square matrix, or None when singular."""
    n = len(M)
    aug = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(M)]
    pivots = row_reduce(aug, n)
    if len(pivots) < n:
        return None
    # the pivot row of column c holds row c of the inverse
    return [aug[r][n:] for r, _ in pivots]


def matrix_rank(M: list) -> int:
    """Rank over the fraction field of the entries."""
    rows = [list(r) for r in M]
    return len(row_reduce(rows, len(rows[0]) if rows else 0))
