"""Exact dense linear algebra on small rational matrices.

Each row (augmented column included) is scaled by the least common multiple
of its denominators, which changes neither the solution nor, up to the
recorded scale, the determinant.  The integer matrix then goes through one
fraction-free (Bareiss) elimination with a deterministic pivot rule: the
first row with a nonzero entry in the pivot column.  Every division in it is
exact, so it runs on Python integers with `//`; the last pivot is the
determinant, and integer back substitution gives det * x.  One pass thus
yields both the determinant and the solution, and a zero determinant is
detected on the way.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import PureILError


def _integer_rows(matrix) -> tuple[list[list[int]], int]:
    """Rows scaled to integers, and the product of the row scales."""
    rows = []
    scales = 1
    for row in matrix:
        values = [Fraction(v) for v in row]
        scale = lcm(*(v.denominator for v in values))
        rows.append([v.numerator * (scale // v.denominator) for v in values])
        scales *= scale
    return rows, scales


def _eliminate(m: list[list[int]], n: int) -> int:
    """In-place integer Bareiss forward elimination of the leading n x n part.

    Operates on the full row width, so `m` may carry augmented columns.
    Returns the determinant of the square part, 0 as soon as a pivot column
    has no usable entry.
    """
    if n == 0:
        return 1
    cols = len(m[0])
    sign = 1
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k]), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot_line = m[k]
        pivot = pivot_line[k]
        for i in range(k + 1, n):
            line = m[i]
            factor = line[k]
            if factor or pivot != prev:  # otherwise the row is unchanged
                for j in range(k + 1, cols):
                    line[j] = (line[j] * pivot - factor * pivot_line[j]) // prev
            line[k] = 0
        prev = pivot
    return sign * prev


def _check_square(matrix, what: str) -> int:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise PureILError(f"{what} needs a square matrix")
    return n


def exact_det(matrix) -> Fraction:
    n = _check_square(matrix, "determinant")
    m, scales = _integer_rows(matrix)
    return Fraction(_eliminate(m, n), scales)


def _solve(matrix, rhs) -> tuple[Fraction, list[Fraction] | None]:
    """Determinant of `matrix` and the solution of matrix @ x = rhs (None
    when singular), from one elimination."""
    n = len(matrix)
    m, scales = _integer_rows([list(row) + [b] for row, b in zip(matrix, rhs)])
    det = _eliminate(m, n)
    if det == 0:
        return Fraction(0), None
    # y = det * x is integral (Cramer), so each division below is exact
    y = [0] * n
    for i in range(n - 1, -1, -1):
        line = m[i]
        acc = det * line[n] - sum(line[j] * y[j] for j in range(i + 1, n))
        y[i] = acc // line[i]
    return Fraction(det, scales), [Fraction(v, det) for v in y]


def exact_solve(matrix, rhs) -> list[Fraction]:
    """Solve matrix @ x = rhs exactly; raises on a singular matrix."""
    n = _check_square(matrix, "solve")
    if len(rhs) != n:
        raise PureILError("solve needs a square system")
    _, x = _solve(matrix, rhs)
    if x is None:
        raise PureILError("singular system")
    return x


def exact_inverse_row(matrix, index: int) -> tuple[Fraction, list[Fraction] | None]:
    """Determinant of `matrix` and row `index` (0-based) of its inverse, or
    None in its place when the determinant is 0; one elimination solves
    x @ matrix = e_index."""
    n = _check_square(matrix, "inverse")
    transposed = [[matrix[j][i] for j in range(n)] for i in range(n)]
    unit = [int(j == index) for j in range(n)]
    return _solve(transposed, unit)
