from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from pureil.decompose import choose_p_vectors
from pureil.errors import PureILError
from pureil.linalg import exact_det, exact_inverse_row, exact_solve
from pureil.nabla import compositions
from reference import permutation_expansion_det

F = Fraction


def _random_matrix(rng: random.Random, n: int):
    return [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]


def test_det_small_cases():
    assert exact_det([[F(3)]]) == 3
    assert exact_det([[1, 2], [3, 4]]) == -2
    assert exact_det([[0, 1], [0, 2]]) == 0
    assert exact_det([[0, 1], [2, 0]]) == -2


def test_det_matches_permutation_expansion():
    rng = random.Random(2)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            m = _random_matrix(rng, n)
            assert exact_det(m) == permutation_expansion_det(m)


def test_det_row_permutation_sign():
    rng = random.Random(9)
    for n in (3, 4, 6):
        m = _random_matrix(rng, n)
        reversed_rows = list(reversed(m))
        swaps = (n // 2) % 2
        assert exact_det(reversed_rows) == (-1) ** swaps * exact_det(m)


def test_solve_roundtrip():
    rng = random.Random(4)
    for n in (1, 2, 3, 5):
        for _ in range(10):
            m = _random_matrix(rng, n)
            if exact_det(m) == 0:
                continue
            x = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            rhs = [sum(m[i][j] * x[j] for j in range(n)) for i in range(n)]
            assert exact_solve(m, rhs) == x


def test_solve_singular():
    with pytest.raises(PureILError):
        exact_solve([[1, 1], [2, 2]], [1, 2])


def test_inverse_row():
    m = [[F(1), F(0), F(0)], [F(1, 4), F(1, 4), F(1, 4)], [F(0), F(0), F(1)]]
    det, row = exact_inverse_row(m, 1)
    assert det == F(1, 4)
    assert row == [F(-1), F(4), F(-1)]
    # row of the inverse times the matrix gives the unit row
    prod = [sum(row[k] * m[k][j] for k in range(3)) for j in range(3)]
    assert prod == [0, 1, 0]
    assert exact_inverse_row([[1, 1], [2, 2]], 0) == (0, None)


def test_inverse_row_det_matches_permutation_expansion():
    rng = random.Random(12)
    for n in (1, 2, 3, 4, 6):
        for _ in range(8):
            m = _random_matrix(rng, n)
            det, row = exact_inverse_row(m, n - 1)
            assert det == permutation_expansion_det(m)
            if det:
                unit = [int(j == n - 1) for j in range(n)]
                assert [sum(row[k] * m[k][j] for k in range(n)) for j in range(n)] == unit
            else:
                assert row is None


@pytest.mark.parametrize("q, lam", [(2, F(1)), (3, F(9, 2)), (4, F(17))])
def test_monomial_solve_against_sympy(q, lam):
    # one integer elimination gives det and b_row; sympy's rational
    # determinant and inverse are the independent route
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    system = choose_p_vectors(compositions(q))
    entries = [[QQ(v.numerator, v.denominator) for v in row] for row in system.entries]
    n = len(entries)
    matrix = DomainMatrix(entries, (n, n), QQ)
    unit_index = system.K.elements.index((1,) * q)
    inverse_row = [F(str(v)) for v in matrix.inv().to_Matrix().row(unit_index)]
    assert system.det == F(str(matrix.det()))
    assert list(system.b_row) == inverse_row
    assert sum(-v for v in inverse_row if v < 0) / factorial(q) == system.lam == lam


def test_det_shape_errors():
    with pytest.raises(PureILError):
        exact_det([[1, 2]])
    with pytest.raises(PureILError):
        exact_solve([[1, 2], [3, 4]], [1])
