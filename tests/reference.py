"""Independent reference computations that tests compare the library against."""

from __future__ import annotations

import itertools
from fractions import Fraction


def permutation_expansion_det(matrix) -> Fraction:
    """Determinant by signed permutation expansion (tiny n only)."""
    n = len(matrix)
    if n > 8:
        raise ValueError("permutation expansion is for small matrices")
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = Fraction(sign)
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += term
    return total
