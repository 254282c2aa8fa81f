"""Independent reference computations that tests compare the library against."""

from __future__ import annotations

import itertools
from fractions import Fraction

from pureil.formulas import satisfying_descriptions
from pureil.language import StateDescription, enumerate_atoms


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


def refinement_restriction(base, q: int, h: tuple[int, ...]) -> Fraction:
    """Value of `base` marginalized to level q on h, by summing `base` over
    every level-r tuple whose atoms agree with h on predicates 1..q."""
    low, high = enumerate_atoms(q), enumerate_atoms(base.q)
    per_constant = [
        [j for j, eps in enumerate(high.atoms, start=1) if eps[:q] == low.atoms[a - 1]]
        for a in h
    ]
    refinements = itertools.product(*per_constant)
    return sum(
        (base.eval_sd(StateDescription(base.q, refined)) for refined in refinements),
        start=Fraction(0),
    )


def sentence_by_descriptions(w, phi, constants) -> Fraction:
    """Value of phi under `w`, as the sum of eval_sd over its models."""
    return sum(
        (w.eval_sd(theta) for theta in satisfying_descriptions(phi, w.q, list(constants))),
        start=Fraction(0),
    )


def completion_eval_partial(w, patterns) -> Fraction:
    """Value of a partial window, as the sum of eval_sd over every description
    whose atoms carry each constant's (predicate, sign) pairs."""
    atoms = enumerate_atoms(w.q).atoms
    return sum(
        (
            w.eval_sd(StateDescription(w.q, h))
            for h in itertools.product(range(1, len(atoms) + 1), repeat=len(patterns))
            if all(
                atoms[a - 1][pred - 1] == bit
                for a, pattern in zip(h, patterns)
                for pred, bit in pattern
            )
        ),
        start=Fraction(0),
    )
