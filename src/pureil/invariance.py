"""Compressed coordinates for predicate-symmetric points, and moves between
language levels.

A simplex point invariant under predicate renaming carries one value per
negation count; the compressed vector <C_0..C_q> satisfies
sum_k binom(q,k) C_k = 1.  `transfer` marginalizes such a vector from a
higher-level language down, and `bernstein` produces the vectors whose
entries are mixed moments x^j (1-x)^(q-j) of a discrete measure on [0,1] --
exactly the points extendable to every level with constant irrelevance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import NotPredicateSymmetricError, PureILError
from .language import enumerate_atoms
from .probability import SimplexPoint


@dataclass(frozen=True)
class AltNotation:
    """One nonnegative rational per negation count, binomially normalized."""

    q: int
    C: tuple[Fraction, ...]

    def __post_init__(self):
        if self.q < 0:
            raise PureILError(f"level q must be nonnegative, got q = {self.q}")
        object.__setattr__(self, "C", tuple(Fraction(v) for v in self.C))
        if len(self.C) != self.q + 1:
            raise PureILError(f"need {self.q + 1} entries at level {self.q}, got {len(self.C)}")
        if any(v < 0 for v in self.C):
            raise PureILError("entries must be nonnegative")
        total = sum(comb(self.q, k) * v for k, v in enumerate(self.C))
        if total != 1:
            raise PureILError(f"binomially weighted sum is {total}, not 1")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many point masses on [0,1] with rational weights."""

    support: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pairs = tuple((Fraction(x), Fraction(w)) for x, w in self.support)
        object.__setattr__(self, "support", pairs)
        points = [x for x, _ in pairs]
        if len(set(points)) != len(points):
            raise PureILError("support points must be distinct")
        if any(not 0 <= x <= 1 for x in points):
            raise PureILError("support points must lie in [0,1]")
        if any(w <= 0 for _, w in pairs):
            raise PureILError("weights must be positive")
        if sum(w for _, w in pairs) != 1:
            raise PureILError("weights must sum to 1")


def dirac(x) -> DiscreteMeasure:
    return DiscreteMeasure(((Fraction(x), Fraction(1)),))


def to_alt(c: SimplexPoint) -> AltNotation:
    """Compress a predicate-symmetric simplex point to one value per
    negation count.  Rejects points whose entries differ inside a block."""
    table = enumerate_atoms(c.q)
    values: list[Fraction | None] = [None] * (c.q + 1)
    first_index: list[int] = [0] * (c.q + 1)
    for i, v in enumerate(c.x):
        k = table.gamma[i]
        if values[k] is None:
            values[k] = v
            first_index[k] = i + 1
        elif values[k] != v:
            raise NotPredicateSymmetricError((first_index[k], i + 1), (values[k], v))
    return AltNotation(c.q, tuple(values))


def from_alt(C: AltNotation) -> SimplexPoint:
    table = enumerate_atoms(C.q)
    return SimplexPoint(C.q, tuple(C.C[g] for g in table.gamma))


def transfer_matrix(q: int, r: int) -> list[list[Fraction]]:
    """(q+1) x (r+1) matrix taking level-r compressed vectors to level q.

    Row j has entries binom(r-q, k-j) in columns k = j .. r-q+j.
    """
    if q > r:
        raise PureILError(f"target level {q} above source level {r}")
    return [
        [Fraction(comb(r - q, k - j)) if 0 <= k - j <= r - q else Fraction(0) for k in range(r + 1)]
        for j in range(q + 1)
    ]


def transfer(D: AltNotation, q: int) -> AltNotation:
    """Marginalize a level-r compressed vector down to level q <= r."""
    if q > D.q:
        raise PureILError(f"target level {q} above source level {D.q}")
    if q == D.q:
        return D
    rows = transfer_matrix(q, D.q)
    return AltNotation(q, tuple(sum(a * d for a, d in zip(row, D.C)) for row in rows))


def bernstein(rho: DiscreteMeasure, q: int) -> AltNotation:
    """Mixed moments of the measure: C_j = sum of w * x^j (1-x)^(q-j)."""
    C = []
    for j in range(q + 1):
        C.append(sum((w * x ** j * (1 - x) ** (q - j) for x, w in rho.support), start=Fraction(0)))
    return AltNotation(q, tuple(C))
