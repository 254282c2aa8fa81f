"""Unary languages at desk scale: atoms, negation counts, state descriptions.

A language of level q has predicates P_1..P_q and atoms = the 2^q maximal
conjunctions of signed predicates, encoded as sign vectors eps in {0,1}^q
(1 = positive occurrence).  Atom indices are 1-based throughout, matching the
wire formats.  A state description assigns one atom to each of n distinct
constants a_1..a_n.

Atom enumeration convention: the number of negated predicates (``gamma``) is
non-decreasing along the index; inside a block of equal gamma, sign vectors
are in descending binary order.  Everything downstream (alternative notation,
witnesses, wire formats) relies on this fixed order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb

from .errors import LevelMismatchError, PureILError

# Enumerating atoms is exponential in q; anything past this is not desk scale.
MAX_PREDICATES = 12


@dataclass(frozen=True)
class AtomTable:
    """All atoms of a level-q language, in the canonical order."""

    q: int
    atoms: tuple[tuple[int, ...], ...]
    gamma: tuple[int, ...]
    _index: dict[tuple[int, ...], int] = field(compare=False, repr=False, default_factory=dict)

    def index_of(self, eps: tuple[int, ...]) -> int:
        """1-based index of the atom with sign vector `eps`."""
        return self._index[eps]

    def __len__(self) -> int:
        return len(self.atoms)


@lru_cache(maxsize=None)
def enumerate_atoms(q: int) -> AtomTable:
    """Atom table for the level-q language.

    Ordered by ascending negation count, ties broken by descending binary
    value of the sign vector, e.g. q=2 gives (1,1),(1,0),(0,1),(0,0).
    """
    if not 1 <= q <= MAX_PREDICATES:
        raise PureILError(f"predicate count must be in 1..{MAX_PREDICATES}, got {q}")
    atoms = sorted(
        itertools.product((0, 1), repeat=q),
        key=lambda eps: (q - sum(eps), tuple(-b for b in eps)),
    )
    table = AtomTable(
        q=q,
        atoms=tuple(atoms),
        gamma=tuple(q - sum(eps) for eps in atoms),
    )
    for i, eps in enumerate(table.atoms, start=1):
        table._index[eps] = i
    assert all(
        sum(1 for g in table.gamma if g == k) == comb(q, k) for k in range(q + 1)
    )
    return table


@dataclass(frozen=True)
class StateDescription:
    """One atom index per constant; h[j-1] is the atom of constant a_j."""

    q: int
    h: tuple[int, ...]

    def __post_init__(self):
        top = 2 ** self.q
        for a in self.h:
            if not 1 <= a <= top:
                raise PureILError(f"atom index {a} out of range 1..{top}")

    @property
    def n(self) -> int:
        return len(self.h)

    def atom_counts(self) -> dict[int, int]:
        """Multiplicity n_i of each atom index occurring in the description."""
        counts: dict[int, int] = {}
        for a in self.h:
            counts[a] = counts.get(a, 0) + 1
        return counts

    def extend(self, atom_index: int) -> "StateDescription":
        """The description with one more constant carrying `atom_index`."""
        return StateDescription(self.q, self.h + (atom_index,))


def matching_atoms(q: int, signs) -> tuple[int, ...]:
    """Indices of the level-q atoms with sign `bit` at every `(pred, bit)` in
    `signs`, ascending; no pairs gives every atom."""
    return tuple(
        i
        for i, eps in enumerate(enumerate_atoms(q).atoms, start=1)
        if all(eps[pred - 1] == bit for pred, bit in signs)
    )


def all_state_descriptions(q: int, n: int):
    """All (2^q)^n state descriptions on n constants, lexicographic in h."""
    top = 2 ** q
    for h in itertools.product(range(1, top + 1), repeat=n):
        yield StateDescription(q, h)


def description_at(q: int, n: int, index: int) -> tuple[int, ...]:
    """Atoms h of the description at 0-based `index` in
    all_state_descriptions(q, n): the base-2^q digits of index, plus one."""
    top = 2 ** q
    digits = []
    for _ in range(n):
        index, d = divmod(index, top)
        digits.append(d + 1)
    return tuple(reversed(digits))


@dataclass(frozen=True)
class PredPermutation:
    """A bijection on predicate indices {1..q}, one-line notation.

    mapping[i-1] is the image of predicate i.
    """

    q: int
    mapping: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.mapping) != list(range(1, self.q + 1)):
            raise PureILError(f"not a permutation of 1..{self.q}: {self.mapping}")

    @lru_cache(maxsize=1024)
    def atom_map(self) -> tuple[int, ...]:
        """Induced map on atom indices: entry i-1 is the image of atom i.

        Predicate i's sign moves to predicate mapping[i-1], so the image of
        sign vector eps has eps'[sigma(i)-1] = eps[i-1].  Negation counts are
        preserved.  Memoized per (q, mapping): callers build fresh equal
        permutations.
        """
        table = enumerate_atoms(self.q)
        images = []
        for eps in table.atoms:
            out = [0] * self.q
            for i, bit in enumerate(eps):
                out[self.mapping[i] - 1] = bit
            images.append(table.index_of(tuple(out)))
        return tuple(images)

    def compose(self, other: "PredPermutation") -> "PredPermutation":
        """self after other: (self*other)(i) = self(other(i))."""
        if self.q != other.q:
            raise LevelMismatchError("cannot compose permutations of different levels")
        return PredPermutation(
            self.q, tuple(self.mapping[other.mapping[i - 1] - 1] for i in range(1, self.q + 1))
        )


def all_pred_permutations(q: int):
    """All q! predicate permutations, lexicographic in one-line notation."""
    for mapping in itertools.permutations(range(1, q + 1)):
        yield PredPermutation(q, mapping)


def apply_pred_perm(sigma: PredPermutation, target: StateDescription) -> StateDescription:
    """Rename predicates in a state description via the induced atom map."""
    if sigma.q != target.q:
        raise LevelMismatchError(f"permutation level {sigma.q} != description level {target.q}")
    amap = sigma.atom_map()
    return StateDescription(target.q, tuple(amap[a - 1] for a in target.h))


def apply_const_perm(tau, target: StateDescription) -> StateDescription:
    """Permute constants: the new description has h'_j = h_{tau(j)}.

    `tau` maps positions 1..n to positions 1..n (callable, sequence of images,
    or dict); it must be a bijection.
    """
    n = target.n
    if callable(tau):
        images = [tau(j) for j in range(1, n + 1)]
    elif isinstance(tau, dict):
        images = [tau[j] for j in range(1, n + 1)]
    else:
        images = list(tau)
    if sorted(images) != list(range(1, n + 1)):
        raise PureILError(f"not a bijection on 1..{n}: {images}")
    return StateDescription(target.q, tuple(target.h[j - 1] for j in images))


def refinement_indices(q: int, r: int) -> tuple[tuple[int, ...], ...]:
    """For each level-q atom, the level-r atom indices refining it.

    A level-r atom refines a level-q one when their sign vectors agree on the
    first q predicates.  Entry i-1 lists the 2^(r-q) refinements of atom i.
    """
    if r < q:
        raise PureILError(f"refinement target {r} below source level {q}")
    low, high = enumerate_atoms(q), enumerate_atoms(r)
    out: list[list[int]] = [[] for _ in range(2 ** q)]
    for j, eps in enumerate(high.atoms, start=1):
        out[low.index_of(eps[:q]) - 1].append(j)
    return tuple(tuple(v) for v in out)
