"""Row-sampling probability functions seeded by a big square 0/1 matrix.

A state description of a level-nu language on nu constants is a nu x nu
0/1 matrix: entry (i, j) is the sign of predicate i at constant j.  Picking
q of its rows (with replacement) gives a q x nu matrix whose columns are
level-q atoms; the column frequencies give a product function.  Averaging
over all nu^q ordered picks yields `nabla`, a function invariant under
predicate and constant renaming that stays coherent across language levels.
`nabla_no_replacement` averages over injective picks only.

Matrices are stored as distinct rows with multiplicities; picks are
enumerated over row types with multiplicity weights, never literally nu^q
times.  Positions 1..nu refer to the expansion of the stored rows in order.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, perm, prod

from .errors import CapExceededError, PureILError
from .language import enumerate_atoms
from .probability import SimplexPoint, _ConvexOfProducts

MAX_COMPOSITION_PREDICATES = 5
# ordered row-type picks enumerated when building an averaged function
MAX_PICK_COMPONENTS = 200_000

BitRow = tuple[int, ...]


@dataclass(frozen=True)
class UpsilonMatrix:
    """A nu x nu 0/1 matrix, compressed to distinct rows with multiplicities.

    Duplicate rows passed to the constructor are merged in first-seen order.
    """

    nu: int
    rows: tuple[tuple[BitRow, int], ...]

    def __post_init__(self):
        merged: dict[BitRow, int] = {}
        for bits, mult in self.rows:
            bits = tuple(int(b) for b in bits)
            if len(bits) != self.nu:
                raise PureILError(f"row length {len(bits)} != nu = {self.nu}")
            if any(b not in (0, 1) for b in bits):
                raise PureILError("rows must be 0/1 vectors")
            if mult <= 0:
                raise PureILError("row multiplicities must be positive")
            merged[bits] = merged.get(bits, 0) + int(mult)
        if sum(merged.values()) != self.nu:
            raise PureILError(
                f"multiplicities sum to {sum(merged.values())}, need nu = {self.nu}"
            )
        object.__setattr__(self, "rows", tuple(merged.items()))

    def positions(self) -> tuple[BitRow, ...]:
        """Rows by 1-based position, expanding multiplicities in stored order."""
        out: list[BitRow] = []
        for bits, mult in self.rows:
            out.extend([bits] * mult)
        return tuple(out)


@dataclass(frozen=True)
class PhiMatrix:
    """q x nu matrix whose columns realize a simplex point's atom counts."""

    q: int
    nu: int
    rows: tuple[BitRow, ...]


@dataclass(frozen=True)
class FrequencyVector:
    """Nonnegative rational row frequencies summing to 1."""

    p: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(Fraction(v) for v in self.p))
        if any(v < 0 for v in self.p):
            raise PureILError("frequencies must be nonnegative")
        if sum(self.p) != 1:
            raise PureILError(f"frequencies sum to {sum(self.p)}, not 1")


class NablaFunction(_ConvexOfProducts):
    """Average of row-pick product functions of a fixed matrix."""

    tag = "nabla"

    def __init__(self, upsilon: UpsilonMatrix, q: int, components):
        super().__init__(q, components)
        self.upsilon = upsilon


def build_phi(c: SimplexPoint, nu: int) -> PhiMatrix:
    """Columns list atom i of level c.q exactly c_i * nu times, in atom order.

    Every c_i * nu must be an integer; pick nu as a common multiple of the
    denominators.
    """
    table = enumerate_atoms(c.q)
    counts = []
    for i, v in enumerate(c.x):
        scaled = v * nu
        if scaled.denominator != 1:
            raise PureILError(f"entry {i + 1} gives non-integral count {scaled} at nu = {nu}")
        counts.append(int(scaled))
    columns: list[tuple[int, ...]] = []
    for i, count in enumerate(counts):
        columns.extend([table.atoms[i]] * count)
    rows = tuple(tuple(col[i] for col in columns) for i in range(c.q))
    return PhiMatrix(c.q, nu, rows)


def build_upsilon(phi: PhiMatrix, p: FrequencyVector, nu: int) -> UpsilonMatrix:
    """Stack p_i * nu copies of each phi row; frequencies must scale to
    integers that use up all nu rows."""
    if len(p.p) != phi.q:
        raise PureILError(f"need {phi.q} frequencies, got {len(p.p)}")
    if nu != phi.nu:
        raise PureILError(f"nu = {nu} != matrix width {phi.nu}")
    rows = []
    for i, freq in enumerate(p.p):
        scaled = freq * nu
        if scaled.denominator != 1:
            raise PureILError(f"frequency {i + 1} gives non-integral count {scaled} at nu = {nu}")
        if scaled > 0:
            rows.append((phi.rows[i], int(scaled)))
    return UpsilonMatrix(nu, tuple(rows))


def _averaged(upsilon: UpsilonMatrix, q: int, type_weights, total: int) -> NablaFunction:
    """Collapse weighted ordered row-type picks into one convex combination.

    `type_weights` yields (row types, integer weight); weights are over
    `total`.  Columns with equal bits across the distinct rows give the same
    atom in every pick, so a pick costs one atom lookup per column class and
    yields integer atom counts; fractions are formed once per distinct
    component.
    """
    index = enumerate_atoms(q)._index
    classes = Counter(zip(*(bits for bits, _ in upsilon.rows)))
    # row type j's bit in each column class, and the columns in each class
    class_bits = tuple(zip(*classes))
    class_sizes = tuple(classes.values())
    gathered: dict[tuple[int, ...], int] = {}
    for types, weight in type_weights:
        counts = [0] * 2 ** q
        for eps, size in zip(zip(*(class_bits[j] for j in types)), class_sizes):
            counts[index[eps] - 1] += size
        key = tuple(counts)
        gathered[key] = gathered.get(key, 0) + weight
    nu = upsilon.nu
    components = []
    for counts in sorted(gathered):  # counts share the denominator nu: same order as x
        if sum(counts) != nu:
            raise PureILError(f"internal error: atom counts {counts} do not sum to nu = {nu}")
        x = tuple(Fraction(count, nu) for count in counts)
        components.append((Fraction(gathered[counts], total), x))
    return NablaFunction(upsilon, q, tuple(components))


def nabla(upsilon: UpsilonMatrix, q: int) -> NablaFunction:
    """Equal-weight average over all ordered row picks with replacement."""
    if q < 1:
        raise PureILError("need at least one predicate")
    t = len(upsilon.rows)
    if t ** q > MAX_PICK_COMPONENTS:
        raise CapExceededError(f"{t} row types at q = {q} exceed the pick cap")
    mults = [m for _, m in upsilon.rows]
    weighted = (
        (types, prod(mults[j] for j in types))
        for types in itertools.product(range(t), repeat=q)
    )
    return _averaged(upsilon, q, weighted, upsilon.nu ** q)


def nabla_no_replacement(upsilon: UpsilonMatrix, q: int) -> NablaFunction:
    """Average over injective row picks only; needs q <= nu."""
    if q < 1:
        raise PureILError("need at least one predicate")
    if q > upsilon.nu:
        raise PureILError(f"cannot pick {q} distinct rows from {upsilon.nu}")
    t = len(upsilon.rows)
    if t ** q > MAX_PICK_COMPONENTS:
        raise CapExceededError(f"{t} row types at q = {q} exceed the pick cap")

    def weighted():
        for types in itertools.product(range(t), repeat=q):
            numer = 1
            used: dict[int, int] = {}
            for j in types:
                available = upsilon.rows[j][1] - used.get(j, 0)
                if available <= 0:
                    numer = 0
                    break
                numer *= available
                used[j] = used.get(j, 0) + 1
            if numer:
                yield types, numer

    return _averaged(upsilon, q, weighted(), perm(upsilon.nu, q))


@dataclass(frozen=True)
class CompositionSet:
    """All q-part nonnegative integer vectors summing to q, descending lex."""

    q: int
    elements: tuple[tuple[int, ...], ...]


def compositions(q: int) -> CompositionSet:
    if not 1 <= q <= MAX_COMPOSITION_PREDICATES:
        raise PureILError(f"composition level must be in 1..{MAX_COMPOSITION_PREDICATES}")

    def parts(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in parts(total - head, slots - 1):
                yield (head,) + tail

    return CompositionSet(q, tuple(parts(q, q)))


def multinomial(n: tuple[int, ...]) -> int:
    out = factorial(sum(n))
    for v in n:
        out //= factorial(v)
    return out

