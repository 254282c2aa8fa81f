"""Probability functions on state descriptions, in exact rational arithmetic.

A function here is determined by its values on state descriptions: the empty
description gets 1, and extending a description by one constant splits its
value additively over the atoms.  Concrete classes:

* ``ProductFunction`` -- independent constants, value prod_i x_i^{n_i};
* ``SymmetrizedFunction`` -- the average of product functions over all
  predicate renamings, hence invariant under them;
* ``MixtureFunction`` -- finite convex combination with rational weights;
  when every part is a mixture of products (product, symmetrized, row-sampling
  or such mixtures), it evaluates through one merged integer table;
* ``RestrictedFunction`` -- a higher-level function marginalized down by
  refining each atom into the cell of its higher-level atoms.

Sentences, partial descriptions and restrictions all evaluate events "each
constant's atom lies in its cell" (``eval_cells``): in closed form for a
mixture of products, else by a sum capped at ``MAX_COMPLETIONS`` descriptions.

All values are `fractions.Fraction`; evaluation is pure and memoized per
instance (idempotent cache writes, safe under concurrent reads).
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod

from .errors import CapExceededError, LevelMismatchError, PureILError
from .formulas import QfFormula, mentioned_literals, satisfying_cells
from .language import (
    StateDescription,
    all_pred_permutations,
    refinement_indices,
)

ONE = Fraction(1)
ZERO = Fraction(0)

# Descriptions a tableless event sum may visit (the checkers' work cap).
MAX_COMPLETIONS = 5_000_000


def _as_fraction_tuple(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


@dataclass(frozen=True)
class SimplexPoint:
    """A point of the 2^q-simplex: nonnegative rationals summing to 1."""

    q: int
    x: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "x", _as_fraction_tuple(self.x))
        if len(self.x) != 2 ** self.q:
            raise PureILError(f"need {2 ** self.q} entries at level {self.q}, got {len(self.x)}")
        if any(v < 0 for v in self.x):
            raise PureILError("simplex entries must be nonnegative")
        if sum(self.x) != 1:
            raise PureILError(f"simplex entries sum to {sum(self.x)}, not 1")


def uniform_point(q: int) -> SimplexPoint:
    return SimplexPoint(q, (Fraction(1, 2 ** q),) * 2 ** q)


class ProbabilityFunction:
    """Base class: a level and an exact value on every state description."""

    tag = "abstract"
    # integer table, for a finite mixture of product functions
    _table: "_ProductTable | None" = None

    def __init__(self, q: int):
        self.q = q
        self._cache: dict[tuple[int, ...], Fraction] = {}

    def eval_sd(self, theta: StateDescription) -> Fraction:
        if theta.q != self.q:
            raise LevelMismatchError(
                f"description at level {theta.q}, function at level {self.q}"
            )
        return self._value(theta.h)

    def _value(self, h: tuple[int, ...]) -> Fraction:
        """Memoized value on a bare atom-index tuple (no level check)."""
        if not h:
            return ONE
        value = self._cache.get(h)
        if value is None:
            value = self._eval(h)
            self._cache[h] = value
        return value

    def _eval(self, h: tuple[int, ...]) -> Fraction:
        raise NotImplementedError

    def eval_cells(self, cells) -> Fraction:
        """Probability that constant j's atom lies in the atom set cells[j],
        for every j (a sequence of collections of level-q atom indices)."""
        if self._table is not None:
            return self._table.cells_value(cells)
        count = prod(len(cell) for cell in cells)
        if count > MAX_COMPLETIONS:
            raise CapExceededError(f"event spans {count} descriptions, cap is {MAX_COMPLETIONS}")
        return sum((self._value(h) for h in itertools.product(*cells)), start=ZERO)

    def eval_sentence(self, phi: QfFormula, constants=None) -> Fraction:
        """Sum of eval_sd over the satisfying descriptions of phi.

        The window defaults to the constants mentioned in phi; widening it
        does not change the value.
        """
        if constants is None:
            constants = sorted({lit.const for lit in mentioned_literals(phi)})
        models = satisfying_cells(phi, self.q, list(constants))
        return sum((self.eval_cells(cells) for cells in models), start=ZERO)


class _ProductTable:
    """Integer form of a finite mixture of product functions.

    The value on an atom tuple h is sum_c weight_c * prod_{a in h} x_c[a],
    computed as an integer numerator over the fixed denominator
    weight_den * entry_den^len(h) and reduced once at the end; an event
    replaces each x_c[a] by the sum of x_c over the constant's cell.
    """

    def __init__(self, scaled: tuple[tuple[int, tuple[int, ...]], ...], weight_den: int,
                 entry_den: int):
        self.scaled = scaled
        self.weight_den = weight_den
        self.entry_den = entry_den

    @classmethod
    def from_components(cls, components) -> "_ProductTable":
        weight_den = lcm(*(weight.denominator for weight, _ in components))
        entry_den = lcm(*{v.denominator for _, x in components for v in x})
        scaled = tuple(
            (
                weight.numerator * (weight_den // weight.denominator),
                tuple(v.numerator * (entry_den // v.denominator) for v in x),
            )
            for weight, x in components
        )
        return cls(scaled, weight_den, entry_den)

    @classmethod
    def merged(cls, parts) -> "_ProductTable | None":
        """The table of the weighted mixture of `parts`, equal points merged,
        or None unless every part has a table."""
        tables = [(weight, f._table) for weight, f in parts]
        if any(table is None for _, table in tables):
            return None
        entry_den = lcm(*(table.entry_den for _, table in tables))
        weight_den = lcm(*(weight.denominator * table.weight_den for weight, table in tables))
        merged: dict[tuple[int, ...], int] = {}
        for weight, table in tables:
            x_scale = entry_den // table.entry_den
            w_scale = weight.numerator * (weight_den // (weight.denominator * table.weight_den))
            for w, x in table.scaled:
                if x_scale != 1:
                    x = tuple(v * x_scale for v in x)
                merged[x] = merged.get(x, 0) + w * w_scale
        return cls(tuple((w, x) for x, w in merged.items()), weight_den, entry_den)

    def value(self, h: tuple[int, ...]) -> Fraction:
        total = 0
        for weight, x in self.scaled:
            term = weight
            for a in h:
                term *= x[a - 1]
                if not term:
                    break
            total += term
        return Fraction(total, self.weight_den * self.entry_den ** len(h))

    def cells_value(self, cells) -> Fraction:
        """Value of the event "constant j's atom lies in cells[j]", every j."""
        total = 0
        for weight, x in self.scaled:
            term = weight
            for cell in cells:
                term *= sum([x[a - 1] for a in cell])
                if not term:
                    break
            total += term
        return Fraction(total, self.weight_den * self.entry_den ** len(cells))


class _ConvexOfProducts(ProbabilityFunction):
    """Finite convex combination of product functions, stored explicitly and
    evaluated through its integer table."""

    def __init__(self, q: int, components: tuple[tuple[Fraction, tuple[Fraction, ...]], ...]):
        super().__init__(q)
        self.components = components
        self._table = _ProductTable.from_components(components)

    def _eval(self, h: tuple[int, ...]) -> Fraction:
        return self._table.value(h)


class ProductFunction(_ConvexOfProducts):
    """Constants are independent draws from a fixed atom distribution."""

    tag = "product"

    def __init__(self, x: SimplexPoint):
        super().__init__(x.q, ((ONE, x.x),))
        self.x = x


class SymmetrizedFunction(_ConvexOfProducts):
    """Average of the product function over all q! predicate renamings."""

    tag = "symmetrized"

    def __init__(self, c: SimplexPoint):
        orbit: Counter[tuple[Fraction, ...]] = Counter()
        for sigma in all_pred_permutations(c.q):
            amap = sigma.atom_map()
            image = [ZERO] * len(c.x)
            for i, value in enumerate(c.x):
                image[amap[i] - 1] = value
            orbit[tuple(image)] += 1
        total = factorial(c.q)
        super().__init__(
            c.q,
            tuple((Fraction(count, total), x) for x, count in sorted(orbit.items())),
        )
        self.c = c


class MixtureFunction(ProbabilityFunction):
    """Finite mixture with rational weights summing to 1."""

    tag = "mixture"

    def __init__(self, parts: list[tuple[Fraction, ProbabilityFunction]]):
        parts = [(Fraction(w), f) for w, f in parts]
        if not parts:
            raise PureILError("a mixture needs at least one component")
        levels = {f.q for _, f in parts}
        if len(levels) != 1:
            raise LevelMismatchError(f"mixture components at mixed levels {sorted(levels)}")
        if any(w < 0 for w, _ in parts):
            raise PureILError("mixture weights must be nonnegative")
        total = sum(w for w, _ in parts)
        if total != 1:
            raise PureILError(f"mixture weights sum to {total}, not 1")
        super().__init__(levels.pop())
        self.parts = tuple(parts)
        # a mixture of (mixtures of) products is itself one: evaluate it
        # through one merged table, while `parts` keeps its structure
        self._table = _ProductTable.merged(self.parts)

    def _eval(self, h: tuple[int, ...]) -> Fraction:
        if self._table is not None:
            return self._table.value(h)
        return sum((w * f._value(h) for w, f in self.parts), start=ZERO)


class RestrictedFunction(ProbabilityFunction):
    """A level-r function viewed at level q < r via cells of refinements."""

    tag = "restricted"

    def __init__(self, base: ProbabilityFunction, q: int):
        if q > base.q:
            raise PureILError(f"cannot restrict level {base.q} up to level {q}")
        super().__init__(q)
        self.base = base
        self._refine = refinement_indices(q, base.q)

    def eval_cells(self, cells) -> Fraction:
        refine = self._refine
        return self.base.eval_cells([[b for a in cell for b in refine[a - 1]] for cell in cells])

    def _eval(self, h: tuple[int, ...]) -> Fraction:
        return self.base.eval_cells([self._refine[a - 1] for a in h])


def symmetrized(c: SimplexPoint) -> SymmetrizedFunction:
    return SymmetrizedFunction(c)


def restrict(w: ProbabilityFunction, q: int) -> ProbabilityFunction:
    """Marginalize `w` down to level q; q == w.q returns `w` itself."""
    if q > w.q:
        raise PureILError(f"target level {q} above function level {w.q}")
    if q == w.q:
        return w
    return RestrictedFunction(w, q)
