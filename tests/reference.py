"""Independent reference computations that tests compare the library against."""

from __future__ import annotations

import itertools
from fractions import Fraction

from pureil.errors import PureILError
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


# The feasibility engines in Fraction arithmetic: the pivot and elimination
# choices of `pureil.feasibility`, with every quantity a Fraction.

ZERO = Fraction(0)
ONE = Fraction(1)
FM_MAX_CONSTRAINTS = 50_000


class _Constraint:
    """a . D_free + b >= 0 with provenance multipliers.

    `eq_mults` (any sign) range over the reduced equality rows, `unit_mults`
    (kept nonnegative) over the D_k >= 0 rows; together they express the
    constraint as a combination of the initial system.  `history` records
    which initial inequalities the constraint descends from, for Imbert's
    redundancy bound.
    """

    __slots__ = ("coeffs", "const", "eq_mults", "unit_mults", "history")

    def __init__(self, coeffs, const, eq_mults, unit_mults, history):
        self.coeffs = coeffs
        self.const = const
        self.eq_mults = eq_mults
        self.unit_mults = unit_mults
        self.history = history

    def key(self):
        lead = next((v for v in self.coeffs if v != 0), None)
        if lead is None:
            return (self.coeffs, ZERO if self.const == 0 else ONE)
        factor = ONE / abs(lead)
        return (tuple(v * factor for v in self.coeffs), self.const * factor)


def _combine(lo: _Constraint, up: _Constraint, var: int) -> _Constraint:
    a, b = lo.coeffs[var], -up.coeffs[var]
    # b * lo + a * up cancels the variable; both factors are positive
    return _Constraint(
        tuple(b * x + a * y for x, y in zip(lo.coeffs, up.coeffs)),
        b * lo.const + a * up.const,
        tuple(b * x + a * y for x, y in zip(lo.eq_mults, up.eq_mults)),
        tuple(b * x + a * y for x, y in zip(lo.unit_mults, up.unit_mults)),
        lo.history | up.history,
    )


def fraction_fourier_motzkin(matrix, C, r):
    """Returns ('feasible', D) or ('infeasible', y).

    The equality rows are substituted out first (they are few and exact),
    so elimination only ever runs on the rewritten nonnegativity system
    over the free coordinates.
    """
    q = len(C) - 1
    unknowns = r + 1

    # row-reduce [M | C], tracking the transform back to the original rows
    aug = [
        [Fraction(v) for v in matrix[i]]
        + [Fraction(C[i])]
        + [ONE if t == i else ZERO for t in range(q + 1)]
        for i in range(q + 1)
    ]
    pivots: list[tuple[int, int]] = []  # (reduced row, pivot column)
    row_at = 0
    for col in range(unknowns):
        pivot_row = next((i for i in range(row_at, q + 1) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[row_at], aug[pivot_row] = aug[pivot_row], aug[row_at]
        factor = aug[row_at][col]
        aug[row_at] = [v / factor for v in aug[row_at]]
        for i in range(q + 1):
            if i != row_at and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [v - f * p for v, p in zip(aug[i], aug[row_at])]
        pivots.append((row_at, col))
        row_at += 1
        if row_at > q:
            break

    def original_functional(eq_mults) -> tuple[Fraction, ...]:
        return tuple(
            sum(eq_mults[i] * aug[i][unknowns + 1 + j] for i in range(q + 1))
            for j in range(q + 1)
        )

    # an inconsistent zero row certifies infeasibility on its own
    for i in range(row_at, q + 1):
        if aug[i][unknowns] != 0:
            sign = 1 if aug[i][unknowns] > 0 else -1
            unit = tuple(
                (ONE if t == i else ZERO) * sign for t in range(q + 1)
            )
            return "infeasible", original_functional(unit)

    pivot_col_of = dict((col, row) for row, col in pivots)
    free_cols = [k for k in range(unknowns) if k not in pivot_col_of]
    nfree = len(free_cols)
    free_index = {col: f for f, col in enumerate(free_cols)}

    def zero_eq():
        return (ZERO,) * (q + 1)

    def unit(vec_len, at):
        return tuple(ONE if t == at else ZERO for t in range(vec_len))

    constraints: list[_Constraint] = []
    for k in range(unknowns):
        if k in free_index:
            constraints.append(
                _Constraint(
                    unit(nfree, free_index[k]), ZERO, zero_eq(), unit(unknowns, k),
                    frozenset((k,)),
                )
            )
        else:
            i = pivot_col_of[k]
            coeffs = tuple(-aug[i][col] for col in free_cols)
            eq = tuple(-ONE if t == i else ZERO for t in range(q + 1))
            constraints.append(
                _Constraint(coeffs, aug[i][unknowns], eq, unit(unknowns, k), frozenset((k,)))
            )

    def finish(c: _Constraint):
        return "infeasible", original_functional(c.eq_mults)

    for c in constraints:
        if all(v == 0 for v in c.coeffs) and c.const < 0:
            return finish(c)

    stages: list[tuple[int, list[_Constraint]]] = []
    remaining = list(range(nfree))
    while remaining:
        # deterministic minimum-product elimination order
        def cost(v):
            lowers = sum(1 for c in constraints if c.coeffs[v] > 0)
            uppers = sum(1 for c in constraints if c.coeffs[v] < 0)
            return (lowers * uppers, v)

        var = min(remaining, key=cost)
        remaining.remove(var)
        lowers = [c for c in constraints if c.coeffs[var] > 0]
        uppers = [c for c in constraints if c.coeffs[var] < 0]
        keep = [c for c in constraints if c.coeffs[var] == 0]
        stages.append((var, lowers + uppers))

        fresh: dict[tuple, _Constraint] = {}
        for c in keep:
            fresh.setdefault(c.key(), c)
        # Imbert's bound: after eliminating s variables, any irredundant
        # consequence descends from at most s + 1 initial inequalities
        max_history = len(stages) + 1
        for lo in lowers:
            for up in uppers:
                if len(lo.history | up.history) > max_history:
                    continue
                c = _combine(lo, up, var)
                if all(v == 0 for v in c.coeffs):
                    if c.const < 0:
                        return finish(c)
                    continue
                previous = fresh.get(c.key())
                if previous is None or len(c.history) < len(previous.history):
                    fresh[c.key()] = c
        constraints = list(fresh.values())
        if len(constraints) > FM_MAX_CONSTRAINTS:
            raise PureILError("elimination exceeded the constraint cap")

    for c in constraints:
        if c.const < 0:
            return finish(c)

    # assign free coordinates in reverse elimination order: each one carries
    # its own nonnegativity constraint, so a largest lower bound exists
    assignment: dict[int, Fraction] = {}
    for var, involved in reversed(stages):
        best: Fraction | None = None
        upper: Fraction | None = None
        for c in involved:
            rest = c.const + sum(
                c.coeffs[v] * value for v, value in assignment.items() if c.coeffs[v] != 0
            )
            bound = -rest / c.coeffs[var]
            if c.coeffs[var] > 0:
                best = bound if best is None or bound > best else best
            else:
                upper = bound if upper is None or bound < upper else upper
        value = best if best is not None else (upper if upper is not None else ZERO)
        assignment[var] = value

    solution = [ZERO] * unknowns
    for col, f in free_index.items():
        solution[col] = assignment.get(f, ZERO)
    for row, col in pivots:
        solution[col] = aug[row][unknowns] - sum(
            aug[row][c] * solution[c] for c in free_cols if aug[row][c] != 0
        )
    return "feasible", solution


def fraction_phase1_simplex(matrix, C, r):
    """Full-tableau phase 1 with Bland's rule.

    Minimizes the sum of artificial variables for M D + s = C, D, s >= 0
    (rows flipped so the right-hand side is nonnegative).  Returns
    ('feasible', D) or ('infeasible', y).
    """
    q = len(C) - 1
    unknowns = r + 1
    nrows = q + 1
    ncols = unknowns + nrows  # D columns then artificial columns
    flips = [-1 if C[i] < 0 else 1 for i in range(nrows)]
    tableau = []
    for i in range(nrows):
        row = [flips[i] * v for v in matrix[i]] + [ZERO] * nrows + [flips[i] * C[i]]
        row[unknowns + i] = ONE
        tableau.append(row)
    basis = [unknowns + i for i in range(nrows)]
    cost = [ZERO] * unknowns + [ONE] * nrows

    def column_prices():
        """z_j = cost of the basic representation of each column."""
        z = [ZERO] * (ncols + 1)
        for i, b in enumerate(basis):
            if cost[b] != 0:
                for j in range(ncols + 1):
                    z[j] += cost[b] * tableau[i][j]
        return z

    while True:
        z = column_prices()
        entering = next((j for j in range(ncols) if cost[j] - z[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best_ratio = None
        for i in range(nrows):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving is None:
            raise PureILError("phase-1 objective unbounded; system is malformed")
        factor = tableau[leaving][entering]
        tableau[leaving] = [v / factor for v in tableau[leaving]]
        for i in range(nrows):
            if i != leaving and tableau[i][entering] != 0:
                f = tableau[i][entering]
                tableau[i] = [v - f * p for v, p in zip(tableau[i], tableau[leaving])]
        basis[leaving] = entering

    z = column_prices()
    objective = z[ncols]
    if objective == 0:
        solution = [ZERO] * unknowns
        for i, b in enumerate(basis):
            if b < unknowns:
                solution[b] = tableau[i][-1]
        return "feasible", solution
    # dual prices off the artificial columns certify infeasibility
    y = [z[unknowns + t] for t in range(nrows)]
    return "infeasible", tuple(flips[i] * y[i] for i in range(nrows))
