"""Exact-rational feasibility certificates for level extension.

Given a compressed level-q vector C, decide whether some nonnegative level-r
vector D marginalizes down to it, i.e. whether the banded binomial system
M D = C, D >= 0 is solvable.  Both engines are exact and deterministic:

* Fourier-Motzkin elimination (default up to ``FM_MAX_UNKNOWNS`` unknowns),
  substituting the equality rows out first and tracking multipliers so an
  infeasible run yields a separating functional;
* phase-1 simplex with Bland's pivot rule for larger systems.

Both compute in integers.  M is binomial coefficients, and C is scaled by L,
the lcm of its denominators.  Each row of the reduced system, each simplex
tableau row (the reduced-cost row among them) and each elimination constraint
is one integer vector over one positive denominator, divided by their gcd
after every pivot or combination.  Only the returned witness or functional is
formed as exact `Fraction`s (with the final back-substitution of elimination),
and the results are the values the same pivots and eliminations give in
rational arithmetic.

Either way the certificate can be re-verified by substitution: a witness D
satisfies the system, a functional y has y.M <= 0 on every column while
y.C > 0.  `extendable` does so before returning.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import CapExceededError, PureILError
from .invariance import AltNotation, transfer, transfer_matrix

ZERO = Fraction(0)

FM_MAX_UNKNOWNS = 12
MAX_TARGET_LEVEL = 40
# safety valve against pathological intermediate growth
FM_MAX_CONSTRAINTS = 50_000


@dataclass(frozen=True)
class FeasibilityCertificate:
    status: str  # "feasible" | "infeasible"
    q: int
    r: int
    witness: AltNotation | None
    functional: tuple[Fraction, ...] | None
    method: str

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def verify_certificate(C: AltNotation, cert: FeasibilityCertificate) -> bool:
    """Re-check a certificate by direct substitution."""
    if cert.q != C.q:
        return False
    if cert.status == "feasible":
        witness = cert.witness
        if witness is None or witness.q != cert.r:
            return False
        if any(v < 0 for v in witness.C):
            return False
        return transfer(witness, C.q) == C
    y = cert.functional
    if y is None or len(y) != C.q + 1:
        return False
    m = transfer_matrix(C.q, cert.r)
    for k in range(cert.r + 1):
        if sum(y[j] * m[j][k] for j in range(C.q + 1)) > 0:
            return False
    return sum(yj * cj for yj, cj in zip(y, C.C)) > 0


def _reduced(vec: list[int], den: int) -> tuple[list[int], int]:
    """vec / den with the common factor of the entries and den divided out."""
    g = gcd(*vec, den)
    if g == 1:
        return vec, den
    return [v // g for v in vec], den // g


def _pivot(rows: list[list[int]], dens: list[int], at: int, col: int) -> None:
    """Divide row `at` by its entry in `col` and eliminate `col` from every
    other row; row i stands for rows[i] / dens[i]."""
    pivot = rows[at]
    if pivot[col] < 0:
        pivot = [-v for v in pivot]
    # the divided row is the row over its own pivot entry
    pivot, p = _reduced(pivot, pivot[col])
    rows[at], dens[at] = pivot, p
    for i, row in enumerate(rows):
        f = row[col]
        if i != at and f != 0:
            rows[i], dens[i] = _reduced([v * p - f * w for v, w in zip(row, pivot)], dens[i] * p)


def _scaled(C) -> tuple[list[int], int]:
    """C as integers L * C, with L the lcm of its denominators."""
    scale = lcm(*(c.denominator for c in C))
    return [c.numerator * (scale // c.denominator) for c in C], scale


class _Constraint:
    """a . D_free + b >= 0 with the multipliers of the equality rows, stored as
    one integer vector `vec` = (a | b | eq_mults) over a positive `den`.

    `eq_mults` (any sign) range over the reduced equality rows and give the
    separating functional when the constraint turns out contradictory.
    `history` is a bitmask of the initial nonnegativity rows D_k >= 0 the
    constraint descends from (with positive multipliers), for Imbert's
    redundancy bound.  `key` is `_primitive(a | b)`.
    """

    __slots__ = ("vec", "den", "history", "key")

    def __init__(self, vec, den, history, key):
        self.vec = vec
        self.den = den
        self.history = history
        self.key = key


def _primitive(head: list[int]) -> tuple[int, ...]:
    """head divided by the gcd of its entries: equal for two vectors exactly
    when one is a positive multiple of the other."""
    g = gcd(*head)
    return tuple(v // g for v in head) if g > 1 else tuple(head)


def _check_cap(fresh: dict) -> None:
    # a stage's constraint set only grows, so a stage that would end past the
    # cap is refused at its first insert past it
    if len(fresh) > FM_MAX_CONSTRAINTS:
        raise CapExceededError(f"elimination exceeded the cap of {FM_MAX_CONSTRAINTS} constraints")


def _fourier_motzkin(matrix, C, r):
    """Returns ('feasible', D) or ('infeasible', y).

    The equality rows are substituted out first (they are few and exact),
    so elimination only ever runs on the rewritten nonnegativity system
    over the free coordinates.  `matrix` holds integers.
    """
    q = len(C) - 1
    unknowns = r + 1
    C_int, scale = _scaled(C)

    # row-reduce [M | L C | I], tracking the transform back to the original
    # rows; row i is the integer vector aug[i] over dens[i]
    aug = [
        list(matrix[i]) + [C_int[i]] + [1 if t == i else 0 for t in range(q + 1)]
        for i in range(q + 1)
    ]
    dens = [1] * (q + 1)
    pivots: list[tuple[int, int]] = []  # (reduced row, pivot column)
    row_at = 0
    for col in range(unknowns):
        pivot_row = next((i for i in range(row_at, q + 1) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[row_at], aug[pivot_row] = aug[pivot_row], aug[row_at]
        dens[row_at], dens[pivot_row] = dens[pivot_row], dens[row_at]
        _pivot(aug, dens, row_at, col)
        pivots.append((row_at, col))
        row_at += 1
        if row_at > q:
            break

    def original_functional(eq_mults, den) -> tuple[Fraction, ...]:
        """sum_i (eq_mults[i] / den) * (row i of the transform)."""
        return tuple(
            sum(
                (Fraction(eq_mults[i] * aug[i][unknowns + 1 + j], den * dens[i]) for i in range(q + 1)),
                start=ZERO,
            )
            for j in range(q + 1)
        )

    # an inconsistent zero row certifies infeasibility on its own
    for i in range(row_at, q + 1):
        if aug[i][unknowns] != 0:
            sign = 1 if aug[i][unknowns] > 0 else -1
            return "infeasible", original_functional(
                [sign if t == i else 0 for t in range(q + 1)], 1
            )

    pivot_col_of = dict((col, row) for row, col in pivots)
    free_cols = [k for k in range(unknowns) if k not in pivot_col_of]
    nfree = len(free_cols)
    width = nfree + 1  # coefficients and constant

    constraints: list[_Constraint] = []
    for k in range(unknowns):
        if k in pivot_col_of:
            i = pivot_col_of[k]
            row = aug[i]
            vec = [-row[col] for col in free_cols] + [row[unknowns]]
            vec += [-dens[i] if t == i else 0 for t in range(q + 1)]
            vec, den = _reduced(vec, dens[i])
        else:
            vec = [1 if col == k else 0 for col in free_cols] + [0] * (q + 2)
            den = 1
        constraints.append(_Constraint(vec, den, 1 << k, _primitive(vec[:width])))

    def finish(c: _Constraint):
        return "infeasible", original_functional(c.vec[width:], c.den)

    for c in constraints:
        if not any(c.vec[:nfree]) and c.vec[nfree] < 0:
            return finish(c)

    stages: list[tuple[int, list[_Constraint]]] = []
    remaining = list(range(nfree))
    while remaining:
        # deterministic minimum-product elimination order
        def cost(v):
            lowers = sum(1 for c in constraints if c.vec[v] > 0)
            uppers = sum(1 for c in constraints if c.vec[v] < 0)
            return (lowers * uppers, v)

        var = min(remaining, key=cost)
        remaining.remove(var)
        lowers = [c for c in constraints if c.vec[var] > 0]
        uppers = [c for c in constraints if c.vec[var] < 0]
        keep = [c for c in constraints if c.vec[var] == 0]
        stages.append((var, lowers + uppers))

        fresh: dict[tuple, _Constraint] = {}
        for c in keep:
            fresh.setdefault(c.key, c)
        _check_cap(fresh)
        # Imbert's bound: after eliminating s variables, any irredundant
        # consequence descends from at most s + 1 initial inequalities
        max_history = len(stages) + 1
        for lo in lowers:
            a = lo.vec[var]
            for up in uppers:
                history = lo.history | up.history
                if history.bit_count() > max_history:
                    continue
                # a * up + b * lo cancels the variable; both factors are positive
                b = -up.vec[var]
                vec = [a * y + b * x for x, y in zip(lo.vec, up.vec)]
                if not any(vec[:nfree]):
                    if vec[nfree] < 0:
                        return "infeasible", original_functional(vec[width:], lo.den * up.den)
                    continue
                key = _primitive(vec[:width])
                previous = fresh.get(key)
                if previous is not None and history.bit_count() >= previous.history.bit_count():
                    continue
                vec, den = _reduced(vec, lo.den * up.den)
                fresh[key] = _Constraint(vec, den, history, key)
                _check_cap(fresh)
        constraints = list(fresh.values())

    for c in constraints:
        if c.vec[nfree] < 0:
            return finish(c)

    # assign free coordinates in reverse elimination order: each one carries
    # its own nonnegativity constraint, so a largest lower bound exists.
    # Bounds are in units of 1/L, like the constants; each constraint's
    # denominator cancels from its bound.
    assignment: dict[int, Fraction] = {}
    for var, involved in reversed(stages):
        best: Fraction | None = None
        upper: Fraction | None = None
        for c in involved:
            vec = c.vec
            rest = vec[nfree] + sum(vec[v] * value for v, value in assignment.items() if vec[v] != 0)
            bound = Fraction(-rest) / vec[var]
            if vec[var] > 0:
                best = bound if best is None or bound > best else best
            else:
                upper = bound if upper is None or bound < upper else upper
        value = best if best is not None else (upper if upper is not None else ZERO)
        assignment[var] = value

    solution = [ZERO] * unknowns
    for f, col in enumerate(free_cols):
        solution[col] = assignment.get(f, ZERO)
    for row, col in pivots:
        solution[col] = Fraction(
            aug[row][unknowns] - sum(aug[row][c] * solution[c] for c in free_cols if aug[row][c] != 0),
            dens[row],
        )
    return "feasible", [v / scale for v in solution]


def _phase1_simplex(matrix, C, r):
    """Full-tableau phase 1 with Bland's rule.

    Minimizes the sum of artificial variables for M D + s = C, D, s >= 0
    (rows flipped so the right-hand side is nonnegative).  Returns
    ('feasible', D) or ('infeasible', y).  `matrix` holds integers and the
    right-hand side is scaled by L, the lcm of C's denominators.
    """
    q = len(C) - 1
    unknowns = r + 1
    nrows = q + 1
    ncols = unknowns + nrows  # D columns then artificial columns
    C_int, scale = _scaled(C)
    flips = [-1 if C_int[i] < 0 else 1 for i in range(nrows)]
    tableau = []
    for i in range(nrows):
        row = [flips[i] * v for v in matrix[i]] + [0] * nrows + [flips[i] * C_int[i]]
        row[unknowns + i] = 1
        tableau.append(row)
    # one more row, pivoted with the others: the reduced costs cost_j - z_j,
    # and minus the objective in the last column.  With every artificial
    # basic at cost 1, z_j starts as the column sum.
    cost = [0] * unknowns + [1] * nrows + [0]
    tableau.append([c - sum(column) for c, column in zip(cost, zip(*tableau))])
    reduced = tableau[nrows]
    dens = [1] * (nrows + 1)
    basis = [unknowns + i for i in range(nrows)]

    while True:
        entering = next((j for j in range(ncols) if reduced[j] < 0), None)
        if entering is None:
            break
        # each ratio rhs / coeff is the quotient of the row's own numerators
        leaving = None
        for i in range(nrows):
            coeff = tableau[i][entering]
            if coeff > 0:
                rhs = tableau[i][-1]
                if leaving is None:
                    leaving, best_rhs, best_coeff = i, rhs, coeff
                    continue
                lhs, rhs_best = rhs * best_coeff, best_rhs * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leaving]):
                    leaving, best_rhs, best_coeff = i, rhs, coeff
        if leaving is None:
            raise PureILError("phase-1 objective unbounded; system is malformed")
        _pivot(tableau, dens, leaving, entering)
        reduced = tableau[nrows]
        basis[leaving] = entering

    if reduced[ncols] == 0:
        solution = [ZERO] * unknowns
        for i, b in enumerate(basis):
            if b < unknowns:
                solution[b] = Fraction(tableau[i][-1], dens[i] * scale)
        return "feasible", solution
    # dual prices z = cost - reduced cost off the artificial columns certify
    # infeasibility
    return "infeasible", tuple(
        flips[t] * Fraction(dens[nrows] - reduced[unknowns + t], dens[nrows]) for t in range(nrows)
    )


def extendable(C: AltNotation, r: int, method: str | None = None) -> FeasibilityCertificate:
    """Decide whether C extends to level r with nonnegative coordinates.

    `method` may force "fourier-motzkin" or "simplex"; by default elimination
    is used up to FM_MAX_UNKNOWNS unknowns and simplex beyond.
    """
    q = C.q
    if r < q:
        raise PureILError(f"extension level {r} below {q}")
    if r > MAX_TARGET_LEVEL:
        raise PureILError(f"extension level {r} exceeds cap {MAX_TARGET_LEVEL}")
    if method is None:
        method = "fourier-motzkin" if r + 1 <= FM_MAX_UNKNOWNS else "simplex"
    if method not in ("fourier-motzkin", "simplex"):
        raise PureILError(f"unknown method {method!r}")

    matrix = [[v.numerator for v in row] for row in transfer_matrix(q, r)]
    engine = _fourier_motzkin if method == "fourier-motzkin" else _phase1_simplex
    status, payload = engine(matrix, list(C.C), r)
    if status == "feasible":
        cert = FeasibilityCertificate(
            "feasible", q, r, AltNotation(r, tuple(payload)), None, method
        )
    else:
        cert = FeasibilityCertificate("infeasible", q, r, None, tuple(payload), method)
    if not verify_certificate(C, cert):
        raise PureILError("internal error: certificate failed re-verification")
    return cert
