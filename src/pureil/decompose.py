"""Writing symmetrized functions as scaled differences of invariant ones.

For a level-q simplex point c, the symmetrized function y_c equals
(1 + lambda) * w1 - lambda * w2 where w1, w2 are convex combinations of
row-sampling (`nabla`) functions, hence invariant across language levels.
The recipe:

* index everything by the composition set K (q-part vectors summing to q);
* pick one frequency vector per composition, p_m proportional to m_s^g with
  the smallest exponent g making the monomial matrix A[m][n] = prod
  p_{m,s}^{n_s} regular (0^0 = 1);
* each p_m seeds an averaged row-pick function of the matrix built from c;
  inverting A on the row for (1,...,1) expresses q! * y_c as a signed
  combination of those, and collecting signs gives the two convex parts.

The scale lambda depends only on q (through the fixed p-vectors), never
on c.  Every decomposition is re-verified on a grid of state descriptions
before being returned (the dense integer vectors of both sides, up to
verify_n constants); failure to verify is an internal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .errors import PureILError
from .linalg import exact_inverse_row
from .nabla import (
    CompositionSet,
    FrequencyVector,
    NablaFunction,
    build_phi,
    build_upsilon,
    compositions,
    nabla,
)
from .probability import (
    MixtureFunction,
    ProbabilityFunction,
    SimplexPoint,
    SymmetrizedFunction,
)
from .language import description_at

ZERO = Fraction(0)
ONE = Fraction(1)

DEFAULT_G_CEILING = 24


@dataclass(frozen=True)
class MonomialMatrix:
    """The regular composition-indexed system and its solved top row."""

    q: int
    K: CompositionSet
    p_vectors: tuple[FrequencyVector, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    g: int
    det: Fraction
    b_row: tuple[Fraction, ...]  # row of the inverse at composition (1,...,1)
    lam: Fraction


@dataclass(frozen=True)
class Decomposition:
    q: int
    lam: Fraction
    w1: ProbabilityFunction
    w2: ProbabilityFunction
    p_vectors: tuple[FrequencyVector, ...]
    nu: int
    g: int
    verified_n: int


def _monomial_entries(K: CompositionSet, p_vectors) -> tuple[tuple[Fraction, ...], ...]:
    rows = []
    for p in p_vectors:
        rows.append(
            tuple(
                _monomial(p.p, n) for n in K.elements
            )
        )
    return tuple(rows)


def _monomial(p: tuple[Fraction, ...], n: tuple[int, ...]) -> Fraction:
    value = ONE
    for base, exp in zip(p, n):
        value *= base ** exp  # Fraction(0) ** 0 == 1
    return value


# One entry per (q, g_ceiling) in use; compositions() caps q at 5.
@lru_cache(maxsize=32)
def choose_p_vectors(K: CompositionSet, g_ceiling: int = DEFAULT_G_CEILING) -> MonomialMatrix:
    """Frequency vectors making the monomial matrix regular, at minimal g.

    Memoized: equal arguments return the same (immutable) system.
    """
    q = K.q
    unit_index = K.elements.index((1,) * q)
    for g in range(1, g_ceiling + 1):
        p_vectors = []
        for m in K.elements:
            powered = [Fraction(v) ** g for v in m]
            total = sum(powered)
            p_vectors.append(FrequencyVector(tuple(v / total for v in powered)))
        entries = _monomial_entries(K, p_vectors)
        det, b_row = exact_inverse_row(entries, unit_index)
        if b_row is not None:
            lam = sum((-b for b in b_row if b < 0), start=ZERO) / factorial(q)
            return MonomialMatrix(q, K, tuple(p_vectors), entries, g, det, tuple(b_row), lam)
    raise PureILError(f"no regular monomial matrix found with exponent up to {g_ceiling}")


def _common_scale(c: SimplexPoint, p_vectors) -> int:
    denominators = [v.denominator for v in c.x]
    for p in p_vectors:
        denominators.extend(v.denominator for v in p.p)
    return lcm(*denominators)


def _verify_identity(target, lam, w1, w2, verify_n: int, q: int):
    """target == (1 + lam) * w1 - lam * w2 on every description with up to
    verify_n constants, compared as cross-multiplied integer numerators."""
    ln, ld = lam.numerator, lam.denominator
    for n in range(verify_n + 1):
        t_vals, t_den = target.dense(n)
        a_vals, a_den = w1.dense(n)
        b_vals, b_den = (a_vals, a_den) if w2 is w1 else w2.dense(n)
        # t / t_den == (ld + ln) / ld * a / a_den - ln / ld * b / b_den,
        # times ld * t_den * a_den * b_den
        scales = (ld * a_den * b_den, (ld + ln) * t_den * b_den, ln * t_den * a_den)
        g = gcd(*scales)
        t_scale, a_scale, b_scale = (s // g for s in scales)
        lhs = [v * t_scale for v in t_vals]
        rhs = [a * a_scale - b * b_scale for a, b in zip(a_vals, b_vals)]
        if lhs != rhs:
            i = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            left = Fraction(t_vals[i], t_den)
            right = (1 + lam) * Fraction(a_vals[i], a_den) - lam * Fraction(b_vals[i], b_den)
            raise PureILError(
                "internal error: decomposition identity fails at "
                f"{description_at(q, n, i)}: {left} != {right}"
            )


def decompose_y(c: SimplexPoint, verify_n: int = 3,
                g_ceiling: int = DEFAULT_G_CEILING) -> Decomposition:
    """Decompose the symmetrization of `c` into invariant parts.

    The matrix scale nu is the least common multiple of all denominators in
    c and in the chosen frequency vectors, so every row count is an integer.
    """
    q = c.q
    system = choose_p_vectors(compositions(q), g_ceiling)
    nu = _common_scale(c, system.p_vectors)
    phi = build_phi(c, nu)
    averaged: list[NablaFunction] = [
        nabla(build_upsilon(phi, p, nu), q) for p in system.p_vectors
    ]
    positive = [(b, f) for b, f in zip(system.b_row, averaged) if b > 0]
    negative = [(-b, f) for b, f in zip(system.b_row, averaged) if b < 0]
    scale = factorial(q)
    gamma = sum((b for b, _ in positive), start=ZERO) / scale
    lam = sum((b for b, _ in negative), start=ZERO) / scale
    if gamma - lam != 1 or lam != system.lam:
        raise PureILError("internal error: sign split does not carry unit mass")
    w1 = MixtureFunction([(b / (scale * gamma), f) for b, f in positive])
    if negative:
        w2 = MixtureFunction([(b / (scale * lam), f) for b, f in negative])
    else:
        # lambda = 0: the identity holds with any second part; reuse the first
        w2 = w1
    _verify_identity(SymmetrizedFunction(c), lam, w1, w2, verify_n, q)
    return Decomposition(q, lam, w1, w2, system.p_vectors, nu, system.g, verify_n)


def decompose_px(w, verify_n: int = 3, g_ceiling: int = DEFAULT_G_CEILING) -> Decomposition:
    """Decompose a finite mixture of symmetrized functions componentwise.

    Every component is decomposed with the same frequency vectors, hence the
    same lambda; the parts combine linearly under the mixture weights.
    """
    if isinstance(w, SymmetrizedFunction):
        w = MixtureFunction([(ONE, w)])
    if not isinstance(w, MixtureFunction):
        raise PureILError("need a mixture of symmetrized functions")
    if not all(isinstance(f, SymmetrizedFunction) for _, f in w.parts):
        raise PureILError("every mixture component must be a symmetrized function")
    q = w.q
    pieces = [(weight, decompose_y(f.c, verify_n, g_ceiling)) for weight, f in w.parts]
    lam = pieces[0][1].lam
    w1 = MixtureFunction([(weight, d.w1) for weight, d in pieces])
    w2 = MixtureFunction([(weight, d.w2) for weight, d in pieces])
    _verify_identity(w, lam, w1, w2, verify_n, q)
    first = pieces[0][1]
    nu = lcm(*(d.nu for _, d in pieces))
    return Decomposition(q, lam, w1, w2, first.p_vectors, nu, first.g, verify_n)
