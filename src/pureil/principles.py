"""Exhaustive exact checkers for the symmetry and irrelevance principles.

Each checker sweeps every instance inside the stated constant bound, in a
fixed canonical order (constant count ascending, descriptions lexicographic,
permutations lexicographic in one-line notation), and reports either a pass
or the first counterexample.  A pass means no counterexample exists in the
window: checkers refuse to run at all (raising ``CapExceededError``) rather
than silently truncate the sweep.

Checked principles:

* ``ex``          -- invariance under constant permutations;
* ``px``          -- invariance under predicate permutations;
* ``ip``          -- factorization over constant-disjoint descriptions;
* ``wip``         -- factorization over descriptions sharing neither
                     constants nor predicates;
* ``additivity``  -- one-constant extensions sum back to the base value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import CapExceededError, LevelMismatchError, PureILError
from .language import (
    StateDescription,
    all_pred_permutations,
    all_state_descriptions,
    apply_const_perm,
    apply_pred_perm,
    enumerate_atoms,
    matching_atoms,
)

DEFAULT_WORK_CAP = 5_000_000


@dataclass(frozen=True)
class Witness:
    inputs: tuple[tuple[str, object], ...]
    lhs: Fraction
    rhs: Fraction

    def as_dict(self) -> dict:
        return dict(self.inputs)


@dataclass(frozen=True)
class CheckReport:
    principle: str
    bound: int
    outcome: str  # "pass" | "fail"
    witness: Witness | None

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"


def _report(principle: str, bound: int, witness: Witness | None) -> CheckReport:
    return CheckReport(principle, bound, "fail" if witness else "pass", witness)


def _guard(principle: str, units: int, cap: int):
    if units > cap:
        raise CapExceededError(
            f"{principle} sweep needs {units} evaluations, cap is {cap}"
        )


def check_px(w, n_max: int, work_cap: int = DEFAULT_WORK_CAP) -> CheckReport:
    """Predicate exchangeability on all descriptions with up to n_max constants."""
    if n_max < 1:
        raise PureILError("bound must be at least 1")
    q = w.q
    units = factorial(q) * sum((2 ** q) ** n for n in range(1, n_max + 1))
    _guard("Px", units, work_cap)
    for n in range(1, n_max + 1):
        for theta in all_state_descriptions(q, n):
            value = w.eval_sd(theta)
            for sigma in all_pred_permutations(q):
                moved = w.eval_sd(apply_pred_perm(sigma, theta))
                if moved != value:
                    witness = Witness(
                        (("theta", theta.h), ("sigma", sigma.mapping)),
                        value,
                        moved,
                    )
                    return _report("Px", n_max, witness)
    return _report("Px", n_max, None)


def check_ex(w, n_max: int, work_cap: int = DEFAULT_WORK_CAP) -> CheckReport:
    """Constant exchangeability on all descriptions with up to n_max constants."""
    if n_max < 1:
        raise PureILError("bound must be at least 1")
    q = w.q
    units = sum((2 ** q) ** n * factorial(n) for n in range(1, n_max + 1))
    _guard("Ex", units, work_cap)
    for n in range(1, n_max + 1):
        for theta in all_state_descriptions(q, n):
            value = w.eval_sd(theta)
            for images in itertools.permutations(range(1, n + 1)):
                moved = w.eval_sd(apply_const_perm(images, theta))
                if moved != value:
                    witness = Witness(
                        (("theta", theta.h), ("tau", images)), value, moved
                    )
                    return _report("Ex", n_max, witness)
    return _report("Ex", n_max, None)


def check_ip(w, n_max: int, work_cap: int = DEFAULT_WORK_CAP) -> CheckReport:
    """Factorization over all description pairs on disjoint constant blocks
    with total length up to n_max."""
    if n_max < 2:
        raise PureILError("bound must be at least 2 for a pair")
    q = w.q
    units = sum(
        (2 ** q) ** total * (total - 1) for total in range(2, n_max + 1)
    )
    _guard("IP", units, work_cap)
    for total in range(2, n_max + 1):
        for m in range(1, total):
            n = total - m
            for theta in all_state_descriptions(q, m):
                left = w.eval_sd(theta)
                for phi in all_state_descriptions(q, n):
                    joint = w.eval_sd(StateDescription(q, theta.h + phi.h))
                    split = left * w.eval_sd(phi)
                    if joint != split:
                        witness = Witness(
                            (("theta", theta.h), ("phi", phi.h)), joint, split
                        )
                        return _report("IP", n_max, witness)
    return _report("IP", n_max, None)


def eval_partial(w, patterns) -> Fraction:
    """Value of a partially described window: the probability that each
    constant's atom carries its pattern's signs.

    `patterns` lists, per constant, the fixed (predicate, sign) pairs; the
    other predicates range freely.
    """
    return w.eval_cells([matching_atoms(w.q, pattern) for pattern in patterns])


def check_wip(w, p: int, r: int, n_max: int, work_cap: int = DEFAULT_WORK_CAP) -> CheckReport:
    """Factorization over pairs on disjoint predicate and constant blocks.

    `w` is the level-(p+r) member of the family: the first block's
    descriptions use predicates 1..p, the second block's use p+1..p+r, and
    both sides of the identity are evaluated through `w` by marginal sums.
    """
    if p < 1 or r < 1:
        raise PureILError("both predicate blocks must be nonempty")
    if w.q != p + r:
        raise LevelMismatchError(f"function level {w.q} != {p} + {r}")
    if n_max < 2:
        raise PureILError("bound must be at least 2 for a pair")
    left_atoms = enumerate_atoms(p).atoms
    right_atoms = enumerate_atoms(r).atoms
    units = 0
    for total in range(2, n_max + 1):
        for m in range(1, total):
            n = total - m
            units += (2 ** p) ** m * (2 ** r) ** n * 2 ** (r * m + p * n)
    _guard("WIP", units, work_cap)
    for total in range(2, n_max + 1):
        for m in range(1, total):
            n = total - m
            for theta in all_state_descriptions(p, m):
                theta_patterns = tuple(
                    tuple((k + 1, left_atoms[a - 1][k]) for k in range(p))
                    for a in theta.h
                )
                left = eval_partial(w, theta_patterns)
                for phi in all_state_descriptions(r, n):
                    phi_patterns = tuple(
                        tuple((p + k + 1, right_atoms[a - 1][k]) for k in range(r))
                        for a in phi.h
                    )
                    joint = eval_partial(w, theta_patterns + phi_patterns)
                    split = left * eval_partial(w, phi_patterns)
                    if joint != split:
                        witness = Witness(
                            (
                                ("theta_preds", tuple(range(1, p + 1))),
                                ("theta", theta.h),
                                ("phi_preds", tuple(range(p + 1, p + r + 1))),
                                ("phi", phi.h),
                            ),
                            joint,
                            split,
                        )
                        return _report("WIP", n_max, witness)
    return _report("WIP", n_max, None)


def check_additivity(w, n_max: int, work_cap: int = DEFAULT_WORK_CAP) -> CheckReport:
    """Extending any description by one constant splits its value exactly.

    The base case (no constants) asserts the single-constant values sum to 1.
    """
    if n_max < 1:
        raise PureILError("bound must be at least 1")
    q = w.q
    units = sum((2 ** q) ** (n + 1) for n in range(n_max))
    _guard("Additivity", units, work_cap)
    top = 2 ** q
    for n in range(n_max):
        for theta in all_state_descriptions(q, n):
            value = w.eval_sd(theta)
            refined = sum(
                (w.eval_sd(theta.extend(a)) for a in range(1, top + 1)),
                start=Fraction(0),
            )
            if refined != value:
                witness = Witness((("theta", theta.h),), refined, value)
                return _report("Additivity", n_max, witness)
    return _report("Additivity", n_max, None)
