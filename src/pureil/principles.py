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

``px``, ``ex``, ``ip`` and ``additivity`` are one dense integer sweep per
constant count n: ``w.dense(n)`` gives the numerators of all (2^q)^n values
over one denominator, and a predicate or constant permutation is an integer
index array built one position at a time in the same lexicographic order,
so invariance compares ``vals[i]`` with ``vals[perm[i]]``, factorization
cross-multiplies the denominators and additivity sums blocks of 2^q
consecutive entries.  The witness is still the first counterexample in the
canonical order above, and only it is formed as `Fraction`s; on a function
with an integer table the sweep builds no per-description value and writes
no memo entry.  ``wip`` evaluates marginal events through ``eval_cells``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .errors import CapExceededError, LevelMismatchError, PureILError
from .language import (
    all_pred_permutations,
    all_state_descriptions,
    description_at,
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


def _index_array(steps) -> list[int]:
    """Where a rewrite of every description sends it, by lexicographic index.

    steps[s][d] is what atom d+1 at position s (most significant first) adds
    to the image's index; the array is built one position at a time, in the
    order all_state_descriptions lists the descriptions.
    """
    index = [0]
    for step in steps:
        index = [v + add for v in index for add in step]
    return index


def _first_difference(left: list[int], right: list[int]) -> int | None:
    if left == right:
        return None
    return next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)


def _invariance_witness(w, n_max: int, key: str, rewrites) -> Witness | None:
    """The first description, in canonical order, that some rewrite moves to
    a different value, with the first such rewrite, or None.

    rewrites(n) yields (label, index array) for each rewrite of descriptions
    on n constants, in permutation order.
    """
    for n in range(1, n_max + 1):
        vals, den = w.dense(n)
        found = None
        for label, index in rewrites(n):
            i = _first_difference(vals, list(map(vals.__getitem__, index)))
            if i is not None and (found is None or i < found[0]):
                found = (i, label, index[i])
        if found:
            i, label, j = found
            return Witness(
                (("theta", description_at(w.q, n, i)), (key, label)),
                Fraction(vals[i], den),
                Fraction(vals[j], den),
            )
    return None


def check_px(w, n_max: int, work_cap: int = DEFAULT_WORK_CAP) -> CheckReport:
    """Predicate exchangeability on all descriptions with up to n_max constants."""
    if n_max < 1:
        raise PureILError("bound must be at least 1")
    q = w.q
    units = factorial(q) * sum((2 ** q) ** n for n in range(1, n_max + 1))
    _guard("Px", units, work_cap)
    top = 2 ** q
    maps = [(sigma.mapping, sigma.atom_map()) for sigma in all_pred_permutations(q)]

    def rewrites(n):
        for mapping, amap in maps:
            yield mapping, _index_array(
                [[(amap[d] - 1) * top ** (n - 1 - s) for d in range(top)] for s in range(n)]
            )

    return _report("Px", n_max, _invariance_witness(w, n_max, "sigma", rewrites))


def check_ex(w, n_max: int, work_cap: int = DEFAULT_WORK_CAP) -> CheckReport:
    """Constant exchangeability on all descriptions with up to n_max constants."""
    if n_max < 1:
        raise PureILError("bound must be at least 1")
    q = w.q
    units = sum((2 ** q) ** n * factorial(n) for n in range(1, n_max + 1))
    _guard("Ex", units, work_cap)
    top = 2 ** q

    def rewrites(n):
        # the image's position t holds the atom at position images[t] - 1
        for images in itertools.permutations(range(1, n + 1)):
            yield images, _index_array(
                [[d * top ** (n - 1 - images.index(s + 1)) for d in range(top)] for s in range(n)]
            )

    return _report("Ex", n_max, _invariance_witness(w, n_max, "tau", rewrites))


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
    levels = [w.dense(n) for n in range(n_max + 1)]
    for total in range(2, n_max + 1):
        joint_vals, joint_den = levels[total]
        for m in range(1, total):
            n = total - m
            left_vals, left_den = levels[m]
            right_vals, right_den = levels[n]
            # joint / joint_den == (left / left_den) * (right / right_den)
            g = gcd(left_den * right_den, joint_den)
            joint_scale, split_scale = left_den * right_den // g, joint_den // g
            scaled_joint = [v * joint_scale for v in joint_vals]
            scaled_right = [v * split_scale for v in right_vals]
            width = len(right_vals)
            for a, left in enumerate(left_vals):
                b = _first_difference(
                    scaled_joint[a * width:(a + 1) * width], [left * v for v in scaled_right]
                )
                if b is not None:
                    witness = Witness(
                        (("theta", description_at(q, m, a)), ("phi", description_at(q, n, b))),
                        Fraction(joint_vals[a * width + b], joint_den),
                        Fraction(left, left_den) * Fraction(right_vals[b], right_den),
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
    vals, den = w.dense(0)
    for n in range(n_max):
        ext_vals, ext_den = w.dense(n + 1)
        # each description's extensions are 2^q consecutive entries
        refined = list(map(sum, zip(*[iter(ext_vals)] * top)))
        g = gcd(den, ext_den)
        i = _first_difference(
            [v * (den // g) for v in refined], [v * (ext_den // g) for v in vals]
        )
        if i is not None:
            witness = Witness(
                (("theta", description_at(q, n, i)),),
                Fraction(refined[i], ext_den),
                Fraction(vals[i], den),
            )
            return _report("Additivity", n_max, witness)
        vals, den = ext_vals, ext_den
    return _report("Additivity", n_max, None)
