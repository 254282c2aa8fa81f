from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from pureil import probability
from pureil.errors import CapExceededError, LevelMismatchError, PureILError
from pureil.formulas import And, Implies, Lit, Not, Or, parse_formula
from pureil.language import (
    StateDescription,
    all_pred_permutations,
    all_state_descriptions,
    apply_const_perm,
    apply_pred_perm,
    enumerate_atoms,
)
from pureil.nabla import UpsilonMatrix, nabla
from pureil.principles import eval_partial
from pureil.probability import (
    MixtureFunction,
    ProbabilityFunction,
    ProductFunction,
    SimplexPoint,
    SymmetrizedFunction,
    restrict,
    uniform_point,
)
from reference import (
    completion_eval_partial,
    refinement_restriction,
    sentence_by_descriptions,
)

F = Fraction


def point(*values) -> SimplexPoint:
    vals = [F(v) for v in values]
    q = len(vals).bit_length() - 1
    return SimplexPoint(q, tuple(vals))


def test_simplex_point_validation():
    with pytest.raises(PureILError):
        SimplexPoint(1, (F(1, 2), F(1, 4)))
    with pytest.raises(PureILError):
        SimplexPoint(1, (F(3, 2), F(-1, 2)))
    with pytest.raises(PureILError):
        SimplexPoint(2, (F(1), F(0)))


def test_product_fair_coin():
    w = ProductFunction(point(F(1, 2), F(1, 2)))
    assert w.eval_sd(StateDescription(1, (1, 2))) == F(1, 4)


def test_product_point_mass():
    w = ProductFunction(point(1, 0, 0, 0))
    assert w.eval_sd(StateDescription(2, (1, 1))) == 1


def test_product_uniform_q2():
    w = ProductFunction(uniform_point(2))
    assert w.eval_sd(StateDescription(2, (2, 3, 2))) == F(1, 64)


def test_product_direct():
    w = ProductFunction(point(F(1, 3), F(2, 3)))
    assert w.eval_sd(StateDescription(1, (2, 2))) == F(4, 9)


def test_empty_description_gets_one():
    for w in [
        ProductFunction(point(F(1, 3), F(2, 3))),
        SymmetrizedFunction(point(0, 1, 0, 0)),
    ]:
        assert w.eval_sd(StateDescription(w.q, ())) == 1


def test_level_mismatch():
    w = ProductFunction(point(F(1, 2), F(1, 2)))
    with pytest.raises(LevelMismatchError):
        w.eval_sd(StateDescription(2, (1,)))


def test_symmetrized_fixed_point():
    y = SymmetrizedFunction(point(1, 0, 0, 0))
    w = ProductFunction(point(1, 0, 0, 0))
    for theta in all_state_descriptions(2, 2):
        assert y.eval_sd(theta) == w.eval_sd(theta)
    assert y.eval_sd(StateDescription(2, (1,))) == 1


def test_symmetrized_two_orbit_average():
    # orbit of (0,1,0,0) under the swap is {(0,1,0,0), (0,0,1,0)}
    y = SymmetrizedFunction(point(0, 1, 0, 0))
    assert y.eval_sd(StateDescription(2, (2,))) == F(1, 2)
    assert y.eval_sd(StateDescription(2, (2, 3))) == 0


def test_symmetrized_satisfies_predicate_invariance():
    rng = random.Random(17)
    for q in (2, 3):
        raw = [rng.randint(0, 5) for _ in range(2 ** q)]
        if sum(raw) == 0:
            raw[0] = 1
        c = SimplexPoint(q, tuple(F(v, sum(raw)) for v in raw))
        y = SymmetrizedFunction(c)
        for theta in all_state_descriptions(q, 2):
            for sigma in all_pred_permutations(q):
                assert y.eval_sd(apply_pred_perm(sigma, theta)) == y.eval_sd(theta)


def test_mixture_eval():
    m = MixtureFunction(
        [
            (F(1, 2), ProductFunction(point(1, 0))),
            (F(1, 2), ProductFunction(point(0, 1))),
        ]
    )
    assert m.eval_sd(StateDescription(1, (1,))) == F(1, 2)
    assert m.eval_sd(StateDescription(1, (1, 1))) == F(1, 2)


def test_mixture_validation():
    good = ProductFunction(point(1, 0))
    with pytest.raises(PureILError):
        MixtureFunction([])
    with pytest.raises(PureILError):
        MixtureFunction([(F(1, 2), good)])
    with pytest.raises(LevelMismatchError):
        MixtureFunction([(F(1, 2), good), (F(1, 2), ProductFunction(point(1, 0, 0, 0)))])


def _random_point(rng: random.Random, q: int) -> SimplexPoint:
    raw = [rng.randint(0, 4) for _ in range(2 ** q)]
    raw[rng.randrange(2 ** q)] += 1
    return SimplexPoint(q, tuple(F(v, sum(raw)) for v in raw))


def _random_function(rng: random.Random, q: int, depth: int):
    kind = rng.choice(["product", "symmetrized", "nabla", "mixture" if depth else "product"])
    if kind == "product":
        return ProductFunction(_random_point(rng, q))
    if kind == "symmetrized":
        return SymmetrizedFunction(_random_point(rng, q))
    if kind == "nabla":
        nu = rng.randint(1, 4)
        rows = tuple((tuple(rng.randint(0, 1) for _ in range(nu)), 1) for _ in range(nu))
        return nabla(UpsilonMatrix(nu, rows), q)
    weights = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
    weights[0] += 1
    return MixtureFunction(
        [(F(w, sum(weights)), _random_function(rng, q, depth - 1)) for w in weights]
    )


def _part_sum(w, h: tuple[int, ...]) -> Fraction:
    """Oracle: a mixture's value as the weighted sum of its parts' values."""
    if isinstance(w, MixtureFunction):
        return sum((weight * _part_sum(f, h) for weight, f in w.parts), start=F(0))
    return w.eval_sd(StateDescription(w.q, h))


@pytest.mark.parametrize("seed", range(6))
def test_flattened_mixture_equals_weighted_part_sum(seed):
    rng = random.Random(seed)
    q = rng.randint(1, 3)
    mix = MixtureFunction(
        [(F(1, 3), _random_function(rng, q, 2)), (F(2, 3), _random_function(rng, q, 2))]
    )
    assert mix._table is not None
    for theta in all_state_descriptions(q, 3):
        assert mix.eval_sd(theta) == _part_sum(mix, theta.h)


def test_mixture_with_generic_part_keeps_the_generic_path():
    low = restrict(ProductFunction(uniform_point(3)), 2)
    mix = MixtureFunction([(F(1, 2), low), (F(1, 2), SymmetrizedFunction(point(0, 1, 0, 0)))])
    assert mix._table is None
    for theta in all_state_descriptions(2, 2):
        assert mix.eval_sd(theta) == _part_sum(mix, theta.h)


def _oracle_functions(rng: random.Random, q: int) -> list:
    """A random product mixture, a restriction of one, and a tableless
    mixture with a restricted part, all at level q."""
    lifted = restrict(_random_function(rng, q + 1, 1), q)
    return [
        _random_function(rng, q, 2),
        lifted,
        MixtureFunction([(F(1, 2), lifted), (F(1, 2), _random_function(rng, q, 1))]),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_restriction_matches_refinement_sum(seed):
    rng = random.Random(seed)
    r = rng.randint(2, 4)
    w = _random_function(rng, r, 2)
    for q in range(1, r):
        low = restrict(w, q)
        for n in range(3):
            for theta in all_state_descriptions(q, n):
                assert low.eval_sd(theta) == refinement_restriction(w, q, theta.h)
    twice = restrict(restrict(w, r - 1), 1)
    for theta in all_state_descriptions(1, 3):
        assert twice.eval_sd(theta) == refinement_restriction(w, 1, theta.h)


def _random_sentence(rng: random.Random, q: int, constants: list[int], depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Lit(rng.randint(1, q), rng.choice(constants))
    kind = rng.choice([Not, And, Or, Implies])
    if kind is Not:
        return Not(_random_sentence(rng, q, constants, depth - 1))
    return kind(
        _random_sentence(rng, q, constants, depth - 1),
        _random_sentence(rng, q, constants, depth - 1),
    )


@pytest.mark.parametrize("seed", range(4))
def test_sentence_matches_model_sum(seed):
    rng = random.Random(100 + seed)
    q = rng.randint(1, 3)
    for w in _oracle_functions(rng, q):
        for _ in range(5):
            first, second = sorted(rng.sample(range(1, 5), 2))
            phi = _random_sentence(rng, q, [first, second], 3)
            # wider than the constants phi mentions, and out of order
            window = [second, 5, first]
            expected = sentence_by_descriptions(w, phi, window)
            assert w.eval_sentence(phi, window) == expected
            assert w.eval_sentence(phi) == expected


@pytest.mark.parametrize("seed", range(4))
def test_eval_partial_matches_completion_sum(seed):
    rng = random.Random(200 + seed)
    q = rng.randint(2, 3)
    for w in _oracle_functions(rng, q):
        for _ in range(6):
            patterns = tuple(
                tuple(
                    (pred, rng.randint(0, 1))
                    for pred in sorted(rng.sample(range(1, q + 1), rng.randint(0, q)))
                )
                for _ in range(rng.randint(1, 3))
            )
            assert eval_partial(w, patterns) == completion_eval_partial(w, patterns)


def _first_predicate_marginal(x: SimplexPoint) -> SimplexPoint:
    atoms = enumerate_atoms(x.q).atoms
    return SimplexPoint(
        1, tuple(sum(v for v, eps in zip(x.x, atoms) if eps[0] == bit) for bit in (1, 0))
    )


def test_restriction_past_former_caps_matches_marginal_point():
    # a level drop of 9 on 10 constants: 2^90 refinements per description
    rng = random.Random(41)
    points = []
    for _ in range(2):
        raw = [rng.randint(1, 5) for _ in range(2 ** 10)]
        points.append(SimplexPoint(10, tuple(F(v, sum(raw)) for v in raw)))
    weights = (F(1, 3), F(2, 3))
    w = MixtureFunction([(wt, ProductFunction(x)) for wt, x in zip(weights, points)])
    closed = MixtureFunction(
        [(wt, ProductFunction(_first_predicate_marginal(x))) for wt, x in zip(weights, points)]
    )
    low, tower = restrict(w, 1), restrict(restrict(w, 6), 1)
    for _ in range(5):
        theta = StateDescription(1, tuple(rng.randint(1, 2) for _ in range(10)))
        assert low.eval_sd(theta) == tower.eval_sd(theta) == closed.eval_sd(theta)


class _CountingUniform(ProbabilityFunction):
    """Tableless uniform function that counts its evaluations."""

    tag = "counting"

    def __init__(self, q: int):
        super().__init__(q)
        self.calls = 0

    def _eval(self, h):
        self.calls += 1
        return F(1, 2 ** (self.q * len(h)))


def test_generic_path_refuses_before_evaluating():
    w = _CountingUniform(12)
    with pytest.raises(CapExceededError):
        w.eval_sentence(parse_formula("P1(a1) | P2(a2) | P3(a3)"))
    with pytest.raises(CapExceededError):
        restrict(w, 1).eval_sd(StateDescription(1, (1, 1, 1)))
    with pytest.raises(CapExceededError):
        w.eval_cells([range(1, 4097)] * 2)
    assert w.calls == 0


def test_generic_path_cap_is_on_the_description_count(monkeypatch):
    monkeypatch.setattr(probability, "MAX_COMPLETIONS", 16)
    w = _CountingUniform(2)
    assert w.eval_cells([range(1, 5)] * 2) == 1
    assert w.calls == 16
    with pytest.raises(CapExceededError):
        w.eval_cells([range(1, 5)] * 3)
    assert w.calls == 16


def test_eval_sentence_basics():
    w = ProductFunction(point(F(1, 2), F(1, 2)))
    assert w.eval_sentence(parse_formula("P1(a1) | !P1(a1)")) == 1
    assert w.eval_sentence(parse_formula("P1(a1) & !P1(a1)")) == 0
    assert w.eval_sentence(parse_formula("P1(a1)")) == F(1, 2)


def test_eval_sentence_window_independent():
    w = SymmetrizedFunction(point(0, 1, 0, 0))
    phi = parse_formula("P1(a1) & !P2(a2)")
    assert w.eval_sentence(phi) == w.eval_sentence(phi, [1, 2, 3])
    with pytest.raises(PureILError):
        w.eval_sentence(parse_formula("P3(a1)"))


def test_restrict_uniform_product():
    w = ProductFunction(uniform_point(2))
    low = restrict(w, 1)
    fair = ProductFunction(point(F(1, 2), F(1, 2)))
    for theta in all_state_descriptions(1, 3):
        assert low.eval_sd(theta) == fair.eval_sd(theta)


def test_restrict_point_mass():
    low = restrict(ProductFunction(point(1, 0, 0, 0)), 1)
    target = ProductFunction(point(1, 0))
    for theta in all_state_descriptions(1, 2):
        assert low.eval_sd(theta) == target.eval_sd(theta)


def test_restrict_identity_level():
    w = ProductFunction(point(F(1, 3), F(2, 3)))
    assert restrict(w, 1) is w


def test_restrict_product_matches_marginal_closed_form():
    # oracle: the marginal of a product function is the product of the
    # refinement-summed simplex point
    rng = random.Random(5)
    for _ in range(5):
        raw = [rng.randint(0, 4) + 1 for _ in range(8)]
        x = SimplexPoint(3, tuple(F(v, sum(raw)) for v in raw))
        w = ProductFunction(x)
        # group level-3 weights by the first predicate's sign
        table = enumerate_atoms(3)
        tops = tuple(
            sum(x.x[j] for j in range(8) if table.atoms[j][0] == bit) for bit in (1, 0)
        )
        marg = SimplexPoint(1, tops)
        oracle = ProductFunction(marg)
        low = restrict(w, 1)
        for theta in all_state_descriptions(1, 3):
            assert low.eval_sd(theta) == oracle.eval_sd(theta)


def test_restrict_tower_property():
    w = ProductFunction(uniform_point(3))
    via_middle = restrict(restrict(w, 2), 1)
    direct = restrict(w, 1)
    for theta in all_state_descriptions(1, 3):
        assert via_middle.eval_sd(theta) == direct.eval_sd(theta)


def test_restrict_rejects_upward():
    with pytest.raises(PureILError):
        restrict(ProductFunction(point(1, 0)), 2)


def _additivity_holds(w, n_max: int) -> bool:
    top = 2 ** w.q
    for n in range(n_max):
        for theta in all_state_descriptions(w.q, n):
            total = sum(w.eval_sd(theta.extend(a)) for a in range(1, top + 1))
            if total != w.eval_sd(theta):
                return False
    return True


def test_additivity_all_classes():
    funcs = [
        ProductFunction(point(F(1, 3), F(2, 3))),
        SymmetrizedFunction(point(0, 1, 0, 0)),
        MixtureFunction(
            [
                (F(1, 3), ProductFunction(point(1, 0))),
                (F(2, 3), ProductFunction(point(F(1, 4), F(3, 4)))),
            ]
        ),
        restrict(ProductFunction(uniform_point(3)), 2),
    ]
    for w in funcs:
        assert _additivity_holds(w, 3)


def test_constant_exchangeability_all_classes():
    rng = random.Random(29)
    funcs = [
        ProductFunction(point(F(1, 6), F(1, 3), F(1, 4), F(1, 4))),
        SymmetrizedFunction(point(0, F(1, 2), F(1, 2), 0)),
        restrict(ProductFunction(uniform_point(3)), 2),
    ]
    for w in funcs:
        for _ in range(20):
            n = rng.randint(1, 4)
            h = tuple(rng.randint(1, 4) for _ in range(n))
            images = list(range(1, n + 1))
            rng.shuffle(images)
            theta = StateDescription(2, h)
            assert w.eval_sd(apply_const_perm(tuple(images), theta)) == w.eval_sd(theta)


def test_product_constant_irrelevance_factors():
    w = ProductFunction(point(F(1, 6), F(1, 3), F(1, 4), F(1, 4)))
    for h1 in itertools.product((1, 2, 3, 4), repeat=1):
        for h2 in itertools.product((1, 2, 3, 4), repeat=2):
            joint = w.eval_sd(StateDescription(2, h1 + h2))
            split = w.eval_sd(StateDescription(2, h1)) * w.eval_sd(StateDescription(2, h2))
            assert joint == split
