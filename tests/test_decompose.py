from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pureil.decompose import (
    Decomposition,
    _verify_identity,
    choose_p_vectors,
    decompose_px,
    decompose_y,
)
from pureil.errors import PureILError
from pureil.language import all_state_descriptions
from pureil.linalg import exact_det
from pureil.nabla import (
    FrequencyVector,
    build_phi,
    build_upsilon,
    compositions,
    nabla,
)
from pureil.principles import check_additivity, check_px
from pureil.probability import (
    MixtureFunction,
    ProductFunction,
    SimplexPoint,
    SymmetrizedFunction,
    restrict,
    uniform_point,
)
from reference import (
    Tableless,
    grid_verify_identity,
    nabla_expansion,
    permutation_expansion_det,
)

F = Fraction


def simplex(*values) -> SimplexPoint:
    vals = [F(v) for v in values]
    q = len(vals).bit_length() - 1
    return SimplexPoint(q, tuple(vals))


def random_simplex(rng: random.Random, q: int, denominator: int) -> SimplexPoint:
    raw = [rng.randint(0, denominator) for _ in range(2 ** q)]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return SimplexPoint(q, tuple(F(v, total) for v in raw))


def test_choose_p_vectors_q1():
    system = choose_p_vectors(compositions(1))
    assert system.g == 1
    assert [p.p for p in system.p_vectors] == [(F(1),)]
    assert system.entries == ((F(1),),)
    assert system.lam == 0


def test_choose_p_vectors_q2_matches_hand_computation():
    system = choose_p_vectors(compositions(2))
    assert system.g == 1
    assert [p.p for p in system.p_vectors] == [
        (F(1), F(0)),
        (F(1, 2), F(1, 2)),
        (F(0), F(1)),
    ]
    assert system.entries == (
        (F(1), F(0), F(0)),
        (F(1, 4), F(1, 4), F(1, 4)),
        (F(0), F(0), F(1)),
    )
    assert system.det == F(1, 4)
    assert system.b_row == (F(-1), F(4), F(-1))
    assert system.lam == 1


def test_choose_p_vectors_q3_regular_and_cross_checked():
    system = choose_p_vectors(compositions(3))
    assert system.g >= 1
    matrix = [list(row) for row in system.entries]
    assert exact_det(matrix) == system.det != 0
    # independent determinant route: permuted rows flip the sign predictably
    n = len(matrix)
    swaps = (n // 2) % 2
    assert exact_det(list(reversed(matrix))) == (-1) ** swaps * system.det


def test_choose_p_vectors_is_memoized():
    first = choose_p_vectors(compositions(3))
    assert choose_p_vectors(compositions(3)) is first
    assert choose_p_vectors(compositions(3), 5) is not first


def test_q2_determinant_against_permutation_expansion():
    system = choose_p_vectors(compositions(2))
    assert permutation_expansion_det([list(r) for r in system.entries]) == system.det


def test_decompose_q1_trivial():
    for c in [simplex(F(1, 3), F(2, 3)), simplex(1, 0)]:
        d = decompose_y(c, verify_n=3)
        assert d.lam == 0
        target = ProductFunction(c)
        for theta in all_state_descriptions(1, 3):
            assert d.w1.eval_sd(theta) == target.eval_sd(theta)


def test_decompose_q2_worked_case():
    c = simplex(0, 1, 0, 0)
    d = decompose_y(c, verify_n=3)
    assert d.lam == 1
    assert d.g == 1
    assert d.nu == 2
    # w1 is the balanced-frequency averaged function
    phi = build_phi(c, 2)
    w1_expected = nabla(build_upsilon(phi, FrequencyVector((F(1, 2), F(1, 2))), 2), 2)
    w2_expected = MixtureFunction(
        [
            (F(1, 2), nabla(build_upsilon(phi, FrequencyVector((F(1), F(0))), 2), 2)),
            (F(1, 2), nabla(build_upsilon(phi, FrequencyVector((F(0), F(1))), 2), 2)),
        ]
    )
    y = SymmetrizedFunction(c)
    for theta in all_state_descriptions(2, 3):
        assert d.w1.eval_sd(theta) == w1_expected.eval_sd(theta)
        assert d.w2.eval_sd(theta) == w2_expected.eval_sd(theta)
        assert y.eval_sd(theta) == 2 * d.w1.eval_sd(theta) - d.w2.eval_sd(theta)


def test_decompose_q2_point_mass_same_lambda():
    d = decompose_y(simplex(1, 0, 0, 0), verify_n=3)
    assert d.lam == 1


def test_lambda_independent_of_c():
    rng = random.Random(67)
    lams = set()
    for _ in range(5):
        c = random_simplex(rng, 2, 6)
        lams.add(decompose_y(c, verify_n=2).lam)
    assert len(lams) == 1


def test_decompose_q3_random():
    rng = random.Random(71)
    c = random_simplex(rng, 3, 8)
    d = decompose_y(c, verify_n=2)
    assert d.lam == decompose_y(uniform_point(3), verify_n=0).lam
    y = SymmetrizedFunction(c)
    for theta in all_state_descriptions(3, 2):
        lhs = y.eval_sd(theta)
        rhs = (1 + d.lam) * d.w1.eval_sd(theta) - d.lam * d.w2.eval_sd(theta)
        assert lhs == rhs


def test_parts_are_probability_functions():
    d = decompose_y(simplex(0, 1, 0, 0), verify_n=2)
    for part in (d.w1, d.w2):
        assert check_additivity(part, 3).passed
        assert check_px(part, 3).passed


def test_parts_restrict_coherently():
    # both parts are mixtures of matrix-sampling functions, so they agree
    # with their own lower-level counterparts
    c = simplex(0, 1, 0, 0)
    d = decompose_y(c, verify_n=2)
    for part in (d.w1, d.w2):
        low_parts = []
        for weight, f in part.parts:
            low_parts.append((weight, nabla(f.upsilon, 1)))
        low = MixtureFunction(low_parts)
        dropped = restrict(part, 1)
        for theta in all_state_descriptions(1, 3):
            assert dropped.eval_sd(theta) == low.eval_sd(theta)


def test_solve_inputs_match_expansion_route():
    # the averaged functions entering the solve agree with their mixture
    # expansions, an independent computation path
    c = simplex(0, 1, 0, 0)
    d = decompose_y(c, verify_n=1)
    phi = build_phi(c, d.nu)
    for p in d.p_vectors:
        direct = nabla(build_upsilon(phi, p, d.nu), 2)
        expanded = nabla_expansion(c, p, d.nu)
        for theta in all_state_descriptions(2, 3):
            assert direct.eval_sd(theta) == expanded.eval_sd(theta)


def test_decompose_px_single_component():
    c = simplex(0, 1, 0, 0)
    via_mixture = decompose_px(MixtureFunction([(F(1), SymmetrizedFunction(c))]), 2)
    direct = decompose_y(c, 2)
    assert via_mixture.lam == direct.lam
    for theta in all_state_descriptions(2, 2):
        assert via_mixture.w1.eval_sd(theta) == direct.w1.eval_sd(theta)


def test_decompose_px_two_components():
    mix = MixtureFunction(
        [
            (F(1, 2), SymmetrizedFunction(simplex(0, 1, 0, 0))),
            (F(1, 2), SymmetrizedFunction(simplex(1, 0, 0, 0))),
        ]
    )
    d = decompose_px(mix, verify_n=3)
    assert d.lam == 1
    for theta in all_state_descriptions(2, 3):
        assert mix.eval_sd(theta) == 2 * d.w1.eval_sd(theta) - d.w2.eval_sd(theta)


def test_decompose_px_accepts_bare_symmetrized():
    d = decompose_px(SymmetrizedFunction(simplex(0, 1, 0, 0)), 1)
    assert isinstance(d, Decomposition)


def test_decompose_px_rejects_other_components():
    mix = MixtureFunction(
        [
            (F(1, 2), ProductFunction(simplex(1, 0, 0, 0))),
            (F(1, 2), SymmetrizedFunction(simplex(0, 1, 0, 0))),
        ]
    )
    with pytest.raises(PureILError):
        decompose_px(mix, 1)


def test_corner_average_is_already_invariant():
    # the uniform average of the four corner products, written as a mixture
    # of symmetrized functions, equals the averaged function of the balanced
    # two-row matrix; its decomposition still verifies
    mix = MixtureFunction(
        [
            (F(1, 4), SymmetrizedFunction(simplex(1, 0, 0, 0))),
            (F(1, 2), SymmetrizedFunction(simplex(0, 1, 0, 0))),
            (F(1, 4), SymmetrizedFunction(simplex(0, 0, 0, 1))),
        ]
    )
    corners = [
        ProductFunction(simplex(*x))
        for x in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    ]
    for theta in all_state_descriptions(2, 2):
        assert mix.eval_sd(theta) == sum(w.eval_sd(theta) for w in corners) / 4
    d = decompose_px(mix, verify_n=3)
    for theta in all_state_descriptions(2, 3):
        assert mix.eval_sd(theta) == 2 * d.w1.eval_sd(theta) - d.w2.eval_sd(theta)


def _one_constant_marginal(w) -> SimplexPoint:
    return SimplexPoint(w.q, tuple(w.eval_sd(theta) for theta in all_state_descriptions(w.q, 1)))


@pytest.mark.parametrize("seed", range(3))
def test_grid_matches_description_grid(seed):
    rng = random.Random(400 + seed)
    q = 2 + seed % 2
    raw = [rng.randint(0, 3) for _ in range(2 ** q)]
    raw[0] += 1
    c = SimplexPoint(q, tuple(F(v, sum(raw)) for v in raw))
    d = decompose_y(c, verify_n=1)
    assert d.lam > 0
    target = SymmetrizedFunction(c)
    assert _verify_identity(target, d.lam, d.w1, d.w2, 3, q) is None
    assert grid_verify_identity(target, d.lam, d.w1, d.w2, 3, q) is None
    # a w2 with the same one-constant values first differs on two constants
    perturbed = MixtureFunction(
        [(F(1, 2), d.w2), (F(1, 2), ProductFunction(_one_constant_marginal(d.w2)))]
    )
    nudged = Tableless(d.w2, nudged={(2, 1, 2), (1, 2, 2, 1), (2, 2, 1)})
    for w2 in (perturbed, Tableless(perturbed), nudged):
        with pytest.raises(PureILError) as dense:
            _verify_identity(target, d.lam, d.w1, w2, 3, q)
        with pytest.raises(PureILError) as grid:
            grid_verify_identity(target, d.lam, d.w1, w2, 3, q)
        assert str(dense.value) == str(grid.value)
    assert str(dense.value).startswith("internal error: decomposition identity fails at (2, 1, 2): ")
