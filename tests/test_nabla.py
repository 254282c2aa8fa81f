from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from pureil.errors import PureILError
from pureil.language import StateDescription, all_state_descriptions
from pureil.nabla import (
    FrequencyVector,
    UpsilonMatrix,
    build_phi,
    build_upsilon,
    compositions,
    multinomial,
    nabla,
    nabla_no_replacement,
)
from pureil.probability import ProductFunction, SimplexPoint, restrict, uniform_point
from reference import nabla_expansion, row_pick_function

F = Fraction

TWO_BY_TWO = UpsilonMatrix(2, (((1, 1), 1), ((0, 0), 1)))


def simplex(*values) -> SimplexPoint:
    vals = [F(v) for v in values]
    q = len(vals).bit_length() - 1
    return SimplexPoint(q, tuple(vals))


def literal_average(upsilon: UpsilonMatrix, q: int, theta: StateDescription) -> Fraction:
    """Oracle: the average over all nu^q ordered position picks."""
    total = F(0)
    for picks in itertools.product(range(1, upsilon.nu + 1), repeat=q):
        total += row_pick_function(upsilon, picks).eval_sd(theta)
    return total / upsilon.nu ** q


def literal_injective_average(upsilon, q, theta) -> Fraction:
    total = F(0)
    count = 0
    for picks in itertools.permutations(range(1, upsilon.nu + 1), q):
        total += row_pick_function(upsilon, picks).eval_sd(theta)
        count += 1
    return total / count


def random_upsilon(rng: random.Random, nu: int) -> UpsilonMatrix:
    rows = [tuple(rng.randint(0, 1) for _ in range(nu)) for _ in range(nu)]
    return UpsilonMatrix(nu, tuple((r, 1) for r in rows))


def test_upsilon_merges_duplicates():
    u = UpsilonMatrix(3, (((1, 0, 1), 1), ((0, 0, 0), 1), ((1, 0, 1), 1)))
    assert u.rows == (((1, 0, 1), 2), ((0, 0, 0), 1))
    assert u.positions() == ((1, 0, 1), (1, 0, 1), (0, 0, 0))


def test_upsilon_validation():
    with pytest.raises(PureILError):
        UpsilonMatrix(2, (((1, 1), 1),))
    with pytest.raises(PureILError):
        UpsilonMatrix(2, (((1,), 2),))
    with pytest.raises(PureILError):
        UpsilonMatrix(2, (((1, 2), 2),))


def test_build_phi_examples():
    phi = build_phi(simplex(0, 1, 0, 0), 2)
    assert phi.rows == ((1, 1), (0, 0))
    phi = build_phi(simplex(F(1, 2), F(1, 2)), 2)
    assert phi.rows == ((1, 0),)
    phi = build_phi(simplex(1, 0, 0, 0), 3)
    assert phi.rows == ((1, 1, 1), (1, 1, 1))


def test_build_phi_non_integral():
    with pytest.raises(PureILError):
        build_phi(simplex(F(1, 3), F(2, 3)), 2)


def test_build_upsilon_examples():
    phi = build_phi(simplex(0, 1, 0, 0), 2)
    u = build_upsilon(phi, FrequencyVector((F(1, 2), F(1, 2))), 2)
    assert u.rows == (((1, 1), 1), ((0, 0), 1))
    u = build_upsilon(phi, FrequencyVector((F(1), F(0))), 2)
    assert u.rows == (((1, 1), 2),)
    phi3 = build_phi(simplex(0, 1, 0, 0), 3)
    u = build_upsilon(phi3, FrequencyVector((F(2, 3), F(1, 3))), 3)
    assert u.rows == (((1, 1, 1), 2), ((0, 0, 0), 1))


def test_build_upsilon_non_integral():
    phi = build_phi(simplex(0, 1, 0, 0), 2)
    with pytest.raises(PureILError):
        build_upsilon(phi, FrequencyVector((F(1, 3), F(2, 3))), 2)


def test_frequency_vector_validation():
    with pytest.raises(PureILError):
        FrequencyVector((F(1, 2), F(1, 3)))
    with pytest.raises(PureILError):
        FrequencyVector((F(3, 2), F(-1, 2)))


def test_row_picks():
    w = row_pick_function(TWO_BY_TWO, (1, 1))
    assert w.x.x == (F(1), F(0), F(0), F(0))
    w = row_pick_function(TWO_BY_TWO, (1, 2))
    assert w.x.x == (F(0), F(1), F(0), F(0))
    w = row_pick_function(TWO_BY_TWO, (2, 2))
    assert w.x.x == (F(0), F(0), F(0), F(1))
    with pytest.raises(PureILError):
        row_pick_function(TWO_BY_TWO, (0, 1))


def test_nabla_q1_is_fair_product():
    u = UpsilonMatrix(2, (((1, 0), 1), ((0, 1), 1)))
    nab = nabla(u, 1)
    fair = ProductFunction(simplex(F(1, 2), F(1, 2)))
    for theta in all_state_descriptions(1, 3):
        assert nab.eval_sd(theta) == fair.eval_sd(theta)


def test_nabla_two_by_two_single_atom():
    nab = nabla(TWO_BY_TWO, 2)
    assert nab.eval_sd(StateDescription(2, (2,))) == F(1, 4)
    # equals the uniform average of the four corner products
    for theta in all_state_descriptions(2, 3):
        expected = (
            sum(
                ProductFunction(simplex(*x)).eval_sd(theta)
                for x in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
            )
            / 4
        )
        assert nab.eval_sd(theta) == expected


def test_nabla_all_ones():
    u = UpsilonMatrix(2, (((1, 1), 2),))
    nab = nabla(u, 2)
    assert nab.eval_sd(StateDescription(2, (1,))) == 1


def test_nabla_matches_literal_enumeration():
    rng = random.Random(19)
    for nu in (2, 3, 4):
        u = random_upsilon(rng, nu)
        for q in (1, 2):
            nab = nabla(u, q)
            for theta in all_state_descriptions(q, 2):
                assert nab.eval_sd(theta) == literal_average(u, q, theta)


def brute_force_components(upsilon: UpsilonMatrix, q: int, injective: bool):
    """Oracle: components of the average of `row_pick_function` over every
    ordered pick of q row positions, sorted by point."""
    positions = range(1, upsilon.nu + 1)
    picks = itertools.permutations(positions, q) if injective else itertools.product(positions, repeat=q)
    gathered = Counter(row_pick_function(upsilon, pick).x.x for pick in picks)
    total = sum(gathered.values())
    return tuple((F(count, total), x) for x, count in sorted(gathered.items()))


@pytest.mark.parametrize("seed", range(8))
def test_nabla_components_match_brute_force(seed):
    rng = random.Random(seed)
    nu = rng.randint(2, 5)
    distinct = rng.randint(1, nu)
    rows: dict[tuple[int, ...], int] = {}
    while len(rows) < distinct:
        rows[tuple(rng.randint(0, 1) for _ in range(nu))] = 1
    for _ in range(nu - len(rows)):
        rows[rng.choice(list(rows))] += 1
    u = UpsilonMatrix(nu, tuple(rows.items()))
    for q in (1, 2, 3):
        assert nabla(u, q).components == brute_force_components(u, q, injective=False)
        if q <= nu:
            assert nabla_no_replacement(u, q).components == brute_force_components(u, q, injective=True)


def test_nabla_no_replacement_two_by_two():
    nr = nabla_no_replacement(TWO_BY_TWO, 2)
    assert nr.eval_sd(StateDescription(2, (1,))) == 0
    for theta in all_state_descriptions(2, 2):
        split = (
            ProductFunction(simplex(0, 1, 0, 0)).eval_sd(theta)
            + ProductFunction(simplex(0, 0, 1, 0)).eval_sd(theta)
        ) / 2
        assert nr.eval_sd(theta) == split


def test_nabla_no_replacement_matches_injective_enumeration():
    rng = random.Random(43)
    for nu in (3, 4):
        u = random_upsilon(rng, nu)
        for q in (1, 2, 3):
            nr = nabla_no_replacement(u, q)
            for theta in all_state_descriptions(q, 2):
                assert nr.eval_sd(theta) == literal_injective_average(u, q, theta)


def test_no_replacement_single_row_type_equals_nabla():
    u = UpsilonMatrix(3, (((1, 0, 1), 3),))
    nab, nr = nabla(u, 2), nabla_no_replacement(u, 2)
    for theta in all_state_descriptions(2, 2):
        assert nab.eval_sd(theta) == nr.eval_sd(theta)


def test_no_replacement_q1_equals_nabla():
    rng = random.Random(3)
    u = random_upsilon(rng, 4)
    nab, nr = nabla(u, 1), nabla_no_replacement(u, 1)
    for theta in all_state_descriptions(1, 3):
        assert nab.eval_sd(theta) == nr.eval_sd(theta)


def test_no_replacement_needs_enough_rows():
    with pytest.raises(PureILError):
        nabla_no_replacement(TWO_BY_TWO, 3)


def test_restriction_coherence():
    # the level family from one matrix is closed under marginalization
    rng = random.Random(59)
    matrices = [TWO_BY_TWO] + [random_upsilon(rng, 6) for _ in range(2)]
    for u in matrices:
        for q in (1, 2):
            high = nabla(u, q + 1)
            low = nabla(u, q)
            dropped = restrict(high, q)
            for theta in all_state_descriptions(q, 3):
                assert dropped.eval_sd(theta) == low.eval_sd(theta)


def _point_weights(table) -> dict:
    """A product table as a map from each point to its total weight, both as
    exact fractions over the table's denominators."""
    out: dict = {}
    for weight, x in table.scaled:
        point = tuple(F(v, table.entry_den) for v in x)
        out[point] = out.get(point, 0) + F(weight, table.weight_den)
    return out


def test_restriction_coherence_widest():
    rng = random.Random(73)
    u = random_upsilon(rng, 8)
    dropped = restrict(nabla(u, 4), 3)
    low = nabla(u, 3)
    for theta in all_state_descriptions(3, 3):
        assert dropped.eval_sd(theta) == low.eval_sd(theta)
    # the marginal table is nabla's own table at the lower level
    assert _point_weights(dropped._table) == _point_weights(low._table)


def test_replacement_gap_bound():
    # collision probability bounds the with/without replacement gap
    for nu in (4, 8, 16):
        u = UpsilonMatrix(nu, (((1,) * nu, nu // 2), ((0,) * nu, nu // 2)))
        nab, nr = nabla(u, 2), nabla_no_replacement(u, 2)
        gaps = [
            abs(nab.eval_sd(t) - nr.eval_sd(t))
            for n in (0, 1, 2)
            for t in all_state_descriptions(2, n)
        ]
        assert max(gaps) <= F(2 * 1, 2 * nu)


def test_compositions():
    assert compositions(1).elements == ((1,),)
    assert compositions(2).elements == ((2, 0), (1, 1), (0, 2))
    assert len(compositions(3).elements) == 10
    assert len(set(compositions(3).elements)) == 10
    assert all(sum(n) == 3 for n in compositions(3).elements)
    # descending lexicographic
    assert list(compositions(3).elements) == sorted(compositions(3).elements, reverse=True)
    with pytest.raises(PureILError):
        compositions(6)


def test_multinomial():
    assert multinomial((2, 0)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((1, 1, 1)) == 6
    assert multinomial((2, 1)) == 3


def test_expansion_hand_example():
    parts = nabla_expansion(simplex(0, 1, 0, 0), FrequencyVector((F(1, 2), F(1, 2))), 2).parts
    weights = [w for w, _ in parts]
    points = [f.c.x for _, f in parts]
    assert weights == [F(1, 4), F(1, 2), F(1, 4)]
    assert points == [
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(0), F(1)),
    ]


def test_expansion_degenerate_frequency():
    mix = nabla_expansion(simplex(0, 1, 0, 0), FrequencyVector((F(1), F(0))), 2)
    assert len(mix.parts) == 1
    assert mix.parts[0][0] == 1
    assert mix.parts[0][1].c.x == (F(1), F(0), F(0), F(0))


def test_expansion_q1_single_term():
    mix = nabla_expansion(simplex(F(1, 2), F(1, 2)), FrequencyVector((F(1),)), 2)
    assert len(mix.parts) == 1
    assert mix.parts[0][1].c.x == (F(1, 2), F(1, 2))


def test_expansion_equals_nabla_pointwise():
    cases = [
        (simplex(0, 1, 0, 0), (F(1, 2), F(1, 2)), 2),
        (simplex(0, 1, 0, 0), (F(1), F(0)), 2),
        (uniform_point(2), (F(1, 2), F(1, 2)), 4),
        (uniform_point(3), (F(1, 2), F(1, 4), F(1, 4)), 8),
    ]
    for c, p, nu in cases:
        q = c.q
        mix = nabla_expansion(c, FrequencyVector(p), nu)
        direct = nabla(build_upsilon(build_phi(c, nu), FrequencyVector(p), nu), q)
        for theta in all_state_descriptions(q, 2):
            assert mix.eval_sd(theta) == direct.eval_sd(theta)
