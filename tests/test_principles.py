from __future__ import annotations

import random
from fractions import Fraction

import pytest

from pureil.errors import CapExceededError, LevelMismatchError, PureILError
from pureil.language import StateDescription
from pureil.nabla import UpsilonMatrix, nabla
from pureil.principles import (
    check_additivity,
    check_ex,
    check_ip,
    check_px,
    check_wip,
    eval_partial,
)
from pureil.probability import (
    MixtureFunction,
    ProbabilityFunction,
    ProductFunction,
    SimplexPoint,
    SymmetrizedFunction,
    restrict,
    uniform_point,
)
from reference import Tableless, sweep_additivity, sweep_ex, sweep_ip, sweep_px

F = Fraction

TWO_BY_TWO = UpsilonMatrix(2, (((1, 1), 1), ((0, 0), 1)))


def simplex(*values) -> SimplexPoint:
    vals = [F(v) for v in values]
    q = len(vals).bit_length() - 1
    return SimplexPoint(q, tuple(vals))


class CorruptedTable(ProbabilityFunction):
    """Deliberately additivity-breaking level-1 table for checker tests."""

    tag = "table"

    def __init__(self):
        super().__init__(1)
        self.values = {(1,): F(1, 2), (2,): F(1, 3)}

    def _eval(self, h):
        value = F(1)
        for a in h:
            value *= self.values[(a,)]
        return value


def test_px_passes_for_symmetrized():
    for c in [simplex(0, 1, 0, 0), simplex(F(1, 2), F(1, 4), F(1, 8), F(1, 8))]:
        assert check_px(SymmetrizedFunction(c), 3).passed


def test_px_fails_for_lopsided_product():
    report = check_px(ProductFunction(simplex(0, 1, 0, 0)), 3)
    assert report.outcome == "fail"
    witness = report.witness
    assert witness.as_dict()["theta"] == (2,)
    assert witness.as_dict()["sigma"] == (2, 1)
    assert (witness.lhs, witness.rhs) == (1, 0)
    # re-evaluating the witness reproduces the inequality
    w = ProductFunction(simplex(0, 1, 0, 0))
    assert w.eval_sd(StateDescription(2, witness.as_dict()["theta"])) == witness.lhs


def test_px_passes_for_uniform_product():
    assert check_px(ProductFunction(uniform_point(2)), 3).passed


def test_ip_passes_for_products():
    assert check_ip(ProductFunction(simplex(F(1, 3), F(2, 3))), 4).passed
    assert check_ip(ProductFunction(uniform_point(2)), 3).passed


def test_ip_fails_for_symmetrized_with_canonical_witness():
    report = check_ip(SymmetrizedFunction(simplex(0, 1, 0, 0)), 3)
    assert report.outcome == "fail"
    assert report.witness.as_dict() == {"theta": (2,), "phi": (2,)}
    assert (report.witness.lhs, report.witness.rhs) == (F(1, 2), F(1, 4))


def test_ip_fails_for_mixture():
    mix = MixtureFunction(
        [
            (F(1, 2), ProductFunction(simplex(1, 0))),
            (F(1, 2), ProductFunction(simplex(0, 1))),
        ]
    )
    report = check_ip(mix, 2)
    assert report.outcome == "fail"
    assert report.witness.as_dict() == {"theta": (1,), "phi": (1,)}
    assert (report.witness.lhs, report.witness.rhs) == (F(1, 2), F(1, 4))


def test_wip_passes_for_two_by_two_nabla():
    w = nabla(TWO_BY_TWO, 2)
    assert check_wip(w, 1, 1, 3).passed


def test_wip_hand_values_for_nabla():
    w = nabla(TWO_BY_TWO, 2)
    lhs = eval_partial(w, (((1, 1),), ((2, 1),)))
    left = eval_partial(w, (((1, 1),),))
    right = eval_partial(w, (((2, 1),),))
    assert lhs == F(1, 4)
    assert left == right == F(1, 2)


def test_wip_fails_for_symmetrized():
    y = SymmetrizedFunction(simplex(0, 1, 0, 0))
    report = check_wip(y, 1, 1, 2)
    assert report.outcome == "fail"
    assert (report.witness.lhs, report.witness.rhs) == (0, F(1, 4))
    assert report.witness.as_dict()["theta"] == (1,)
    assert report.witness.as_dict()["phi"] == (1,)


def test_wip_passes_for_product():
    w = ProductFunction(uniform_point(3))
    assert check_wip(w, 1, 2, 3).passed
    assert check_wip(w, 2, 1, 3).passed


def test_wip_level_mismatch():
    with pytest.raises(LevelMismatchError):
        check_wip(ProductFunction(uniform_point(2)), 2, 1, 2)


def test_ex_and_additivity_pass_for_all_classes():
    functions = [
        ProductFunction(simplex(F(1, 6), F(1, 3), F(1, 4), F(1, 4))),
        SymmetrizedFunction(simplex(0, 1, 0, 0)),
        nabla(TWO_BY_TWO, 2),
    ]
    for w in functions:
        assert check_ex(w, 3).passed
        assert check_additivity(w, 3).passed


def test_nabla_passes_px():
    rng = random.Random(61)
    rows = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(4)]
    u = UpsilonMatrix(4, tuple((row, 1) for row in rows))
    assert check_px(nabla(u, 2), 3).passed


def test_corrupted_table_fails_additivity():
    report = check_additivity(CorruptedTable(), 2)
    assert report.outcome == "fail"
    assert report.witness.as_dict()["theta"] == ()
    assert (report.witness.lhs, report.witness.rhs) == (F(5, 6), 1)


def test_work_caps():
    w = ProductFunction(uniform_point(2))
    with pytest.raises(CapExceededError):
        check_px(w, 3, work_cap=10)
    with pytest.raises(CapExceededError):
        check_ex(w, 3, work_cap=10)
    with pytest.raises(CapExceededError):
        check_ip(w, 3, work_cap=10)
    with pytest.raises(CapExceededError):
        check_wip(w, 1, 1, 3, work_cap=10)
    with pytest.raises(CapExceededError):
        check_additivity(w, 3, work_cap=10)


def test_bound_validation():
    w = ProductFunction(uniform_point(1))
    with pytest.raises(PureILError):
        check_px(w, 0)
    with pytest.raises(PureILError):
        check_ip(w, 1)


class MarkovChain(ProbabilityFunction):
    """Tableless chain over atoms: the first constant's atom from `start`, each
    next one from the previous one's row.  Not exchangeable in the constants;
    a row that sums to less than 1 also breaks additivity."""

    tag = "markov"

    def __init__(self, q: int, rng: random.Random, leaky: bool = False):
        super().__init__(q)
        self.start = _random_point(rng, q).x
        self.rows = [_random_point(rng, q).x for _ in range(2 ** q)]
        if leaky:
            self.rows[-1] = tuple(v / 2 for v in self.rows[-1])

    def _eval(self, h):
        value = self.start[h[0] - 1]
        for a, b in zip(h, h[1:]):
            value *= self.rows[a - 1][b - 1]
        return value


def _random_point(rng: random.Random, q: int) -> SimplexPoint:
    raw = [rng.randint(0, 4) for _ in range(2 ** q)]
    raw[rng.randrange(2 ** q)] += 1
    return SimplexPoint(q, tuple(F(v, sum(raw)) for v in raw))


def _checked_functions(rng: random.Random, q: int) -> list:
    """Passing and failing functions of every class at level q."""
    x = _random_point(rng, q)
    nu = rng.randint(2, 4)
    u = UpsilonMatrix(nu, tuple((tuple(rng.randint(0, 1) for _ in range(nu)), 1) for _ in range(nu)))
    return [
        ProductFunction(x),
        ProductFunction(uniform_point(q)),
        SymmetrizedFunction(x),
        nabla(u, q),
        MixtureFunction([(F(1, 3), ProductFunction(x)), (F(2, 3), SymmetrizedFunction(_random_point(rng, q)))]),
        restrict(ProductFunction(_random_point(rng, q + 1)), q),
        restrict(nabla(u, q + 1), q),
        Tableless(ProductFunction(x)),
        MarkovChain(q, rng),
        MarkovChain(q, rng, leaky=True),
    ] + ([Tableless(ProductFunction(x), nudged={(2, 3, 1)})] if q >= 2 else [])


@pytest.mark.parametrize("seed", range(3))
def test_dense_sweeps_match_description_sweeps(seed):
    rng = random.Random(300 + seed)
    outcomes = set()
    for q in (1, 2, 3):
        for w in _checked_functions(rng, q) + ([CorruptedTable()] if q == 1 else []):
            for checker, oracle in (
                (check_px, sweep_px),
                (check_ex, sweep_ex),
                (check_ip, sweep_ip),
                (check_additivity, sweep_additivity),
            ):
                got, want = checker(w, 3), oracle(w, 3)
                # outcome, witness inputs and the Fraction lhs/rhs
                assert got == want, (type(w).__name__, q, got, want)
                if got.witness is not None:
                    assert type(got.witness.lhs) is type(got.witness.rhs) is F
                outcomes.add((got.principle, got.outcome))
    principles = ("Px", "Ex", "IP", "Additivity")
    assert outcomes == {(p, o) for p in principles for o in ("pass", "fail")}
    # nudged on (2, 3, 1) only, every transposition of (1, 2, 3) keeps the
    # value, so the first witness is a 3-cycle
    report = check_ex(Tableless(ProductFunction(uniform_point(2)), nudged={(2, 3, 1)}), 3)
    assert report.witness.as_dict() == {"theta": (1, 2, 3), "tau": (2, 3, 1)}


def test_refused_sweep_evaluates_nothing():
    w = Tableless(ProductFunction(uniform_point(2)))
    for checker in (check_px, check_ex, check_ip, check_additivity):
        with pytest.raises(CapExceededError):
            checker(w, 3, work_cap=10)
    assert w.calls == 0
