from __future__ import annotations

import itertools
import random

import pytest

from pureil import formulas
from pureil.errors import CapExceededError, FormulaSyntaxError, PureILError
from pureil.formulas import (
    And,
    Implies,
    Lit,
    Not,
    Or,
    parse_formula,
    print_formula,
    satisfying_cells,
    satisfying_descriptions,
)
from pureil.language import StateDescription


def test_parse_conjunction_with_negation():
    assert parse_formula("P1(a1) & !P2(a1)") == And(Lit(1, 1), Not(Lit(2, 1)))


def test_precedence_and_over_or():
    phi = parse_formula("P1(a1) | P1(a1) & P2(a2)")
    assert phi == Or(Lit(1, 1), And(Lit(1, 1), Lit(2, 2)))


def test_precedence_not_tightest_implies_loosest():
    phi = parse_formula("!P1(a1) & P2(a1) -> P1(a2)")
    assert phi == Implies(And(Not(Lit(1, 1)), Lit(2, 1)), Lit(1, 2))


def test_implies_right_associative():
    phi = parse_formula("P1(a1) -> P1(a2) -> P1(a3)")
    assert phi == Implies(Lit(1, 1), Implies(Lit(1, 2), Lit(1, 3)))


def test_parentheses_override():
    phi = parse_formula("(P1(a1) | P1(a2)) & P1(a3)")
    assert phi == And(Or(Lit(1, 1), Lit(1, 2)), Lit(1, 3))


def test_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("P1(a1")
    assert err.value.position == 6


def test_syntax_error_trailing():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P1(a1) P2(a1)")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("")


def _random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Lit(rng.randint(1, 2), rng.randint(1, 3))
    kind = rng.choice(["not", "and", "or", "imp"])
    if kind == "not":
        return Not(_random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    return {"and": And, "or": Or, "imp": Implies}[kind](left, right)


def test_print_parse_roundtrip_is_fixpoint():
    rng = random.Random(11)
    for _ in range(200):
        phi = _random_formula(rng, 4)
        text = print_formula(phi)
        assert parse_formula(text) == phi
        assert print_formula(parse_formula(text)) == text


def test_satisfying_tautology_and_contradiction():
    taut = parse_formula("P1(a1) | !P1(a1)")
    assert len(satisfying_descriptions(taut, 1, [1])) == 2
    contra = parse_formula("P1(a1) & !P1(a1)")
    assert satisfying_descriptions(contra, 1, [1]) == set()


def test_satisfying_single_literal_q2():
    models = satisfying_descriptions(parse_formula("P1(a1)"), 2, [1])
    # oracle: brute-force over the four sign vectors, P1 positive in atoms 1,2
    assert models == {StateDescription(2, (1,)), StateDescription(2, (2,))}


def test_satisfying_complement_counts():
    rng = random.Random(5)
    for _ in range(20):
        phi = _random_formula(rng, 3)
        q, window = 2, [1, 2, 3]
        pos = satisfying_descriptions(phi, q, window)
        neg = satisfying_descriptions(Not(phi), q, window)
        assert len(pos) + len(neg) == (2 ** q) ** len(window)
        assert not pos & neg


def test_satisfying_respects_window_order():
    phi = parse_formula("P1(a2)")
    models = satisfying_descriptions(phi, 1, [2, 1])
    # first slot belongs to a2 here
    assert models == {StateDescription(1, (1, 1)), StateDescription(1, (1, 2))}


def test_satisfying_errors():
    with pytest.raises(PureILError):
        satisfying_descriptions(parse_formula("P3(a1)"), 2, [1])
    with pytest.raises(PureILError):
        satisfying_descriptions(parse_formula("P1(a2)"), 1, [1])


def test_sign_assignment_cap_boundary(monkeypatch):
    monkeypatch.setattr(formulas, "MAX_SIGN_ASSIGNMENTS", 8)
    holds = formulas._holds
    calls = []

    def counting_holds(phi, signs):
        calls.append(phi)
        return holds(phi, signs)

    monkeypatch.setattr(formulas, "_holds", counting_holds)
    # three distinct literals (P1(a1) twice) give exactly 8 assignments
    phi = parse_formula("P1(a1) | (P2(a1) & !P1(a2)) | !P1(a1)")
    assert len(list(satisfying_cells(phi, 2, [1, 2]))) == 8
    calls.clear()
    phi = parse_formula("P1(a1) | P2(a1) | P1(a2) | P2(a2)")
    with pytest.raises(CapExceededError):
        list(satisfying_cells(phi, 2, [1, 2]))
    with pytest.raises(CapExceededError):
        satisfying_descriptions(phi, 2, [1, 2, 3])
    assert calls == []


def test_oracle_truth_table_agreement():
    # independent truth-table evaluation over explicit bit grids
    rng = random.Random(23)
    atoms = [(1, 1), (1, 0), (0, 1), (0, 0)]

    def true_under(node, bits):
        if isinstance(node, Lit):
            return bits[node.const][node.pred - 1] == 1
        if isinstance(node, Not):
            return not true_under(node.arg, bits)
        if isinstance(node, And):
            return true_under(node.left, bits) and true_under(node.right, bits)
        if isinstance(node, Or):
            return true_under(node.left, bits) or true_under(node.right, bits)
        return (not true_under(node.left, bits)) or true_under(node.right, bits)

    for _ in range(30):
        phi = _random_formula(rng, 3)
        q, window = 2, [1, 2, 3]
        got = {s.h for s in satisfying_descriptions(phi, q, window)}
        expected = set()
        for h in itertools.product(range(1, 5), repeat=3):
            bits = {c: atoms[a - 1] for c, a in zip(window, h)}
            if true_under(phi, bits):
                expected.add(h)
        assert got == expected
