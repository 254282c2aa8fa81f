"""Quantifier-free formulas over unary literals, with model enumeration.

Grammar (whitespace insensitive)::

    formula := disj ('->' formula)?          right associative
    disj    := conj ('|' conj)*
    conj    := unary ('&' unary)*
    unary   := '!' unary | 'P'<int>'(a'<int>')' | '(' formula ')'

Precedence: ! binds tightest, then &, then |, then ->.  Positions in syntax
errors are 1-based character offsets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceededError, FormulaSyntaxError, PureILError
from .language import StateDescription, matching_atoms

# sign assignments `satisfying_cells` may enumerate: 2^L for L distinct
# literals, so at most 20 literals
MAX_SIGN_ASSIGNMENTS = 1 << 20


@dataclass(frozen=True)
class Lit:
    pred: int
    const: int


@dataclass(frozen=True)
class Not:
    arg: "QfFormula"


@dataclass(frozen=True)
class And:
    left: "QfFormula"
    right: "QfFormula"


@dataclass(frozen=True)
class Or:
    left: "QfFormula"
    right: "QfFormula"


@dataclass(frozen=True)
class Implies:
    left: "QfFormula"
    right: "QfFormula"


QfFormula = Lit | Not | And | Or | Implies


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # 0-based cursor; reported offsets are 1-based

    def error(self, message: str):
        raise FormulaSyntaxError(message, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            self.error(f"expected '{token}'")
        self.pos += len(token)

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a digit")
        return int(self.text[start : self.pos])

    def formula(self) -> QfFormula:
        left = self.disjunction()
        self.skip_ws()
        if self.text.startswith("->", self.pos):
            self.pos += 2
            return Implies(left, self.formula())
        return left

    def disjunction(self) -> QfFormula:
        node = self.conjunction()
        while True:
            self.skip_ws()
            # '|' but not part of a stray token
            if self.peek() == "|":
                self.pos += 1
                node = Or(node, self.conjunction())
            else:
                return node

    def conjunction(self) -> QfFormula:
        node = self.unary()
        while True:
            self.skip_ws()
            if self.peek() == "&":
                self.pos += 1
                node = And(node, self.unary())
            else:
                return node

    def unary(self) -> QfFormula:
        self.skip_ws()
        c = self.peek()
        if c == "!":
            self.pos += 1
            return Not(self.unary())
        if c == "(":
            self.pos += 1
            node = self.formula()
            self.expect(")")
            return node
        if c == "P":
            self.pos += 1
            pred = self.integer()
            self.expect("(")
            self.expect("a")
            const = self.integer()
            self.expect(")")
            if pred < 1:
                self.error("predicate indices start at 1")
            if const < 1:
                self.error("constant indices start at 1")
            return Lit(pred, const)
        self.error("expected '!', '(' or a literal like P1(a1)")


def parse_formula(text: str) -> QfFormula:
    parser = _Parser(text)
    node = parser.formula()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("unexpected trailing input")
    return node


_PRECEDENCE = {Implies: 1, Or: 2, And: 3, Not: 4, Lit: 5}


def print_formula(phi: QfFormula) -> str:
    """Canonical text form; parse(print(parse(s))) == parse(s)."""

    def render(node: QfFormula, parent_level: int) -> str:
        level = _PRECEDENCE[type(node)]
        if isinstance(node, Lit):
            text = f"P{node.pred}(a{node.const})"
        elif isinstance(node, Not):
            text = "!" + render(node.arg, level)
        elif isinstance(node, And):
            text = f"{render(node.left, level)} & {render(node.right, level + 1)}"
        elif isinstance(node, Or):
            text = f"{render(node.left, level)} | {render(node.right, level + 1)}"
        else:
            text = f"{render(node.left, level + 1)} -> {render(node.right, level)}"
        return f"({text})" if level < parent_level else text

    return render(phi, 0)


def mentioned_literals(phi: QfFormula) -> set[Lit]:
    if isinstance(phi, Lit):
        return {phi}
    if isinstance(phi, Not):
        return mentioned_literals(phi.arg)
    return mentioned_literals(phi.left) | mentioned_literals(phi.right)


def _holds(phi: QfFormula, signs: dict[tuple[int, int], int]) -> bool:
    """Truth of phi when each literal (pred, const) carries the sign given."""
    if isinstance(phi, Lit):
        return signs[phi.pred, phi.const] == 1
    if isinstance(phi, Not):
        return not _holds(phi.arg, signs)
    if isinstance(phi, And):
        return _holds(phi.left, signs) and _holds(phi.right, signs)
    if isinstance(phi, Or):
        return _holds(phi.left, signs) or _holds(phi.right, signs)
    return (not _holds(phi.left, signs)) or _holds(phi.right, signs)


def satisfying_cells(phi: QfFormula, q: int, constants: list[int]):
    """The models of phi over `constants`, as disjoint products of atom sets.

    Per sign assignment to phi's distinct literals that makes phi true, yields
    one cell per listed constant: the level-q atoms with that constant's
    assigned signs.  `constants` must cover every constant mentioned in phi,
    and every mentioned predicate index must be <= q.  Raises
    `CapExceededError` before evaluating phi when the assignments number more
    than `MAX_SIGN_ASSIGNMENTS`.
    """
    mentioned = mentioned_literals(phi)
    top = max(lit.pred for lit in mentioned)
    if top > q:
        raise PureILError(f"predicate index {top} exceeds language level {q}")
    missing = {lit.const for lit in mentioned} - set(constants)
    if missing:
        raise PureILError(f"constants {sorted(missing)} mentioned but not in the window")
    if len(set(constants)) != len(constants):
        raise PureILError("constant window contains duplicates")
    if 2 ** len(mentioned) > MAX_SIGN_ASSIGNMENTS:
        raise CapExceededError(
            f"{len(mentioned)} distinct literals give 2^{len(mentioned)} sign assignments, "
            f"cap is {MAX_SIGN_ASSIGNMENTS}"
        )

    preds = [sorted(lit.pred for lit in mentioned if lit.const == c) for c in constants]
    literals = [(p, c) for c, ps in zip(constants, preds) for p in ps]
    # a constant's cell depends only on the signs of its own literals
    options = [
        [
            (bits, matching_atoms(q, tuple(zip(ps, bits))))
            for bits in itertools.product((0, 1), repeat=len(ps))
        ]
        for ps in preds
    ]
    for choice in itertools.product(*options):
        signs = dict(zip(literals, itertools.chain.from_iterable(bits for bits, _ in choice)))
        if _holds(phi, signs):
            yield tuple(cell for _, cell in choice)


def satisfying_descriptions(
    phi: QfFormula, q: int, constants: list[int]
) -> set[StateDescription]:
    """All state descriptions over `constants` that satisfy phi, the
    expansion of `satisfying_cells`; entry j belongs to the j-th constant."""
    return {
        StateDescription(q, h)
        for cells in satisfying_cells(phi, q, constants)
        for h in itertools.product(*cells)
    }
