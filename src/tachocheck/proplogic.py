"""Propositional formulas, truth-table evaluation and tautology checking."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

MAX_TAUTOLOGY_ATOMS = 20


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Not:
    operand: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


Formula = Union[Atom, Not, And, Or, Implies]


class MissingAtomError(ValueError):
    pass


class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def atoms(formula: Formula) -> set[str]:
    if isinstance(formula, Atom):
        return {formula.name}
    if isinstance(formula, Not):
        return atoms(formula.operand)
    return atoms(formula.left) | atoms(formula.right)


def eval_formula(formula: Formula, valuation: Mapping[str, int]) -> int:
    """Classical two-valued semantics; returns 0 or 1."""
    if isinstance(formula, Atom):
        if formula.name not in valuation:
            raise MissingAtomError(f"valuation does not cover atom {formula.name!r}")
        return 1 if valuation[formula.name] else 0
    if isinstance(formula, Not):
        return 1 - eval_formula(formula.operand, valuation)
    if isinstance(formula, And):
        return eval_formula(formula.left, valuation) & eval_formula(formula.right, valuation)
    if isinstance(formula, Or):
        return eval_formula(formula.left, valuation) | eval_formula(formula.right, valuation)
    left = eval_formula(formula.left, valuation)
    right = eval_formula(formula.right, valuation)
    return 1 if (not left or right) else 0


def _rows(formula: Formula) -> Iterator[tuple[dict[str, int], int]]:
    """(valuation, value) for every valuation of the formula's atoms, in order."""
    names = sorted(atoms(formula))
    if len(names) > MAX_TAUTOLOGY_ATOMS:
        raise ValueError(
            f"{len(names)} atoms exceed the exhaustive truth-table bound "
            f"of {MAX_TAUTOLOGY_ATOMS}"
        )
    for bits in itertools.product((0, 1), repeat=len(names)):
        valuation = dict(zip(names, bits))
        yield valuation, eval_formula(formula, valuation)


def find_falsifying(formula: Formula) -> dict[str, int] | None:
    """A valuation making the formula false, or None if it is a tautology."""
    return next((valuation for valuation, value in _rows(formula) if value == 0), None)


def is_tautology(formula: Formula) -> bool:
    return find_falsifying(formula) is None


def truth_table(formula: Formula) -> list[tuple[dict[str, int], int]]:
    return list(_rows(formula))


# Grammar: implication is right-associative and binds loosest;
#   implies := or ('->' implies)?
#   or      := and ('|' and)*
#   and     := unary ('&' unary)*
#   unary   := '!' unary | NAME | '(' implies ')'


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            tokens.append(("LPAREN", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(("RPAREN", ch, i))
            i += 1
        elif ch == "!":
            tokens.append(("NOT", ch, i))
            i += 1
        elif ch == "&":
            tokens.append(("AND", ch, i))
            i += 1
        elif ch == "|":
            tokens.append(("OR", ch, i))
            i += 1
        elif ch == "-":
            if text[i : i + 2] == "->":
                tokens.append(("ARROW", "->", i))
                i += 2
            else:
                raise FormulaSyntaxError("expected '->'", i)
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        else:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self, kind: str) -> tuple[str, str, int]:
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise FormulaSyntaxError(
                f"expected {kind}, found {token[1] or 'end of input'!r}", token[2]
            )
        self.pos += 1
        return token

    def parse_implies(self) -> Formula:
        left = self.parse_or()
        if self.peek()[0] == "ARROW":
            self.take("ARROW")
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek()[0] == "OR":
            self.take("OR")
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_unary()
        while self.peek()[0] == "AND":
            self.take("AND")
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        kind, value, position = self.peek()
        if kind == "NOT":
            self.take("NOT")
            return Not(self.parse_unary())
        if kind == "NAME":
            self.take("NAME")
            return Atom(value)
        if kind == "LPAREN":
            self.take("LPAREN")
            inner = self.parse_implies()
            self.take("RPAREN")
            return inner
        raise FormulaSyntaxError(
            f"expected a formula, found {value or 'end of input'!r}", position
        )


def parse_formula(text: str) -> Formula:
    parser = _Parser(text)
    formula = parser.parse_implies()
    kind, value, position = parser.peek()
    if kind != "END":
        raise FormulaSyntaxError(f"unexpected trailing input {value!r}", position)
    return formula


def format_formula(formula: Formula) -> str:
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Not):
        return f"!{format_formula(formula.operand)}"
    if isinstance(formula, And):
        return f"({format_formula(formula.left)} & {format_formula(formula.right)})"
    if isinstance(formula, Or):
        return f"({format_formula(formula.left)} | {format_formula(formula.right)})"
    return f"({format_formula(formula.left)} -> {format_formula(formula.right)})"
