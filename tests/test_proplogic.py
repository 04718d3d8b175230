import random

import pytest

from tachocheck.proplogic import (
    And,
    Atom,
    FormulaSyntaxError,
    Implies,
    MissingAtomError,
    Not,
    Or,
    atoms,
    eval_formula,
    find_falsifying,
    format_formula,
    is_tautology,
    parse_formula,
    truth_table,
)

P, Q, R = Atom("P"), Atom("Q"), Atom("R")
RULE = Implies(And(P, Q), R)  # if P and Q then R


def test_parse_builds_the_expected_tree():
    assert parse_formula("(P & Q) -> R") == RULE


def test_parse_second_listed_consequence():
    assert parse_formula("!Q -> ((P & Q) -> R)") == Implies(Not(Q), RULE)


def test_parser_precedence_and_associativity():
    assert parse_formula("!P & Q") == And(Not(P), Q)
    assert parse_formula("P & Q | R") == Or(And(P, Q), R)
    assert parse_formula("P | Q -> R") == Implies(Or(P, Q), R)
    assert parse_formula("P -> Q -> R") == Implies(P, Implies(Q, R))
    assert parse_formula("!!P") == Not(Not(P))


def test_parse_errors_carry_positions():
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("P &")
    assert err.value.position == 3
    with pytest.raises(FormulaSyntaxError):
        parse_formula("(P & Q")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P ? Q")
    with pytest.raises(FormulaSyntaxError):
        parse_formula("P Q")


def test_eval_classical_semantics():
    assert eval_formula(RULE, {"P": 1, "Q": 1, "R": 0}) == 0
    assert eval_formula(RULE, {"P": 0, "Q": 1, "R": 0}) == 1
    assert eval_formula(And(P, Q), {"P": 1, "Q": 1}) == 1
    assert eval_formula(Or(P, Q), {"P": 0, "Q": 0}) == 0
    assert eval_formula(Not(P), {"P": 0}) == 1


def test_eval_requires_every_atom():
    with pytest.raises(MissingAtomError):
        eval_formula(RULE, {"P": 1, "Q": 1})


TAUTOLOGIES = [
    "R -> ((P & Q) -> R)",
    "!Q -> ((P & Q) -> R)",
    "!P -> ((P & Q) -> R)",
    "(!P | !Q) -> ((P & Q) -> R)",
]


@pytest.mark.parametrize("text", TAUTOLOGIES)
def test_listed_consequences_are_tautologies(text):
    assert is_tautology(parse_formula(text))


def test_the_bare_rule_is_not_a_tautology():
    witness = find_falsifying(RULE)
    assert witness == {"P": 1, "Q": 1, "R": 0}


def test_truth_table_rows():
    rows = truth_table(parse_formula("P & Q"))
    assert len(rows) == 4
    assert sum(value for _, value in rows) == 1


@pytest.mark.parametrize("check", [find_falsifying, truth_table], ids=lambda f: f.__name__)
def test_atom_guard(check):
    wide = parse_formula(" & ".join(f"a{i}" for i in range(21)))
    with pytest.raises(ValueError, match="atoms"):
        check(wide)


def _random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice("PQRS"))
    shape = rng.choice(["not", "and", "or", "implies"])
    if shape == "not":
        return Not(_random_formula(rng, depth - 1))
    left = _random_formula(rng, depth - 1)
    right = _random_formula(rng, depth - 1)
    return {"and": And, "or": Or, "implies": Implies}[shape](left, right)


def test_de_morgan_on_random_formulas():
    rng = random.Random(31)
    import itertools

    for _ in range(60):
        a = _random_formula(rng, 3)
        b = _random_formula(rng, 3)
        lhs = Not(And(a, b))
        rhs = Or(Not(a), Not(b))
        names = sorted(atoms(lhs))
        for bits in itertools.product((0, 1), repeat=len(names)):
            valuation = dict(zip(names, bits))
            assert eval_formula(lhs, valuation) == eval_formula(rhs, valuation)


def test_format_parse_roundtrip():
    rng = random.Random(57)
    for _ in range(40):
        formula = _random_formula(rng, 4)
        assert parse_formula(format_formula(formula)) == formula
