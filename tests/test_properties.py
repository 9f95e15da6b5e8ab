from __future__ import annotations

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import parse_dimacs, parse_expr, search
from fairaudit.boolexpr import (
    And,
    Const,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    evaluate,
    pretty,
    simplify,
)
from fairaudit.model import unconstrained
from fairaudit.propcheck import check_model
from fairaudit.randmodels import random_expr, random_model, random_space
from fairaudit.satcheck import CnfFormula, export_dimacs

seeds = st.integers(min_value=0, max_value=2**32 - 1)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_expression_pretty_parse_round_trip(seed):
    rng = random.Random(seed)
    space = random_space(rng, max_features=5)
    expr = random_expr(rng, space, tuple(range(space.n)), depth=4)
    text = pretty(expr, space.names)
    assert parse_expr(text, space) == expr


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_simplify_preserves_semantics(seed):
    rng = random.Random(seed)
    space = random_space(rng, max_features=4)
    expr = random_expr(rng, space, tuple(range(space.n)), depth=4)
    folded = simplify(expr)
    for x in unconstrained(space).instances:
        assert evaluate(expr, x) == evaluate(folded, x)


@given(seeds)
@settings(max_examples=80, deadline=None)
def test_simplify_returns_what_it_cannot_fold_as_it_is(seed):
    rng = random.Random(seed)
    space = random_space(rng, max_features=4)
    expr = random_expr(rng, space, tuple(range(space.n)), depth=4)
    assert simplify(expr) is expr  # random_expr places no constant here
    folded = simplify(Or((Const(False), expr)))
    assert folded is expr
    assert simplify(folded) is folded


def test_simplify_folds_constants():
    a, b = Var(0), Var(1)
    assert simplify(And((a, Const(True)))) is a
    assert simplify(Or((a, Const(True), b))) == Const(True)
    assert simplify(And((Not(Const(False)), Const(True)))) == Const(True)
    assert simplify(Implies(Const(False), a)) == Const(True)
    assert simplify(Implies(a, Const(False))) == Not(a)
    assert simplify(Iff(Const(False), a)) == Not(a)
    assert simplify(Iff(a, Const(True))) is a
    kept = Not(a)
    folded = simplify(And((kept, Or((b, Const(False))), a)))
    assert folded == And((kept, b, a))
    assert folded.args[0] is kept


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_search_agrees_with_truth_tables_on_small_formulas(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 6)
    clauses = []
    for _ in range(rng.randint(1, 10)):
        width = rng.randint(1, 3)
        clause = tuple(
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, nvars + 1), min(width, nvars))
        )
        clauses.append(clause)
    formula = CnfFormula(nvars, tuple(clauses), {})
    brute = any(
        all(any((lit > 0) == bits[abs(lit) - 1] for lit in clause) for clause in clauses)
        for bits in itertools.product((False, True), repeat=nvars)
    )
    assert search(formula).satisfiable == brute


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_dimacs_round_trip_on_random_formulas(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 8)
    clauses = tuple(
        tuple(
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, nvars + 1), rng.randint(1, min(3, nvars)))
        )
        for _ in range(rng.randint(1, 12))
    )
    names = {v: f"x.f{v}" for v in range(1, nvars + 1) if rng.random() < 0.5}
    formula = CnfFormula(nvars, clauses, names)
    parsed = parse_dimacs(export_dimacs(formula))
    assert parsed.variable_count == formula.variable_count
    assert parsed.clauses == formula.clauses
    assert parsed.comment_map == formula.comment_map


def test_invariants_hold_on_a_mixed_corpus():
    rng = random.Random(20240817)
    violations = []
    for i in range(150):
        profile = ("any", "none", "only_p", "only_n", "separate")[i % 5]
        rm = random_model(rng, profile=profile)
        violations += [f"model {i} [{profile}]: {v}" for v in check_model(rm, rng)]
    assert violations == []
