from __future__ import annotations

import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairaudit import (
    CnfFormula,
    DocumentError,
    ExpressionClassifier,
    ModelSemanticError,
    check_ftu,
    decode_model,
    encode_ftu,
    encode_ftu_counterexample,
    enumerate_space,
    export_dimacs,
    parse_dimacs,
    parse_expr,
    search,
    unconstrained,
)
from fairaudit import satcheck
from fairaudit.boolexpr import And, Eq, Not, Or, Var, evaluate, simplify
from fairaudit.classifier import (
    TableClassifier,
    TreeClassifier,
    TreeLeaf,
    TreeNode,
    expression_to_tree,
    parse_classifier,
    to_table,
)
from fairaudit.model import (
    Constraint,
    ConstraintSet,
    Feature,
    FeatureSpace,
    parse_document,
)
from fairaudit.randmodels import (
    dnf_to_expr,
    eval_dnf,
    random_dnf,
    random_model,
    random_partly_protected,
    random_space,
)
from fairaudit.satcheck import TABLE_LIMIT, _cover

B = (False, True)


def truth_mask(nvars: int, clauses) -> int:
    """Bit a set when assignment a (variable v true iff bit v - 1 of a)
    satisfies every clause."""
    full = (1 << (1 << nvars)) - 1
    true_on = [0] + [
        sum(1 << a for a in range(1 << nvars) if a >> (v - 1) & 1)
        for v in range(1, nvars + 1)
    ]
    sat = full
    for clause in clauses:
        holds = 0
        for lit in clause:
            holds |= true_on[lit] if lit > 0 else full ^ true_on[-lit]
        sat &= holds
    return sat


def random_3sat(rng: random.Random) -> CnfFormula:
    """8-12 variables, three distinct variables per clause, 4-5 clauses
    per variable: near the satisfiability threshold, where a search
    meets conflicts at several levels."""
    nvars = rng.randint(8, 12)
    clauses = tuple(
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, nvars + 1), 3))
        for _ in range(round(nvars * rng.uniform(4.0, 5.0)))
    )
    return CnfFormula(nvars, clauses, {})


def assert_matches_truth_table(formula: CnfFormula) -> bool:
    sat = truth_mask(formula.variable_count, formula.clauses)
    result = search(formula)
    assert result.satisfiable == bool(sat)
    if result.satisfiable:
        a = sum(result.model[v] << (v - 1) for v in range(1, formula.variable_count + 1))
        assert sat >> a & 1
    return result.satisfiable


def pigeonhole(pigeons: int, holes: int) -> CnfFormula:
    """Every pigeon in some hole, no hole shared: UNSAT when pigeons > holes."""
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p, q in itertools.combinations(range(pigeons), 2):
            clauses.append((-var(p, h), -var(q, h)))
    return CnfFormula(pigeons * holes, tuple(clauses), {})


def ftu_shaped_formula(seed: int, fair: bool) -> CnfFormula:
    """The FTU query of a random table over 9 boolean features, every
    fourth protected, with a clause on f0, f4 and on consecutive
    unprotected pairs; an unfair table flips one label where f8 holds.
    A fair one flips its label where f8 holds only at instances that
    break the f0, f4 clause: it reads the protected features on every
    projection, and only the constraints hide them."""
    rng = random.Random(seed)
    space = FeatureSpace([Feature(i, f"f{i}", B, i % 4 == 0) for i in range(9)])
    unprotected = sorted(space.unprotected)
    sign = lambda name: name if rng.random() < 0.5 else f"(not {name})"
    texts = [f"(or {sign('f0')} {sign('f4')})"] + [
        f"(or {sign(f'f{a}')} {sign(f'f{b}')})"
        for a, b in zip(unprotected[0::2], unprotected[1::2])
    ]
    constraints = ConstraintSet(tuple(Constraint(parse_expr(t, space)) for t in texts))
    by_projection = {
        p: rng.randrange(2) for p in itertools.product(B, repeat=len(unprotected))
    }
    twist = next(iter(by_projection))
    labels = []
    for x in itertools.product(B, repeat=9):
        p = tuple(x[i] for i in unprotected)
        flip = not evaluate(constraints.constraints[0].expr, x) if fair else p == twist
        labels.append(by_projection[p] ^ (flip and x[8]))
    k = TableClassifier((B,) * 9, tuple(labels), 2)
    return encode_ftu_counterexample(enumerate_space(space, constraints), k)


def gate_count(formula: CnfFormula) -> int:
    return sum(name.startswith("gate.") for name in formula.comment_map.values())


def two_booleans_and_a_protected_bit() -> FeatureSpace:
    return FeatureSpace(
        [Feature(0, "a", B, False), Feature(1, "b", B, False), Feature(2, "p", B, True)]
    )


def in_cube(x, held, failed) -> bool:
    return all(x[i] == v for i, v in held) and all(x[i] != v for i, v in failed)


def protected_variants(space: FeatureSpace, x) -> list[tuple]:
    """x with every combination of the protected features' values."""
    protected = sorted(space.protected)
    variants = []
    for values in itertools.product(*(space.features[i].domain for i in protected)):
        y = list(x)
        for i, v in zip(protected, values):
            y[i] = v
        variants.append(tuple(y))
    return variants


def assert_cover_holds_the_labels(space: FeatureSpace, k, instances, cover) -> None:
    """A cube carries no label exactly when it has no protected test.
    Every instance lies in a cube; when one of its cubes carries no
    label, every protected variant of the instance gets its label, and
    otherwise every cube it lies in carries its label."""
    for label, held, failed in cover:
        assert (label is None) == (not any(i in space.protected for i, _ in held + failed))
    for x in instances:
        label = k.evaluate(x)
        labels = {c for c, held, failed in cover if in_cube(x, held, failed)}
        if None in labels:
            assert {k.evaluate(y) for y in protected_variants(space, x)} == {label}
        else:
            assert labels == {label}


def assert_cover_selects_the_label(formula: CnfFormula, space: FeatureSpace, k, instances):
    """The cover holds the labels (assert_cover_holds_the_labels). Take
    the clauses on copy x alone (its feature variables, the true constant
    and its selectors) with sel.x.c the only selector set true: an
    instance satisfies them all exactly when c is its label and it lies
    in no cube without a protected test, which one clause with no
    selector rules out."""
    cover = _cover(k, space)
    assert_cover_holds_the_labels(space, k, instances, cover)
    shared = [(held, failed) for label, held, failed in cover if label is None]
    by_name = {name: var for var, name in formula.comment_map.items()}
    sel = [by_name[f"sel.x.{c}"] for c in range(k.class_count)]
    own = {var for name, var in by_name.items() if name.startswith(("x.", "const.", "sel.x."))}
    clauses = [clause for clause in formula.clauses if all(abs(lit) in own for lit in clause)]
    for x in instances:
        label = k.evaluate(x)
        model = {by_name.get("const.true"): True}
        for var, name in formula.comment_map.items():
            tag, _, rest = name.partition(".")
            if tag == "x":
                feature, eq, raw = rest.partition("=")
                value = x[space.feature_named(feature).index]
                model[var] = satcheck._parse_value(raw) == value if eq else bool(value)
        holds = lambda clause, c: any(
            (lit == sel[c]) if abs(lit) in sel else model[abs(lit)] == (lit > 0)
            for lit in clause
        )
        ruled_out = any(in_cube(x, held, failed) for held, failed in shared)
        for c in range(k.class_count):
            assert all(holds(clause, c) for clause in clauses) == (c == label and not ruled_out)


class TestCnfValidation:
    @pytest.mark.parametrize(
        "clauses, message",
        [
            (((1,), ()), "empty clause"),
            (((1, 0),), "literal 0 out of range"),
            (((1,), (2, 3)), "literal 3 out of range"),
            (((-3, 1),), "literal -3 out of range"),
            # the first fault in clause order is the one named
            (((5,), ()), "literal 5 out of range"),
            (((), (5,)), "empty clause"),
        ],
    )
    def test_bad_clauses_are_named(self, clauses, message):
        with pytest.raises(ModelSemanticError) as caught:
            CnfFormula(2, clauses, {})
        assert str(caught.value) == message

    def test_extreme_literals_in_range_are_accepted(self):
        assert CnfFormula(2, ((2, -2), (-1, 1)), {}).variable_count == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("p cnf two 1\n1 0\n", "bad DIMACS header on line 1"),
            ("p cnf 2 x\n1 0\n", "bad DIMACS header on line 1"),
            ("p cnf 2 1\n1 x 0\n", "bad literal 'x' on line 2"),
            # int() reads these, DIMACS does not
            ("p cnf 2 1\n\u0661 0\n", "bad literal '\u0661' on line 2"),
            ("p cnf 12 1\n1_0 0\n", "bad literal '1_0' on line 2"),
            ("p cnf 1_0 1\n1 0\n", "bad DIMACS header on line 1"),
            ("p cnf 2 1\n+1 0\n", "bad literal '\\+1' on line 2"),
            ("p cnf -1 0\n", "bad DIMACS header on line 1"),
        ],
    )
    def test_non_integer_dimacs_tokens_are_document_errors(self, text, message):
        with pytest.raises(DocumentError, match=message):
            parse_dimacs(text)

    # "\u00b2".isdigit() holds, and int() refuses 5,000 digits
    @pytest.mark.parametrize("word", ["\u00b2", "1" * 5000], ids=["superscript", "long"])
    def test_a_comment_whose_second_word_names_no_variable_is_text(self, word):
        formula = parse_dimacs(f"c {word} x\np cnf 1 1\n1 0\n")
        assert (formula.comment_map, formula.clauses) == ({}, ((1,),))


class TestSearch:
    def test_empty_formula_is_sat_with_empty_model(self):
        result = search(CnfFormula(0, (), {}))
        assert result.satisfiable
        assert result.model == {}

    def test_unit_contradiction_is_unsat(self):
        result = search(CnfFormula(1, ((1,), (-1,)), {}))
        assert not result.satisfiable

    def test_models_are_total_and_verified(self):
        formula = CnfFormula(3, ((1, 2), (-1, 3)), {})
        result = search(formula)
        assert result.satisfiable
        assert set(result.model) == {1, 2, 3}
        for clause in formula.clauses:
            assert any(result.model[abs(l)] == (l > 0) for l in clause)

    def test_deterministic_branching(self):
        formula = CnfFormula(3, ((1, 2, 3),), {})
        first = search(formula)
        second = search(formula)
        assert first.model == second.model
        # false-first on the lowest index leaves 1 and 2 false
        assert first.model[1] is False and first.model[2] is False
        assert first.model[3] is True

    def test_pigeonhole_two_in_one_is_unsat(self):
        # two pigeons, one hole; small but forces real backtracking
        clauses = ((1,), (2,), (-1, -2))
        assert not search(CnfFormula(2, clauses, {})).satisfiable

    @pytest.mark.parametrize("pigeons", [5, 6])
    def test_pigeonhole_past_the_holes_is_unsat(self, pigeons):
        result = search(pigeonhole(pigeons, pigeons - 1))
        assert not result.satisfiable
        assert result.nodes > 0

    def test_pigeonhole_with_enough_holes_is_sat(self):
        assert_matches_truth_table(pigeonhole(4, 4))

    @pytest.mark.parametrize("fair", [True, False])
    def test_ftu_shaped_search_is_deterministic(self, fair):
        formula = ftu_shaped_formula(7, fair)
        first, second = search(formula), search(formula)
        assert first.satisfiable == (not fair)
        assert first.model == second.model
        assert first.nodes == second.nodes
        assert first.nodes > 0

    def test_repeated_and_complementary_literals_are_normalised(self):
        # 1 1 -2 is the clause 1 -2; 1 -1 always holds and forces nothing
        result = search(parse_dimacs("p cnf 2 2\n1 1 -2 0\n-1 0\n"))
        assert result.satisfiable and result.model == {1: False, 2: False}
        assert not search(parse_dimacs("p cnf 2 3\n1 1 -2 0\n-1 0\n2 2 0\n")).satisfiable
        result = search(parse_dimacs("p cnf 1 2\n1 -1 0\n-1 0\n"))
        assert result.satisfiable and result.model == {1: False}
        result = search(parse_dimacs("p cnf 3 2\n1 -1 2 0\n-2 3 -2 3 0\n"))
        assert result.satisfiable and result.model == {1: False, 2: False, 3: False}

    def test_random_formulas_with_repeated_literals_match_truth_tables(self):
        rng = random.Random(11)
        for _ in range(60):
            nvars = rng.randint(3, 8)
            lines = [
                " ".join(
                    str(rng.choice((1, -1)) * rng.randint(1, nvars))
                    for _ in range(rng.randint(1, 5))
                )
                + " 0"
                for _ in range(rng.randint(nvars, 5 * nvars))
            ]
            text = f"p cnf {nvars} {len(lines)}\n" + "\n".join(lines) + "\n"
            assert_matches_truth_table(parse_dimacs(text))


class TestLearning:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_3sat_near_the_threshold_matches_truth_tables(self, seed):
        assert_matches_truth_table(random_3sat(random.Random(seed)))

    def test_conflicts_learn_and_jump_back_past_levels(self, monkeypatch):
        jumps = []
        backjump = satcheck._Solver._backjump

        def spy(solver, depth):
            jumps.append(len(solver.limits) - depth)
            backjump(solver, depth)

        monkeypatch.setattr(satcheck._Solver, "_backjump", spy)
        rng = random.Random(2)
        answers = [assert_matches_truth_table(random_3sat(rng)) for _ in range(40)]
        assert 5 <= sum(answers) <= 35
        # each learned clause asserts at the level it jumps to; some jump
        # back over more than the level of the conflict
        assert len(jumps) > 100
        assert max(jumps) > 1


class TestEncoding:
    def test_xor_link_query_is_unsat(self, load_model):
        loaded = load_model("xor_link")
        formula = encode_ftu_counterexample(loaded.constrained(), loaded.classifier)
        assert not search(formula).satisfiable

    def test_work_from_home_query_is_unsat(self, load_model):
        loaded = load_model("work_from_home")
        cs = loaded.constrained()
        assert len(cs) == 11
        formula = encode_ftu_counterexample(cs, loaded.classifier)
        assert not search(formula).satisfiable
        assert check_ftu(cs, loaded.classifier, "exhaustive")[0]

    def test_unconstrained_bonus_query_is_sat_and_decodes(self, load_model):
        loaded = load_model("bonus_goals")
        full = loaded.full()
        formula = encode_ftu_counterexample(full, loaded.classifier)
        result = search(formula)
        assert result.satisfiable
        x, y = decode_model(formula, result.model, full, loaded.classifier)
        (g,) = loaded.by_name("g")
        assert x[g] == y[g]
        assert loaded.classifier.evaluate(x) != loaded.classifier.evaluate(y)

    def test_tautological_lift_is_unsat(self, load_model):
        # classifier ignores the protected bit entirely
        loaded = load_model("implied_pair")
        space = FeatureSpace(
            [Feature(0, "x0", B, True)]
            + [Feature(i, f"x{i}", B, False) for i in (1, 2)]
        )
        k = ExpressionClassifier(parse_expr("(or x0 true)", space))
        formula = encode_ftu_counterexample(unconstrained(space), k)
        assert not search(formula).satisfiable

    def test_falsifiable_dnf_lift_is_sat(self):
        # guard bit or a DNF falsified at (0,0): a counterexample exists
        space = FeatureSpace(
            [Feature(0, "x0", B, True), Feature(1, "x1", B, False), Feature(2, "x2", B, False)]
        )
        k = ExpressionClassifier(
            parse_expr("(or x0 (and x1 (not x2)) x2)", space)
        )
        full = unconstrained(space)
        formula = encode_ftu_counterexample(full, k)
        result = search(formula)
        assert result.satisfiable
        x, y = decode_model(formula, result.model, full, k)
        assert x[1:] == y[1:]

    def test_onehot_domains_get_exactly_one_clauses(self, load_model):
        loaded = load_model("spouses")
        cs = loaded.constrained()
        formula = encode_ftu_counterexample(cs, loaded.classifier)
        names = formula.comment_map
        value_vars = sorted(
            var for var, name in names.items() if name.startswith("x.n=")
        )
        assert len(value_vars) == 3
        assert tuple(value_vars) in formula.clauses  # at least one
        for a, b in itertools.combinations(value_vars, 2):
            assert (-a, -b) in formula.clauses  # at most one

    def test_table_and_tree_forms_encode_like_the_expression(self, load_model):
        loaded = load_model("sick_leave")
        cs = loaded.constrained()
        base = loaded.classifier
        for variant in (
            to_table(base, loaded.space),
            expression_to_tree(base.expr, loaded.space),
        ):
            formula = encode_ftu_counterexample(cs, variant)
            assert search(formula).satisfiable == (not check_ftu(cs, base)[0])

    def test_cover_of_a_chain_deeper_than_the_recursion_limit(self, chain_tree_document):
        # the chain's last test fails into a test of the protected m, so
        # every test of the chain has a protected test below it, and both
        # walks of the cover go 1,500 tests deep
        document = json.loads(chain_tree_document)
        nodes = document["classifier"]["nodes"]
        nodes[1499]["if_false"] = 3001
        nodes += [
            {"id": 3001, "feature": "m", "value": True, "if_true": 3002, "if_false": 3003},
            {"id": 3002, "label": 1},
            {"id": 3003, "label": 0},
        ]
        space, _, k_obj = parse_document(json.dumps(document))
        k = parse_classifier(k_obj, space)
        cover = _cover(k, space)
        assert [label for label, _, _ in cover] == [None] * 1500 + [1, 0]
        instances = list(itertools.product(*(f.domain for f in space.features)))
        rng = random.Random(3)
        edges = [2 * n + m for n in (0, 1, 699, 700, 701, 1499, 1500) for m in (0, 1)]
        sample = [instances[r] for r in edges + rng.sample(range(len(instances)), 100)]
        assert_cover_holds_the_labels(space, k, sample, cover)
        for x in sample:
            assert sum(in_cube(x, held, failed) for _, held, failed in cover) == 1

    @pytest.mark.parametrize("fair", [True, False])
    def test_table_values_off_the_space_domain_never_hold(self, fair):
        # a table over a wider domain than the space's: the rows where n
        # is 5 read the false constant, so only a and, when unfair, n
        # decide the label
        space = FeatureSpace(
            [Feature(0, "a", B, False), Feature(1, "n", (0, 1, 2), True)]
        )
        domains = (B, (0, 1, 2, 5))
        labels = tuple(
            int(n == 5 or a != (not fair and n == 2))
            for a, n in itertools.product(*domains)
        )
        formula = encode_ftu_counterexample(
            unconstrained(space), TableClassifier(domains, labels, 2)
        )
        names = {name: var for var, name in formula.comment_map.items()}
        assert (names["const.true"],) in formula.clauses
        assert search(formula).satisfiable == (not fair)

    def test_table_expansion_respects_the_limit(self):
        from fairaudit import CapacityError

        # 13 boolean features: 8,192 rows, above TABLE_LIMIT
        space = FeatureSpace([Feature(i, f"f{i}", B, i == 0) for i in range(13)])
        table = to_table(ExpressionClassifier(parse_expr("(or f0 f1)", space)), space)
        assert len(table.labels) > TABLE_LIMIT
        with pytest.raises(CapacityError, match="clause-expansion"):
            encode_ftu_counterexample(unconstrained(space), table)

    def test_decode_rejects_out_of_space_assignments(self, load_model):
        loaded = load_model("xor_link")
        cs = loaded.constrained()
        formula = encode_ftu_counterexample(cs, loaded.classifier)
        # a=1 with b=c=0 violates the linking constraint
        garbage = {v: False for v in range(1, formula.variable_count + 1)}
        (a_var,) = [v for v, n in formula.comment_map.items() if n == "x.a"]
        garbage[a_var] = True
        with pytest.raises(AssertionError, match="outside the constrained space"):
            decode_model(formula, garbage, cs)

    def test_decoding_an_unsat_result_is_a_contract_error(self, load_model):
        loaded = load_model("xor_link")
        cs = loaded.constrained()
        formula = encode_ftu_counterexample(cs, loaded.classifier)
        result = search(formula)
        assert not result.satisfiable and result.model is None
        with pytest.raises(TypeError):
            decode_model(formula, result.model, cs)


class TestCircuit:
    # the formulas below read the protected p, so both copies emit their
    # gates; a formula over a and b alone gets x's gates only

    def test_a_bare_feature_and_its_equality_to_true_get_separate_gates(self):
        space = two_booleans_and_a_protected_bit()
        constraints = ConstraintSet((Constraint(parse_expr("(and a p)", space)),))
        k = ExpressionClassifier(parse_expr("(and (= a true) p)", space))
        assert gate_count(encode_ftu(space, constraints, k)) == 2 * 2

    def test_equality_to_true_and_to_one_share_a_gate(self):
        space = two_booleans_and_a_protected_bit()
        constraints = ConstraintSet((Constraint(And((Eq(0, 1), Var(2)))),))
        k = ExpressionClassifier(And((Eq(0, True), Var(2))))
        assert gate_count(encode_ftu(space, constraints, k)) == 1 * 2

    def test_a_subformula_of_a_constraint_and_a_class_formula_gets_one_gate(self):
        space = two_booleans_and_a_protected_bit()
        constraints = ConstraintSet((Constraint(parse_expr("(or a (not p))", space)),))
        k = ExpressionClassifier(parse_expr("(and b (or a (not p)))", space))
        # per copy: the shared or, and the classifier's and
        assert gate_count(encode_ftu(space, constraints, k)) == 2 * 2

    def test_y_has_variables_for_the_protected_features_only(self):
        space = FeatureSpace(
            [
                Feature(0, "a", B, False),
                Feature(1, "n", (0, 1, 2), False),
                Feature(2, "p", B, True),
                Feature(3, "q", (0, 1, 2), True),
            ]
        )
        k = ExpressionClassifier(parse_expr("(or a (= q 1))", space))
        names = set(encode_ftu(space, ConstraintSet(), k).comment_map.values())
        assert {n for n in names if n.startswith("y.")} == {"y.p", "y.q=0", "y.q=1", "y.q=2"}
        assert {"x.a", "x.n=0", "x.n=1", "x.n=2", "x.p", "x.q=0"} <= names

    def test_no_equality_clauses_are_written(self):
        # no clause names a feature variable of x and one of y together:
        # the copies meet only through gates and the class clauses
        space = FeatureSpace(
            [Feature(0, "a", B, False), Feature(1, "n", (0, 1, 2), False), Feature(2, "p", B, True)]
        )
        constraints = ConstraintSet((Constraint(parse_expr("(or a (= n 1))", space)),))
        k = ExpressionClassifier(parse_expr("(and p (or a (= n 2)))", space))
        formula = encode_ftu(space, constraints, k)
        copy_of = {var: name[0] for var, name in formula.comment_map.items() if name[1] == "."}
        for clause in formula.clauses:
            assert not {"x", "y"} <= {copy_of.get(abs(lit)) for lit in clause}

    def test_a_node_without_a_protected_feature_has_one_literal_in_both_copies(self):
        space = two_booleans_and_a_protected_bit()
        builder, circuit = satcheck._Builder(), satcheck._Circuit()
        x = satcheck._Copy(builder, space, "x")
        y = satcheck._Copy(builder, space, "y", base=x)
        nodes, root = circuit.add(parse_expr("(or (and a b) (and a p))", space))
        x.emit(nodes, root)
        gates = builder.count
        y.emit(nodes, root)
        # post-order: a, b, (and a b), p, (and a p), the or
        a_and_b, a_and_p, either = 2, 4, 5
        assert x.lits[a_and_b] == y.lits[a_and_b]
        assert x.lits[a_and_p] != y.lits[a_and_p]
        assert x.lits[either] != y.lits[either]
        assert builder.count == gates + 2  # y's and over p, and its or

    def test_a_constraint_without_a_protected_feature_is_asserted_once(self):
        space = two_booleans_and_a_protected_bit()
        constraints = ConstraintSet(
            (Constraint(parse_expr("(or a b)", space)), Constraint(parse_expr("(or a p)", space)))
        )
        k = ExpressionClassifier(parse_expr("p", space))
        units = [c for c in encode_ftu(space, constraints, k).clauses if len(c) == 1]
        assert len(units) == 1 + 2  # (or a b) once, (or a p) per copy

    def test_decode_gives_y_the_value_of_x_on_a_multivalued_unprotected_feature(self):
        space = FeatureSpace(
            [Feature(0, "n", (0, 1, 2, 3), False), Feature(1, "p", B, True)]
        )
        constraints = ConstraintSet((Constraint(parse_expr("(not (lt n 2))", space)),))
        k = ExpressionClassifier(parse_expr("(and p (= n 3))", space))
        cs = enumerate_space(space, constraints)
        formula = encode_ftu(space, constraints, k)
        assert not any(name.startswith("y.n") for name in formula.comment_map.values())
        result = search(formula)
        assert result.satisfiable
        x, y = decode_model(formula, result.model, cs, k)
        assert x[0] == y[0] == 3 and x[1] != y[1]

    def test_both_copies_emit_the_same_gates_up_to_renaming(self):
        space = FeatureSpace(
            [
                Feature(0, "a", B, False),
                Feature(1, "b", B, True),
                Feature(2, "n", (0, 1, 2, 3), False),
            ]
        )
        texts = [
            "(iff a (le n 1))",
            "(implies (lt n 3) (or b (= n 2)))",
            "(and (iff a (le n 1)) (not b) (or a b))",
            "(or (and a b) (and a b) (= n 0))",
        ]
        builder, circuit = satcheck._Builder(), satcheck._Circuit()
        copies = [satcheck._Copy(builder, space, tag) for tag in "xy"]
        added = [circuit.add(simplify(parse_expr(t, space))) for t in texts]
        emitted = []
        for copy in copies:
            first_clause, first_var = len(builder.clauses), builder.count + 1
            roots = [copy.emit(nodes, root) for nodes, root in added]
            gates = range(first_var, builder.count + 1)
            emitted.append((builder.clauses[first_clause:], gates, roots))
        (x_clauses, x_gates, x_roots), (y_clauses, y_gates, y_roots) = emitted
        assert len(x_gates) == len(y_gates) > 0
        by_name = {name: var for var, name in builder.names.items()}
        rename = dict(zip(x_gates, y_gates))
        for var, name in builder.names.items():
            if name.startswith("x."):
                rename[var] = by_name["y." + name[2:]]
        renamed = lambda lit: rename[lit] if lit > 0 else -rename[-lit]
        assert [tuple(map(renamed, c)) for c in x_clauses] == y_clauses
        assert list(map(renamed, x_roots)) == y_roots

    def test_encode_ftu_reads_the_space_and_constraints_alone(self, load_model):
        loaded = load_model("work_from_home")
        cs = loaded.constrained()
        assert export_dimacs(
            encode_ftu(cs.space, cs.constraints, loaded.classifier)
        ) == export_dimacs(encode_ftu_counterexample(cs, loaded.classifier))

    def test_encode_ftu_needs_no_enumeration(self):
        # 2^40 instances, far past the enumeration cap
        space = FeatureSpace([Feature(i, f"f{i}", B, i == 0) for i in range(40)])
        constraints = ConstraintSet((Constraint(parse_expr("(implies f0 f1)", space)),))
        k = ExpressionClassifier(parse_expr("(or (and f0 f1) (and f1 f39))", space))
        result = search(encode_ftu(space, constraints, k))
        assert result.satisfiable  # f1 and not f39: f0 decides the label


def random_table(rng: random.Random, off_space: bool):
    """A space of 1-4 features, domains of 1-4 values, some protected,
    and a table of up to 4 classes over it; with off_space, one feature
    of the table has a value the space's domain lacks."""
    space_domains = []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, 4)
        space_domains.append(B if size == 2 and rng.random() < 0.5 else tuple(range(size)))
    domains = list(space_domains)
    if off_space:
        i = rng.randrange(len(domains))
        if space_domains[i] == B:  # no value lies off a boolean domain
            space_domains[i] = (0, 1)
        domains[i] = (*space_domains[i], 7)
    space = FeatureSpace(
        [Feature(i, f"f{i}", d, rng.random() < 0.4) for i, d in enumerate(space_domains)]
    )
    classes = rng.randint(2, 4)
    rows = len(list(itertools.product(*domains)))
    # a palette of few labels makes wide primes common
    palette = rng.sample(range(classes), rng.randint(1, classes))
    labels = tuple(rng.choice(palette) for _ in range(rows))
    return space, TableClassifier(tuple(domains), labels, classes)


class TestTableCover:
    def test_every_row_satisfies_the_implicant_clauses_of_its_own_label_only(self):
        rng = random.Random(18)
        for trial in range(150):
            space, k = random_table(rng, off_space=trial % 3 == 0)
            formula = encode_ftu(space, ConstraintSet(), k)
            # no assignment of x holds a value off the space
            rows = [
                row
                for row in itertools.product(*k.domains)
                if all(v in f.domain for f, v in zip(space.features, row))
            ]
            assert_cover_selects_the_label(formula, space, k, rows)

    def test_search_agrees_with_exhaustive_on_random_tables(self):
        rng = random.Random(81)
        seen = set()
        for trial in range(150):
            space, k = random_table(rng, off_space=trial % 3 == 0)
            cs = unconstrained(space)
            # the pairwise definition, over the space's own instances
            by_projection: dict[tuple, set] = {}
            for x in cs.instances:
                p = tuple(x[i] for i in sorted(space.unprotected))
                by_projection.setdefault(p, set()).add(k.evaluate(x))
            fair = all(len(labels) == 1 for labels in by_projection.values())
            formula = encode_ftu(space, ConstraintSet(), k)
            result = search(formula)
            assert result.satisfiable == (not fair)
            if result.satisfiable:
                decode_model(formula, result.model, cs, k)
            if trial % 3:  # the table's domains are the space's
                assert check_ftu(cs, k, "search")[0] == check_ftu(cs, k, "exhaustive")[0] == fair
            seen.add(fair)
        assert seen == {True, False}

    @pytest.mark.parametrize("first, fair", [(1, True), (0, False)])
    def test_a_parity_table_at_the_row_limit_encodes(self, first, fair):
        # 12 booleans, 4,096 rows, whose primes are its minterms: parity
        # from feature `first` on, f0 being protected
        space = FeatureSpace([Feature(i, f"f{i}", B, i == 0) for i in range(12)])
        domains = (B,) * 12
        labels = tuple(sum(x[first:]) % 2 for x in itertools.product(*domains))
        k = TableClassifier(domains, labels, 2)
        assert len(k.labels) == TABLE_LIMIT
        # no protected change alters parity over the unprotected features
        # alone, so its cover is one cube with no label: the false clause
        assert (_cover(k, space) == [(None, (), ())]) == fair
        result = search(encode_ftu(space, ConstraintSet(), k))
        assert result.satisfiable == (not fair)
        if fair:
            assert result.nodes == 0


def random_tree(rng: random.Random):
    """A space of 1-4 features, domains of 1-4 values, some protected,
    and a tree of up to 4 classes, some of them unused, up to 5 tests
    deep. A test may name any feature at any depth, so a path can test
    one feature twice and reach a branch no instance takes."""
    space_domains = [
        B if size == 2 and rng.random() < 0.5 else tuple(range(size))
        for size in (rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
    ]
    space = FeatureSpace(
        [Feature(i, f"f{i}", d, rng.random() < 0.4) for i, d in enumerate(space_domains)]
    )
    classes = rng.randint(2, 4)
    palette = rng.sample(range(classes), rng.randint(1, classes))
    nodes: list = []

    def grow(depth: int, tested: frozenset) -> int:
        node_id = len(nodes)
        nodes.append(None)
        tests = [(f.index, v) for f in space.features for v in f.domain]
        tests = [t for t in tests if t not in tested]
        if not depth or not tests or rng.random() < 0.25:
            nodes[node_id] = TreeLeaf(node_id, rng.choice(palette))
            return node_id
        f, v = rng.choice(tests)
        if_true = grow(depth - 1, tested | {(f, v)})
        if_false = grow(depth - 1, tested | {(f, v)})
        nodes[node_id] = TreeNode(node_id, f, v, if_true, if_false)
        return node_id

    grow(rng.randint(0, 5), frozenset())
    return space, TreeClassifier(tuple(nodes), 0, classes)


def random_constraint(rng: random.Random, space: FeatureSpace) -> ConstraintSet:
    """None, or one clause over two random value tests."""
    if rng.random() < 0.5:
        return ConstraintSet()
    (f, v), (g, w) = [
        (feat.index, rng.choice(feat.domain)) for feat in rng.choices(space.features, k=2)
    ]
    return ConstraintSet((Constraint(Or((Eq(f, v), Not(Eq(g, w))))),))


class TestTreeCover:
    def test_every_instance_satisfies_the_leaf_clauses_of_its_own_label_only(self):
        rng = random.Random(20)
        single_leaf = unreachable = 0
        protected_tests = set()
        for _ in range(150):
            space, k = random_tree(rng)
            formula = encode_ftu(space, ConstraintSet(), k)
            assert gate_count(formula) == 0
            instances = unconstrained(space).instances
            assert_cover_selects_the_label(formula, space, k, instances)
            cover = _cover(k, space)
            for x in instances:  # the node where its walk stops
                assert sum(in_cube(x, held, failed) for _, held, failed in cover) == 1
            single_leaf += len(k.nodes) == 1
            # a leaf no instance reaches passes two tests on one feature
            unreachable += any(len({f for f, _ in held}) < len(held) for _, held, _ in cover)
            protected_tests |= {
                any(i in space.protected for i, _ in held + failed) for _, held, failed in cover
            }
        assert single_leaf and unreachable and protected_tests == {True, False}

    def test_search_agrees_with_exhaustive_on_random_trees(self):
        rng = random.Random(21)
        seen = set()
        for _ in range(150):
            space, k = random_tree(rng)
            constraints = random_constraint(rng, space)
            cs = enumerate_space(space, constraints)
            fair = check_ftu(cs, k, "exhaustive")[0]
            formula = encode_ftu(space, constraints, k)
            result = search(formula)
            assert result.satisfiable == (not fair)
            if result.satisfiable:
                decode_model(formula, result.model, cs, k)
            seen.add(fair)
        assert seen == {True, False}

    def test_failed_tests_on_a_passed_feature_drop_out(self):
        # n = 0 failed, then n = 1 passed: the cubes under n = 1 keep no
        # test n = 0, and none keeps the failed n = 2 below it; the
        # branch where n = 2 passes too is reached by no instance. Only
        # the p test's leaves carry a label: the walk stops at every
        # other leaf and at the n = 2 test under n != 1, with no
        # protected test on its path or below it
        space = FeatureSpace([Feature(0, "n", (0, 1, 2), False), Feature(1, "p", B, True)])
        nodes = (
            TreeNode(0, 0, 0, 1, 2),
            TreeLeaf(1, 0),
            TreeNode(2, 0, 1, 3, 4),
            TreeNode(3, 0, 2, 5, 6),
            TreeNode(4, 0, 2, 9, 10),
            TreeLeaf(5, 1),
            TreeNode(6, 1, True, 7, 8),
            TreeLeaf(7, 1),
            TreeLeaf(8, 0),
            TreeLeaf(9, 1),
            TreeLeaf(10, 0),
        )
        k = TreeClassifier(nodes, 0, 2)
        cover = _cover(k, space)
        assert cover == [
            (None, ((0, 0),), ()),
            (None, ((0, 1), (0, 2)), ()),
            (1, ((0, 1), (1, True)), ()),
            (0, ((0, 1),), ((1, True),)),
            (None, (), ((0, 0), (0, 1))),
        ]
        assert_cover_holds_the_labels(space, k, unconstrained(space).instances, cover)
        assert search(encode_ftu(space, ConstraintSet(), k)).satisfiable

    def test_cover_of_random_trees_with_shared_nodes(self, random_shared_tree):
        rng = random.Random(24)
        shared = set()
        for _ in range(80):
            space = random_space(rng, max_features=5)
            k = random_shared_tree(rng, space)
            instances = unconstrained(space).instances
            cover = _cover(k, space)
            assert_cover_holds_the_labels(space, k, instances, cover)
            for x in instances:
                assert sum(in_cube(x, held, failed) for _, held, failed in cover) == 1
            reached = set(k._order)
            edges = [
                child
                for node in k.nodes
                if isinstance(node, TreeNode) and node.id in reached
                for child in (node.if_true, node.if_false)
            ]
            shared.add(len(edges) > len(set(edges)))
        assert shared == {True, False}

    def test_an_unreachable_protected_test_scopes_nothing(self):
        # node 3 tests the protected p but no edge reaches it, so the
        # root is free and the whole space is one free cube
        space = FeatureSpace([Feature(0, "a", B, False), Feature(1, "p", B, True)])
        nodes = (
            TreeNode(0, 0, True, 1, 2),
            TreeLeaf(1, 0),
            TreeLeaf(2, 1),
            TreeNode(3, 1, True, 2, 1),
        )
        k = TreeClassifier(nodes, 0, 2)
        assert _cover(k, space) == [(None, (), ())]
        assert not search(encode_ftu(space, ConstraintSet(), k)).satisfiable

    @pytest.mark.parametrize("n, cubes", [(10, 1024), (12, 4096)])
    def test_a_shared_chain_gives_a_cube_per_path(self, n, cubes):
        # tests f0 .. f{n-1}, both branches of each but the last pointing
        # at the next; the last feature is protected, so every node is
        # scoped and the walk gives one labelled cube per path
        space = FeatureSpace([Feature(i, f"f{i}", B, i == n - 1) for i in range(n)])
        nodes = [TreeNode(i, i, True, i + 1, i + 1) for i in range(n - 1)]
        nodes += [TreeNode(n - 1, n - 1, True, n, n + 1), TreeLeaf(n, 1), TreeLeaf(n + 1, 0)]
        cover = _cover(TreeClassifier(tuple(nodes), 0, 2), space)
        assert len(cover) == cubes
        assert {label for label, _, _ in cover} == {0, 1}


def wide_space(rng: random.Random, n: int) -> tuple[FeatureSpace, ConstraintSet]:
    """n booleans, every fourth protected, and n/2 random clauses of
    three literals: past the enumeration cap from about 25 features."""
    space = FeatureSpace([Feature(i, f"f{i}", B, i % 4 == 0) for i in range(n)])
    clauses = [
        Constraint(Or(tuple(Var(i) if rng.random() < 0.5 else Not(Var(i)) for i in picked)))
        for picked in (rng.sample(range(n), 3) for _ in range(n // 2))
    ]
    return space, ConstraintSet(tuple(clauses))


def grow_unprotected(rng: random.Random, space: FeatureSpace, depth: int) -> list:
    """The nodes of a random tree of unprotected boolean tests, root 0, at
    most depth tests deep, each node a leaf with probability 0.1, no
    feature tested twice on a path."""
    nodes: list = []

    def grow(depth: int, tested: frozenset) -> int:
        node_id = len(nodes)
        nodes.append(None)
        free = [i for i in sorted(space.unprotected) if i not in tested]
        if not depth or not free or rng.random() < 0.1:
            nodes[node_id] = TreeLeaf(node_id, rng.randrange(2))
            return node_id
        i = rng.choice(free)
        if_true = grow(depth - 1, tested | {i})
        if_false = grow(depth - 1, tested | {i})
        nodes[node_id] = TreeNode(node_id, i, True, if_true, if_false)
        return node_id

    grow(depth, frozenset())
    return nodes


class TestFreeRegion:
    def test_partly_protected_models_get_both_kinds_of_cube(self):
        # a label that reads a protected feature on some projections only:
        # free cubes there, labelled ones elsewhere, and the search still
        # agrees with exhaustive FTU under the constraints
        rng = random.Random(22)
        seen = set()
        for _ in range(60):
            m = random_partly_protected(rng)
            k = m.classifier
            cover = _cover(k, m.space)
            assert {label is None for label, _, _ in cover} == {True, False}
            assert_cover_holds_the_labels(m.space, k, unconstrained(m.space).instances, cover)
            cs = enumerate_space(m.space, m.constraints)
            fair = check_ftu(cs, k, "exhaustive")[0]
            formula = encode_ftu(m.space, m.constraints, k)
            result = search(formula)
            assert result.satisfiable == (not fair)
            if result.satisfiable:
                decode_model(formula, result.model, cs, k)
            seen.add((type(k), fair))
        assert len(seen) == 4

    def test_a_random_fair_tree_over_40_features_needs_no_decision(self):
        # 6,344 leaves over the unprotected features: every instance lies
        # in the root's free cube. The unfair twin tests f0 at its last
        # leaf, and its witness is read off the model with no enumeration
        rng = random.Random(3)
        space, constraints = wide_space(rng, 40)
        nodes = grow_unprotected(rng, space, 14)
        k = TreeClassifier(tuple(nodes), 0, 2)
        assert sum(isinstance(node, TreeLeaf) for node in nodes) == 6344
        assert _cover(k, space) == [(None, (), ())]
        result = search(encode_ftu(space, constraints, k))
        assert (result.satisfiable, result.nodes) == (False, 0)
        last = nodes[-1]
        twin = TreeClassifier(
            (
                *nodes[:-1],
                TreeNode(last.id, 0, True, len(nodes), len(nodes) + 1),
                TreeLeaf(len(nodes), last.label),
                TreeLeaf(len(nodes) + 1, 1 - last.label),
            ),
            0,
            2,
        )
        formula = encode_ftu(space, constraints, twin)
        result = search(formula)
        assert result.satisfiable
        var = {name: v for v, name in formula.comment_map.items()}
        x = tuple(result.model[var[f"x.{f.name}"]] for f in space.features)
        y = tuple(
            result.model[var.get(f"y.{f.name}", var[f"x.{f.name}"])] for f in space.features
        )
        assert twin.evaluate(x) != twin.evaluate(y)
        assert all(evaluate(c.expr, x) and evaluate(c.expr, y) for c in constraints)

    @pytest.mark.parametrize("n, clauses, decisions", [(40, 977, 3834), (80, 741, 3520)])
    def test_twin_subtrees_keep_their_clause_and_decision_counts(self, n, clauses, decisions):
        # a root test of the protected f0 over two copies of one subtree:
        # fair, and every path tests f0, so nothing is free and the query
        # is the one the cover wrote before it had a free region
        rng = random.Random(2)
        space, constraints = wide_space(rng, n)
        sub = grow_unprotected(rng, space, 8)
        nodes: list = [TreeNode(0, 0, True, 1, 1 + len(sub))]
        for offset in (1, 1 + len(sub)):
            nodes += [
                TreeLeaf(node.id + offset, node.label)
                if isinstance(node, TreeLeaf)
                else replace(
                    node,
                    id=node.id + offset,
                    if_true=node.if_true + offset,
                    if_false=node.if_false + offset,
                )
                for node in sub
            ]
        k = TreeClassifier(tuple(nodes), 0, 2)
        assert all(label is not None for label, _, _ in _cover(k, space))
        formula = encode_ftu(space, constraints, k)
        result = search(formula)
        assert (len(formula.clauses), result.satisfiable, result.nodes) == (
            clauses,
            False,
            decisions,
        )


class TestEngineAgreement:
    def test_random_models(self):
        rng = random.Random(41)
        sat_seen = unsat_seen = 0
        for _ in range(60):
            rm = random_model(rng, max_features=5, max_domain=3)
            cs = enumerate_space(rm.space, rm.constraints)
            exhaustive, _ = check_ftu(cs, rm.classifier, "exhaustive")
            formula = encode_ftu_counterexample(cs, rm.classifier)
            result = search(formula)
            assert result.satisfiable == (not exhaustive)
            if result.satisfiable:
                sat_seen += 1
                x, y = decode_model(formula, result.model, cs, rm.classifier)
                assert cs.contains(x) and cs.contains(y)
            else:
                unsat_seen += 1
        assert sat_seen >= 5 and unsat_seen >= 5


class TestDimacs:
    def test_single_positive_unit(self):
        text = export_dimacs(CnfFormula(1, ((1,),), {}))
        assert text == "p cnf 1 1\n1 0\n"

    def test_comment_lines_carry_the_legend(self, load_model):
        loaded = load_model("mirrored_features")
        formula = encode_ftu_counterexample(loaded.constrained(), loaded.classifier)
        text = export_dimacs(formula)
        assert "c 1 x.a" in text.splitlines()[0]
        header = next(l for l in text.splitlines() if l.startswith("p "))
        assert header == f"p cnf {formula.variable_count} {len(formula.clauses)}"

    def test_export_is_stable(self, load_model):
        loaded = load_model("spouses")
        cs = loaded.constrained()
        first = export_dimacs(encode_ftu_counterexample(cs, loaded.classifier))
        second = export_dimacs(encode_ftu_counterexample(cs, loaded.classifier))
        assert first == second

    def test_round_trip_preserves_clauses(self, load_model):
        for name in ("bonus_goals", "spouses", "work_from_home"):
            loaded = load_model(name)
            formula = encode_ftu_counterexample(loaded.constrained(), loaded.classifier)
            parsed = parse_dimacs(export_dimacs(formula))
            assert parsed.variable_count == formula.variable_count
            assert parsed.clauses == formula.clauses
            assert parsed.comment_map == formula.comment_map

    def test_round_trip_preserves_verdict_on_fixtures(self, load_model, fixtures_dir):
        for path in sorted(fixtures_dir.glob("*.json")):
            loaded = load_model(path.stem)
            cs = loaded.constrained()
            formula = encode_ftu_counterexample(cs, loaded.classifier)
            reparsed = parse_dimacs(export_dimacs(formula))
            assert search(reparsed).satisfiable == (
                not check_ftu(cs, loaded.classifier, "exhaustive")[0]
            )


class TestTautologyReduction:
    def test_lifted_classifier_matches_truth_table(self):
        # guard-bit lift: protected x0 forces label 1, otherwise the DNF
        # decides; constrained FTU holds exactly when the DNF is a tautology
        rng = random.Random(97)
        taut_seen = non_taut_seen = 0
        for _ in range(40):
            nvars = rng.randint(1, 5)
            terms = random_dnf(rng, nvars)
            tautology = all(
                eval_dnf(terms, assignment)
                for assignment in itertools.product(B, repeat=nvars)
            )
            space = FeatureSpace(
                [Feature(0, "x0", B, True)]
                + [Feature(i + 1, f"x{i + 1}", B, False) for i in range(nvars)]
            )
            from fairaudit.boolexpr import Or, Var

            k = ExpressionClassifier(Or((Var(0), dnf_to_expr(terms, 1))))
            full = unconstrained(space)
            assert check_ftu(full, k, "exhaustive")[0] == tautology
            assert check_ftu(full, k, "search")[0] == tautology
            taut_seen += tautology
            non_taut_seen += not tautology
        assert taut_seen >= 3 and non_taut_seen >= 3
