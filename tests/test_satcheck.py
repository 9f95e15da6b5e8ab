from __future__ import annotations

import itertools
import random

import pytest

from fairaudit import (
    CnfFormula,
    ExpressionClassifier,
    check_ftu,
    decode_model,
    encode_ftu_counterexample,
    enumerate_space,
    export_dimacs,
    parse_dimacs,
    parse_expr,
    search,
    unconstrained,
)
from fairaudit.boolexpr import evaluate_mask
from fairaudit.classifier import expression_to_tree, parse_classifier, to_table
from fairaudit.model import Feature, FeatureSpace, parse_document, rank_masks
from fairaudit.randmodels import dnf_to_expr, eval_dnf, random_dnf, random_model
from fairaudit.satcheck import TABLE_LIMIT, _class_formulas

B = (False, True)


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

    def test_class_formulas_of_a_chain_deeper_than_the_recursion_limit(
        self, chain_tree_document
    ):
        space, _, k_obj = parse_document(chain_tree_document)
        k = parse_classifier(k_obj, space)
        formulas = _class_formulas(k, space)
        # each formula over all 3,002 ranks at once, then spot checks
        domains = [f.domain for f in space.features]
        ones = (1 << space.full_size()) - 1
        got = [evaluate_mask(f, rank_masks(domains), ones) for f in formulas]
        assert got[0] ^ got[1] == ones
        instances = list(itertools.product(*domains))
        rng = random.Random(3)
        edges = [2 * n + m for n in (0, 1, 699, 700, 701, 1499, 1500) for m in (0, 1)]
        for r in edges + rng.sample(range(len(instances)), 100):
            label = k.evaluate(instances[r])
            assert [g >> r & 1 for g in got] == [c == label for c in range(2)]

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
