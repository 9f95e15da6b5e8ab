from __future__ import annotations

import itertools
import random

import pytest

from fairaudit import (
    DocumentError,
    ExpressionClassifier,
    ModelSemanticError,
    equivalent_on,
    evaluate,
    parse_expr,
    unconstrained,
)
from fairaudit.classifier import (
    classifier_to_json,
    expression_to_tree,
    parse_classifier,
    to_table,
)
from fairaudit.randmodels import random_expr, random_space

B = (False, True)


def test_bonus_model_evaluation(load_model):
    loaded = load_model("bonus_goals")
    k = loaded.classifier
    assert k.evaluate((True, False, True)) == 1
    assert k.evaluate((False, False, True)) == 0


def test_constant_expression_classifier(load_model):
    space = load_model("bonus_goals").space
    k = ExpressionClassifier(parse_expr("true", space))
    for x in itertools.product(B, B, B):
        assert k.evaluate(x) == 1


def test_work_from_home_evaluation(load_model):
    k = load_model("work_from_home").classifier
    assert k.evaluate((True, True, True, True)) == 0
    assert k.evaluate((False, True, True, False)) == 1


def test_evaluate_validates_instances(load_model):
    loaded = load_model("bonus_goals")
    with pytest.raises(ModelSemanticError):
        evaluate(loaded.space, loaded.classifier, (True, False))
    with pytest.raises(ModelSemanticError):
        evaluate(loaded.space, loaded.classifier, (True, False, 3))


def test_equivalence_under_constraints(load_model):
    loaded = load_model("bonus_goals")
    g_only = ExpressionClassifier(parse_expr("g", loaded.space))
    same, witness = equivalent_on(loaded.classifier, g_only, loaded.constrained())
    assert same and witness is None
    same, witness = equivalent_on(loaded.classifier, g_only, loaded.full())
    assert not same
    assert witness == (False, False, True)
    # symmetry and reflexivity
    assert equivalent_on(g_only, loaded.classifier, loaded.full())[0] is False
    assert equivalent_on(loaded.classifier, loaded.classifier, loaded.full()) == (
        True,
        None,
    )


def test_cross_form_agreement_on_random_expressions():
    rng = random.Random(7)
    for _ in range(25):
        space = random_space(rng, max_features=5)
        expr = random_expr(rng, space, tuple(range(space.n)))
        base = ExpressionClassifier(expr)
        table = to_table(base, space)
        tree = expression_to_tree(expr, space)
        for x in unconstrained(space).instances:
            assert base.evaluate(x) == table.evaluate(x) == tree.evaluate(x)


def test_table_document_round_trip(load_model):
    loaded = load_model("spouses")
    table = to_table(loaded.classifier, loaded.space)
    obj = classifier_to_json(table, loaded.space)
    parsed = parse_classifier(obj, loaded.space)
    assert parsed == table


def test_tree_document_round_trip(load_model):
    loaded = load_model("sick_leave")
    tree = expression_to_tree(loaded.classifier.expr, loaded.space)
    obj = classifier_to_json(tree, loaded.space)
    parsed = parse_classifier(obj, loaded.space)
    for x in loaded.full().instances:
        assert parsed.evaluate(x) == tree.evaluate(x)


def test_table_must_cover_the_full_space(load_model):
    loaded = load_model("implied_pair")
    rows = [[False, False, 0], [False, True, 0], [True, False, 0]]
    with pytest.raises(DocumentError, match="misses a row"):
        parse_classifier({"form": "table", "rows": rows}, loaded.space)
    rows = rows + [[True, True, 1], [True, True, 1]]
    with pytest.raises(DocumentError, match="repeats"):
        parse_classifier({"form": "table", "rows": rows}, loaded.space)


def test_tree_rejects_cycles_and_repeated_tests(load_model):
    space = load_model("implied_pair").space
    nodes = [
        {"id": 0, "feature": "a", "value": True, "if_true": 1, "if_false": 0},
        {"id": 1, "label": 1},
    ]
    with pytest.raises(ModelSemanticError, match="cycle"):
        parse_classifier({"form": "tree", "nodes": nodes}, space)
    nodes = [
        {"id": 0, "feature": "a", "value": True, "if_true": 1, "if_false": 2},
        {"id": 1, "feature": "a", "value": True, "if_true": 3, "if_false": 3},
        {"id": 2, "label": 0},
        {"id": 3, "label": 1},
    ]
    with pytest.raises(ModelSemanticError, match="twice"):
        parse_classifier({"form": "tree", "nodes": nodes}, space)


def test_multiclass_tree(load_model):
    space = load_model("spouses").space  # m bool, n in {0,1,2}
    nodes = [
        {"id": 0, "feature": "n", "value": 0, "if_true": 1, "if_false": 2},
        {"id": 1, "label": 0},
        {"id": 2, "feature": "n", "value": 1, "if_true": 3, "if_false": 4},
        {"id": 3, "label": 1},
        {"id": 4, "label": 2},
    ]
    k = parse_classifier({"form": "tree", "nodes": nodes, "classes": 3}, space)
    assert k.class_count == 3
    assert k.evaluate((False, 0)) == 0
    assert k.evaluate((True, 1)) == 1
    assert k.evaluate((True, 2)) == 2


def test_rank_labels_can_be_read_twice(load_model):
    from fairaudit.model import rank_masks

    loaded = load_model("spouses")  # m bool, n in {0,1,2}
    domains = [f.domain for f in loaded.space.features]
    nodes = [
        {"id": 0, "feature": "n", "value": 0, "if_true": 1, "if_false": 2},
        {"id": 1, "label": 0},
        {"id": 2, "feature": "m", "value": True, "if_true": 3, "if_false": 4},
        {"id": 3, "label": 1},
        {"id": 4, "label": 2},
    ]
    tree = parse_classifier({"form": "tree", "nodes": nodes}, loaded.space)
    expected = [tree.evaluate(x) for x in itertools.product(*domains)]
    assert set(expected) == {0, 1, 2}
    for k in (tree, loaded.classifier, to_table(loaded.classifier, loaded.space)):
        ranked = k.rank_labels(rank_masks(domains), len(expected))
        first, second = list(ranked), list(ranked)
        assert first == second == [k.evaluate(x) for x in itertools.product(*domains)]
