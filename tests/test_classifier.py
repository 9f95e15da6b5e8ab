from __future__ import annotations

import hashlib
import itertools
import json
import random
from pathlib import Path

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
    TableClassifier,
    TreeClassifier,
    TreeLeaf,
    classifier_to_json,
    expression_to_tree,
    model_digest,
    parse_classifier,
    to_table,
)
from fairaudit.model import (
    ConstraintSet,
    Feature,
    FeatureSpace,
    canonical_document,
    pack_bits,
    parse_document,
)
from fairaudit.randmodels import random_expr, random_model, random_space

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


def test_to_table_labels_equal_evaluate(load_model):
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
    table = to_table(tree, loaded.space)
    assert set(table.labels) == {0, 1, 2}
    for k in (tree, loaded.classifier, table):
        got = to_table(k, loaded.space).labels
        assert got == tuple(k.evaluate(x) for x in itertools.product(*domains))


# spouses: m boolean, n in {0, 1, 2}; its six rows in canonical order
SPOUSE_ROWS = [[m, n, int(n == 1)] for m in B for n in (0, 1, 2)]


def _edited(*edits):
    """SPOUSE_ROWS with edits applied: (i, row) replaces row i, (i, j, v)
    sets value j of row i, (i, None) deletes row i (later edits index
    the rows left)."""
    rows = [list(r) for r in SPOUSE_ROWS]
    for edit in edits:
        if len(edit) == 3:
            rows[edit[0]][edit[1]] = edit[2]
        elif edit[1] is None:
            del rows[edit[0]]
        else:
            rows[edit[0]] = edit[1]
    return rows


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ("rows", DocumentError, "table classifier needs a 'rows' list"),
        (_edited((1, "x")), DocumentError, "table row #1 must hold 2 values and a label"),
        (_edited((2, (False, 2, 0))), DocumentError, "table row #2 must hold 2 values and a label"),
        (_edited((2, [False, 2])), DocumentError, "table row #2 must hold 2 values and a label"),
        (_edited((2, [False, 2, 0, 0])), DocumentError, "table row #2 must hold 2 values and a label"),
        (_edited((3, 1, 3)), ModelSemanticError, "value 3 is not in the domain of feature 'n'"),
        (_edited((3, 1, 1.0)), ModelSemanticError, "value 1.0 is not in the domain of feature 'n'"),
        (_edited((0, 0, 1)), ModelSemanticError, "value 1 is not in the domain of feature 'm'"),
        (_edited((4, 1, True)), ModelSemanticError, "value True is not in the domain of feature 'n'"),
        (_edited((4, 2, -1)), DocumentError, "table row #4: label must be a non-negative integer"),
        (_edited((4, 2, 1.0)), DocumentError, "table row #4: label must be a non-negative integer"),
        (_edited((4, 2, True)), DocumentError, "table row #4: label must be a non-negative integer"),
        (_edited((5, 2, "1")), DocumentError, "table row #5: label must be a non-negative integer"),
        (_edited((4, 0, False)), DocumentError, "table row #4 repeats instance (False, 1)"),
        # the first bad row wins, whichever check finds it
        (_edited((4, 0, False), (5, 1, 7)), DocumentError, "table row #4 repeats instance (False, 1)"),
        (_edited((2, 2, -1), (4, 0, False)), DocumentError, "table row #2: label must be a non-negative integer"),
        (_edited((3, 1, 1), (5, 2, None)), DocumentError, "table row #4 repeats instance (True, 1)"),
        (_edited((4, None)), DocumentError, "table misses a row for instance (True, 1)"),
        (_edited((4, None), (1, None)), DocumentError, "table misses a row for instance (False, 1)"),
        ([], DocumentError, "table misses a row for instance (False, 0)"),
        (_edited((2, 2, 5)), ModelSemanticError, "label 5 out of range"),
    ],
)
def test_table_refusals_read_as_pinned(load_model, rows, error, message):
    space = load_model("spouses").space
    with pytest.raises(error) as caught:
        parse_classifier({"form": "table", "rows": rows, "classes": 3}, space)
    assert str(caught.value) == message


def test_table_rows_may_come_in_any_order(load_model):
    space = load_model("spouses").space
    canonical = parse_classifier({"form": "table", "rows": SPOUSE_ROWS}, space)
    assert canonical.labels == (0, 1, 0, 0, 1, 0)
    shuffled = SPOUSE_ROWS[:]
    random.Random(3).shuffle(shuffled)
    for rows in (SPOUSE_ROWS[::-1], shuffled):
        assert parse_classifier({"form": "table", "rows": rows}, space) == canonical
    missing = [r for r in shuffled if r != [True, 2, 0]]
    with pytest.raises(DocumentError, match=r"misses a row for instance \(True, 2\)"):
        parse_classifier({"form": "table", "rows": missing}, space)


ZEROS = (False,) * 40
ONE = (False,) * 39 + (True,)


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([], DocumentError, f"table misses a row for instance {ZEROS!r}"),
        ([[*ONE, 1], [*ZEROS, 0]], DocumentError,
         f"table misses a row for instance {(False,) * 38 + (True, False)!r}"),
        ([[*ZEROS, 1], [*ZEROS, 0]], DocumentError, f"table row #1 repeats instance {ZEROS!r}"),
        ([[*ZEROS, 1], [*ZEROS[:-1], 1, 0]], ModelSemanticError,
         "value 1 is not in the domain of feature 'f39'"),
    ],
)
def test_a_table_over_2_to_the_40_instances_is_refused_at_its_rows(rows, error, message):
    """Nothing is sized by the full space before the rows are known to
    cover it, so these refusals cost what the rows do."""
    space, _ = _shared_chain(40)
    with pytest.raises(error) as caught:
        parse_classifier({"form": "table", "rows": rows}, space)
    assert str(caught.value) == message


def _leaf(i, label):
    return {"id": i, "label": label}


def _test(i, feature, value, if_true, if_false):
    return {"id": i, "feature": feature, "value": value, "if_true": if_true, "if_false": if_false}


@pytest.mark.parametrize(
    "nodes, error, message",
    [
        ([], DocumentError, "tree classifier needs a non-empty 'nodes' list"),
        ({"id": 0}, DocumentError, "tree classifier needs a non-empty 'nodes' list"),
        ([_leaf(0, 0), "x"], DocumentError, "tree node #1 must be an object with an integer 'id'"),
        ([{"id": "0", "label": 0}], DocumentError, "tree node #0 must be an object with an integer 'id'"),
        ([{"id": True, "label": 0}], DocumentError, "tree node #0 must be an object with an integer 'id'"),
        ([_leaf(0, -1)], DocumentError, "tree node #0: label must be a non-negative integer"),
        ([_leaf(0, 1.0)], DocumentError, "tree node #0: label must be a non-negative integer"),
        ([{"id": 0, "feature": "m", "value": True, "if_true": 1}, _leaf(1, 0)],
         DocumentError, "tree node #0 misses 'if_false'"),
        ([_test(0, 1, True, 1, 1), _leaf(1, 0)], DocumentError, "tree node #0: 'feature' must be a name"),
        ([_test(0, "m", True, 1, "1"), _leaf(1, 0)], DocumentError, "tree node #0: edges must be integer ids"),
        ([_test(0, "m", True, 1.0, 1), _leaf(1, 0)], DocumentError, "tree node #0: edges must be integer ids"),
        ([_test(0, "z", True, 1, 1), _leaf(1, 0)], ModelSemanticError, "tree node #0: unknown feature 'z'"),
        ([_test(0, "m", 1, 1, 1), _leaf(1, 0)], ModelSemanticError,
         "tree node #0: value 1 is outside the domain of 'm'"),
        ([_test(0, "n", True, 1, 1), _leaf(1, 0)], ModelSemanticError,
         "tree node #0: value True is outside the domain of 'n'"),
        ([_test(0, "n", 3, 1, 1), _leaf(1, 0)], ModelSemanticError,
         "tree node #0: value 3 is outside the domain of 'n'"),
        ([_test(0, "m", True, 1, 2), _leaf(1, 0), _leaf(1, 1)], ModelSemanticError,
         "duplicate tree node id 1"),
        ([_test(0, "m", True, 1, 2), _leaf(1, 0)], ModelSemanticError, "tree edge points to missing node 2"),
        ([_test(0, "m", True, 1, 2), _test(1, "n", 0, 2, 0), _leaf(2, 0)], ModelSemanticError,
         "tree contains a cycle"),
        ([_test(0, "m", True, 1, 2), _leaf(1, 0), _leaf(2, 3)], ModelSemanticError, "leaf label 3 out of range"),
        ([_test(0, "n", 1, 1, 2), _leaf(1, 0), _test(2, "n", 1, 1, 1)], ModelSemanticError,
         "path tests feature 1 = 1 twice"),
        # node 3 is first reached through n = 0 and is fine there; the
        # path through n = 2 reaches it again and repeats its first test
        ([_test(0, "n", 0, 1, 2), _test(1, "m", True, 3, 3), _test(2, "n", 2, 3, 3),
          _test(3, "m", False, 4, 5), _test(4, "n", 2, 6, 6), _leaf(5, 0), _leaf(6, 1)],
         ModelSemanticError, "path tests feature 1 = 2 twice"),
    ],
)
def test_tree_refusals_read_as_pinned(load_model, nodes, error, message):
    space = load_model("spouses").space
    with pytest.raises(error) as caught:
        parse_classifier({"form": "tree", "nodes": nodes, "classes": 3}, space)
    assert str(caught.value) == message


def test_a_tree_root_that_is_not_a_node_is_refused():
    with pytest.raises(ModelSemanticError) as caught:
        TreeClassifier((TreeLeaf(0, 1),), 1, 2)
    assert str(caught.value) == "tree root 1 is not a node"


def _shared_chain(n: int) -> tuple:
    """Tests f0 .. f{n-1}, both branches of each pointing at the next;
    2 ** n paths over n + 1 nodes."""
    names = [f"f{i}" for i in range(n)]
    doc = {
        "features": [{"name": name, "domain": [False, True]} for name in names],
        "classifier": {
            "form": "tree",
            "nodes": [_test(i, name, True, i + 1, i + 1) for i, name in enumerate(names)]
            + [_leaf(n, 1)],
        },
    }
    space, _, k_obj = parse_document(json.dumps(doc))
    return space, k_obj


def test_a_tree_with_shared_nodes_parses_without_walking_every_path():
    space, k_obj = _shared_chain(40)
    k = parse_classifier(k_obj, space)  # 2 ** 40 paths
    assert len(k.nodes) == 41
    space, k_obj = _shared_chain(12)
    k = parse_classifier(k_obj, space)
    cs = unconstrained(space)
    assert cs.label_masks(k) == {1: cs.sel}
    # a shared node below a test it repeats is refused at the repeat
    k_obj["nodes"][11] = _test(11, "f3", True, 12, 12)
    with pytest.raises(ModelSemanticError, match="path tests feature 3 = True twice"):
        parse_classifier(k_obj, space)


def test_label_masks_of_a_tree_with_shared_nodes_match_evaluate(random_shared_tree):
    rng = random.Random(5)
    for _ in range(40):
        space = random_space(rng, max_features=5)
        k = random_shared_tree(rng, space)
        assert to_table(k, space).labels == tuple(
            k.evaluate(x) for x in itertools.product(*(f.domain for f in space.features))
        )


@pytest.mark.parametrize("classes", [2, 3, 256, 300])
def test_table_label_masks_match_a_pass_per_label(classes):
    # labels up to 255 are read off their bytes; 300 classes give a
    # label no byte holds, which takes the pass per label
    rng = random.Random(classes)
    space = FeatureSpace(
        [
            Feature(0, "a", B, True),
            Feature(1, "n", tuple(range(10)), False),
            Feature(2, "m", tuple(range(32)), False),
        ]
    )
    labels = (classes - 1, *(rng.randrange(classes) for _ in range(639)))
    k = TableClassifier(tuple(f.domain for f in space.features), labels, classes)
    assert unconstrained(space).label_masks(k) == {
        c: pack_bits(map(c.__eq__, labels)) for c in sorted(set(labels))
    }
    assert to_table(k, space).labels == k.labels


def _reference_digest(space, constraints, k) -> str:
    doc = canonical_document(space, constraints, classifier_to_json(k, space))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


FIXTURE_MODELS = sorted(
    p.stem for p in (Path(__file__).resolve().parent.parent / "fixtures").glob("*.json")
)


@pytest.mark.parametrize("name", FIXTURE_MODELS)
def test_model_digest_of_each_fixture_matches_the_canonical_document(load_model, name):
    loaded = load_model(name)
    for constraints in (loaded.constraints, ConstraintSet()):
        assert model_digest(loaded.space, constraints, loaded.classifier) == _reference_digest(
            loaded.space, constraints, loaded.classifier
        )


def test_model_digest_of_random_models_matches_the_canonical_document():
    forms = set()
    for seed in range(300):  # the seeds scripts/audit_all_fixtures.py pins
        m = random_model(random.Random(seed), max_features=7, max_domain=5)
        forms.add(type(m.classifier).__name__)
        got = model_digest(m.space, m.constraints, m.classifier)
        assert got == _reference_digest(m.space, m.constraints, m.classifier), seed
    assert forms == {"ExpressionClassifier", "TableClassifier", "TreeClassifier"}


def test_model_digest_of_a_multiclass_tree_and_a_shuffled_table(load_model):
    loaded = load_model("spouses")
    space, constraints = loaded.space, loaded.constraints
    nodes = [
        _test(0, "n", 0, 1, 2), _leaf(1, 0), _test(2, "m", True, 3, 4), _leaf(3, 1), _leaf(4, 2),
    ]
    tree = parse_classifier({"form": "tree", "nodes": nodes, "classes": 4}, space)
    assert model_digest(space, constraints, tree) == _reference_digest(space, constraints, tree)
    rows = [r[:-1] + [2 * r[-1]] for r in SPOUSE_ROWS]
    random.Random(1).shuffle(rows)
    table = parse_classifier({"form": "table", "rows": rows}, space)
    assert table.class_count == 3
    want = _reference_digest(space, constraints, table)
    assert model_digest(space, constraints, table) == want
    canonical = parse_classifier(classifier_to_json(table, space), space)
    assert model_digest(space, constraints, canonical) == want
